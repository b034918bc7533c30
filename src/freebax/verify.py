"""Constructive witnesses and the check suites of ``freebax verify``:
zero-divisor products, nilpotents, the nilradical at weight zero, the
reducedness conditions, and the randomized identity probes behind them.

Every check returns a ``WitnessReport``.  A passing one is backed by a
residual that is identically zero (or by an explicitly stated probe); the
inputs are serialized into it so a reader can re-parse and re-check them.
"""
from __future__ import annotations

import random
from math import factorial, isqrt

from . import sequences as sq
from . import series as sr
from ._record import record
from .ideals import baxter_ideal_member, reduce_mod, reduce_vars, scalar_ideal, variable_ideal
from .poly import UNIT_MONOMIAL, Monomial
from .rings import INT, RAT, Coeff, Ring, Zmod, characteristic, inverse, is_nilpotent, is_prime
from .rings import is_unit as coeff_is_unit
from .rings import is_zero_divisor as coeff_is_zero_divisor
from .series import DEFAULT_PRECISION
from .shuffle import (
    Context,
    Element,
    baxter_P,
    element,
    closed_form_unit_product,
    enumerate_mixable_shuffles,
    from_raw,
    lambda_adic_valuation,
    one,
    scalar,
    shuffle_product,
    shuffle_product_enumerated,
    unit_word,
)

DEFAULT_SEED = 20317


class PreconditionError(ValueError):
    """A witness was requested outside the hypotheses it needs."""


@record
class WitnessReport:
    claim: str
    inputs: tuple[tuple[str, str], ...]
    verdict: bool
    detail: str

    def to_obj(self):
        return {
            "claim": self.claim,
            "inputs": {k: v for k, v in self.inputs},
            "verdict": "pass" if self.verdict else "fail",
            "detail": self.detail,
        }

    def line(self) -> str:
        return f"{'PASS' if self.verdict else 'FAIL'}  {self.claim}: {self.detail}"


def _report(claim, inputs, verdict, detail) -> WitnessReport:
    return WitnessReport(claim, tuple((k, str(v)) for k, v in inputs), verdict, detail)


def _first_failure(claim, inputs, passed: str, failures, describe) -> WitnessReport:
    """FAIL with ``describe`` of the first item of ``failures``, which is
    drawn no further, or PASS with the text ``passed`` when it is empty."""
    for bad in failures:
        return _report(claim, inputs, False, describe(bad))
    return _report(claim, inputs, True, passed)


# --- randomized element generation (fixed seeds make probes reproducible) ---

def random_coeff(rng: random.Random, ring: Ring) -> Coeff:
    if ring.kind == "mod":
        return ring.coeff(rng.randrange(ring.modulus))
    return ring.coeff(rng.randint(-4, 4))


def random_monomial(rng: random.Random, ctx: Context) -> Monomial:
    exps: dict[str, int] = {}
    for v in ctx.variables:
        e = rng.randint(0, 2)
        if e:
            exps[v] = e
    return Monomial.of(**exps)


def random_element(
    rng: random.Random,
    ctx: Context,
    max_terms: int = 3,
    max_word_len: int = 3,
) -> Element:
    acc: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        word = tuple(random_monomial(rng, ctx) for _ in range(rng.randint(1, max_word_len)))
        acc[word] = acc.get(word, 0) + ctx.ring.raw(random_coeff(rng, ctx.ring))
    return from_raw(ctx, acc)


def _random_pairs(rng: random.Random, ctx: Context, n: int):
    """n pairs of default-shaped nonzero random elements, each drawn left
    first: a zero member would satisfy every probed identity trivially."""
    for _ in range(n):
        a = random_nonzero_element(rng, ctx)
        yield a, random_nonzero_element(rng, ctx)


def random_nonzero_element(rng, ctx, **kw) -> Element:
    while True:
        a = random_element(rng, ctx, **kw)
        if not a.is_zero():
            return a


# --- individual witnesses ---

def charp_zero_divisor_witness(p: int, lam_value: int) -> WitnessReport:
    """Over the ring mod a prime p with nonzero weight, the product of the
    p elements  i*lam*1 + (unit word of degree 1)  vanishes while every
    factor is nonzero; cross-checked entrywise through the sequence model.
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    ring = Zmod(p)
    lam = ring.coeff(lam_value)
    if lam.is_zero():
        raise PreconditionError("the weight must be nonzero mod p")
    ctx = Context(ring, lam)
    factors = [scalar(ctx, lam.value * i) + unit_word(ctx, 1) for i in range(p)]
    product = one(ctx)
    for f in factors:
        product = shuffle_product(product, f)
    nonzero = all(not f.is_zero() for f in factors)
    length = 2 * p + 1
    seq_product = sq.seq_one(ctx, length)
    for f in factors:
        seq_product = seq_product * sq.phi(f, length)
    ok = product.is_zero() and nonzero and seq_product.is_zero()
    return _report(
        f"charp-zero-divisor p={p} lambda={lam}",
        [(f"factor{i}", f) for i, f in enumerate(factors)],
        ok,
        f"product = {product}; sequence image zero through entry {length}: {seq_product.is_zero()}",
    )


def weight0_nilpotent_witness(q: int) -> WitnessReport:
    """At weight zero over the ring mod q, the q-th power of the degree-1
    unit word vanishes; on the way every lower power equals the factorial
    closed form."""
    if q < 2:
        raise PreconditionError("the characteristic must be at least 2")
    ring = Zmod(q)
    ctx = Context(ring, ring.zero())
    u = unit_word(ctx, 1)
    closed_ok = True
    final = u  # u ** k at step k
    for k in range(1, q):
        if final != unit_word(ctx, k).scaled(factorial(k)):
            closed_ok = False
        final = final * u
    ok = closed_ok and final.is_zero()
    return _report(
        f"weight0-nilpotent q={q}",
        [("base", u)],
        ok,
        f"power {q} = {final}; factorial closed form held below {q}: {closed_ok}",
    )


def nilradical_member_weight0(a: Element) -> bool:
    """At weight zero over a ring of positive characteristic, an element is
    nilpotent exactly when its degree-0 part is a nilpotent polynomial (all
    higher-degree parts are nilpotent outright)."""
    if characteristic(a.ctx.ring) == 0:
        raise PreconditionError("the nilradical description needs positive characteristic")
    if not a.ctx.lam.is_zero():
        raise PreconditionError("the nilradical description needs weight zero")
    coeff = a.ring.coeff
    return all(is_nilpotent(coeff(v)) for w, v in a.raw_items() if len(w) == 1)


def complete_zero_divisor_witness(ctx: Context, precision: int) -> WitnessReport:
    """When the weight is a unit, the degree-1 unit word annihilates the
    geometric series with ratio -1/lambda in the completion."""
    if not coeff_is_unit(ctx.lam):
        raise PreconditionError(f"lambda = {ctx.lam} is not a unit in {ctx.ring}")
    x = sr.embed(unit_word(ctx, 1), precision)
    y = sr.geometric_unit_series(ctx, -inverse(ctx.lam), precision)
    product = sr.complete_product(x, y)
    ok = product.is_zero() and not x.is_zero() and not y.is_zero()
    return _report(
        f"complete-zero-divisor ring={ctx.ring} lambda={ctx.lam} precision={precision}",
        [("x", x), ("y", y)],
        ok,
        f"x*y = {product}",
    )


def _alternating_series(ctx: Context, precision: int, odd_sign: int, constant: int) -> sr.Series:
    comps = {}
    if constant:
        comps[0] = scalar(ctx, constant)
    for n in range(1, precision + 1):
        sign = odd_sign if n % 2 == 1 else -odd_sign
        comps[n] = unit_word(ctx, n).scaled(sign)
    return sr.make_series(ctx, precision, comps)


def integer_lambda2_witness(precision: int) -> WitnessReport:
    """Over the integers at weight 2 the two alternating unit series
    multiply to zero, even though 2 is not a unit; their sequence-model
    images interlace as (0, 2, 0, 2, ...) and (2, 0, 2, 0, ...), so the
    entrywise product vanishes as well."""
    ring = INT
    ctx = Context(ring, ring.coeff(2))
    x = _alternating_series(ctx, precision, odd_sign=1, constant=0)
    y = _alternating_series(ctx, precision, odd_sign=-1, constant=2)
    product = sr.complete_product(x, y)

    length = min(precision, 20)
    px = sq.phi_series(x, length)
    py = sq.phi_series(y, length)
    two = sq.bar_scalar(ring, ring.coeff(2))
    zero_bar = sq.bar_zero(ring)
    pattern_x = all(
        px.entry(k) == (zero_bar if k % 2 == 1 else two) for k in range(1, length + 1)
    )
    pattern_y = all(
        py.entry(k) == (two if k % 2 == 1 else zero_bar) for k in range(1, length + 1)
    )
    entrywise = (px * py).is_zero()

    head_only = sr.make_series(ctx, precision, {1: unit_word(ctx, 1)})
    truncated_nonzero = not sr.complete_product(head_only, y).is_zero()

    ok = product.is_zero() and pattern_x and pattern_y and entrywise and truncated_nonzero
    return _report(
        f"integer-lambda2 precision={precision}",
        [("x", x), ("y", y)],
        ok,
        f"x*y = {product}; image patterns (0,2)/(2,0): {pattern_x and pattern_y}; "
        f"entrywise image product zero: {entrywise}; "
        f"head of x alone does not annihilate y: {truncated_nonzero}",
    )


def lemma_power_suite(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION, trials=20) -> list[WitnessReport]:
    """At weight zero, the two factorial power identities: iterating
    y -> P(x*y) n times from the unit satisfies
    (iterate n) * (iterate 1) = (n+1) * (iterate n+1)  and
    P(x)^n = n! * (iterate n).  It takes the suite signature; the
    precision is not read."""

    def failures(ring):
        ctx = Context(ring, ring.zero(), ("x", "y"))
        rng = random.Random(f"{seed}:{ring}")
        for _ in range(trials):
            x = random_element(rng, ctx, max_terms=2, max_word_len=2)
            p_of_x = baxter_P(x)  # also the iterate at n = 1: P(x * 1)
            pn = one(ctx)
            ppow = one(ctx)
            for n in range(6):
                pnext = baxter_P(shuffle_product(x, pn))
                if shuffle_product(pn, p_of_x) != pnext.scaled(n + 1):
                    yield "product-identity", n, x
                if ppow != pn.scaled(factorial(n)):
                    yield "factorial-identity", n, x
                pn = pnext
                ppow = shuffle_product(ppow, p_of_x)

    return [
        _first_failure(f"lemma-power ring={ring}", [("trials", trials)], "both identities held for n <= 5",
                       failures(ring), lambda f: "{} failed at n = {}, x = {}".format(*f))
        for ring in (RAT, Zmod(9))
    ]


def _squarefree(m: int) -> bool:
    return all(m % (d * d) for d in range(2, isqrt(m) + 1))


def reducedness_conditions(ctx: Context) -> str:
    """"satisfied" when the sufficient conditions for reducedness in positive
    characteristic hold (nonzero weight, weight not a zero divisor, reduced
    coefficients), else "conditions-fail"; "out-of-scope" in characteristic 0."""
    char = characteristic(ctx.ring)
    if char == 0:
        return "out-of-scope"
    if ctx.lam.is_zero() or coeff_is_zero_divisor(ctx.lam) or not _squarefree(char):
        return "conditions-fail"
    return "satisfied"


# --- suites ---

def _identity_residual(x: Element, y: Element) -> Element:
    lam = x.ctx.lam
    lhs = shuffle_product(baxter_P(x), baxter_P(y))
    rhs = (
        baxter_P(shuffle_product(x, baxter_P(y)))
        + baxter_P(shuffle_product(y, baxter_P(x)))
        + baxter_P(shuffle_product(x, y)).scaled(lam)
    )
    return lhs - rhs


BAXTER_IDENTITY_CONFIGS = (
    (INT, 0),
    (INT, 1),
    (INT, 2),
    (RAT, 1),
    (Zmod(9), 0),
    (Zmod(9), 3),
)


def suite_baxter_identity(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION, pairs=200):
    def residuals(ring, lam):
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        for x, y in _random_pairs(random.Random(f"{seed}:{ring}:{lam}"), ctx, pairs):
            residual = _identity_residual(x, y)
            if not residual.is_zero():
                yield residual

    return [
        _first_failure(f"baxter-identity ring={ring} lambda={lam}", [("pairs", pairs)],
                       f"residual 0 on {pairs} random pairs", residuals(ring, lam), "residual {}".format)
        for ring, lam in BAXTER_IDENTITY_CONFIGS
    ]


def suite_prop_unit(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION):
    """The closed form, the kernel and the enumeration agree on products of
    unit words.  The kernel sums all-unit tails by Pascal's rule on rows,
    so the closed form and the enumeration are independent referees."""
    def mismatches(ctx):
        for m in range(7):
            for n in range(7):
                a, b = unit_word(ctx, m), unit_word(ctx, n)
                closed = closed_form_unit_product(ctx, m, n)
                if not shuffle_product(a, b) == closed == shuffle_product_enumerated(a, b):
                    yield m, n

    return [
        _first_failure(f"prop-unit lambda={lam}", [("range", "m, n <= 6")],
                       "closed form = computed product = enumeration",
                       mismatches(Context(INT, INT.coeff(lam))), "mismatch at {}".format)
        for lam in (0, 1, 2, 5)
    ]


def _delannoy(m: int, n: int) -> int:
    if m == 0 or n == 0:
        return 1
    return _delannoy(m - 1, n) + _delannoy(m, n - 1) + _delannoy(m - 1, n - 1)


def suite_oracle_equivalence(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION):
    """Recursion equals enumeration on generic words, and the enumerator's
    counts satisfy the three-term lattice-path recursion."""
    counts = (
        (m, n) for m in range(7) for n in range(7) if len(enumerate_mixable_shuffles(m, n)) != _delannoy(m, n)
    )

    def products():
        names = tuple("abcdefghij")
        for lam in (0, 1, 2):
            ctx = Context(INT, INT.coeff(lam), names)
            for m in range(5):
                for n in range(5):
                    wa = tuple(Monomial.of(**{names[i]: 1}) for i in range(m + 1))
                    wb = tuple(Monomial.of(**{names[m + 1 + j]: 1}) for j in range(n + 1))
                    a = element(ctx, {wa: INT.one()})
                    b = element(ctx, {wb: INT.one()})
                    if shuffle_product(a, b) != shuffle_product_enumerated(a, b):
                        yield lam, m, n

    return [
        _first_failure("mixable-shuffle-counts", [("range", "m, n <= 6")],
                       "enumeration sizes match the lattice-path recursion", counts, "size mismatch at {}".format),
        _first_failure("product-oracle-equivalence", [("range", "m, n <= 4; lambda in {0,1,2}")],
                       "recursion = enumeration", products(), "mismatch at {}".format),
    ]


def suite_charp(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION):
    return [
        charp_zero_divisor_witness(p, lam)
        for p in (2, 3, 5, 7)
        for lam in range(1, p)
    ]


def suite_weight0_nilpotent(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION):
    return [weight0_nilpotent_witness(q) for q in (2, 3, 4, 5, 9)]


def suite_complete_zero_divisor(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION):
    n = max(precision, 20)
    return [
        complete_zero_divisor_witness(Context(RAT, RAT.coeff(1)), n),
        complete_zero_divisor_witness(Context(Zmod(5), Zmod(5).coeff(2)), n),
    ]


def suite_int_lambda2(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION):
    return [integer_lambda2_witness(max(precision, 20))]


def suite_phi_homomorphism(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION, pairs=100):
    length = 10

    def constants():
        for lam in (0, 1, 2, 3):
            ctx = Context(INT, INT.coeff(lam))
            for top in range(11):
                rng = random.Random(f"{seed}:{lam}:{top}")
                bs = [random_coeff(rng, INT) for _ in range(top + 1)]
                combo = element(ctx, {(UNIT_MONOMIAL,) * (n + 1): b for n, b in enumerate(bs)})
                if sq.phi(combo, length) != sq.phi_constants(ctx, bs, length):
                    yield lam, top

    def homomorphism(ring, lam):
        ctx = Context(ring, ring.coeff(lam), ("x", "y"))
        for a, b in _random_pairs(random.Random(f"{seed}:{ring}:{lam}:hom"), ctx, pairs):
            pa, pb = sq.phi(a, length), sq.phi(b, length)
            if sq.phi(shuffle_product(a, b), length) != pa * pb:
                yield "multiplicative", a, b
            if sq.phi(baxter_P(a), length) != sq.p_prime(pa):
                yield "operator", a, b

    return [
        _first_failure("phi-constants-closed-form", [("range", "indices <= 10; lambda in {0,1,2,3}")],
                       "recursive phi = closed form", constants(), "mismatch at {}".format),
    ] + [
        _first_failure(f"phi-homomorphism ring={ring} lambda={lam}", [("pairs", pairs), ("length", length)],
                       "multiplicative and operator-compatible", homomorphism(ring, lam),
                       lambda f: "failed: {}; a = {}, b = {}".format(*f))
        for ring, lam in ((INT, 1), (INT, 2), (RAT, 1))
    ]


def suite_ideal_quotient(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION, pairs=100):
    def mod_failures():
        ctx = Context(INT, INT.coeff(2), ("x", "y"))
        for a, b in _random_pairs(random.Random(f"{seed}:mod"), ctx, pairs):
            for m in (4, 5):
                if reduce_mod(shuffle_product(a, b), m) != shuffle_product(reduce_mod(a, m), reduce_mod(b, m)):
                    yield f"product mod {m}", a, b
                if reduce_mod(baxter_P(a), m) != baxter_P(reduce_mod(a, m)):
                    yield f"operator mod {m}", a, b

    def vars_failures():
        ctx = Context(INT, INT.coeff(1), ("x", "y", "z"))
        spec = variable_ideal("x")
        for a, b in _random_pairs(random.Random(f"{seed}:vars"), ctx, pairs):
            if reduce_vars(shuffle_product(a, b), ("x",)) != shuffle_product(
                reduce_vars(a, ("x",)), reduce_vars(b, ("x",))
            ):
                yield "product", a, b
            if reduce_vars(baxter_P(a), ("x",)) != baxter_P(reduce_vars(a, ("x",))):
                yield "operator", a, b
            if reduce_vars(a, ("x",)).is_zero() != baxter_ideal_member(a, spec):
                yield "kernel", a, b

    def scalar_failures():
        ctx = Context(INT, INT.coeff(2), ("x",))
        rng = random.Random(f"{seed}:scalar")
        spec = scalar_ideal(INT.coeff(2))
        for _ in range(pairs):
            a = random_element(rng, ctx)
            if baxter_ideal_member(a, spec) != (lambda_adic_valuation(a) >= 1):
                yield a

    def on_pair(f):
        return "failed {}; a = {}, b = {}".format(*f)

    return [
        _first_failure("quotient-mod-homomorphism", [("pairs", pairs), ("moduli", "4, 5")],
                       "reduction commutes with product and operator", mod_failures(), on_pair),
        _first_failure("quotient-vars-homomorphism", [("pairs", pairs), ("killed", "x")],
                       "reduction is a homomorphism with the predicted kernel", vars_failures(), on_pair),
        _first_failure("scalar-membership-valuation", [("pairs", pairs), ("generator", 2)],
                       "membership in (2) = valuation >= 1", scalar_failures(), "failed on {}".format),
    ]


REDUCEDNESS_CONFIGS = ((Zmod(5), 2), (Zmod(6), 1), (Zmod(7), 3))


def suite_reducedness(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION):
    """Where the reducedness conditions hold, no power 2..6 of a random
    nonzero element vanishes.  The precision is not read."""
    def failures(ring, lam):
        ctx = Context(ring, ring.coeff(lam), ("x",))
        if (status := reducedness_conditions(ctx)) != "satisfied":
            yield f"reducedness conditions: {status}"
        rng = random.Random(f"{seed}:{ring}:{lam}")
        for _ in range(100):
            a = random_nonzero_element(rng, ctx, max_terms=2, max_word_len=2)
            powered = a
            for k in range(2, 7):
                powered = shuffle_product(powered, a)
                if powered.is_zero():
                    yield f"({a})^{k} = 0"

    return [
        _first_failure(f"reducedness ring={ring} lambda={lam}", [("elements", 100), ("powers", "2..6")],
                       "conditions hold and no power vanishes", failures(ring, lam), str)
        for ring, lam in REDUCEDNESS_CONFIGS
    ]


def suite_nilradical(seed=DEFAULT_SEED, precision=DEFAULT_PRECISION):
    """At weight zero, the nilradical description agrees with a^16 = 0; 16
    bounds the nilpotency index of these draws.  The precision is not read."""
    def failures(ring):
        ctx = Context(ring, ring.zero(), ("x", "y"))
        rng = random.Random(f"{seed}:{ring}")
        for _ in range(100):
            a = random_element(rng, ctx, max_terms=2, max_word_len=2)
            if nilradical_member_weight0(a) != (a ** 16).is_zero():
                yield a

    return [
        _first_failure(f"nilradical ring={ring}", [("elements", 100)], "member iff the 16th power is 0",
                       failures(ring), "description and 16th power disagree on {}".format)
        for ring in (Zmod(4), Zmod(9))
    ]


SUITES = {
    "baxter-identity": suite_baxter_identity,
    "prop-unit": suite_prop_unit,
    "oracle-equivalence": suite_oracle_equivalence,
    "charp": suite_charp,
    "weight0-nilpotent": suite_weight0_nilpotent,
    "complete-zero-divisor": suite_complete_zero_divisor,
    "int-lambda2": suite_int_lambda2,
    "lemma-power": lemma_power_suite,
    "phi-homomorphism": suite_phi_homomorphism,
    "ideal-quotient": suite_ideal_quotient,
    "reducedness": suite_reducedness,
    "nilradical": suite_nilradical,
}


def run_suites(names, seed=DEFAULT_SEED, precision=DEFAULT_PRECISION) -> list[WitnessReport]:
    if isinstance(names, str):
        names = [names]
    unknown = [n for n in names if n not in SUITES and n != "all"]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; available: {', '.join(SUITES)} or all")
    selected = list(SUITES) if "all" in names else names
    reports = []
    for name in selected:
        reports.extend(SUITES[name](seed=seed, precision=precision))
    return reports
