"""The four benchmark workloads.

Each workload has three parts:

- ``specs(rng, tiny)`` draws the inputs of one pass as plain Python data
  (ints, strings, tuples) from a seeded ``random.Random``.  The *shape* of
  every input (precisions, term counts, word lengths, sum sizes) follows a
  fixed schedule, and the seed picks only coefficients, monomials and the
  order of the operations.  So every seed gives the same number of
  operations and nearly the same amount of work, and run-to-run spread
  comes from the machine, not from the draw.
- ``build(fb, spec)`` turns one spec into library objects with the public
  constructors.  This is the timed set-up.
- ``run(fb, inp)`` is one operation.  It calls the library only through
  the ``freebax`` package and its submodules (never through names bound
  here), so the traced run sees every call at a layer boundary.

The referees that judge the results live in ``referee.py``.
"""
from __future__ import annotations

import contextlib
import io
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

VARS = ("x", "y")
PHI_LEN = 10

# (ring, weight) settings of the verifier's Baxter-identity suite
PROBE_CONFIGS = (("int", 0), ("int", 1), ("int", 2), ("rat", 1), ("mod:9", 0), ("mod:9", 3))
HOM_CONFIGS = (("int", 1), ("int", 2), ("rat", 1))


class Workload(NamedTuple):
    specs: Callable
    build: Callable
    run: Callable


# --- shared helpers ---------------------------------------------------------

def ring_of(fb, name: str):
    if name == "int":
        return fb.INT
    if name == "rat":
        return fb.RAT
    return fb.Zmod(int(name[4:]))


def context(fb, ring: str, lam, variables=()):
    r = ring_of(fb, ring)
    return fb.Context(r, r.coeff(lam), tuple(variables))


def modulus(ring: str) -> int | None:
    return int(ring[4:]) if ring.startswith("mod:") else None


def nonzero_coeff(rng, ring: str) -> int:
    m = modulus(ring)
    if m:
        return rng.randrange(1, m)
    return rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))


def random_monomial(rng, degree: int) -> tuple:
    """A monomial of the given total degree in x and y, as sorted
    (name, exponent) pairs; () is the unit."""
    a = rng.randint(0, degree)
    return tuple((v, e) for v, e in zip(VARS, (a, degree - a)) if e)


def random_terms(rng, ring: str, shapes) -> tuple:
    """One term per shape, as ((coeff, word), ...).  A shape lists the total
    degrees of a word's factors; the seed picks how each degree splits
    between x and y, and the nonzero coefficient.  Distinct shapes give
    distinct words."""
    return tuple(
        (nonzero_coeff(rng, ring), tuple(random_monomial(rng, d) for d in shape)) for shape in shapes
    )


def shapes(n_words: int, lengths, offset: int) -> tuple:
    """``n_words`` word shapes; word j has length ``lengths[j]`` and factor
    degrees cycling through 0, 1, 2 from ``j + offset``, so words of equal
    length differ in their first degree (n_words <= 3)."""
    return tuple(tuple((j + i + offset) % 3 for i in range(lengths[j])) for j in range(n_words))


def build_element(fb, ctx, terms):
    return fb.element(
        ctx,
        {tuple(fb.Monomial.of(**dict(m)) for m in word): ctx.ring.coeff(c) for c, word in terms},
    )


# --- completion -------------------------------------------------------------
#
# spec: (kind, ring, lam, precision, a, b) where a and b are the unit-word
# coefficient lists of the two factors (the referee needs nothing else).

# long enough for the interlacing pattern, short enough that the images
# stay a minor cost next to the products
COMPLETION_PHI_LEN = 5
COMPLETION_UNIT_CONFIGS = (("int", 0), ("int", 1), ("int", 2), ("rat", 1), ("mod:5", 2))


def completion_specs(rng, tiny: bool):
    specs = []
    pair_ns = (3, 4) if tiny else range(2, 11)
    for n in pair_ns:
        # the integer weight-2 pair whose images interlace as (0,2,..)/(2,0,..)
        a = tuple(0 if k == 0 else (1 if k % 2 else -1) for k in range(n + 1))
        b = tuple(2 if k == 0 else (-1 if k % 2 else 1) for k in range(n + 1))
        specs.append(("pair2", "int", 2, n, a, b))
    annih_ns = (3, 5) if tiny else 2 * tuple(range(2, 12))
    # the weight is part of the shape: it sets the size of the geometric
    # coefficients, so it follows the precision, not the seed
    for ring, lams in (("rat", (1, 2, 3, -1, -2)), ("mod:5", (1, 2, 3, 4))):
        for n in annih_ns:
            specs.append(("annih", ring, lams[n % len(lams)], n, (0, nonzero_coeff(rng, ring)), ()))
    unit_ns = (2, 3) if tiny else (2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5)
    for ring, lam in COMPLETION_UNIT_CONFIGS:
        for n in unit_ns:
            # every component nonzero, so every seed multiplies the same words
            a = tuple(nonzero_coeff(rng, ring) for _ in range(n + 1))
            b = tuple(nonzero_coeff(rng, ring) for _ in range(n + 1))
            specs.append(("units", ring, lam, n, a, b))
    rng.shuffle(specs)
    return specs


def _unit_series(fb, ctx, n, coeffs):
    return fb.make_series(
        ctx, n, {d: fb.unit_word(ctx, d).scaled(ctx.ring.coeff(c)) for d, c in enumerate(coeffs) if c}
    )


def completion_build(fb, spec):
    kind, ring, lam, n, a, b = spec
    ctx = context(fb, ring, lam)
    if kind == "annih":
        x = fb.embed(fb.unit_word(ctx, 1).scaled(ctx.ring.coeff(a[1])), n)
        y = fb.geometric_unit_series(ctx, -fb.inverse(ctx.lam), n)
    else:
        x, y = _unit_series(fb, ctx, n, a), _unit_series(fb, ctx, n, b)
    return x, y, min(n + 1, COMPLETION_PHI_LEN)


def completion_run(fb, inp):
    x, y, length = inp
    p = fb.complete_product(x, y)
    return p, fb.phi_series(x, length), fb.phi_series(y, length), fb.phi_series(p, length)


# --- probes -----------------------------------------------------------------
#
# spec: (config index, x terms, y terms, iterate depth, oracle?)

def probes_specs(rng, tiny: bool):
    specs = []
    per_config = 2 if tiny else 24
    for ci, (ring, lam) in enumerate(PROBE_CONFIGS):
        for k in range(per_config):
            nx, ny = 1 + k % 3, 1 + (k // 3) % 3
            x = random_terms(rng, ring, shapes(nx, [1 + (k + j) % 3 for j in range(3)], k))
            y = random_terms(rng, ring, shapes(ny, [1 + (k + 2 * j + 1) % 3 for j in range(3)], k + 1))
            depth = 3 if lam == 0 else 0
            specs.append((ci, x, y, depth, k % 8 == 0))
    rng.shuffle(specs)
    return specs


def probes_build(fb, spec):
    ci, xt, yt, depth, _ = spec
    ring, lam = PROBE_CONFIGS[ci]
    ctx = context(fb, ring, lam, VARS)
    return ctx, build_element(fb, ctx, xt), build_element(fb, ctx, yt), depth


def probes_run(fb, inp):
    """The Baxter-identity residual, the quotient commutation pairs, and at
    weight 0 the P(x*y) iterate identities."""
    ctx, x, y, depth = inp
    mul, P = fb.shuffle_product, fb.baxter_P
    xy = mul(x, y)
    px, py = P(x), P(y)
    residual = mul(px, py) - (P(mul(x, py)) + P(mul(y, px)) + P(xy).scaled(ctx.lam))
    pairs = []
    if ctx.ring.kind == "int":
        for m in (4, 5):
            xm, ym = fb.reduce_mod(x, m), fb.reduce_mod(y, m)
            pairs.append((fb.reduce_mod(xy, m), mul(xm, ym)))
            pairs.append((fb.reduce_mod(px, m), P(xm)))
    xv, yv = fb.reduce_vars(x, ("x",)), fb.reduce_vars(y, ("x",))
    pairs.append((fb.reduce_vars(xy, ("x",)), mul(xv, yv)))
    pairs.append((fb.reduce_vars(px, ("x",)), P(xv)))
    member = fb.baxter_ideal_member(x, fb.variable_ideal("x"))
    pn, ppow = fb.one(ctx), fb.one(ctx)
    factorial = 1
    for n in range(depth):
        pnext = P(mul(x, pn))
        pairs.append((mul(pn, px), pnext.scaled(n + 1)))
        pairs.append((ppow, pn.scaled(factorial)))
        pn, ppow = pnext, mul(ppow, px)
        factorial *= n + 1
    return xy, residual, tuple(pairs), xv.is_zero(), member


# --- sequence ---------------------------------------------------------------
#
# spec: ("hom", config index, a terms, b terms) or ("const", lam, coeffs)

def sequence_specs(rng, tiny: bool):
    specs = []
    per_config = 2 if tiny else 22
    for ci, (ring, _) in enumerate(HOM_CONFIGS):
        for k in range(per_config):
            # words of length 3 would make single operations take seconds
            na, nb = 1 + k % 3, 1 + (k // 3) % 3
            a = random_terms(rng, ring, shapes(na, [1 + (k + j) % 2 for j in range(3)], k))
            b = random_terms(rng, ring, shapes(nb, [1 + (k + j + 1) % 2 for j in range(3)], k + 1))
            specs.append(("hom", ci, a, b))
    for lam in (0, 1, 2, 3):
        for top in ((2, 6) if tiny else range(2, 11)):
            specs.append(("const", lam, tuple(rng.randint(-4, 4) for _ in range(top + 1))))
    rng.shuffle(specs)
    return specs


def sequence_build(fb, spec):
    if spec[0] == "hom":
        _, ci, at, bt = spec
        ring, lam = HOM_CONFIGS[ci]
        ctx = context(fb, ring, lam, VARS)
        return "hom", ctx, build_element(fb, ctx, at), build_element(fb, ctx, bt)
    _, lam, bs = spec
    ctx = context(fb, "int", lam)
    combo = fb.element(ctx, {(fb.UNIT_MONOMIAL,) * (n + 1): ctx.ring.coeff(b) for n, b in enumerate(bs)})
    return "const", ctx, combo, tuple(ctx.ring.coeff(b) for b in bs)


def sequence_run(fb, inp):
    kind, ctx, a, b = inp
    phi = fb.phi
    if kind == "const":
        return phi(a, PHI_LEN), fb.phi_constants(ctx, b, PHI_LEN)
    pa, pb = phi(a, PHI_LEN), phi(b, PHI_LEN)
    return (
        phi(fb.shuffle_product(a, b), PHI_LEN),
        pa * pb,
        phi(fb.baxter_P(a), PHI_LEN),
        fb.p_prime(pa),
    )


# --- expressions ------------------------------------------------------------
#
# spec: (argv, expectation); the expectation is plain data the referee
# judges the captured output against.

README_COMMANDS = (
    (("--ring", "mod:9", "--lambda", "3", "eval", "U(1)*U(1)"), ("unitprod", "mod:9", 3, (0, 1), (0, 1))),
    (("--ring", "int", "--lambda", "2", "--vars", "x,y", "eval",
      "P(x)*P(y) - P(x*P(y)) - P(y*P(x)) - lam*P(x*y)"), ("zero",)),
    (("--ring", "rat", "--lambda", "1", "eval", "U(1) * geom(-1)"), ("series_zero", None)),
    (("--ring", "int", "--lambda", "2", "phi", "U(1)", "--len", "4"), ("phi", "int", 2, (0, 1), 4)),
    (("--vars", "x,y", "ideal-member", "--gens", "x", "T(x,y) + T(x,1)"), ("member", True)),
    (("ideal-member", "--gens", "scalar:2", "2*U(1) + 4*U(2)"), ("member", True)),
    (("enumerate-shuffles", "2", "2"), ("enum", 2, 2)),
)

def monomial_text(m: tuple) -> str:
    if not m:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)


def signed_sum(parts) -> str:
    """Join (coeff, body) pairs into source text, with explicit signs.  The
    text never starts with '-', which the CLI would take for an option."""
    out = []
    for c, body in parts:
        text = body if abs(c) == 1 else f"{abs(c)}*{body}"
        if out or c < 0:
            out.append(f"{'-' if c < 0 else '+'} {text}")
        else:
            out.append(text)
    if out and out[0].startswith("-"):
        out.insert(0, "0")
    return " ".join(out)


def word_text(word) -> str:
    return "T(" + ",".join(monomial_text(m) for m in word) + ")"


def random_subexpr(rng, k: int, depth: int) -> str:
    """A small finite element in x, y, of a shape set by ``k``; nests
    P(...) ``depth`` times."""
    terms = random_terms(rng, "int", shapes(1 + k % 2, (1 + k % 2, 2), k))
    src = signed_sum((c, word_text(w)) for c, w in terms)
    for i in range(depth):
        src = f"P({src}) + {VARS[(k + i) % 2]}"
    return f"({src})"


def unit_combo_text(coeffs) -> str:
    return signed_sum((c, f"U({n})") for n, c in enumerate(coeffs) if c) or "0"


def expressions_specs(rng, tiny: bool):
    specs = []
    json_flag = [False]

    def add(argv, expect):
        # alternate plain and --json output across each kind of command
        flag = ("--json",) if json_flag[0] else ()
        json_flag[0] = not json_flag[0]
        specs.append((flag + tuple(argv), expect))

    for argv, expect in README_COMMANDS:
        specs.append((tuple(argv), expect))
        specs.append((("--json",) + tuple(argv), expect))

    # every setting below follows the position in the schedule, not the
    # seed, so that every seed does nearly the same work
    sizes = (20, 40) if tiny else (50, 65, 85, 110, 140, 180, 230, 300, 400, 560, 800)
    for i, n in enumerate(sizes):
        ring = ("int", "rat", "mod:7")[i % 3]
        terms = [(nonzero_coeff(rng, ring), tuple(random_monomial(rng, 1 + (t + f) % 4) for f in range(1 + t % 4)))
                 for t in range(n)]
        src = signed_sum((c, word_text(w)) for c, w in terms)
        add(("--ring", ring, "--vars", "x,y", "eval", src), ("sum", ring, tuple(terms)))

    for k in range(2 if tiny else 16):
        ring, lam = PROBE_CONFIGS[k % len(PROBE_CONFIGS)]
        a, b = random_subexpr(rng, k, k % 3), random_subexpr(rng, k + 1, (k + 1) % 3)
        src = f"P{a}*P{b} - P({a}*P{b}) - P({b}*P{a}) - lam*P({a}*{b})"
        add(("--ring", ring, "--lambda", str(lam), "--vars", "x,y", "eval", src), ("zero",))
    for k in range(2 if tiny else 8):
        # at weight 0, P(a)^n = n! P(a*P(a*...P(a)))
        a = random_subexpr(rng, k, 0)
        n = 2 + k % 2
        nested = "1"
        for _ in range(n):
            nested = f"P({a}*{nested})"
        src = f"P{a}^{n} - {[1, 1, 2, 6][n]}*{nested}"
        add(("--ring", ("int", "rat")[k // 2 % 2], "--lambda", "0", "--vars", "x,y", "eval", src), ("zero",))

    for n in ((3,) if tiny else range(3, 11)):
        lam = (1, 2, 3, -1)[n % 4]
        add(("--ring", "rat", "--lambda", str(lam), "--precision", str(n), "eval",
             f"U(1) * geom(-1/{lam})" if lam > 0 else "U(1) * geom(1)"), ("series_zero", n))
        # a product of two dense series costs far more than an annihilator
        r1, r2, lam2, m = nonzero_coeff(rng, "int"), nonzero_coeff(rng, "int"), n % 4, 2 + n // 2
        add(("--ring", "int", "--lambda", str(lam2), "--precision", str(m), "eval", f"geom({r1}) * geom({r2})"),
            ("geomprod", lam2, r1, r2, m))

    for k in range(2 if tiny else 16):
        lam = k % 4
        coeffs = tuple(rng.randint(-4, 4) for _ in range(2 + k % 6))
        length = 4 + k % 8
        add(("--ring", "int", "--lambda", str(lam), "phi", unit_combo_text(coeffs), "--len", str(length)),
            ("phi", "int", lam, coeffs, length))

    for k in range(2 if tiny else 16):
        if k % 2:
            gen = (2, 3)[k // 2 % 2]
            coeffs = tuple(gen * rng.randint(1, 3) if rng.random() < 0.6 else rng.randint(1, 9)
                           for _ in range(3))
            add(("ideal-member", "--gens", f"scalar:{gen}", unit_combo_text((0,) + coeffs)),
                ("member", all(c % gen == 0 for c in coeffs)))
        else:
            gens = (("x",), ("y",), ("x", "y"))[k // 2 % 3]
            terms = random_terms(rng, "int", shapes(3, (2, 2, 3), k))
            member = all(any(v in dict(m) for m in w for v in gens) for _, w in terms)
            add(("--vars", "x,y", "ideal-member", "--gens", ",".join(gens),
                 signed_sum((c, word_text(w)) for c, w in terms)), ("member", member))

    for suite in ("charp", "weight0-nilpotent"):
        specs.append((("verify", suite), ("verify",)))
        specs.append((("--json", "verify", suite), ("verify",)))
    rng.shuffle(specs)
    return specs


def expressions_build(fb, spec):
    # the inputs are argument vectors; set-up is importing the CLI
    return list(spec[0])


def expressions_run(fb, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = fb.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


WORKLOADS = {
    "completion": Workload(completion_specs, completion_build, completion_run),
    "probes": Workload(probes_specs, probes_build, probes_run),
    "sequence": Workload(sequence_specs, sequence_build, sequence_run),
    "expressions": Workload(expressions_specs, expressions_build, expressions_run),
}


# --- closed forms shared with the referee ------------------------------------

def unit_product_coeffs(a, b, lam, top: int) -> dict:
    """Degree -> coefficient of (sum a_i U(i)) * (sum b_j U(j)) up to degree
    ``top``: U(i) U(j) = sum_k (i+j-k)! / ((i-k)! (j-k)! k!) lam^k U(i+j-k)."""
    out: dict = {}
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            for k in range(min(i, j) + 1):
                d = i + j - k
                if d <= top:
                    mult = comb(d, k) * comb(d - k, i - k)
                    out[d] = out.get(d, 0) + ai * bj * mult * lam ** k
    return out


def phi_unit_entries(coeffs, lam, length: int) -> list:
    """Entry n of phi(sum b_i U(i)) is sum_{i < n} C(n-1, i) lam^i b_i."""
    return [
        sum(comb(n - 1, i) * lam ** i * b for i, b in enumerate(coeffs[:n]))
        for n in range(1, length + 1)
    ]


def geometric_coeffs(ratio, top: int) -> tuple:
    return tuple(ratio ** n for n in range(top + 1))


def ring_value(ring: str, v):
    """Normal form of an exact value in the named ring."""
    m = modulus(ring)
    if m:
        if isinstance(v, Fraction):
            return v.numerator * pow(v.denominator, -1, m) % m
        return v % m
    return Fraction(v) if ring == "rat" else v
