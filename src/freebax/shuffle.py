"""The free Baxter algebra of weight lambda on a finite variable set.

Elements are coefficient-weighted sums of tensor words of monomials; a word
with n+1 factors has degree n.  The product interleaves the tails of two
words in all order-preserving ways, optionally merging an adjacent pair
coming from opposite words at the cost of one factor of lambda, while the
two head factors always multiply in the base algebra.

Two independent implementations of the product live here: a quasi-shuffle
recursion on tails (the production path) and a direct enumeration over all
(shuffle, merge-set) pairs (the oracle the recursion is tested against).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .poly import UNIT_MONOMIAL, Monomial, Poly
from .rings import Coeff, Ring, RingMismatchError, lambda_valuation

Word = tuple[Monomial, ...]


class ContextMismatchError(RingMismatchError):
    """Operands live in algebras with different contexts."""


@dataclass(frozen=True)
class Context:
    """The algebra context: coefficient ring, weight and variable set."""

    ring: Ring
    lam: Coeff
    variables: tuple[str, ...] = ()

    def __post_init__(self):
        if self.lam.ring != self.ring:
            raise RingMismatchError("lambda must belong to the coefficient ring")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")

    def to_obj(self):
        return {"ring": str(self.ring), "lambda": str(self.lam), "variables": list(self.variables)}


def word_key(word: Word):
    return (len(word), tuple(m.sort_key for m in word))


def word_str(word: Word) -> str:
    return "T(" + ",".join(str(m) for m in word) + ")"


@dataclass(frozen=True)
class Element:
    """A finite element of the algebra: words mapped to nonzero coefficients,
    stored sorted by (word length, factor sequence)."""

    ctx: Context
    terms: tuple[tuple[Word, Coeff], ...]

    def _check(self, other: Element):
        if not isinstance(other, Element):
            raise TypeError(f"expected an algebra element, got {other!r}")
        if other.ctx != self.ctx:
            raise ContextMismatchError("elements belong to different contexts")

    def __add__(self, other: Element) -> Element:
        self._check(other)
        acc = dict(self.terms)
        for w, c in other.terms:
            acc[w] = acc[w] + c if w in acc else c
        return element(self.ctx, acc)

    def __neg__(self) -> Element:
        return Element(self.ctx, tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Element):
            return shuffle_product(self, other)
        if isinstance(other, (Coeff, int)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Coeff, int)):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, k: int) -> Element:
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return one(self.ctx) if k == 0 else element_power(self, k)

    def scaled(self, c: Coeff | int) -> Element:
        if isinstance(c, int):
            c = self.ctx.ring.coeff(c)
        return element(self.ctx, {w: c * cf for w, cf in self.terms})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word: Word) -> Coeff:
        for w, c in self.terms:
            if w == word:
                return c
        return self.ctx.ring.zero()

    def support(self) -> list[Word]:
        return [w for w, _ in self.terms]

    def max_degree(self) -> int:
        """Degree of the longest word; -1 for the zero element."""
        return max((len(w) - 1 for w, _ in self.terms), default=-1)

    def to_obj(self):
        return {
            "kind": "element",
            "terms": [{"coeff": str(c), "word": [m.to_obj() for m in w]} for w, c in self.terms],
        }

    def __str__(self):
        from .poly import _join_terms, _term_str

        return _join_terms([_term_str(c, word_str(w)) for w, c in self.terms])


def element(ctx: Context, mapping) -> Element:
    """Normalize a word -> coefficient mapping into an Element."""
    items = []
    for w, c in dict(mapping).items():
        if c.ring != ctx.ring:
            raise RingMismatchError(f"coefficient ring {c.ring} != {ctx.ring}")
        if not w:
            raise ValueError("tensor words must have at least one factor")
        if not c.is_zero():
            items.append((w, c))
    items.sort(key=lambda t: word_key(t[0]))
    return Element(ctx, tuple(items))


def zero(ctx: Context) -> Element:
    return Element(ctx, ())

def one(ctx: Context) -> Element:
    return unit_word(ctx, 0)


def unit_word(ctx: Context, degree: int) -> Element:
    """The degree-n word 1 (x) ... (x) 1 with n+1 unit factors."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return element(ctx, {(UNIT_MONOMIAL,) * (degree + 1): ctx.ring.one()})


def scalar(ctx: Context, c: Coeff | int) -> Element:
    if isinstance(c, int):
        c = ctx.ring.coeff(c)
    return element(ctx, {(UNIT_MONOMIAL,): c})


def variable(ctx: Context, name: str) -> Element:
    if name not in ctx.variables:
        raise ValueError(f"unknown variable {name!r}")
    return element(ctx, {(Monomial.of(**{name: 1}),): ctx.ring.one()})


def tensor_word(ctx: Context, *factors) -> Element:
    """Build a word from polynomial-valued factors, expanding multilinearly
    so that the result is supported on monomial words."""
    expanded: list[list[tuple[Monomial, Coeff]]] = []
    for f in factors:
        if isinstance(f, Monomial):
            expanded.append([(f, ctx.ring.one())])
        elif isinstance(f, Poly):
            if f.ring != ctx.ring:
                raise RingMismatchError(f"factor ring {f.ring} != {ctx.ring}")
            expanded.append(list(f.terms))
        else:
            raise TypeError(f"word factors must be monomials or polynomials, got {f!r}")
    acc: dict[Word, Coeff] = {}
    for combo in itertools.product(*expanded):
        word = tuple(m for m, _ in combo)
        c = ctx.ring.one()
        for _, cf in combo:
            c = c * cf
        acc[word] = acc[word] + c if word in acc else c
    return element(ctx, acc)


def from_poly(ctx: Context, p: Poly) -> Element:
    return tensor_word(ctx, p)


def degree_components(a: Element) -> dict[int, Element]:
    """Split by word degree (length - 1); the components re-sum to a."""
    split: dict[int, dict[Word, Coeff]] = {}
    for w, c in a.terms:
        split.setdefault(len(w) - 1, {})[w] = c
    return {d: element(a.ctx, m) for d, m in sorted(split.items())}


# --- the product, recursion route ---
#
# One recurrence on tails u, v:
#   mix(u, v) = u0 (x) mix(u', v)  +  v0 (x) mix(u, v')  +  lam (u0 v0) (x) mix(u', v')
# with one memo per product, shared by all its term pairs.  The memo is what
# keeps series products small: their tails are all-unit words, so the tail
# pairs of different branches coincide and collapse into one entry instead
# of being expanded once per lattice path.  Monomials are interned, so
# hashing a word stays in C.  Coefficients are raw ring values here and are
# wrapped once at the end of a product.

def _mix(u: Word, v: Word, lam_raw, memo: dict):
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    key = (u, v)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    get = out.get
    for tail, c in _mix(u[1:], v, lam_raw, memo).items():
        w = (u[0],) + tail
        prev = get(w)
        out[w] = c if prev is None else prev + c
    for tail, c in _mix(u, v[1:], lam_raw, memo).items():
        w = (v[0],) + tail
        prev = get(w)
        out[w] = c if prev is None else prev + c
    if lam_raw:
        merged = u[0] * v[0]
        for tail, c in _mix(u[1:], v[1:], lam_raw, memo).items():
            w = (merged,) + tail
            c = c * lam_raw
            prev = get(w)
            out[w] = c if prev is None else prev + c
    memo[key] = out
    return out


def shuffle_product(a: Element, b: Element) -> Element:
    a._check(b)
    ctx = a.ctx
    ring = ctx.ring
    lam_raw = ctx.lam.value
    memo: dict = {}
    acc: dict = {}
    aget = acc.get
    for wa, ca in a.terms:
        ta = wa[1:]
        for wb, cb in b.terms:
            c = ca.value * cb.value
            head = wa[0] * wb[0]
            for tail, weight in _mix(ta, wb[1:], lam_raw, memo).items():
                w = (head,) + tail
                t = c * weight
                prev = aget(w)
                acc[w] = t if prev is None else prev + t
    if ring.kind == "mod":
        m = ring.modulus
        return element(ctx, {w: Coeff._make(ring, v % m) for w, v in acc.items()})
    return element(ctx, {w: Coeff._make(ring, v) for w, v in acc.items()})


def element_power(a: Element, k: int) -> Element:
    if not isinstance(k, int) or k < 1:
        raise ValueError("power must be a positive integer")
    out = a
    for _ in range(k - 1):
        out = shuffle_product(out, a)
    return out


# --- the product, enumeration route (test oracle) ---

@dataclass(frozen=True)
class MixableShuffle:
    """An (m,n)-shuffle together with a set of merged adjacent pairs.

    ``sigma[k-1]`` is the source index placed at position k: values 1..m
    come from the first tail, m+1..m+n from the second, each block kept in
    its original order.  ``merges`` lists positions k such that the pair at
    (k, k+1) has its first entry from the first tail and its second from
    the second; those two factors are multiplied into one.
    """

    m: int
    n: int
    sigma: tuple[int, ...]
    merges: tuple[int, ...]

    def admissible(self) -> tuple[int, ...]:
        return tuple(
            k
            for k in range(1, self.m + self.n)
            if self.sigma[k - 1] <= self.m < self.sigma[k]
        )

    def to_obj(self):
        return {"sigma": list(self.sigma), "merges": list(self.merges)}


def enumerate_mixable_shuffles(m: int, n: int) -> list[MixableShuffle]:
    """Every (shuffle, merge-set) pair for tails of lengths m and n, in a
    deterministic order."""
    if m < 0 or n < 0:
        raise ValueError("tail lengths must be nonnegative")
    out = []
    for first_positions in itertools.combinations(range(m + n), m):
        sigma = [0] * (m + n)
        firsts = iter(range(1, m + 1))
        seconds = iter(range(m + 1, m + n + 1))
        fp = set(first_positions)
        for pos in range(m + n):
            sigma[pos] = next(firsts) if pos in fp else next(seconds)
        base = MixableShuffle(m, n, tuple(sigma), ())
        adm = base.admissible()
        for size in range(len(adm) + 1):
            for subset in itertools.combinations(adm, size):
                out.append(MixableShuffle(m, n, base.sigma, subset))
    return out


def apply_mixable(ms: MixableShuffle, xtail: Word, ytail: Word) -> Word:
    """Arrange the two tails according to sigma, then multiply each merged
    pair into a single factor."""
    if len(xtail) != ms.m or len(ytail) != ms.n:
        raise ValueError("tail lengths do not match the shuffle shape")
    slots = [xtail[s - 1] if s <= ms.m else ytail[s - ms.m - 1] for s in ms.sigma]
    # merged pairs are never adjacent to each other, so right-to-left is safe
    for k in sorted(ms.merges, reverse=True):
        slots[k - 1] = slots[k - 1] * slots[k]
        del slots[k]
    return tuple(slots)


def shuffle_product_enumerated(a: Element, b: Element) -> Element:
    """Definitional product: sum over all mixable shuffles of the tails,
    weighted by lambda to the number of merges."""
    a._check(b)
    lam = a.ctx.lam
    acc: dict[Word, Coeff] = {}
    for wa, ca in a.terms:
        for wb, cb in b.terms:
            head = wa[0] * wb[0]
            xtail, ytail = wa[1:], wb[1:]
            c = ca * cb
            for ms in enumerate_mixable_shuffles(len(xtail), len(ytail)):
                w = (head,) + apply_mixable(ms, xtail, ytail)
                t = c * lam ** len(ms.merges)
                acc[w] = acc[w] + t if w in acc else t
    return element(a.ctx, acc)


def closed_form_unit_product(ctx: Context, m: int, n: int) -> Element:
    """The binomial closed form for a product of two pure unit words:

        sum_k  C(m+n-k, n) C(n, k) lam^k  *  (unit word of degree m+n-k)

    for k = 0..m; terms with k > n vanish through C(n, k) = 0.
    """
    acc: dict[Word, Coeff] = {}
    for k in range(m + 1):
        c = ctx.ring.coeff(comb(m + n - k, n) * comb(n, k)) * ctx.lam ** k
        if not c.is_zero():
            w = (UNIT_MONOMIAL,) * (m + n + 1 - k)
            acc[w] = acc[w] + c if w in acc else c
    return element(ctx, acc)


# --- the Baxter operator and friends ---

def baxter_P(a: Element) -> Element:
    """Prepend the unit factor to every word; linear, raises degree by one."""
    return element(a.ctx, {(UNIT_MONOMIAL,) + w: c for w, c in a.terms})


def p_x_power(x: Element, n: int) -> Element:
    """n-fold application of y -> P(x * y) starting from the unit element."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("iteration count must be a nonnegative integer")
    y = one(x.ctx)
    for _ in range(n):
        y = baxter_P(shuffle_product(x, y))
    return y


def lambda_adic_valuation(a: Element) -> int | float:
    """Minimum coefficient valuation over the support; inf for zero."""
    return min(
        (lambda_valuation(c, a.ctx.lam) for _, c in a.terms),
        default=lambda_valuation(a.ctx.ring.zero(), a.ctx.lam),
    )
