"""The free Baxter algebra of weight lambda on a finite variable set.

Elements are coefficient-weighted sums of tensor words of monomials; a word
with n+1 factors has degree n.  The product interleaves the tails of two
words in all order-preserving ways, optionally merging an adjacent pair
coming from opposite words at the cost of one factor of lambda, while the
two head factors always multiply in the base algebra.

Two independent implementations of the product live here.  The production
path, ``shuffle_product``, takes one of two routes per term pair: a tail of
one or two factors is inserted straight into the other tail (the insertion
form of the mixable shuffle), and every other pair goes through the
memoized quasi-shuffle recursion on tails, whose memo collapses the
repeated tail pairs of series products.  The oracle both routes are tested
against is a direct enumeration over all (shuffle, merge-set) pairs.
"""
from __future__ import annotations

import itertools
from math import comb

from ._record import record
from .poly import PRODUCTS, UNIT_MONOMIAL, Monomial
from .rings import Coeff, Ring, RingMismatchError, lambda_valuation, power

Word = tuple[Monomial, ...]


class ContextMismatchError(RingMismatchError):
    """Operands live in algebras with different contexts."""


@record
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


class _TermStore:
    """The arithmetic and display shared by Element and BarElement: a
    finite sum stored as an unsorted dict ``_raw`` from words to nonzero
    raw values of ``ring`` (see ``Ring.raw``), never mutated, and sorted
    only for ``terms``.  A subclass supplies ``ring``, ``_check`` and
    ``_new``, which builds its own kind from a fresh word -> raw value
    dict, normalized in place, and binds ``__hash__``, which ``record``
    would otherwise generate over the fields."""

    def __hash__(self):
        return hash((self.ring, frozenset(self._raw.items())))

    def raw_items(self):
        """The (word, raw value) pairs in no particular order."""
        return self._raw.items()

    def is_zero(self) -> bool:
        return not self._raw

    def coefficient(self, word: Word) -> Coeff:
        return self.ring.coeff(self._raw.get(word, 0))

    @property
    def terms(self) -> tuple[tuple[Word, Coeff], ...]:
        """The terms as (word, Coeff) pairs sorted by word."""
        coeff = self.ring.coeff
        return tuple((w, coeff(v)) for w, v in sorted(self._raw.items(), key=lambda t: word_key(t[0])))

    def __add__(self, other):
        self._check(other)
        acc = dict(self._raw)
        get = acc.get
        for k, v in other._raw.items():
            acc[k] = get(k, 0) + v
        return self._new(acc)

    def __neg__(self):
        return self._new({k: -v for k, v in self._raw.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, (Coeff, int)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c: Coeff | int):
        cv = self.ring.raw(c)
        return self._new({k: cv * v for k, v in self._raw.items()})

    def _terms_obj(self) -> list:
        return [{"coeff": str(c), "word": [m.to_obj() for m in w]} for w, c in self.terms]

    def __str__(self):
        out = ""
        for w, c in self.terms:
            neg, a = c.is_negative(), abs(c)
            body = word_str(w) if a.value == 1 else f"{a}*{word_str(w)}"
            if out:
                out += (" - " if neg else " + ") + body
            else:
                out = "-" + body if neg else body
        return out or "0"


@record
class Element(_TermStore):
    """A finite element of the algebra: words mapped to nonzero raw ring
    values.  Build one with ``element``; the dict is never mutated."""

    ctx: Context
    _raw: dict

    __hash__ = _TermStore.__hash__

    @property
    def ring(self) -> Ring:
        return self.ctx.ring

    def _check(self, other: Element):
        if not isinstance(other, Element):
            raise TypeError(f"expected an algebra element, got {other!r}")
        if other.ctx != self.ctx:
            raise ContextMismatchError("elements belong to different contexts")

    def _new(self, acc: dict) -> Element:
        return from_raw(self.ctx, acc)

    def __mul__(self, other):
        if isinstance(other, Element):
            return shuffle_product(self, other)
        if isinstance(other, (Coeff, int)):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, k: int) -> Element:
        # zero, or one word of one factor, keeps at most one term; longer
        # words' tails grow
        single = len(self._raw) <= 1 and all(len(w) == 1 for w in self._raw)
        return power(self, k, lambda: one(self.ctx), single)

    def to_obj(self):
        return {"kind": "element", "terms": self._terms_obj()}


def from_raw(ctx: Context, acc: dict) -> Element:
    """The Element of a word -> raw value dict, reduced in place by
    ``Ring.reduce``: the caller owns ``acc`` and hands it over.  Outside
    this module and ``series``, never call ``Element`` directly."""
    return Element(ctx, ctx.ring.reduce(acc))


def element(ctx: Context, mapping) -> Element:
    """Normalize a word -> coefficient mapping into an Element."""
    ring = ctx.ring
    acc = {}
    for w, c in dict(mapping).items():
        v = ring.raw(c)
        if not w:
            raise ValueError("tensor words must have at least one factor")
        acc[w] = v
    return from_raw(ctx, acc)


def zero(ctx: Context) -> Element:
    return Element(ctx, {})

def one(ctx: Context) -> Element:
    return unit_word(ctx, 0)


def unit_word(ctx: Context, degree: int) -> Element:
    """The degree-n word 1 (x) ... (x) 1 with n+1 unit factors."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return from_raw(ctx, {(UNIT_MONOMIAL,) * (degree + 1): 1})


def scalar(ctx: Context, c: Coeff | int) -> Element:
    return from_raw(ctx, {(UNIT_MONOMIAL,): ctx.ring.raw(c)})


def variable(ctx: Context, name: str) -> Element:
    if name not in ctx.variables:
        raise ValueError(f"unknown variable {name!r}")
    return from_raw(ctx, {(Monomial.of(**{name: 1}),): 1})


def _degree0_raw(ctx: Context, f: Element) -> dict:
    """The raw dict of ``f``, checked to be a degree-0 element of ``ctx``:
    a polynomial of the base algebra C[X], whose words have one factor."""
    if f.ctx is not ctx and f.ctx != ctx:
        raise ContextMismatchError("the polynomial belongs to a different context")
    raw = f._raw
    # every word has a factor, so the lengths sum to len(raw) only if all are 1
    if len(raw) != sum(map(len, raw)):
        raise ValueError("expected an element of degree 0, whose words have one factor")
    return raw


def tensor_word(ctx: Context, *factors) -> Element:
    """Build a word from factors that are monomials or polynomials, given
    as degree-0 elements, expanding multilinearly so that the result is
    supported on monomial words."""
    if not factors:
        raise ValueError("tensor words must have at least one factor")
    # distinct prefixes extended by distinct monomials stay distinct, so
    # each step is a plain dict build; from_raw drops products that vanish
    acc: dict = {(): 1}
    for f in factors:
        if isinstance(f, Monomial):
            acc = {w + (f,): v for w, v in acc.items()}
        elif isinstance(f, Element):
            items = _degree0_raw(ctx, f).items()
            acc = {w + u: v * c for w, v in acc.items() for u, c in items}
        else:
            raise TypeError(f"word factors must be monomials or degree-0 elements, got {f!r}")
    return from_raw(ctx, acc)


def degree_components(a: Element) -> dict[int, Element]:
    """Split by word degree (length - 1), in degree order; the parts sum to a."""
    split: dict[int, dict] = {}
    for w, v in a._raw.items():
        split.setdefault(len(w) - 1, {})[w] = v
    return {d: Element(a.ctx, split[d]) for d in sorted(split)}


# --- the product, production routes ---
#
# The tail of a product of two words is mix(u, v) of their tails, and
# ``shuffle_product`` computes it by one of two routes per term pair.
#
# ``_mix`` is the one memoized recursion, on tails u, v:
#   mix(u, v) = u0 (x) mix(u', v)  +  v0 (x) mix(u, v')  +  lam (u0 v0) (x) mix(u', v')
# with one memo per product, shared by all its term pairs.  The memo is what
# keeps series products small: their tails are all-unit words, so the tail
# pairs of different branches coincide and collapse into one entry instead
# of being expanded once per lattice path.  Monomials are interned, so
# hashing a word stays in C, and so does a product of two heads or of a
# merged pair: a lookup in the table ``poly.PRODUCTS``.  Coefficients are
# raw ring values throughout.
#
# ``_insert`` is the insertion form of the same sum (Ebrahimi-Fard and Guo,
# "Mixable shuffles, quasi-shuffles and Hopf algebras"): the first factor of
# the shorter tail goes after each prefix of the longer one, alone or merged
# with the next factor at weight lam, and the rest of the shorter tail is
# placed the same way in what follows.  It adds each word straight into the
# product's dict, with no memo and no intermediate dict, where ``_mix``
# would build a dict for every suffix of the long tail.  It takes a pair
# only when the shorter tail has at most INSERT_MAX factors, which keeps
# the words it emits per pair at O(len^2) however few letters the tails
# use, and never when the longer tail is one factor repeated: there the
# insertions all give the same few words, which the memo collapses.

INSERT_MAX = 2  # the most factors of a tail that ``_insert`` places


def _mix(u: Word, v: Word, lam_raw, memo: dict):
    """mix(u, v) as a tail -> raw weight dict; u and v are nonempty, so
    the recursion builds no dict for an empty tail."""
    key = (u, v)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    get = out.get
    u1, v1 = u[1:], v[1:]
    h = (u[0],)
    if u1:
        # out is empty and the tails are distinct: no lookup needed
        for tail, c in _mix(u1, v, lam_raw, memo).items():
            out[h + tail] = c
    else:
        out[h + v] = 1
    h = (v[0],)
    if v1:
        for tail, c in _mix(u, v1, lam_raw, memo).items():
            w = h + tail
            prev = get(w)
            out[w] = c if prev is None else prev + c
    else:
        w = h + u
        prev = get(w)
        out[w] = 1 if prev is None else prev + 1
    if lam_raw:
        h = (PRODUCTS[u[0], v[0]],)
        if u1 and v1:
            for tail, c in _mix(u1, v1, lam_raw, memo).items():
                w = h + tail
                c = c * lam_raw
                prev = get(w)
                out[w] = c if prev is None else prev + c
        else:
            w = h + (u1 or v1)
            prev = get(w)
            out[w] = lam_raw if prev is None else prev + lam_raw
    memo[key] = out
    return out


def _insert(acc: dict, pre: Word, long: Word, short: Word, c, lam_raw) -> None:
    """Add c * (pre (x) mix(long, short)) to acc: short[0] goes after each
    prefix long[:i], alone or, when lam is nonzero, merged with long[i] at
    weight lam, and the rest of short is placed in what follows."""
    s = short[0]
    alone = (s,)
    rest = short[1:]
    cl = c * lam_raw if lam_raw else None
    get = acc.get
    p = pre  # pre + long[:i]
    for i in range(len(long) + 1):
        tail = long[i:]
        if rest:
            _insert(acc, p + alone, tail, rest, c, lam_raw)
        else:
            w = p + alone + tail
            prev = get(w)
            acc[w] = c if prev is None else prev + c
        if not tail:
            return
        f = tail[0]
        if cl is not None:
            merged = p + (PRODUCTS[f, s],)
            if rest:
                _insert(acc, merged, tail[1:], rest, cl, lam_raw)
            else:
                w = merged + tail[1:]
                prev = get(w)
                acc[w] = cl if prev is None else prev + cl
        p = p + (f,)


def _parts(a: Element) -> list:
    """Each word of a as (head, tail, value, tail length, whether the tail
    is one factor repeated)."""
    parts = []
    for w, v in a._raw.items():
        t = w[1:]
        parts.append((w[0], t, v, len(t), t.count(w[-1]) == len(t)))
    return parts


def shuffle_product(a: Element, b: Element) -> Element:
    a._check(b)
    # a scalar operand, one unit word, only scales the other: the same
    # dict as the kernel builds, with no term pairs
    for s, other in ((a, b), (b, a)):
        if len(s._raw) == 1 and (c := s._raw.get((UNIT_MONOMIAL,))) is not None:
            return other._new({w: c * v for w, v in other._raw.items()})
    lam_raw = a.ring.raw(a.ctx.lam)
    memo: dict = {}
    acc: dict = {}
    aget = acc.get
    b_parts = _parts(b)
    for ha, ta, ca, na, ra in _parts(a):
        for hb, tb, cb, nb, rb in b_parts:
            c = ca * cb
            head = (PRODUCTS[ha, hb],)
            if not na or not nb:
                # mix((), v) = v: a one-factor word only multiplies heads
                w = head + (ta or tb)
                prev = aget(w)
                acc[w] = c if prev is None else prev + c
                continue
            if nb <= na:
                long, short, n, repeated = ta, tb, nb, ra
            else:
                long, short, n, repeated = tb, ta, na, rb
            if n <= INSERT_MAX and not repeated:
                _insert(acc, head, long, short, c, lam_raw)
                continue
            for tail, weight in _mix(ta, tb, lam_raw, memo).items():
                w = head + tail
                t = c * weight
                prev = aget(w)
                acc[w] = t if prev is None else prev + t
    return from_raw(a.ctx, acc)


# --- the product, enumeration route (test oracle) ---

@record
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
    return Element(a.ctx, {(UNIT_MONOMIAL,) + w: v for w, v in a._raw.items()})


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
