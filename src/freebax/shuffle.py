"""The free Baxter algebra of weight lambda on a finite variable set.

Elements are coefficient-weighted sums of tensor words of monomials; a word
with n+1 factors has degree n.  The product interleaves the tails of two
words in all order-preserving ways, optionally merging an adjacent pair
coming from opposite words at the cost of one factor of lambda, while the
two head factors always multiply in the base algebra.

Two independent implementations of the product live here.  The production
path, ``shuffle_product``, sums all pairs of all-unit tails behind a pair of
heads at once, by the binomial closed form of their mixable shuffle read as
Pascal's rule; of the other term pairs, a tail of one or two factors is
inserted straight into the other tail (the insertion form of the mixable
shuffle), two longer tails of a small shape are arranged by a cached table
of the shape's mixable shuffles, and every other pair goes through the
memoized quasi-shuffle recursion on tails.  The oracle all routes are
tested against is a direct enumeration over all (shuffle, merge-set)
pairs, which shares no code with the tables: it adds raw values into one
dict that ``Ring.reduce`` reduces once.  The binomial closed form of unit
words stays on ``Coeff`` arithmetic, so it still referees ``Ring.reduce``.
"""
from __future__ import annotations

import itertools
import re
from math import comb
from operator import itemgetter

from ._record import record
from .poly import PRODUCTS, UNIT_MONOMIAL, Monomial
from .rings import Coeff, Ring, RingMismatchError, check_count, lambda_valuation, power

Word = tuple[Monomial, ...]


class ContextMismatchError(RingMismatchError):
    """Operands live in algebras with different contexts."""


RESERVED = ("P", "T", "U", "geom", "lam")
# a name token: variables and reserved words alike
NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def check_variable_name(v: str) -> None:
    """Raise ValueError unless ``v`` is a variable name the expression
    language reads back: a name token that is not a reserved word."""
    if not NAME.fullmatch(v):
        raise ValueError(f"invalid variable name {v!r}")
    if v in RESERVED:
        raise ValueError(f"{v!r} is a reserved word")


@record
class Context:
    """The algebra context: coefficient ring, weight and variable set."""

    ring: Ring
    lam: Coeff
    variables: tuple[str, ...] = ()

    def __post_init__(self):
        if self.lam.ring != self.ring:
            raise RingMismatchError("lambda must belong to the coefficient ring")
        if isinstance(self.variables, str):
            raise TypeError(f"variables must be a tuple of names, got {self.variables!r}")
        object.__setattr__(self, "variables", tuple(self.variables))
        for v in self.variables:
            check_variable_name(v)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        # the raw value the kernels read, once per context; not a field, so
        # equality, hashing, repr and to_obj do not see it
        object.__setattr__(self, "lam_raw", self.ring.raw(self.lam))

    def to_obj(self):
        return {"ring": str(self.ring), "lambda": str(self.lam), "variables": list(self.variables)}


def word_key(word: Word):
    return (len(word), tuple(m.sort_key for m in word))


def word_str(word: Word) -> str:
    return "T(" + ",".join([m.text for m in word]) + ")"


class _TermStore:
    """The arithmetic and display shared by Element and BarElement: a
    finite sum stored as an unsorted dict ``_raw`` from words to nonzero
    raw values of ``ring`` (see ``Ring.raw``), never mutated, and sorted
    only for ``terms``.  A subclass supplies ``ring``, ``_check`` and
    ``_new``, which builds its own kind from a fresh word -> raw value
    dict, normalized in place."""

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


def _check_monomial(m) -> None:
    """Raise TypeError unless the word factor ``m`` is a monomial."""
    if type(m) is not Monomial:
        raise TypeError(f"word factors must be monomials, got {m!r}")


def _check_alphabet(ctx: Context, monomials) -> None:
    """Reject a word factor that is not a monomial, and a monomial with a
    variable outside ``ctx``, in the parser's words: its render would not
    parse back in ``ctx``."""
    names = ctx.variables
    for m in monomials:
        _check_monomial(m)
        for v, _ in m.exps:
            if v not in names:
                raise ValueError(f"unknown variable {v!r}")


def element(ctx: Context, mapping) -> Element:
    """Normalize a word -> coefficient mapping into an Element."""
    ring = ctx.ring
    try:
        items = dict(mapping).items()
    except TypeError:
        raise TypeError(f"mapping must map words to coefficients, got {mapping!r}") from None
    acc = {}
    for w, c in items:
        v = ring.raw(c)
        if not w:
            raise ValueError("tensor words must have at least one factor")
        acc[w] = v
    _check_alphabet(ctx, dict.fromkeys(m for w in acc for m in w))
    return from_raw(ctx, acc)


def zero(ctx: Context) -> Element:
    return Element(ctx, {})

def one(ctx: Context) -> Element:
    return unit_word(ctx, 0)


def unit_word(ctx: Context, degree: int) -> Element:
    """The degree-n word 1 (x) ... (x) 1 with n+1 unit factors."""
    check_count(degree, "degree")
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
    as degree-0 elements, expanding multilinearly by ``_expand_word`` so
    that the result is supported on monomial words."""
    if not factors:
        raise ValueError("tensor words must have at least one factor")
    items = []
    for f in factors:
        if isinstance(f, Monomial):
            _check_alphabet(ctx, (f,))
            items.append((((f,), 1),))
        elif isinstance(f, Element):
            items.append(_degree0_raw(ctx, f).items())
        else:
            raise TypeError(f"word factors must be monomials or degree-0 elements, got {f!r}")
    return from_raw(ctx, _expand_word(items))


def _expand_word(factors) -> dict:
    """The one multilinear expansion of a word, for ``tensor_word`` and the
    evaluator, from the raw items of degree-0 factors to a raw dict."""
    # one word and its coefficient while every factor is one term; then
    # distinct prefixes extended by distinct monomials stay distinct, so
    # each step is a plain dict build; from_raw drops products that vanish
    word, coeff, acc = (), 1, None
    for items in factors:
        if acc is None:
            if len(items) == 1:
                (u, c), = items
                word += u
                coeff = coeff * c
                continue
            acc = {word: coeff}
        acc = {w + u: v * c for w, v in acc.items() for u, c in items}
    return {word: coeff} if acc is None else acc


def degree_components(a: Element) -> dict[int, Element]:
    """Split by word degree (length - 1), in degree order; the parts sum to a."""
    split: dict[int, dict] = {}
    for w, v in a._raw.items():
        split.setdefault(len(w) - 1, {})[w] = v
    return {d: Element(a.ctx, split[d]) for d in sorted(split)}


# --- the product, production routes ---
#
# The tail of a product of two words is mix(u, v) of their tails, and
# ``shuffle_product`` computes it by one of four routes.  Monomials are
# interned, so hashing a word stays in C, and so does a product of two
# heads or of a merged pair: a lookup in the table ``poly.PRODUCTS``.
# Coefficients are raw ring values throughout.
#
# ``_unit_rows`` takes the words h (x) 1^n with n >= 1, as in every series
# that ``geom`` and unit words build, grouped by head as {n: value}.  Two
# unit tails have a closed form (Guo and Keigher, "Baxter algebras and
# shuffle products"):
#   mix(1^m, 1^n) = sum_k C(m+n-k, m) C(m, k) lam^k 1^(m+n-k),  k = 0..min(m, n)
# so for the groups A and B of a pair of heads the weight of 1^L is
#   sum_m A[m] C(L, m) d_m[L-m],  d_m[j] = sum_k C(m, k) lam^k B[j+k],
# and by Pascal's rule d_m = d_{m-1} + lam (d_{m-1} shifted down by one).
# One pass of rows sums all pairs of the two groups in O(N^2), not O(N^3),
# with no division: raw values stay exact and ``from_raw`` reduces them.
# Given the cut of ``complete_product``, the rows drop what only words above
# it read; the words the other routes build above it are dropped by ``embed``.
#
# ``_insert`` is the insertion form of the same sum (Ebrahimi-Fard and Guo,
# "Mixable shuffles, quasi-shuffles and Hopf algebras"): the first factor of
# the shorter tail goes after each prefix of the longer one, alone or merged
# with the next factor at weight lam, and the rest of the shorter tail is
# placed the same way in what follows.  It adds each word straight into the
# product's dict, with no memo and no intermediate dict.  The form sums
# over positions, not words; the last factor placed, s, alone before or
# after each of a run of r factors s gives one word r + 1 times, which is
# emitted once at weight r + 1.  Merges are emitted per position.  It
# takes the other pairs whose shorter tail has at most INSERT_MAX factors,
# which keeps the words it emits per pair at O(len^2) however few letters
# the tails use, unless the longer tail is all units.
#
# ``_place`` takes the other pairs, unless the longer tail is all units or
# both tails repeat one factor, when the table of their shape fits
# TEMPLATE_MAX.  Tails of m >= n factors have D(m, n) mixable shuffles (a
# Delannoy number), or C(m + n, n) at weight 0, whatever their factors are.
# The table of (m, n, lam != 0), built once by ``_template``, lists them as
# ``operator.itemgetter`` maps into the tuple
#   (head, *long, *short, *merges),  long[i] short[j] at 1 + m + n + i*n + j,
# grouped by their number r of merges, so each word of a pair is one C call
# and one dict update at weight c lam^r, with no intermediate tuple or dict.
# A repeated factor gives one word several times, and the updates sum it;
# when both tails repeat one factor, every word at weight 0 is one word,
# which ``_mix`` reaches with far fewer steps.  The cap bounds the cache:
# 6 tables, 328 getters, when all are built.
#
# ``_mix`` takes every other pair, by the memoized recursion on tails u, v:
#   mix(u, v) = u0 (x) mix(u', v)  +  v0 (x) mix(u, v')  +  lam (u0 v0) (x) mix(u', v')
# with one memo per product, shared by all its term pairs.  A word times a
# unit series is where it pays: its term pairs share the unit suffixes of
# the series, which the memo expands once where ``_insert`` would place
# the short tail into each of them anew.

INSERT_MAX = 2  # the most factors of a tail that ``_insert`` places
# the most index entries of one table of ``_place``: its mixable shuffles
# times m + n + 1.  Past it, a table of tails of two letters at weight 0
# measured slower than ``_mix``, whose memo shares the words they repeat.
TEMPLATE_MAX = 1024


def _entries(m: int, n: int, merging: bool) -> int:
    """The index entries of the table of tails of m and n factors: its
    mixable shuffles, D(m, n) with merges or C(m + n, n) without, times
    m + n + 1."""
    if merging:
        shuffles = sum(comb(m, k) * comb(n, k) << k for k in range(min(m, n) + 1))
    else:
        shuffles = comb(m + n, n)
    return shuffles * (m + n + 1)


def _longest(merging: bool) -> tuple[int, ...]:
    """Entry n is the most factors m >= n of a longer tail whose table with
    a shorter tail of n factors fits TEMPLATE_MAX, and -1 for n <=
    INSERT_MAX, which ``_insert`` takes; the entries end at the first n with
    no such m."""
    out = [-1] * (INSERT_MAX + 1)
    while _entries(len(out), len(out), merging) <= TEMPLATE_MAX:
        n = m = len(out)
        while _entries(m + 1, n, merging) <= TEMPLATE_MAX:
            m += 1
        out.append(m)
    return tuple(out)


_LONGEST = (_longest(False), _longest(True))  # indexed by lam != 0
_TEMPLATES: dict = {}  # (m, n, lam != 0) -> table, for the shapes that fit


def _template(m: int, n: int, merging: bool) -> tuple:
    """The table of tails of m and n factors, built and cached: per merge
    count r, in order, the getters of the words of the mixable shuffles with
    r merges from (head, *long, *short, *merges), long[i] short[j] at index
    1 + m + n + i*n + j.  At weight 0 it is the one group r = 0."""
    groups = [[] for _ in range(min(m, n) + 1 if merging else 1)]
    rest = tuple(range(1, m + n + 1))

    def place(i: int, j: int, word: tuple, r: int) -> None:
        if i == m or j == n:
            groups[r].append(itemgetter(0, *word, *rest[i:m], *rest[m + j:]))
            return
        place(i + 1, j, word + (1 + i,), r)
        place(i, j + 1, word + (1 + m + j,), r)
        if merging:
            place(i + 1, j + 1, word + (1 + m + n + i * n + j,), r + 1)

    place(0, 0, (), 0)
    table = _TEMPLATES[m, n, merging] = tuple(map(tuple, groups))
    return table


def _place(acc: dict, head: Word, long: Word, short: Word, c, lam_raw) -> None:
    """Add c * (head (x) mix(long, short)) to acc, each word read off the
    source tuple by a getter of the shape's table, at weight c lam^r."""
    m, n, merging = len(long), len(short), bool(lam_raw)
    table = _TEMPLATES.get((m, n, merging)) or _template(m, n, merging)
    src = head + long + short
    if merging:
        src += tuple([PRODUCTS[f, s] for f in long for s in short])
    get = acc.get
    t = c
    for getters in table:
        for g in getters:
            w = g(src)
            prev = get(w)
            acc[w] = t if prev is None else prev + t
        t = t * lam_raw


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
    p = pre  # pre + long[:i]
    if not rest:
        # s alone before long[i] is the word of s alone after it when
        # long[i] is s, so a run of r factors s emits one word at weight
        # c * (r + 1)
        get = acc.get
        k = 1  # the positions that give the next alone word
        for i in range(len(long)):
            f = long[i]
            if f is s:
                k += 1
            else:
                w = p + alone + long[i:]
                t = c if k == 1 else c * k
                prev = get(w)
                acc[w] = t if prev is None else prev + t
                k = 1
            if cl is not None:
                w = p + (PRODUCTS[f, s],) + long[i + 1:]
                prev = get(w)
                acc[w] = cl if prev is None else prev + cl
            p = p + (f,)
        w = p + alone
        t = c if k == 1 else c * k
        prev = get(w)
        acc[w] = t if prev is None else prev + t
        return
    for i in range(len(long) + 1):
        tail = long[i:]
        _insert(acc, p + alone, tail, rest, c, lam_raw)
        if not tail:
            return
        f = tail[0]
        if cl is not None:
            _insert(acc, p + (PRODUCTS[f, s],), tail[1:], rest, cl, lam_raw)
        p = p + (f,)


def _parts(a: Element) -> tuple[list, dict]:
    """The words of a whose tail is empty or not all units, each as (head,
    tail, value, tail length, False), and the words h (x) 1^n with n >= 1
    grouped by head as {h: {n: value}}."""
    others, units = [], {}
    for w, v in a._raw.items():
        n = len(w) - 1
        if n and w.count(UNIT_MONOMIAL) - (w[0] is UNIT_MONOMIAL) == n:
            units.setdefault(w[0], {})[n] = v
        else:
            others.append((w[0], w[1:], v, n, False))
    return others, units


def _unit_parts(units: dict) -> list:
    """The grouped words of ``_parts`` as its other words are, flagged True."""
    return [(h, (UNIT_MONOMIAL,) * n, v, n, True) for h, g in units.items() for n, v in g.items()]


def _unit_rows(out: dict, ga: dict, gb: dict, lam_raw, cut: int | None) -> None:
    """Add the sum of ga[m] gb[n] mix(1^m, 1^n) to out, {L: raw weight of
    1^L}, for L <= cut, by one pass of the rows d_m over the group of the
    lower top degree.  A row is a dict of the degrees it reaches, and at
    weight 0 it never changes, so only the degrees of the group are read."""
    top_a, top_b = max(ga), max(gb)
    rows, d, last = (ga, gb, top_a) if top_a <= top_b else (gb, ga, top_b)
    cut = top_a + top_b if cut is None else cut
    get = out.get
    for m in range(1, last + 1) if lam_raw else rows:
        top = cut - m  # the largest j of a word of at most cut + 1 factors
        if lam_raw:
            step = dict(d)
            for j, v in d.items():
                if j:
                    step[j - 1] = step.get(j - 1, 0) + lam_raw * v
            step.pop(top + 1, None)  # d_m[j] reads d_{m-1} at j and j + 1 only
            d = step
        if (c := rows.get(m)) is not None:
            for j, v in d.items():
                if j <= top:
                    t = c * comb(m + j, m) * v
                    prev = get(m + j)
                    out[m + j] = t if prev is None else prev + t


def shuffle_product(a: Element, b: Element, *, _cut: int | None = None) -> Element:
    """The product of a and b.  ``complete_product`` passes its precision
    as ``_cut``: the rows of all-unit tails then build no word of degree
    above it, and the caller drops the words of degree above it that the
    other routes still build."""
    a._check(b)
    # a scalar operand, one unit word, only scales the other: the same
    # dict as the kernel builds, with no term pairs
    for s, other in ((a, b), (b, a)):
        if len(s._raw) == 1 and (c := s._raw.get((UNIT_MONOMIAL,))) is not None:
            return other._new({w: c * v for w, v in other._raw.items()})
    lam_raw = a.ctx.lam_raw
    memo: dict = {}
    a_others, a_units = _parts(a)
    b_others, b_units = _parts(b)
    # the unit route first: its words fill the empty dict, one hash each
    sums: dict = {}  # product head -> {L: raw weight of 1^L}
    for ha, ga in a_units.items():
        for hb, gb in b_units.items():
            _unit_rows(sums.setdefault(PRODUCTS[ha, hb], {}), ga, gb, lam_raw, _cut)
    acc = {(h,) + (UNIT_MONOMIAL,) * size: t
           for h, out in sums.items() for size, t in out.items()} if sums else {}
    aget = acc.get
    longest = _LONGEST[bool(lam_raw)]
    # every other pair has one of the other words on a side at least
    a_parts = a_others + _unit_parts(a_units) if b_others and a_units else a_others
    b_parts = b_others + _unit_parts(b_units) if a_others and b_units else b_others
    for ha, ta, ca, na, ua in a_parts:
        for hb, tb, cb, nb, ub in b_others if ua else b_parts:
            c = ca * cb
            h = PRODUCTS[ha, hb]
            if not na or not nb:
                # mix((), v) = v: a one-factor word only multiplies heads
                w = (h,) + (ta or tb)
                prev = aget(w)
                acc[w] = c if prev is None else prev + c
                continue
            head = (h,)
            if nb <= na:
                long, short, m, n, long_units = ta, tb, na, nb, ua
            else:
                long, short, m, n, long_units = tb, ta, nb, na, ub
            if not long_units:
                if n <= INSERT_MAX:
                    _insert(acc, head, long, short, c, lam_raw)
                    continue
                # two tails of one factor repeated make one word at weight 0,
                # which the memo of ``_mix`` reaches in O(m n) steps
                if n < len(longest) and m <= longest[n] and (long + short).count(long[0]) < m + n:
                    _place(acc, head, long, short, c, lam_raw)
                    continue
            for tail, weight in _mix(ta, tb, lam_raw, memo).items():
                w = head + tail
                t = c * weight
                prev = aget(w)
                acc[w] = t if prev is None else prev + t
    return from_raw(a.ctx, acc)


# --- the product, enumeration route (test oracle) ---

def enumerate_mixable_shuffles(m: int, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every mixable shuffle of tails of lengths m and n, as a pair
    ``(sigma, merges)``, in a deterministic order.

    ``sigma[k-1]`` is the source index placed at position k: values 1..m
    come from the first tail, m+1..m+n from the second, each block kept in
    its original order.  ``merges`` lists, in increasing order, positions k
    such that the pair at (k, k+1) has its first entry from the first tail
    and its second from the second; those two factors are multiplied into
    one.
    """
    check_count(m, "tail length")
    check_count(n, "tail length")
    out = []
    for first_positions in itertools.combinations(range(m + n), m):
        fp = set(first_positions)
        firsts, seconds = iter(range(1, m + 1)), iter(range(m + 1, m + n + 1))
        sigma = tuple(next(firsts if pos in fp else seconds) for pos in range(m + n))
        adm = [k for k in range(1, m + n) if sigma[k - 1] <= m < sigma[k]]
        for size in range(len(adm) + 1):
            out.extend((sigma, merges) for merges in itertools.combinations(adm, size))
    return out


def shuffle_product_enumerated(a: Element, b: Element) -> Element:
    """Definitional product: sum over all mixable shuffles of the tails,
    weighted by lambda to the number of merges."""
    a._check(b)
    lam = a.ctx.lam_raw
    acc: dict = {}
    for wa, ca in a._raw.items():
        for wb, cb in b._raw.items():
            head = wa[0] * wb[0]
            tails = wa[1:] + wb[1:]  # source index s of sigma is tails[s - 1]
            c = ca * cb
            for sigma, merges in enumerate_mixable_shuffles(len(wa) - 1, len(wb) - 1):
                slots = [tails[s - 1] for s in sigma]
                # merged pairs are never adjacent to each other, so right-to-left is safe
                for k in reversed(merges):
                    slots[k - 1] = slots[k - 1] * slots.pop(k)
                w = (head, *slots)
                acc[w] = acc.get(w, 0) + c * lam ** len(merges)
    return from_raw(a.ctx, acc)


def closed_form_unit_product(ctx: Context, m: int, n: int) -> Element:
    """The binomial closed form for a product of two pure unit words:

        sum_k  C(m+n-k, n) C(n, k) lam^k  *  (unit word of degree m+n-k)

    for k = 0..m; terms with k > n vanish through C(n, k) = 0.
    """
    check_count(m, "degree")
    check_count(n, "degree")
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
    check_count(n, "iteration count")
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
