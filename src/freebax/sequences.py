"""The sequence model of the free Baxter algebra.

A bar element is a linear combination of monomial words, each identified
with its padding by trailing unit factors (the direct limit of the tensor
powers under w -> w (x) 1).  Words multiply factor by factor, the shorter
one padded with units.  Sequences of bar elements carry the componentwise
algebra structure and the summing operator P'; the morphism ``phi``
realizes the shuffle algebra inside it by sending a word to head-sequence
times P' of the tail's image.

A bar element stores an unsorted dict from trimmed words (no trailing
unit factor, but a word of units keeps one) to raw ring values: ``int``,
or over the rationals ``int`` or ``Fraction`` (integral rationals enter
as ints, whose arithmetic is several times faster), reduced mod m and
nonzero.  Sums are the term store's, and a product of trimmed words is
trimmed, so words are trimmed only where padded ones come in: in ``bar``
and ``t_sequence``.  Only the display pads: ``level`` is the length of the
longest word, and the sorted ``(word, Coeff)`` view ``terms`` pads every
word to it, built only when something reads it, such as ``to_obj``.

``phi`` does not multiply sequences.  Entry k of phi(m0 (x) w') is
t(m0)_k * lam * sum_{j<k} phi(w')_j.  The words of that partial sum have
at most k-1 factors, while t(m0)_k is unit everywhere but slot k: the
product pads each word to k-1 factors and appends m0, or leaves it as it
is when m0 is the unit.  So the image of a word is built from one running
prefix sum per entry of its tail's image.
"""
from __future__ import annotations

import warnings
from math import comb
from operator import mul

from ._record import record
from .poly import UNIT_MONOMIAL
from .rings import Coeff, Ring, RingMismatchError, is_zero_divisor
from .series import Series, truncate
from .shuffle import Context, ContextMismatchError, Element, Word, _degree0_raw, _TermStore, word_key


class PhiInjectivityWarning(UserWarning):
    """The weight is a zero divisor, so phi need not be injective."""


@record
class BarElement(_TermStore):
    """Unit-padded words mapped to nonzero raw ring values, each word
    stored trimmed (see the module docstring).  Build one with ``bar``; the
    dict is never mutated."""

    ring: Ring
    _raw: dict

    __hash__ = _TermStore.__hash__

    @property
    def level(self) -> int:
        """The length of the longest trimmed word, or 1 for zero."""
        return max(map(len, self._raw), default=1)

    @property
    def terms(self) -> tuple[tuple[Word, Coeff], ...]:
        """The terms as (word, Coeff) pairs, each word padded with units to
        the level, sorted by word."""
        level = self.level
        coeff = self.ring.coeff
        padded = [(w + (UNIT_MONOMIAL,) * (level - len(w)), v) for w, v in self._raw.items()]
        return tuple((w, coeff(v)) for w, v in sorted(padded, key=lambda t: word_key(t[0])))

    def coefficient(self, word: Word) -> Coeff:
        return self.ring.coeff(self._raw.get(_trimmed(word), 0))

    def _check(self, other: BarElement):
        if not isinstance(other, BarElement):
            raise TypeError(f"expected a bar element, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError("bar elements over different rings")

    def _new(self, acc: dict) -> BarElement:
        return BarElement(self.ring, self.ring.reduce(acc))

    def __mul__(self, other):
        if isinstance(other, (Coeff, int)):
            return self.scaled(other)
        self._check(other)
        right = other._raw.items()
        acc: dict = {}
        get = acc.get
        for wa, va in self._raw.items():
            for wb, vb in right:
                # the longer word's last factor, or the product of two
                # non-unit last factors, is not the unit: already trimmed
                w = tuple(map(mul, wa, wb)) + wa[len(wb):] + wb[len(wa):]
                acc[w] = get(w, 0) + va * vb
        return self._new(acc)

    def to_obj(self):
        return {"level": self.level, "terms": self._terms_obj()}


def _trimmed(word: Word) -> Word:
    """``word`` without its trailing unit factors; a word of units keeps one."""
    n = len(word)
    while n > 1 and word[n - 1] is UNIT_MONOMIAL:
        n -= 1
    return word[:n]


def bar(ring: Ring, level: int, mapping) -> BarElement:
    """The bar element of a mapping from words of ``level`` factors to Coeffs."""
    if level < 1:
        raise ValueError("bar level must be positive")
    acc = {}
    for w, c in dict(mapping).items():
        if len(w) != level:
            raise ValueError(f"word length {len(w)} != level {level}")
        acc[_trimmed(w)] = ring.raw(c)
    return BarElement(ring, ring.reduce(acc))


def bar_zero(ring: Ring) -> BarElement:
    return BarElement(ring, {})


def bar_one(ring: Ring) -> BarElement:
    return bar(ring, 1, {(UNIT_MONOMIAL,): ring.one()})


def bar_scalar(ring: Ring, c: Coeff) -> BarElement:
    return bar(ring, 1, {(UNIT_MONOMIAL,): c})


@record
class SequenceElement:
    """The first len(entries) components of a sequence-model element;
    entry k is entries[k-1]."""

    ctx: Context
    entries: tuple[BarElement, ...]

    def _check(self, other: SequenceElement):
        if not isinstance(other, SequenceElement):
            raise TypeError(f"expected a sequence element, got {other!r}")
        if other.ctx != self.ctx:
            raise ContextMismatchError("sequence elements belong to different contexts")

    @property
    def length(self) -> int:
        return len(self.entries)

    def entry(self, k: int) -> BarElement:
        if not 1 <= k <= len(self.entries):
            raise IndexError(f"entry {k} is outside 1..{len(self.entries)}")
        return self.entries[k - 1]

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __add__(self, other: SequenceElement) -> SequenceElement:
        self._check(other)
        n = min(self.length, other.length)
        return SequenceElement(self.ctx, tuple(a + b for a, b in zip(self.entries[:n], other.entries[:n])))

    def __neg__(self) -> SequenceElement:
        return SequenceElement(self.ctx, tuple(-e for e in self.entries))

    def __sub__(self, other: SequenceElement) -> SequenceElement:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Coeff, int)):
            return SequenceElement(self.ctx, tuple(e.scaled(other) for e in self.entries))
        self._check(other)
        n = min(self.length, other.length)
        return SequenceElement(self.ctx, tuple(a * b for a, b in zip(self.entries[:n], other.entries[:n])))

    def __rmul__(self, other):
        if isinstance(other, (Coeff, int)):
            return self.__mul__(other)
        return NotImplemented

    def to_obj(self):
        return {"kind": "sequence", "entries": [e.to_obj() for e in self.entries]}

    def __str__(self):
        return "\n".join(f"[{k + 1}] {e}" for k, e in enumerate(self.entries))


def seq_zero(ctx: Context, length: int) -> SequenceElement:
    return SequenceElement(ctx, (bar_zero(ctx.ring),) * length)


def seq_one(ctx: Context, length: int) -> SequenceElement:
    return SequenceElement(ctx, (bar_one(ctx.ring),) * length)


def p_prime(a: SequenceElement) -> SequenceElement:
    """Entry k of the output is lambda times the sum of entries 1..k-1."""
    ring = a.ctx.ring
    lam = ring.raw(a.ctx.lam)
    out = []
    # the running sum of the entries so far, raw and not yet reduced mod m
    prefix: dict = {}
    get = prefix.get
    for e in a.entries:
        out.append(BarElement(ring, ring.reduce({w: lam * v for w, v in prefix.items()})))
        for w, v in e.raw_items():
            prefix[w] = get(w, 0) + v
    return SequenceElement(a.ctx, tuple(out))


def t_sequence(ctx: Context, p: Element, length: int) -> SequenceElement:
    """The generator sequence of a polynomial, given as a degree-0
    element: entry k puts each term's monomial in slot k of a level-k word,
    all earlier slots unit."""
    if length < 1:
        raise ValueError("sequence length must be at least 1")
    if not isinstance(p, Element):
        raise TypeError(f"expected a degree-0 element, got {p!r}")
    items = _degree0_raw(ctx, p).items()
    entries = []
    for k in range(length):
        prefix = (UNIT_MONOMIAL,) * k
        entries.append(BarElement(ctx.ring, {_trimmed(prefix + u): v for u, v in items}))
    return SequenceElement(ctx, tuple(entries))


def _word_images(word: Word, ctx: Context, length: int, memo: dict) -> list[dict]:
    """The raw images of ``word`` and of each of its suffixes, memoized by
    suffix: entry k - 1 of an image maps trimmed words to raw values, not
    yet reduced mod m."""
    lam = ctx.ring.raw(ctx.lam)
    images = None
    for i in range(len(word) - 1, -1, -1):
        suffix = word[i:]
        hit = memo.get(suffix)
        if hit is None:
            # a unit head leaves each trimmed word as it is
            head = () if word[i] is UNIT_MONOMIAL else (word[i],)
            if images is None:
                # t(m0): m0 in slot k of a level-k word, all earlier slots unit
                hit = [{(UNIT_MONOMIAL,) * k + head if head else (UNIT_MONOMIAL,): 1} for k in range(length)]
            else:
                hit = [{}]
                prefix: dict = {}
                get = prefix.get
                for k, tail_entry in enumerate(images[:-1], 1):
                    # prefix: the sum of the tail's first k entries, whose
                    # words have at most k factors
                    for w, v in tail_entry.items():
                        prefix[w] = get(w, 0) + v
                    hit.append({
                        w + (UNIT_MONOMIAL,) * (k - len(w)) + head if head else w: r
                        for w, v in prefix.items() if (r := lam * v)
                    })
            memo[suffix] = hit
        images = hit
    return images


def _warn_if_not_injective(ctx: Context) -> None:
    """Warn, at the caller of phi or phi_constants, when the weight is a
    zero divisor: the map is still computed, but it need not be injective."""
    if is_zero_divisor(ctx.lam):
        warnings.warn(
            f"lambda = {ctx.lam} is a zero divisor in {ctx.ring}; phi may not be injective",
            PhiInjectivityWarning,
            stacklevel=3,
        )


def phi(a: Element, length: int) -> SequenceElement:
    """The canonical morphism into the sequence model, truncated to the
    first ``length`` entries.

    A word maps to (head generator sequence) * P'(image of the tail),
    computed entry by entry as in the module docstring; images of shared
    suffixes are computed once per call.  When the weight is a zero divisor
    the map is still computed, but it need not be injective.
    """
    if length < 1:
        raise ValueError("sequence length must be at least 1")
    ctx = a.ctx
    ring = ctx.ring
    _warn_if_not_injective(ctx)
    acc = [{} for _ in range(length)]
    memo: dict = {}
    for w, cv in a.raw_items():
        for target, image in zip(acc, _word_images(w, ctx, length, memo)):
            get = target.get
            for word, v in image.items():
                target[word] = get(word, 0) + cv * v
    return SequenceElement(ctx, tuple(BarElement(ring, ring.reduce(e)) for e in acc))


def phi_constants(ctx: Context, coeffs, length: int) -> SequenceElement:
    """Closed form of phi on a combination of pure unit words: for input
    coefficients b_0..b_M (b_n weighting the degree-n unit word), entry n
    of the image is sum_i C(n-1, i) lam^i b_i over i = 0..n-1."""
    if length < 1:
        raise ValueError("sequence length must be at least 1")
    _warn_if_not_injective(ctx)
    ring = ctx.ring
    lam = ring.raw(ctx.lam)
    # lam^i b_i as raw values, reduced mod m only in each entry
    terms = [lam ** i * ring.raw(b) for i, b in enumerate(coeffs)]
    entries = []
    for n in range(1, length + 1):
        total = sum(comb(n - 1, i) * t for i, t in enumerate(terms[:n]))
        entries.append(BarElement(ring, ring.reduce({(UNIT_MONOMIAL,): total})))
    return SequenceElement(ctx, tuple(entries))


def phi_series(a: Series, length: int) -> SequenceElement:
    """phi extended to the completion.  Entry k only receives contributions
    from components of degree < k, so the first precision + 1 entries are
    exact, and components of degree >= length do not reach the image."""
    if length < 1:
        raise ValueError("sequence length must be at least 1")
    if length > a.precision + 1:
        raise ValueError(
            f"entries beyond {a.precision + 1} need components beyond precision {a.precision}"
        )
    return phi(truncate(a, length - 1).finite_part(), length)
