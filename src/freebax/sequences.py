"""The sequence model of the free Baxter algebra.

A bar element is a linear combination of fixed-length monomial words,
identified with its padding by trailing unit factors (the canonical
representative is the shortest one).  Unlike the shuffle algebra, words
here multiply factor by factor at a common level.  Sequences of bar
elements carry the componentwise algebra structure and the summing
operator P'; the morphism ``phi`` realizes the shuffle algebra inside it
by sending a word to head-sequence times P' of the tail's image.

A bar element stores an unsorted dict from words to raw ring values:
``int``, or over the rationals ``int`` or ``Fraction`` (integral
rationals enter as ints, whose arithmetic is several times faster).
Values are reduced mod m, zeros are dropped and the words are trimmed.
Arithmetic stays on raw values; the sorted ``(word, Coeff)`` view
``terms`` is built only when something reads it, such as rendering and
``to_obj``.

``phi`` does not multiply sequences.  Entry k of phi(m0 (x) w') is
t(m0)_k * lam * sum_{j<k} phi(w')_j.  That partial sum has level at most
k-1, so padded with units to level k it has a unit in slot k, while
t(m0)_k is unit everywhere but slot k: the product just appends m0 in
slot k.  So the image of a word is built from one running prefix sum per
entry of its tail's image.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .poly import UNIT_MONOMIAL, Poly
from .rings import Coeff, Ring, RingMismatchError, is_zero_divisor
from .series import Series, truncate
from .shuffle import Context, ContextMismatchError, Element, Word, word_key, word_str


class PhiInjectivityWarning(UserWarning):
    """The weight is a zero divisor, so phi need not be injective."""


@dataclass(frozen=True)
class BarElement:
    """Words of one fixed length mapped to nonzero raw ring values, trimmed
    so that (unless the level is 1) not every word ends with the unit
    factor.  Build one with ``bar``; the dict is never mutated."""

    ring: Ring
    level: int
    _raw: dict

    def __hash__(self):
        return hash((self.ring, self.level, frozenset(self._raw.items())))

    @property
    def terms(self) -> tuple[tuple[Word, Coeff], ...]:
        """The terms as (word, Coeff) pairs sorted by word."""
        coeff = self.ring.coeff
        return tuple((w, coeff(v)) for w, v in sorted(self._raw.items(), key=lambda t: word_key(t[0])))

    def _check(self, other: BarElement):
        if not isinstance(other, BarElement):
            raise TypeError(f"expected a bar element, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError("bar elements over different rings")

    def is_zero(self) -> bool:
        return not self._raw

    def _padded(self, level: int) -> dict:
        if level == self.level:
            return self._raw
        pad = (UNIT_MONOMIAL,) * (level - self.level)
        return {w + pad: v for w, v in self._raw.items()}

    def __add__(self, other: BarElement) -> BarElement:
        self._check(other)
        level = max(self.level, other.level)
        acc = dict(self._padded(level))
        get = acc.get
        for w, v in other._padded(level).items():
            acc[w] = get(w, 0) + v
        return _normalized(self.ring, level, acc)

    def __neg__(self) -> BarElement:
        return _normalized(self.ring, self.level, {w: -v for w, v in self._raw.items()})

    def __sub__(self, other: BarElement) -> BarElement:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Coeff, int)):
            return self.scaled(other)
        self._check(other)
        level = max(self.level, other.level)
        right = other._padded(level).items()
        acc: dict = {}
        get = acc.get
        for wa, va in self._padded(level).items():
            for wb, vb in right:
                w = tuple(map(mul, wa, wb))
                acc[w] = get(w, 0) + va * vb
        return _normalized(self.ring, level, acc)

    def __rmul__(self, other):
        if isinstance(other, (Coeff, int)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c: Coeff | int) -> BarElement:
        if isinstance(c, int):
            c = self.ring.coeff(c)
        elif c.ring != self.ring:
            raise RingMismatchError(f"coefficient ring {c.ring} != {self.ring}")
        cv = _raw(c)
        return _normalized(self.ring, self.level, {w: cv * v for w, v in self._raw.items()})

    def to_obj(self):
        return {
            "level": self.level,
            "terms": [{"coeff": str(c), "word": [m.to_obj() for m in w]} for w, c in self.terms],
        }

    def __str__(self):
        from .poly import _join_terms, _term_str

        return _join_terms([_term_str(c, word_str(w)) for w, c in self.terms])


def _raw(c: Coeff):
    """The raw value of ``c``; an integral rational becomes an int."""
    v = c.value
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _normalized(ring: Ring, level: int, acc: dict) -> BarElement:
    """Reduce raw values mod m, drop zeros and strip the trailing columns in
    which every word has the unit factor."""
    if ring.kind == "mod":
        m = ring.modulus
        acc = {w: r for w, v in acc.items() if (r := v % m)}
    else:
        acc = {w: v for w, v in acc.items() if v}
    if not acc:
        return BarElement(ring, 1, {})
    strip = level - 1
    for w in acc:
        run = 0
        for f in reversed(w):
            if f is not UNIT_MONOMIAL:
                break
            run += 1
        strip = min(strip, run)
        if strip == 0:
            return BarElement(ring, level, acc)
    if strip:
        acc = {w[:-strip]: v for w, v in acc.items()}
    return BarElement(ring, level - strip, acc)


def bar(ring: Ring, level: int, mapping) -> BarElement:
    """Normalize and canonicalize a level + word -> Coeff mapping."""
    if level < 1:
        raise ValueError("bar level must be positive")
    acc = {}
    for w, c in dict(mapping).items():
        if len(w) != level:
            raise ValueError(f"word length {len(w)} != level {level}")
        if c.ring != ring:
            raise RingMismatchError(f"coefficient ring {c.ring} != {ring}")
        acc[w] = _raw(c)
    return _normalized(ring, level, acc)


def bar_zero(ring: Ring) -> BarElement:
    return BarElement(ring, 1, {})


def bar_one(ring: Ring) -> BarElement:
    return bar(ring, 1, {(UNIT_MONOMIAL,): ring.one()})


def bar_scalar(ring: Ring, c: Coeff) -> BarElement:
    return bar(ring, 1, {(UNIT_MONOMIAL,): c})


@dataclass(frozen=True)
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

    def truncated(self, n: int) -> SequenceElement:
        if n > self.length:
            raise ValueError("cannot extend a sequence truncation")
        return SequenceElement(self.ctx, self.entries[:n])

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
    lam = a.ctx.lam
    out = []
    prefix = bar_zero(a.ctx.ring)
    for e in a.entries:
        out.append(prefix.scaled(lam))
        prefix = prefix + e
    return SequenceElement(a.ctx, tuple(out))


def t_sequence(ctx: Context, p: Poly, length: int) -> SequenceElement:
    """The generator sequence of a polynomial: entry k puts each term's
    monomial in slot k of a level-k word, all earlier slots unit."""
    if p.ring != ctx.ring:
        raise RingMismatchError(f"polynomial ring {p.ring} != {ctx.ring}")
    entries = []
    for k in range(1, length + 1):
        prefix = (UNIT_MONOMIAL,) * (k - 1)
        entries.append(bar(ctx.ring, k, {prefix + (m,): c for m, c in p.terms}))
    return SequenceElement(ctx, tuple(entries))


def _word_images(word: Word, ctx: Context, length: int, memo: dict) -> list[dict]:
    """The raw images of ``word`` and of each of its suffixes, memoized by
    suffix: entry k - 1 of an image maps words of exactly k factors (not
    trimmed) to raw values, not yet reduced mod m."""
    lam = _raw(ctx.lam)
    images = None
    for i in range(len(word) - 1, -1, -1):
        suffix = word[i:]
        hit = memo.get(suffix)
        if hit is None:
            head = (word[i],)
            if images is None:
                # t(m0): m0 in slot k of a level-k word, all earlier slots unit
                hit = [{(UNIT_MONOMIAL,) * k + head: 1} for k in range(length)]
            else:
                hit = [{}]
                prefix: dict = {}
                pad = (UNIT_MONOMIAL,)
                for tail_entry in images[:-1]:
                    # prefix: the sum of the tail's entries so far, padded to
                    # the level of the latest one
                    prefix = {w + pad: v for w, v in prefix.items()}
                    get = prefix.get
                    for w, v in tail_entry.items():
                        prefix[w] = get(w, 0) + v
                    hit.append({w + head: r for w, v in prefix.items() if (r := lam * v)})
            memo[suffix] = hit
        images = hit
    return images


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
    if is_zero_divisor(ctx.lam):
        warnings.warn(
            f"lambda = {ctx.lam} is a zero divisor in {ring}; phi may not be injective",
            PhiInjectivityWarning,
            stacklevel=2,
        )
    acc = [{} for _ in range(length)]
    memo: dict = {}
    for w, c in a.terms:
        cv = _raw(c)
        for target, image in zip(acc, _word_images(w, ctx, length, memo)):
            get = target.get
            for word, v in image.items():
                target[word] = get(word, 0) + cv * v
    return SequenceElement(ctx, tuple(_normalized(ring, k, e) for k, e in enumerate(acc, 1)))


def phi_constants(ctx: Context, coeffs, length: int) -> SequenceElement:
    """Closed form of phi on a combination of pure unit words: for input
    coefficients b_0..b_M (b_n weighting the degree-n unit word), entry n
    of the image is sum_i C(n-1, i) lam^i b_i over i = 0..n-1."""
    bs = list(coeffs)
    entries = []
    for n in range(1, length + 1):
        total = ctx.ring.zero()
        for i, b in enumerate(bs):
            if i > n - 1:
                break
            total = total + ctx.ring.coeff(comb(n - 1, i)) * ctx.lam ** i * b
        entries.append(bar_scalar(ctx.ring, total))
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
