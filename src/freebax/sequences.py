"""The sequence model of the free Baxter algebra.

A bar element is a linear combination of fixed-length monomial words,
identified with its padding by trailing unit factors (the canonical
representative is the shortest one).  Unlike the shuffle algebra, words
here multiply factor by factor at a common level.  Sequences of bar
elements carry the componentwise algebra structure and the summing
operator P'; the morphism ``phi`` realizes the shuffle algebra inside it
by sending a word to head-sequence times P' of the tail's image.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

from .poly import UNIT_MONOMIAL, Poly
from .rings import Coeff, Ring, RingMismatchError, is_zero_divisor
from .series import Series, truncate
from .shuffle import Context, ContextMismatchError, Element, Word, word_key, word_str


class PhiInjectivityWarning(UserWarning):
    """The weight is a zero divisor, so phi need not be injective."""


@dataclass(frozen=True)
class BarElement:
    """Words of one fixed length mapped to nonzero coefficients, trimmed so
    that (unless the level is 1) not every word ends with the unit factor."""

    ring: Ring
    level: int
    terms: tuple[tuple[Word, Coeff], ...]

    def _check(self, other: BarElement):
        if not isinstance(other, BarElement):
            raise TypeError(f"expected a bar element, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError("bar elements over different rings")

    def is_zero(self) -> bool:
        return not self.terms

    def padded_terms(self, level: int) -> dict[Word, Coeff]:
        if level < self.level:
            raise ValueError("cannot pad down")
        if level == self.level:
            return dict(self.terms)
        pad = (UNIT_MONOMIAL,) * (level - self.level)
        return {w + pad: c for w, c in self.terms}

    def __add__(self, other: BarElement) -> BarElement:
        self._check(other)
        level = max(self.level, other.level)
        acc = self.padded_terms(level)
        for w, c in other.padded_terms(level).items():
            acc[w] = acc[w] + c if w in acc else c
        return bar(self.ring, level, acc)

    def __neg__(self) -> BarElement:
        return BarElement(self.ring, self.level, tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: BarElement) -> BarElement:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Coeff, int)):
            return self.scaled(other)
        self._check(other)
        level = max(self.level, other.level)
        left = self.padded_terms(level)
        right = other.padded_terms(level)
        acc: dict[Word, Coeff] = {}
        for wa, ca in left.items():
            for wb, cb in right.items():
                w = tuple(ma * mb for ma, mb in zip(wa, wb))
                c = ca * cb
                acc[w] = acc[w] + c if w in acc else c
        return bar(self.ring, level, acc)

    def __rmul__(self, other):
        if isinstance(other, (Coeff, int)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c: Coeff | int) -> BarElement:
        if isinstance(c, int):
            c = self.ring.coeff(c)
        return bar(self.ring, self.level, {w: c * cf for w, cf in self.terms})

    def to_obj(self):
        return {
            "level": self.level,
            "terms": [{"coeff": str(c), "word": [m.to_obj() for m in w]} for w, c in self.terms],
        }

    def __str__(self):
        from .poly import _join_terms, _term_str

        return _join_terms([_term_str(c, word_str(w)) for w, c in self.terms])


def bar(ring: Ring, level: int, mapping) -> BarElement:
    """Normalize and canonicalize a level + word mapping."""
    if level < 1:
        raise ValueError("bar level must be positive")
    acc: dict[Word, Coeff] = {}
    for w, c in dict(mapping).items():
        if len(w) != level:
            raise ValueError(f"word length {len(w)} != level {level}")
        if c.ring != ring:
            raise RingMismatchError(f"coefficient ring {c.ring} != {ring}")
        if not c.is_zero():
            acc[w] = c
    if not acc:
        return BarElement(ring, 1, ())
    strip = level - 1
    for w in acc:
        run = 0
        for m in reversed(w):
            if not m.is_unit():
                break
            run += 1
        strip = min(strip, run)
        if strip == 0:
            break
    if strip:
        acc = {w[:-strip]: c for w, c in acc.items()}
        level -= strip
    items = sorted(acc.items(), key=lambda t: word_key(t[0]))
    return BarElement(ring, level, tuple(items))


def bar_zero(ring: Ring) -> BarElement:
    return BarElement(ring, 1, ())


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


def _phi_word(word: Word, ctx: Context, length: int, memo: dict) -> SequenceElement:
    hit = memo.get(word)
    if hit is not None:
        return hit
    head = t_sequence(ctx, Poly.from_terms(ctx.ring, {word[0]: ctx.ring.one()}), length)
    out = head if len(word) == 1 else head * p_prime(_phi_word(word[1:], ctx, length, memo))
    memo[word] = out
    return out


def phi(a: Element, length: int) -> SequenceElement:
    """The canonical morphism into the sequence model, truncated to the
    first ``length`` entries.

    A word maps to (head generator sequence) * P'(image of the tail); this
    terminates because each step strips one factor.  When the weight is a
    zero divisor the map is still computed, but it need not be injective.
    """
    if length < 1:
        raise ValueError("sequence length must be at least 1")
    if is_zero_divisor(a.ctx.lam):
        warnings.warn(
            f"lambda = {a.ctx.lam} is a zero divisor in {a.ctx.ring}; phi may not be injective",
            PhiInjectivityWarning,
            stacklevel=2,
        )
    out = seq_zero(a.ctx, length)
    memo: dict = {}
    for w, c in a.terms:
        out = out + _phi_word(w, a.ctx, length, memo) * c
    return out


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
