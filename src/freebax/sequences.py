"""The sequence model of the free Baxter algebra.

A bar element is a linear combination of monomial words, each identified
with its padding by trailing unit factors (the direct limit of the tensor
powers under w -> w (x) 1).  Words multiply factor by factor, the shorter
one padded with units.  Sequences of bar elements carry the componentwise
algebra structure and the summing operator P'; the morphism ``phi``
realizes the shuffle algebra inside it by sending a word to head-sequence
times P' of the tail's image.

A bar element stores an unsorted dict from words to raw ring values:
``int``, or over the rationals ``int`` or ``Fraction`` (integral rationals
enter as ints, whose arithmetic is several times faster), reduced mod m
and nonzero.  A word is keyed by its non-unit slots, the pairs
(slot, monomial) with a monomial other than the unit in slot order, slots
counted from 0, and () is the word of units; so a word and its padding are
one key.  Padded words come in only through ``bar`` and ``coefficient``,
and go out only through ``terms``, the sorted ``(word, Coeff)`` view that
pads every word to ``level``, one past the last non-unit slot of any word;
it is built only when something reads it, such as ``to_obj`` or ``str``.
Sums are the term store's.  A product of two slot lists is one list: a
unit word is neutral, lists on disjoint slot ranges are concatenated, and
other pairs are merged from the last slot down, a shared slot multiplied
by a lookup in the monomial product table ``poly.PRODUCTS``.  A product
of non-unit monomials is never the unit, so no product stores a unit.

``phi`` does not multiply sequences.  Entry k of phi(m0 (x) w') is
t(m0)_k * lam * sum_{j<k} phi(w')_j.  The words of that partial sum use
only slots below k - 1, while t(m0)_k is unit everywhere but slot k - 1:
the product adds the slot (k - 1, m0) to each word, or leaves it as it is
when m0 is the unit.  So the image of a word is built from one running
prefix sum per entry of its tail's image, and its words have no more
non-unit slots than the source word has non-unit factors, however long
the sequence.

``phi`` makes one bottom-up pass over the prefixes of its argument's
trimmed words.  By linearity, what follows a prefix maps to the images of
its one-factor words plus, over each next factor h, t(h) * P' of the image
of what follows the prefix extended by h.  A factor m followed by a run of
r units maps to t(m) * P'^r(1), whose entry k is lam^r C(k-1, r) t(m)_k,
so a word adds that weighted generator sequence of its last non-unit
factor to the image held by the prefix in front of it; a word of n units
is the case m = 1, r = n-1, held by the empty prefix.  The prefixes of
each length, longest first, are then prepended into their parents by
``_prepend``, which is ``p_prime`` too; the empty prefix's image is the
result.  Nothing recurses, and no pass walks a run of units, so words of
any length go through.  Skipped are words longer than the sequence, as an
n-factor word's image is zero in entries 1..n-1, and at weight 0 every
word of two or more factors.  For the same reason each prefix's image is
held from its first entry that can be nonzero, so the passes over one
long word take a number of steps linear in its length.
"""
from __future__ import annotations

import warnings
from math import comb

from ._record import record
from .poly import PRODUCTS, UNIT_MONOMIAL
from .rings import Coeff, Ring, RingMismatchError, check_count, is_zero_divisor
from .series import Series
from .shuffle import Context, ContextMismatchError, Element, Word, _check_monomial, _degree0_raw, _TermStore, word_key


class PhiInjectivityWarning(UserWarning):
    """The weight is a zero divisor, so phi need not be injective."""


@record
class BarElement(_TermStore):
    """Unit-padded words mapped to nonzero raw ring values, each word
    stored as its non-unit slots (see the module docstring).  Build one
    with ``bar``; the dict is never mutated."""

    ring: Ring
    _raw: dict

    @property
    def level(self) -> int:
        """One past the last non-unit slot of any word, or 1 when there is
        none."""
        return max((w[-1][0] + 1 for w in self._raw if w), default=1)

    @property
    def terms(self) -> tuple[tuple[Word, Coeff], ...]:
        """The terms as (word, Coeff) pairs, each word padded with units to
        the level, sorted by word."""
        units = (UNIT_MONOMIAL,) * self.level
        coeff = self.ring.coeff
        padded = []
        for slots, v in self._raw.items():
            w = list(units)
            for i, m in slots:
                w[i] = m
            padded.append((tuple(w), v))
        return tuple((w, coeff(v)) for w, v in sorted(padded, key=lambda t: word_key(t[0])))

    def coefficient(self, word: Word) -> Coeff:
        return self.ring.coeff(self._raw.get(_slots(word), 0))

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
                # a unit word is neutral, and words on disjoint slot ranges
                # are concatenated; a product of non-unit monomials is never
                # the unit, so no slot of the result is
                if not wa:
                    w = wb
                elif not wb:
                    w = wa
                elif wa[-1][0] < wb[0][0]:
                    w = wa + wb
                elif wb[-1][0] < wa[0][0]:
                    w = wb + wa
                else:
                    w = _merged(wa, wb)
                acc[w] = get(w, 0) + va * vb
        return self._new(acc)

    def to_obj(self):
        return {"level": self.level, "terms": self._terms_obj()}


def _merged(a: tuple, b: tuple) -> tuple:
    """The slot-wise product of two slot lists that share a slot range:
    from the last slot down, a slot of one list alone is kept and a shared
    slot multiplied, until one list runs out and the other's remaining
    front goes before what was merged."""
    product = PRODUCTS.__getitem__
    i, j = len(a), len(b)
    back = []
    while i and j:
        pa, pb = a[i - 1], b[j - 1]
        if pa[0] > pb[0]:
            back.append(pa)
            i -= 1
        elif pb[0] > pa[0]:
            back.append(pb)
            j -= 1
        else:
            back.append((pa[0], product((pa[1], pb[1]))))
            i -= 1
            j -= 1
    back.reverse()
    return a[:i] + b[:j] + tuple(back)


def _slots(word: Word) -> tuple:
    """The stored form of a padded word: its (slot, monomial) pairs with a
    non-unit monomial, in slot order; () for a word of units."""
    return tuple((i, m) for i, m in enumerate(word) if m is not UNIT_MONOMIAL)


def bar(ring: Ring, level: int, mapping) -> BarElement:
    """The bar element of a mapping from words of ``level`` factors to Coeffs."""
    check_count(level, "bar level", 1)
    acc = {}
    for w, c in dict(mapping).items():
        if len(w) != level:
            raise ValueError(f"word length {len(w)} != level {level}")
        for m in w:
            _check_monomial(m)
        acc[_slots(w)] = ring.raw(c)
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
    check_count(length, "sequence length", 1)
    return SequenceElement(ctx, (bar_zero(ctx.ring),) * length)


def seq_one(ctx: Context, length: int) -> SequenceElement:
    check_count(length, "sequence length", 1)
    return SequenceElement(ctx, (bar_one(ctx.ring),) * length)


def _sequence(ctx: Context, entries: list[dict]) -> SequenceElement:
    """The sequence of raw entries, each a word -> raw value dict that is
    normalized in place."""
    ring = ctx.ring
    return SequenceElement(ctx, tuple(BarElement(ring, ring.reduce(e)) for e in entries))


def _add_generator(out: list[dict], m, v, r: int = 0, lam=1, mod=None) -> None:
    """Add v times t(m) * P'^r(1) into the raw entries ``out``, the image of
    m followed by r units, from entry r + 1 on, which is ``out[0]``: entry
    k gets lam^r C(k-1, r) v on the word with m in slot k - 1, stored as
    ((k - 1, m),), or as () when m is the unit; the entries before are
    zero.  At r = 0 this is v times the generator sequence t(m).  Over Z/m,
    with ``mod`` its modulus, each stored value is reduced."""
    # b is C(k, r), exact, carried to entry k + 1; the modulus of a ring
    # without one is None, where pow is the plain power
    b, c = 1, pow(lam, r, mod) * v
    for k, target in enumerate(out, r):
        w = () if m is UNIT_MONOMIAL else ((k, m),)
        value = b * c if mod is None else b * c % mod
        target[w] = target.get(w, 0) + value
        b = b * (k + 1) // (k + 1 - r)


def _entries(images: dict, p, n: int) -> list[dict]:
    """The last n entries of the image that ``images`` holds for ``p``,
    made or extended at the front with empty entries when it holds fewer."""
    image = images.get(p)
    if image is None:
        images[p] = image = [{} for _ in range(n)]
    elif len(image) < n:
        image[:0] = [{} for _ in range(n - len(image))]
    return image if len(image) == n else image[len(image) - n:]


def _prepend(tail_images: list[dict], head, c, out: list[dict], k: int) -> None:
    """Add t(head) * P'(tail) into the raw entries ``out``, from entry
    k + 1 on, which is ``out[0]``, given c = lam and the raw entries
    ``tail_images`` of the tail from entry k on, the entries before zero:
    entry j + 1 gets c times each word of the sum of the tail's first j
    entries with ``head`` in slot j, or as it is when ``head`` is the unit.
    That slot is free when the words of tail entry j use only slots below
    j, as in an image of phi, unless ``head`` is the unit.  Reads as many
    tail entries as ``out`` has."""
    prefix: dict = {}
    get = prefix.get
    for k, (tail_entry, target) in enumerate(zip(tail_images, out), k):
        # hashing is most of the cost of long words: an empty dict takes
        # in another's keys without hashing them again, and a new key is
        # hashed once in a comprehension, where get and set hash it twice
        if prefix:
            for w, v in tail_entry.items():
                prefix[w] = get(w, 0) + v
        else:
            prefix.update(tail_entry)
        tget = target.get
        if head is UNIT_MONOMIAL:
            for w, v in prefix.items():
                target[w] = tget(w, 0) + c * v
        elif not target:
            slot = ((k, head),)
            target.update({w + slot: c * v for w, v in prefix.items()})
        elif prefix:
            slot = ((k, head),)
            for w, v in prefix.items():
                u = w + slot
                target[u] = tget(u, 0) + c * v


def p_prime(a: SequenceElement) -> SequenceElement:
    """Entry k of the output is lambda times the sum of entries 1..k-1."""
    ctx = a.ctx
    out = [{} for _ in a.entries]
    _prepend([e._raw for e in a.entries], UNIT_MONOMIAL, ctx.lam_raw, out[1:], 1)
    return _sequence(ctx, out)


def t_sequence(ctx: Context, p: Element, length: int) -> SequenceElement:
    """The generator sequence of a polynomial, given as a degree-0
    element: entry k puts each term's monomial in slot k of a level-k word,
    all earlier slots unit."""
    check_count(length, "sequence length", 1)
    if not isinstance(p, Element):
        raise TypeError(f"expected a degree-0 element, got {p!r}")
    out = [{} for _ in range(length)]
    for (m,), v in _degree0_raw(ctx, p).items():
        _add_generator(out, m, v)
    return _sequence(ctx, out)


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
    computed in one bottom-up pass over the prefixes of the trimmed words,
    as in the module docstring: a trailing run of r units is placed by the
    weight lam^r C(k-1, r) on entry k, and a word of n units is the case
    r = n-1.  When the weight is a zero divisor the map is still computed,
    but it need not be injective.
    """
    check_count(length, "sequence length", 1)
    ctx = a.ctx
    _warn_if_not_injective(ctx)
    lam = ctx.lam_raw
    mod = ctx.ring.modulus
    # levels[d] maps each d-factor prefix to the raw image of the sum of
    # what follows it in the words it begins: the list of its entries up to
    # entry length - d from the first one held on, those before zero
    levels: list[dict] = [{}]
    for w, v in a._raw.items():
        n = len(w)
        # an n-factor word's image is zero in entries 1..n-1, and at weight
        # 0 so is the image of every word of two or more factors
        if n > length or (n > 1 and not lam):
            continue
        # w is u = w[:t] and a run of n - t units, mapped to the image of
        # u[-1] and the units from entry n - t + 1 on
        t = n
        while t > 1 and w[t - 1] is UNIT_MONOMIAL:
            t -= 1
        while len(levels) < t:
            levels.append({})
        _add_generator(_entries(levels[t - 1], w[:t - 1], length - n + 1), w[t - 1], v, n - t, lam, mod)
    while len(levels) > 1:
        d = len(levels) - 1
        parents = levels[-2]
        for p, image in levels.pop().items():
            # image holds entries from length - d - len(image) + 1 on, so the
            # prepended image is zero before the next entry
            _prepend(image, p[-1], lam, _entries(parents, p[:-1], len(image)), length - d - len(image) + 1)
    return _sequence(ctx, _entries(levels[0], (), length))


def phi_constants(ctx: Context, coeffs, length: int) -> SequenceElement:
    """Closed form of phi on a combination of pure unit words: for input
    coefficients b_0..b_M (b_n weighting the degree-n unit word), entry n
    of the image is sum_i C(n-1, i) lam^i b_i over i = 0..n-1."""
    check_count(length, "sequence length", 1)
    _warn_if_not_injective(ctx)
    ring = ctx.ring
    lam = ctx.lam_raw
    # lam^i b_i as raw values, reduced mod m only in each entry
    terms = [lam ** i * ring.raw(b) for i, b in enumerate(coeffs)]
    return _sequence(ctx, [
        {(): sum(comb(n - 1, i) * t for i, t in enumerate(terms[:n]))}
        for n in range(1, length + 1)
    ])


def phi_series(a: Series, length: int) -> SequenceElement:
    """phi extended to the completion.  Entry k only receives contributions
    from components of degree < k, so the first precision + 1 entries are
    exact, and components of degree >= length do not reach the image."""
    check_count(length, "sequence length", 1)
    if length > a.precision + 1:
        raise ValueError(
            f"entries beyond {a.precision + 1} need components beyond precision {a.precision}"
        )
    return phi(a.finite_part(), length)
