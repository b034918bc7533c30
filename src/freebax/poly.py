"""Sparse multivariate polynomials over an exact coefficient ring.

These form the base algebra whose monomials make up the tensor-word
alphabet used everywhere else.
"""
from __future__ import annotations

from ._record import record
from .rings import Coeff, Ring, RingMismatchError, is_nilpotent, power


# exponent tuple -> its one Monomial instance
_INTERNED: dict[tuple[tuple[str, int], ...], Monomial] = {}


@record(interned=True)
class Monomial:
    """A power product of variables, stored as sorted (name, exponent) pairs
    with strictly positive exponents; the empty product is the unit.

    Monomials are interned: equal exponent tuples give the same object, so
    equality and hashing are object identity and run in C, which matters
    because words of monomials are hashed constantly.  The table holds
    every distinct monomial the process builds, for the life of the process.
    """

    exps: tuple[tuple[str, int], ...]

    def __new__(cls, exps: tuple[tuple[str, int], ...] = ()) -> Monomial:
        m = _INTERNED.get(exps)
        if m is not None:
            return m
        names = [v for v, _ in exps]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("monomial variables must be sorted and distinct")
        if any(e <= 0 for _, e in exps):
            raise ValueError("monomial exponents must be positive")
        m = object.__new__(cls)
        object.__setattr__(m, "exps", exps)
        object.__setattr__(m, "sort_key", (sum(e for _, e in exps), exps))
        # setdefault keeps one instance even if two threads build it at once
        return _INTERNED.setdefault(exps, m)

    def __reduce__(self):
        # copy and pickle rebuild through the table, keeping identity
        return (Monomial, (self.exps,))

    @staticmethod
    def of(**exps: int) -> Monomial:
        return Monomial(tuple(sorted((v, e) for v, e in exps.items() if e != 0)))

    def __mul__(self, other: Monomial) -> Monomial:
        if not self.exps:
            return other
        if not other.exps:
            return self
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial(tuple(sorted(merged.items())))

    def degree(self) -> int:
        return self.sort_key[0]

    def is_unit(self) -> bool:
        return not self.exps

    def divisible_by(self, var: str) -> bool:
        return any(v == var for v, _ in self.exps)

    def variables(self) -> set[str]:
        return {v for v, _ in self.exps}

    def to_obj(self):
        return [[v, e] for v, e in self.exps]

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


UNIT_MONOMIAL = Monomial()


def _term_str(coeff: Coeff, body: str | None) -> tuple[bool, str]:
    """Render one term as (is_negative, unsigned text)."""
    c = abs(coeff)
    if body is None:
        return coeff.is_negative(), str(c)
    if c.value == 1:
        return coeff.is_negative(), body
    return coeff.is_negative(), f"{c}*{body}"


def _join_terms(parts: list[tuple[bool, str]]) -> str:
    if not parts:
        return "0"
    neg, text = parts[0]
    out = ("-" + text) if neg else text
    for neg, text in parts[1:]:
        out += (" - " if neg else " + ") + text
    return out


class _TermStore:
    """The arithmetic shared by Poly, Element and BarElement: a finite sum
    stored as an unsorted dict ``_raw`` from keys (monomials or words) to
    nonzero raw values of ``ring`` (see ``Ring.raw``), never mutated.  A
    subclass supplies ``ring``, ``_check`` and ``_new``, which builds its
    own kind from a fresh key -> raw value dict, normalized in place, and
    binds ``__hash__``, which ``record`` would otherwise generate over the
    fields."""

    def __hash__(self):
        return hash((self.ring, frozenset(self._raw.items())))

    def raw_items(self):
        """The (key, raw value) pairs in no particular order."""
        return self._raw.items()

    def is_zero(self) -> bool:
        return not self._raw

    def coefficient(self, key) -> Coeff:
        return self.ring.coeff(self._raw.get(key, 0))

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


@record
class Poly(_TermStore):
    """A finite sum of monomials with nonzero coefficients from one ring: a
    term store keyed by monomials, sorted only for ``terms``.  Build one
    with ``from_terms`` or ``from_raw``."""

    ring: Ring
    _raw: dict

    __hash__ = _TermStore.__hash__

    @property
    def terms(self) -> tuple[tuple[Monomial, Coeff], ...]:
        """The terms as (monomial, Coeff) pairs in descending monomial order."""
        coeff = self.ring.coeff
        ordered = sorted(self._raw.items(), key=lambda t: t[0].sort_key, reverse=True)
        return tuple((m, coeff(v)) for m, v in ordered)

    @staticmethod
    def from_raw(ring: Ring, acc: dict) -> Poly:
        """The Poly of a monomial -> raw value dict, reduced in place by
        ``Ring.reduce``: the caller owns ``acc`` and hands it over."""
        return Poly(ring, ring.reduce(acc))

    @staticmethod
    def from_terms(ring: Ring, terms) -> Poly:
        return Poly.from_raw(ring, {m: ring.raw(c) for m, c in dict(terms).items()})

    @staticmethod
    def zero(ring: Ring) -> Poly:
        return Poly(ring, {})

    @staticmethod
    def constant(c: Coeff) -> Poly:
        return Poly.from_terms(c.ring, {UNIT_MONOMIAL: c})

    @staticmethod
    def one(ring: Ring) -> Poly:
        return Poly.constant(ring.one())

    @staticmethod
    def variable(ring: Ring, name: str) -> Poly:
        return Poly(ring, {Monomial.of(**{name: 1}): 1})

    def _check(self, other: Poly):
        if not isinstance(other, Poly):
            raise TypeError(f"expected a polynomial, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError(f"mixed rings {self.ring} and {other.ring}")

    def _new(self, acc: dict) -> Poly:
        return Poly.from_raw(self.ring, acc)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (Coeff, int)):
            return self.scaled(other)
        self._check(other)
        acc: dict = {}
        get = acc.get
        for m1, v1 in self._raw.items():
            for m2, v2 in other._raw.items():
                m = m1 * m2
                acc[m] = get(m, 0) + v1 * v2
        return Poly.from_raw(self.ring, acc)

    def __pow__(self, k: int) -> Poly:
        # a monomial's powers stay one term; a sum's grow
        return power(self, k, lambda: Poly.one(self.ring), len(self._raw) <= 1)

    def is_nilpotent(self) -> bool:
        # N(C[X]) = N(C)[X]: a polynomial is nilpotent exactly when all of
        # its coefficients are.
        return all(is_nilpotent(c) for _, c in self.terms)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for m in self._raw:
            out |= m.variables()
        return out

    def to_obj(self):
        return [{"coeff": str(c), "monomial": m.to_obj()} for m, c in self.terms]

    def __str__(self):
        parts = []
        for mono, coeff in self.terms:
            body = None if mono.is_unit() else str(mono)
            parts.append(_term_str(coeff, body))
        return _join_terms(parts)
