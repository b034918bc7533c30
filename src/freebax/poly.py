"""Monomials: the power products of variables that make up the
tensor-word alphabet used everywhere else.

This module holds ``Monomial``, ``UNIT_MONOMIAL`` and ``PRODUCTS``, the
one table of monomial products.  A polynomial of the base algebra C[X] is
a degree-0 element of the free Baxter algebra (see ``shuffle``): a sum of
words of one monomial each.

Every product of monomials in the algebra kernels, the slots of a bar
product and the heads and merges of the shuffle product, is a lookup
``PRODUCTS[a, b]``.  Monomials are interned, so the pair hashes by
identity and a hit runs in C, with no Python call; a miss calls
``Monomial.__mul__`` once and stores the result.  The table holds at most
the square of the number of interned monomials, which already live for
the whole process, so it is not capped.
"""
from __future__ import annotations

from ._record import record


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

    def is_unit(self) -> bool:
        return not self.exps

    def divisible_by(self, var: str) -> bool:
        return any(v == var for v, _ in self.exps)

    def to_obj(self):
        return [[v, e] for v, e in self.exps]

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


UNIT_MONOMIAL = Monomial()


class _ProductTable(dict):
    """(a, b) -> a * b for interned monomials, filled on first lookup."""

    __slots__ = ()

    def __missing__(self, key: tuple[Monomial, Monomial]) -> Monomial:
        a, b = key
        # racing threads store the same interned product
        p = self[key] = a * b
        return p


PRODUCTS = _ProductTable()
