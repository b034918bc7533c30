"""The completed algebra, represented as the finite element of all words
of degree up to a working precision N (the element is known modulo
everything of degree > N).

The product is degree-safe: the degree-d component of a product depends
only on components of degree <= d of the factors, so truncated inputs
determine truncated outputs exactly.
"""
from __future__ import annotations

import math

from ._record import record
from .poly import UNIT_MONOMIAL
from .rings import Coeff, check_count, power
from .shuffle import (
    Context,
    ContextMismatchError,
    Element,
    baxter_P,
    degree_components,
    element,
    one,
    shuffle_product,
)

# the truncation degree of a series when none is given
DEFAULT_PRECISION = 12


@record
class Series:
    """Known up to ``precision``: the finite element of the words of degree
    <= precision.  Build one with ``make_series`` or ``embed``."""

    ctx: Context
    precision: int
    _finite: Element

    def _check(self, other: Series):
        if not isinstance(other, Series):
            raise TypeError(f"expected a series, got {other!r}")
        if other.ctx != self.ctx:
            raise ContextMismatchError("series belong to different contexts")

    @property
    def components(self) -> tuple[tuple[int, Element], ...]:
        """The nonzero homogeneous components as (degree, element) pairs in
        degree order."""
        return tuple(degree_components(self._finite).items())

    def is_zero(self) -> bool:
        return self._finite.is_zero()

    def __add__(self, other: Series) -> Series:
        self._check(other)
        return embed(self._finite + other._finite, min(self.precision, other.precision))

    def __neg__(self) -> Series:
        return Series(self.ctx, self.precision, -self._finite)

    def __sub__(self, other: Series) -> Series:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Series):
            return complete_product(self, other)
        if isinstance(other, Element):
            return complete_product(self, embed(other, self.precision))
        if isinstance(other, (Coeff, int)):
            return Series(self.ctx, self.precision, self._finite.scaled(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Coeff, int, Element)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int) -> Series:
        # the precision bounds the size of every power, so squaring pays
        return power(self, k, lambda: embed(one(self.ctx), self.precision), True)

    def finite_part(self) -> Element:
        return self._finite

    def to_obj(self):
        return {
            "kind": "series",
            "precision": self.precision,
            "components": [{"degree": d, "element": e.to_obj()} for d, e in self.components],
        }

    def __str__(self):
        return f"{self._finite} + O(deg {self.precision + 1})"


def make_series(ctx: Context, precision: int, components) -> Series:
    """Validate a degree -> homogeneous element mapping and join it into a
    Series."""
    check_count(precision, "precision")
    acc: dict = {}
    for d, e in dict(components).items():
        if e.ctx != ctx:
            raise ContextMismatchError("component context mismatch")
        # any int passes here: the bounds are named below
        check_count(d, "component degree", -math.inf)
        if d < 0 or d > precision:
            raise ValueError(f"component degree {d} outside [0, {precision}]")
        if any(len(w) - 1 != d for w in e._raw):
            raise ValueError(f"component at degree {d} is not homogeneous")
        acc.update(e._raw)
    return Series(ctx, precision, Element(ctx, acc))


def zero_series(ctx: Context, precision: int) -> Series:
    return make_series(ctx, precision, {})


def embed(a: Element, precision: int) -> Series:
    """View a finite element in the completion, forgetting degrees > precision."""
    check_count(precision, "precision")
    top = precision + 1
    return Series(a.ctx, precision, Element(a.ctx, {w: v for w, v in a._raw.items() if len(w) <= top}))


def truncate(a: Series, precision: int) -> Series:
    check_count(precision, "precision")
    if precision > a.precision:
        raise ValueError("cannot raise precision: the missing components are unknown")
    return embed(a._finite, precision)


def complete_product(a: Series, b: Series) -> Series:
    """The product of the finite parts, cut at the lower precision; exact
    because the product is degree-safe."""
    a._check(b)
    n = min(a.precision, b.precision)
    return embed(shuffle_product(a._finite, b._finite, _cut=n), n)


def complete_P(a: Series) -> Series:
    """Degreewise prepend-unit; the degree-d output comes from the
    degree-(d-1) input, so one more component becomes known."""
    return Series(a.ctx, a.precision + 1, baxter_P(a._finite))


def geometric_unit_series(ctx: Context, c: Coeff, precision: int) -> Series:
    """The series whose degree-n component is c^n times the unit word of
    degree n (the n = 0 term is always the algebra unit)."""
    check_count(precision, "precision")
    acc = {}
    cn = ctx.ring.one()
    for n in range(precision + 1):
        acc[(UNIT_MONOMIAL,) * (n + 1)] = cn
        cn = cn * c
    return embed(element(ctx, acc), precision)
