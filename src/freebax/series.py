"""The completed algebra, represented as one homogeneous component per
degree up to a working precision N (the element is known modulo everything
of degree > N).

The product is degree-safe: the degree-d component of a product depends
only on components of degree <= d of the factors, so truncated inputs
determine truncated outputs exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .rings import Coeff
from .shuffle import (
    Context,
    ContextMismatchError,
    Element,
    baxter_P,
    degree_components,
    element,
    shuffle_product,
    unit_word,
    zero,
)


@dataclass(frozen=True)
class Series:
    """Known components (degree -> homogeneous element) up to ``precision``."""

    ctx: Context
    precision: int
    components: tuple[tuple[int, Element], ...]

    def _check(self, other: Series):
        if not isinstance(other, Series):
            raise TypeError(f"expected a series, got {other!r}")
        if other.ctx != self.ctx:
            raise ContextMismatchError("series belong to different contexts")

    def component(self, degree: int) -> Element:
        for d, e in self.components:
            if d == degree:
                return e
        return zero(self.ctx)

    def component_map(self) -> dict[int, Element]:
        return dict(self.components)

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: Series) -> Series:
        self._check(other)
        n = min(self.precision, other.precision)
        acc = {d: e for d, e in self.components if d <= n}
        for d, e in other.components:
            if d <= n:
                acc[d] = acc[d] + e if d in acc else e
        return make_series(self.ctx, n, acc)

    def __neg__(self) -> Series:
        return Series(self.ctx, self.precision, tuple((d, -e) for d, e in self.components))

    def __sub__(self, other: Series) -> Series:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Series):
            return complete_product(self, other)
        if isinstance(other, Element):
            return complete_product(self, embed(other, self.precision))
        if isinstance(other, (Coeff, int)):
            return make_series(self.ctx, self.precision, {d: e.scaled(other) for d, e in self.components})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Coeff, int, Element)):
            return self.__mul__(other)
        return NotImplemented

    def finite_part(self) -> Element:
        # the components hold words of distinct lengths, in degree order, and
        # word_key orders by length first: their terms concatenate in order
        return Element(self.ctx, tuple(t for _, e in self.components for t in e.terms))

    def to_obj(self):
        return {
            "kind": "series",
            "precision": self.precision,
            "components": [{"degree": d, "element": e.to_obj()} for d, e in self.components],
        }

    def __str__(self):
        return f"{self.finite_part()} + O(deg {self.precision + 1})"


def make_series(ctx: Context, precision: int, components) -> Series:
    """Normalize a degree -> element mapping into a Series."""
    if precision < 0:
        raise ValueError("precision must be nonnegative")
    items = []
    for d, e in dict(components).items():
        if e.ctx != ctx:
            raise ContextMismatchError("component context mismatch")
        if d < 0 or d > precision:
            raise ValueError(f"component degree {d} outside [0, {precision}]")
        if any(len(w) - 1 != d for w, _ in e.terms):
            raise ValueError(f"component at degree {d} is not homogeneous")
        if not e.is_zero():
            items.append((d, e))
    items.sort()
    return Series(ctx, precision, tuple(items))


def zero_series(ctx: Context, precision: int) -> Series:
    return make_series(ctx, precision, {})


def embed(a: Element, precision: int) -> Series:
    """View a finite element in the completion, forgetting degrees > precision."""
    comps = {d: e for d, e in degree_components(a).items() if d <= precision}
    return make_series(a.ctx, precision, comps)


def truncate(a: Series, precision: int) -> Series:
    if precision > a.precision:
        raise ValueError("cannot raise precision: the missing components are unknown")
    return make_series(a.ctx, precision, {d: e for d, e in a.components if d <= precision})


def complete_product(a: Series, b: Series) -> Series:
    """The product of the finite parts, cut at the lower precision; exact
    because the product is degree-safe."""
    a._check(b)
    return embed(shuffle_product(a.finite_part(), b.finite_part()), min(a.precision, b.precision))


def complete_P(a: Series) -> Series:
    """Degreewise prepend-unit; the degree-d output comes from the
    degree-(d-1) input, so one more component becomes known."""
    return make_series(a.ctx, a.precision + 1, {d + 1: baxter_P(e) for d, e in a.components})


def geometric_unit_series(ctx: Context, c: Coeff, precision: int) -> Series:
    """The series whose degree-n component is c^n times the unit word of
    degree n (the n = 0 term is always the algebra unit)."""
    comps: dict[int, Element] = {}
    power = ctx.ring.one()
    for n in range(precision + 1):
        if not power.is_zero():
            comps[n] = unit_word(ctx, n).scaled(power)
        power = power * c
    return make_series(ctx, precision, comps)
