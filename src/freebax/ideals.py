"""Baxter ideals generated by a set of variables or by a scalar, and the
corresponding quotient reduction maps.

For these two generator shapes membership is decidable word by word: a
variable ideal contains exactly the combinations of words with some factor
divisible by a generator, and a scalar ideal the elements with every
coefficient in the principal coefficient ideal.
"""
from __future__ import annotations

import math
import warnings

from ._record import record
from .rings import Coeff, Zmod
from .shuffle import Context, Element, from_raw, variable_names


class TrivialIdealWarning(UserWarning):
    """A nonzero scalar generates the whole ring of rationals."""


@record
class IdealSpec:
    kind: str
    names: tuple[str, ...] = ()
    generator: Coeff | None = None

    def __post_init__(self):
        if self.kind == "vars":
            object.__setattr__(self, "names", variable_names(self.names))
            if not self.names:
                raise ValueError("a variable ideal needs at least one generator")
        elif self.kind == "scalar":
            if self.generator is None or self.generator.is_zero():
                raise ValueError("a scalar ideal needs a nonzero generator")
        else:
            raise ValueError(f"unknown ideal kind {self.kind!r}")

    def __str__(self):
        if self.kind == "vars":
            return "(" + ", ".join(self.names) + ")"
        return f"({self.generator})"


def variable_ideal(*names: str) -> IdealSpec:
    return IdealSpec("vars", tuple(names))


def scalar_ideal(c: Coeff) -> IdealSpec:
    return IdealSpec("scalar", generator=c)


def coeff_in_scalar_ideal(value, gen: Coeff) -> bool:
    """Whether the raw value ``value`` of gen's ring lies in the ideal (gen)."""
    ring = gen.ring
    if ring.kind == "rat":
        return True
    if ring.kind == "int":
        return value % gen.value == 0
    return value % math.gcd(gen.value, ring.modulus) == 0


def _check_variables(ctx: Context, names, what: str) -> None:
    unknown = set(names) - set(ctx.variables)
    if unknown:
        raise ValueError(f"{what} {sorted(unknown)} are not context variables")


def _divisible(word, names) -> bool:
    """Whether some factor of ``word`` is divisible by one of ``names``."""
    return any(m.divisible_by(v) for m in word for v in names)


def baxter_ideal_member(a: Element, spec: IdealSpec) -> bool:
    if spec.kind == "vars":
        _check_variables(a.ctx, spec.names, "generators")
        return all(_divisible(w, spec.names) for w, _ in a.raw_items())
    if spec.generator.ring != a.ctx.ring:
        raise ValueError("scalar generator belongs to a different ring")
    if spec.generator.ring.kind == "rat":
        # once per call, whatever the element, zero included
        warnings.warn(
            "every nonzero scalar generates the whole ring of rationals",
            TrivialIdealWarning,
            stacklevel=2,
        )
    return all(coeff_in_scalar_ideal(v, spec.generator) for _, v in a.raw_items())


def reduce_mod(a: Element, m: int) -> Element:
    """Coefficientwise reduction of an integer element to the ring mod m
    (lambda reduced along); a ring homomorphism commuting with the Baxter
    operator."""
    if a.ctx.ring.kind != "int":
        raise ValueError("modular reduction starts from an integer context")
    ring = Zmod(m)
    ctx = Context(ring, ring.coeff(a.ctx.lam.value), a.ctx.variables)
    return from_raw(ctx, dict(a.raw_items()))


def reduce_vars(a: Element, names) -> Element:
    """Quotient by the ideal generated by the given variables: kill every
    word with a factor divisible by one of them, keep the rest verbatim."""
    names = variable_names(names)
    _check_variables(a.ctx, names, "variables")
    ctx = Context(a.ctx.ring, a.ctx.lam, tuple(v for v in a.ctx.variables if v not in names))
    return from_raw(ctx, {w: v for w, v in a.raw_items() if not _divisible(w, names)})
