"""Exact arithmetic over the supported coefficient rings: the integers,
the rationals, and the integers modulo m."""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from ._record import record


class RingMismatchError(ValueError):
    """Operands belong to different coefficient rings."""


@record
class Ring:
    """Descriptor of a coefficient ring: ``int``, ``rat`` or ``mod`` (m >= 2)."""

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in ("int", "rat", "mod"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "mod":
            if not isinstance(self.modulus, int) or self.modulus < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif self.modulus is not None:
            raise ValueError(f"ring {self.kind!r} takes no modulus")

    def coeff(self, value) -> Coeff:
        return Coeff(self, value)

    def zero(self) -> Coeff:
        return Coeff(self, 0)

    def one(self) -> Coeff:
        return Coeff(self, 1)

    def raw(self, c: Coeff | int):
        """The raw value of an int or a Coeff of this ring; an integral
        rational becomes an int (int arithmetic beats ``Fraction``)."""
        if isinstance(c, int):
            return c
        if c.ring != self:
            raise RingMismatchError(f"coefficient ring {c.ring} != {self}")
        v = c.value
        if type(v) is Fraction and v.denominator == 1:
            return v.numerator
        return v

    def reduce(self, acc: dict) -> dict:
        """Normalize ``acc``, a key -> raw value dict, in place: values
        reduced mod m, zeros deleted; returns ``acc`` itself.  The caller
        owns the dict (it has just built it) and hands it over: nothing
        else may hold it."""
        if self.kind == "mod":
            m = self.modulus
            zeros = []
            for k, v in acc.items():
                # replacing the value of a present key keeps iteration valid
                if r := v % m:
                    acc[k] = r
                else:
                    zeros.append(k)
        elif all(acc.values()):
            # nothing cancelled, as in most products and every built word
            return acc
        else:
            zeros = [k for k, v in acc.items() if not v]
        n = len(acc)
        for k in zeros:
            del acc[k]
        if 2 * len(zeros) > n:
            # most terms cancelled, as in a checked identity: deleting keeps
            # the table sized for all of them, refilling the dict shrinks it
            kept = list(acc.items())
            acc.clear()
            acc.update(kept)
        return acc

    def __str__(self):
        return f"mod:{self.modulus}" if self.kind == "mod" else self.kind


INT = Ring("int")
RAT = Ring("rat")


def Zmod(m: int) -> Ring:
    return Ring("mod", m)


@record
class Coeff:
    """An element of a coefficient ring, always kept in normal form:
    rationals gcd-reduced with positive denominator, residues in [0, m)."""

    ring: Ring
    value: int | Fraction

    def __post_init__(self):
        if self.ring.kind == "rat":
            if type(self.value) is not Fraction:  # a Fraction is already reduced
                object.__setattr__(self, "value", Fraction(self.value))
        elif not isinstance(self.value, int):
            raise TypeError(f"{self.ring} coefficient must be an int, got {self.value!r}")
        elif self.ring.kind == "mod":
            object.__setattr__(self, "value", self.value % self.ring.modulus)

    def _coerce(self, other) -> Coeff:
        if isinstance(other, int):
            return Coeff(self.ring, other)
        if not isinstance(other, Coeff):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatchError(f"mixed rings {self.ring} and {other.ring}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Coeff(self.ring, self.value + other.value)

    __radd__ = __add__

    def __neg__(self):
        return Coeff(self.ring, -self.value)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Coeff(self.ring, self.value * other.value)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        check_count(k, "exponent")
        # the modulus is None outside Z/m, where pow is the plain power
        return Coeff(self.ring, pow(self.value, k, self.ring.modulus))

    def is_zero(self) -> bool:
        return self.value == 0

    def is_negative(self) -> bool:
        # residues are canonical representatives, never rendered with a sign
        return self.ring.kind != "mod" and self.value < 0

    def __abs__(self):
        return Coeff(self.ring, abs(self.value)) if self.is_negative() else self

    def __str__(self):
        try:
            return str(self.value)
        except ValueError:  # a part longer than the interpreter's int-string limit
            digits = max(_digit_count(self.value.numerator), _digit_count(self.value.denominator))
            raise ValueError(
                f"a coefficient of {digits} digits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits for printing an integer; "
                "set PYTHONINTMAXSTRDIGITS=0 to print it"
            ) from None


def _digit_count(n: int) -> int:
    """The number of decimal digits of an integer's absolute value, found
    without converting it to a string."""
    n = abs(n)
    # 2**(b-1) <= n < 2**b, so the estimate is the digit count or one short
    d = math.floor((n.bit_length() - 1) * math.log10(2)) + 1 if n else 1
    return d + 1 if n >= 10 ** d else d


def check_count(value, what: str, least: int = 0) -> None:
    """The one check of a count, such as a degree, length, precision,
    exponent or level: a ``TypeError`` unless ``value`` is an int and not
    a bool, a ``ValueError`` below ``least``; each message names ``what``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be at least {least}" if least else f"{what} must be nonnegative")


def power(x, k: int, one, by_squaring: bool):
    """x**k for an associative, commutative product; ``one()`` for k = 0.
    Square-and-multiply (about 2*log2(k) products) only where the powers do
    not grow, else k - 1 products with the small base: squaring a growing
    power costs more (U(1)^300 at weight 1 is about 15 times slower)."""
    check_count(k, "exponent")
    if k == 0:
        return one()
    if not by_squaring:
        out = x
        for _ in range(k - 1):
            out = out * x
        return out
    out = None
    while k:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if k:
            x = x * x
    return out


def characteristic(ring: Ring) -> int:
    return ring.modulus if ring.kind == "mod" else 0


def is_unit(c: Coeff) -> bool:
    if c.ring.kind == "int":
        return c.value in (1, -1)
    if c.ring.kind == "rat":
        return c.value != 0
    return math.gcd(c.value, c.ring.modulus) == 1


def is_zero_divisor(c: Coeff) -> bool:
    if c.ring.kind != "mod" or c.value == 0:
        return False
    return math.gcd(c.value, c.ring.modulus) > 1


def is_nilpotent(c: Coeff) -> bool:
    if c.ring.kind != "mod":
        return c.value == 0
    m = c.ring.modulus
    # c is nilpotent mod m iff every prime factor of m divides c, in which
    # case the nilpotency index is at most log2(m).
    return pow(c.value, max(1, m.bit_length()), m) == 0


def inverse(c: Coeff) -> Coeff:
    """Multiplicative inverse; raises ValueError when c is not a unit."""
    if not is_unit(c):
        raise ValueError(f"{c} is not a unit in {c.ring}")
    if c.ring.kind == "rat":
        return Coeff(c.ring, 1 / c.value)
    if c.ring.kind == "mod":
        return Coeff(c.ring, pow(c.value, -1, c.ring.modulus))
    return c  # +-1 over the integers


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


INFINITY = math.inf


def lambda_valuation(c: Coeff, lam: Coeff) -> int | float:
    """Largest k with lam^k dividing c over the integers; inf for c = 0.

    Only defined over the integers with lam of prime absolute value.
    """
    if c.ring != INT or lam.ring != INT:
        raise ValueError("the lambda-adic valuation is defined over the integers only")
    if not is_prime(abs(lam.value)):
        raise ValueError(f"lambda = {lam} is not a prime integer")
    if c.value == 0:
        return INFINITY
    v, p = 0, abs(lam.value)
    n = abs(c.value)
    while n % p == 0:
        n //= p
        v += 1
    return v


def literal_value(ring: Ring, num: int, den: int):
    """The raw value (see ``Ring.raw``) of the literal num/den in ``ring``,
    for den > 0: exact division over the integers, num * den^-1 over the
    rationals and Z/m.  This is the one reading of a coefficient literal,
    for flags and expressions alike."""
    if ring.kind == "mod":
        m = ring.modulus
        if math.gcd(den, m) != 1:
            raise ValueError(f"{den} is not invertible in {ring}")
        return num * pow(den, -1, m) % m
    if not num % den:
        return num // den
    if ring.kind == "int":
        raise ValueError(f"{num}/{den} is not an integer")
    return Fraction(num, den)


def literal_coeff(ring: Ring, num: int, den: int) -> Coeff:
    """The literal num/den in ``ring`` as a Coeff, read by ``literal_value``."""
    return Coeff(ring, literal_value(ring, num, den))


# an expression literal, n or n/d, with an optional sign
_LITERAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def parse_coeff(ring: Ring, text: str) -> Coeff:
    """Parse a coefficient flag: an expression literal ``n`` or ``n/d``,
    optionally signed, read by ``literal_coeff``."""
    text = text.strip()
    m = _LITERAL.fullmatch(text)
    try:
        if m is None:
            raise ValueError
        num, den = int(m[1]), int(m[2] or 1)
    except ValueError:  # not a literal, or a part past the int-string limit
        raise ValueError(f"invalid {ring} coefficient {text!r}") from None
    if den == 0:
        raise ValueError(f"zero denominator in {ring} coefficient {text!r}")
    return literal_coeff(ring, num, den)
