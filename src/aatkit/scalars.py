"""Gaussian-rational scalars and checked complex floats.

ExactScalar is the coefficient field for all symbolic work: a pair of
arbitrary-precision rationals (real and imaginary part).  fractions.Fraction
keeps denominators positive and in lowest terms, so the field invariants hold
by construction and no operation ever rounds.

Numeric work uses plain Python complex; ``checked_complex`` rejects NaN/Inf
where the contract demands finite values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DivisionByZeroScalar, InexactDivision, InvariantViolation

RationalLike = Union[int, Fraction]


class ExactScalar:
    """A Gaussian rational re + im*i with exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "ExactScalar":
        return ExactScalar(0, 0)

    @staticmethod
    def one() -> "ExactScalar":
        return ExactScalar(1, 0)

    @staticmethod
    def of_fractions(re: Fraction, im: Fraction) -> "ExactScalar":
        """Wrap two Fractions as they are (no re-normalization)."""
        s = object.__new__(ExactScalar)
        s.re, s.im = re, im
        return s

    @staticmethod
    def coerce(value) -> "ExactScalar":
        """Accept ExactScalar, int, or Fraction; reject floats (exactness)."""
        s = _operand(value)
        if s is None:
            raise TypeError(f"cannot coerce {type(value).__name__} to ExactScalar")
        return s

    # -- ring/field operations -------------------------------------------
    # An operand that does not coerce gives NotImplemented, so Python tries
    # the other operand's reflected method (a series times a scalar) and
    # raises TypeError only if that declines too (a float).

    def __add__(self, other) -> "ExactScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return ExactScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "ExactScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other) -> "ExactScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise DivisionByZeroScalar("division by zero ExactScalar")
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other) -> "ExactScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "ExactScalar":
        if n < 0:
            return ExactScalar.one() / self ** (-n)
        result = ExactScalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    # -- predicates and conversions --------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def is_rational(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactScalar(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def _operand(value) -> ExactScalar | None:
    """value as an ExactScalar if it is one, an int or a Fraction."""
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar(value)
    return None


def gaussian_integers(values) -> tuple[int, list[int], list[int]]:
    """(D, re, im) with values[k] = (re[k] + i im[k]) / D for ExactScalar
    values, D > 0 the lcm of their denominators."""
    D = math.lcm(*{x.denominator for c in values for x in (c.re, c.im)})
    return (D, [c.re.numerator * (D // c.re.denominator) for c in values],
            [c.im.numerator * (D // c.im.denominator) for c in values])


def gauss_divexact(xr: int, xi: int, q: tuple[int, int]) -> tuple[int, int]:
    """(xr + i xi) / q in Z[i]; InexactDivision unless the division is exact."""
    qr, qi = q
    if qi:
        n = qr * qr + qi * qi
        xr, xi = xr * qr + xi * qi, xi * qr - xr * qi
    else:
        n = qr
    a, ra = divmod(xr, n)
    b, rb = divmod(xi, n)
    if ra or rb:
        raise InexactDivision(f"{q} does not divide ({xr}, {xi}) in Z[i]")
    return a, b


def gauss_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A GCD of two Gaussian integers (Euclid with the nearest quotient, so
    each remainder has at most half the norm of the divisor)."""
    (ar, ai), (br, bi) = a, b
    while br or bi:
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def checked_complex(re: float, im: float = 0.0) -> complex:
    """Build a complex value, rejecting NaN and infinities."""
    z = complex(re, im)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvariantViolation(f"non-finite complex value {z!r}")
    return z


def rationalize(x: float, max_den: int = 10**6) -> Fraction | None:
    """Best small-denominator rational near x, or None if x is not close.

    Used to recognize exact data hiding inside numeric results (e.g. a
    rational root found by a float solver); callers must re-verify exactly.
    """
    if not math.isfinite(x):
        return None
    cand = Fraction(x).limit_denominator(max_den)
    if abs(float(cand) - x) < 1e-9 * max(1.0, abs(x)):
        return cand
    return None
