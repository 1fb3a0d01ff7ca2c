"""Truncated power series with explicit centers, in one and two variables.

A TruncSeries represents f(z) = sum c_k (z - center)^k for k in
[low, order), plus an unknown tail O((z-center)^order).  Coefficients are
either all ExactScalar (exact mode) or all complex (numeric mode); the two
never mix inside one series, and promotion exact -> numeric is explicit and
one-way via ``to_numeric``.  Negative ``low`` gives finite Laurent tails for
pole-type elements.

Every operation records the order to which its output is trustworthy, so
callers (and tests) never compare coefficients beyond validity.
``rearrange_at`` re-expands an element about a new center with one
generalized-binomial loop over the coefficient field: exact when the series
and the new center are, complex otherwise.

BiSeries is the two-variable analogue with total-degree truncation; it
realizes expansions of f(u+v) and the bivariate coefficients that appear in
addition-theorem work.  Like TruncSeries it is either exact or complex.

FixedBiSeries is the extended-precision bivariate series of the Schwarz
reduction: dense rows of fixed-point Gaussian-integer mantissas with one
binary exponent per series and a budget of PREC_BITS bits.

Both bivariate products share one kernel, _triangle_product: triangular
rows of Gaussian integers (row d holds x^(d-j) y^j), each row packed into
one big integer (Kronecker substitution) and multiplied exactly.  An exact
BiSeries enters it as integer rows over one positive denominator, the lcm
of its coefficient denominators, and leaves it as one Fraction per nonzero
coefficient; a FixedBiSeries enters with its mantissas and rounds once.
Exact TruncSeries products pack each whole coefficient row into one big
integer (_line_product), and exact TruncSeries inverses run a
fraction-free recurrence on Gaussian integers (_exact_inverse); both build
one Fraction per part of each result coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import (
    CenterMismatch,
    DivisionByZeroSeries,
    OutsideDisc,
    SingularCenter,
    TooFewCoefficients,
)
from .scalars import ExactScalar, gaussian_integers

_NUMERIC_ZERO_REL = 1e-12
_ZERO = Fraction(0)


def _is_exact_scalar(c) -> bool:
    return isinstance(c, (ExactScalar, int, Fraction))


def _coerce_coeffs(coeffs: Sequence, exact: bool) -> list:
    if exact:
        return [ExactScalar.coerce(c) for c in coeffs]
    return [complex(c) for c in coeffs]


class TruncSeries:
    """Function element: coefficients for exponents low .. order-1."""

    __slots__ = ("center", "low", "coeffs", "order", "exact")

    def __init__(self, center, coeffs: Sequence, low: int = 0,
                 order: int | None = None, exact: bool | None = None):
        if exact is None:
            exact = all(_is_exact_scalar(c) for c in coeffs) and (
                _is_exact_scalar(center) or center == 0)
        self.exact = bool(exact)
        if self.exact:
            self.center = ExactScalar.coerce(center if _is_exact_scalar(center) else 0)
        else:
            self.center = complex(center)
        self.low = int(low)
        self.coeffs = _coerce_coeffs(coeffs, self.exact)
        self.order = int(order) if order is not None else self.low + len(self.coeffs)
        if len(self.coeffs) != self.order - self.low:
            raise ValueError("coefficient list length must equal order - low")

    # -- basics -------------------------------------------------------------

    @staticmethod
    def zeros(center, order: int, exact: bool, low: int = 0) -> "TruncSeries":
        n = order - low
        fill = [ExactScalar.zero()] * n if exact else [0j] * n
        return TruncSeries(center, fill, low=low, order=order, exact=exact)

    @staticmethod
    def const(value, center, order: int, exact: bool) -> "TruncSeries":
        s = TruncSeries.zeros(center, order, exact)
        s.coeffs[0 - s.low] = ExactScalar.coerce(value) if exact else complex(value)
        return s

    @staticmethod
    def identity(center, order: int, exact: bool) -> "TruncSeries":
        """The local coordinate (z - center) itself."""
        s = TruncSeries.zeros(center, order, exact)
        if order > 1:
            s.coeffs[1] = ExactScalar.one() if exact else 1 + 0j
        return s

    def coefficient(self, k: int):
        if k < self.low or k >= self.order:
            return ExactScalar.zero() if self.exact else 0j
        return self.coeffs[k - self.low]

    def _coeff_is_zero(self, c, scale: float = 1.0) -> bool:
        if self.exact:
            return c.is_zero()
        return abs(c) <= _NUMERIC_ZERO_REL * scale

    def _scale_hint(self) -> float:
        m = max((abs(complex(c)) for c in self.coeffs), default=0.0)
        return m if m > 0 else 1.0

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None if all zero."""
        scale = None if self.exact else self._scale_hint()
        for k in range(self.low, self.order):
            c = self.coefficient(k)
            if not self._coeff_is_zero(c, scale if scale is not None else 1.0):
                return k
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def normalized_low(self) -> "TruncSeries":
        """Strip leading zero coefficients (raise low to the valuation)."""
        v = self.valuation()
        if v is None or v == self.low:
            return self
        return TruncSeries(self.center, self.coeffs[v - self.low:], low=v,
                           order=self.order, exact=self.exact)

    def truncate(self, order: int) -> "TruncSeries":
        order = min(order, self.order)
        return TruncSeries(self.center, self.coeffs[: order - self.low],
                           low=self.low, order=order, exact=self.exact)

    def to_numeric(self) -> "TruncSeries":
        """Explicit one-way promotion of coefficients to complex."""
        if not self.exact:
            return self
        return TruncSeries(complex(self.center), [complex(c) for c in self.coeffs],
                           low=self.low, order=self.order, exact=False)

    def _same_center(self, other: "TruncSeries") -> bool:
        if self.exact and other.exact:
            return self.center == other.center
        return abs(complex(self.center) - complex(other.center)) == 0.0

    def _pair(self, other: "TruncSeries") -> tuple["TruncSeries", "TruncSeries"]:
        if not isinstance(other, TruncSeries):
            raise TypeError("expected TruncSeries")
        a, b = self, other
        if a.exact != b.exact:
            a, b = a.to_numeric(), b.to_numeric()
        if not a._same_center(b):
            raise CenterMismatch(f"centers differ: {a.center} vs {b.center}")
        return a, b

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.center, [-c for c in self.coeffs],
                           low=self.low, order=self.order, exact=self.exact)

    def __add__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return self + TruncSeries.const(other, self.center, self.order, self.exact)
        a, b = self._pair(other)
        low = min(a.low, b.low)
        order = min(a.order, b.order)
        coeffs = [a.coefficient(k) + b.coefficient(k) for k in range(low, order)]
        return TruncSeries(a.center, coeffs, low=low, order=order, exact=a.exact)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            other = TruncSeries.const(other, self.center, self.order, self.exact)
        return self + (-other)

    def __rsub__(self, other) -> "TruncSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            if self.exact and _is_exact_scalar(other):
                c = ExactScalar.coerce(other)
                return TruncSeries(self.center, [k * c for k in self.coeffs],
                                   low=self.low, order=self.order, exact=True)
            z = complex(other)
            s = self.to_numeric()
            return TruncSeries(s.center, [k * z for k in s.coeffs],
                               low=s.low, order=s.order, exact=False)
        a, b = self._pair(other)
        va = a.valuation()
        vb = b.valuation()
        if va is None or vb is None:
            low = a.low + b.low
            order = min(a.order + b.low, b.order + a.low)
            return TruncSeries.zeros(a.center, order, a.exact, low=low)
        order = min(a.order + vb, b.order + va)
        low = va + vb
        n = order - low
        if a.exact:
            out = _exact_product(a.coeffs[va - a.low:], b.coeffs[vb - b.low:], n)
            return TruncSeries(a.center, out, low=low, order=order, exact=True)
        out = [0j] * n
        for i in range(va, a.order):
            ci = a.coefficient(i)
            if ci == 0:
                continue
            for j in range(vb, min(b.order, order - i)):
                out[i + j - low] = out[i + j - low] + ci * b.coefficient(j)
        return TruncSeries(a.center, out, low=low, order=order, exact=False)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        v = self.valuation()
        if v is None:
            raise DivisionByZeroSeries("divisor is zero to the available order")
        s = self.normalized_low()
        # shift to valuation zero, invert the unit part, shift back; the
        # result exponents are -v .. (order - 2v)
        low = -v
        order = s.order - 2 * v
        n = order - low
        if s.exact:
            return TruncSeries(s.center, _exact_inverse(s.coeffs[:n]), low=low,
                               order=order, exact=True)
        inv0 = 1.0 / s.coeffs[0]
        out = [0j] * n
        out[0] = inv0
        for k in range(1, n):
            acc = 0j
            for j in range(1, k + 1):
                acc = acc + s.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return TruncSeries(s.center, out, low=low, order=order, exact=False)

    def __truediv__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            if self.exact and _is_exact_scalar(other):
                return self * (ExactScalar.one() / ExactScalar.coerce(other))
            return self * (1.0 / complex(other))
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other) -> "TruncSeries":
        return self.inverse() * other

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = TruncSeries.const(1, self.center, self.order, self.exact)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "TruncSeries":
        if self.low == 0:
            coeffs = [self.coefficient(k) * k for k in range(1, self.order)]
            return TruncSeries(self.center, coeffs, low=0, order=self.order - 1,
                               exact=self.exact)
        # exponent k maps to k-1; the k = 0 slot differentiates to zero
        coeffs = [self.coefficient(k) * k for k in range(self.low, self.order)]
        return TruncSeries(self.center, coeffs, low=self.low - 1,
                           order=self.order - 1, exact=self.exact)

    def eval(self, z: complex) -> complex:
        """Numeric evaluation of the truncated element at a point."""
        w = complex(z) - complex(self.center)
        acc = 0j
        for k in range(self.order - 1, self.low - 1, -1):
            acc = acc * w + complex(self.coefficient(k))
        if self.low:
            acc *= w ** self.low
        return acc

    def __repr__(self) -> str:
        tag = "exact" if self.exact else "numeric"
        return (f"TruncSeries(center={self.center}, low={self.low}, "
                f"order={self.order}, {tag}, coeffs={self.coeffs!r})")

    # -- JSON -----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        c = complex(self.center)
        if self.exact:
            coeffs = [[[str(k.re.numerator), str(k.re.denominator)],
                       [str(k.im.numerator), str(k.im.denominator)]]
                      for k in self.coeffs]
        else:
            coeffs = [[k.real, k.imag] for k in self.coeffs]
        return {"center": [c.real, c.imag], "low": self.low,
                "order": self.order, "exact": self.exact, "coeffs": coeffs}

    @staticmethod
    def from_json_dict(data: dict) -> "TruncSeries":
        exact = bool(data["exact"])
        cre, cim = data["center"]
        if exact:
            center = ExactScalar(Fraction(cre), Fraction(cim))
            coeffs = [ExactScalar(Fraction(int(k[0][0]), int(k[0][1])),
                                  Fraction(int(k[1][0]), int(k[1][1])))
                      for k in data["coeffs"]]
        else:
            center = complex(cre, cim)
            coeffs = [complex(k[0], k[1]) for k in data["coeffs"]]
        return TruncSeries(center, coeffs, low=int(data["low"]),
                           order=int(data["order"]), exact=exact)


# -- spec operation surface ------------------------------------------------

def series_arith(a: TruncSeries, b: TruncSeries, op: str) -> TruncSeries:
    """add | mul | div on two elements sharing a center."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def radius_estimate(s: TruncSeries) -> float:
    """Cauchy-Hadamard radius estimate from the top half of the coefficients.

    Returns math.inf when the coefficients decay super-geometrically (entire
    behavior); raises TooFewCoefficients below 8 nonzero coefficients.
    """
    items = [(k, abs(complex(s.coefficient(k))))
             for k in range(max(s.low, 1), s.order)]
    nonzero = [(k, a) for k, a in items if a > 0]
    if sum(1 for k in range(s.low, s.order)
           if not s._coeff_is_zero(s.coefficient(k), s._scale_hint())) < 8:
        raise TooFewCoefficients("radius estimate needs >= 8 nonzero coefficients")
    if not nonzero:
        raise TooFewCoefficients("no usable coefficients")
    half = [it for it in nonzero if it[0] >= nonzero[-1][0] // 2]
    if len(half) < 2:
        half = nonzero
    roots = [a ** (1.0 / k) for k, a in half]
    if roots[-1] < 0.75 * roots[0] and roots[-1] < 0.75 * max(roots):
        return math.inf
    top = max(roots)
    if top == 0.0:
        return math.inf
    return 1.0 / top


def _tail_radius(s: TruncSeries) -> float:
    """Local decay rate of the last few coefficients (for tail bounds)."""
    ks = [k for k in range(max(s.low, 1), s.order)
          if abs(complex(s.coefficient(k))) > 0]
    if len(ks) < 2:
        return math.inf
    k1 = ks[-1]
    k0 = ks[max(0, len(ks) - 6)]
    if k1 == k0:
        return math.inf
    a1 = abs(complex(s.coefficient(k1)))
    a0 = abs(complex(s.coefficient(k0)))
    if a1 == 0 or a0 == 0:
        return math.inf
    ratio = (a1 / a0) ** (1.0 / (k1 - k0))
    if ratio <= 0:
        return math.inf
    return 1.0 / ratio


def rearrange_at(s: TruncSeries, new_center, tol: float = 1e-9) -> TruncSeries:
    """Re-expand an element about a new center inside its disc.

    The result represents the same function near the new center; both series
    agree on the overlap of the two discs.  The output order N' is reduced so
    that the unknown-tail contribution to every reported coefficient is below
    `tol` relative to the local coefficient scale.
    """
    exact = s.exact and _is_exact_scalar(new_center)
    if exact:
        target = ExactScalar.coerce(new_center)
        dd = target - s.center
    else:
        target = complex(new_center)
        dd = target - complex(s.center)
    if dd == 0:
        return s
    d = abs(dd)
    r_tail = _tail_radius(s)
    r_run = radius_estimate(s)
    r = r_tail if math.isfinite(r_tail) else r_run
    if math.isfinite(r_run) and d >= r_run:
        raise OutsideDisc(f"|new - old| = {d:.3g} >= radius estimate {r_run:.3g}")
    q = 0.0 if math.isinf(r) else d / r
    if q >= 1.0:
        raise OutsideDisc(f"tail ratio {q:.3g} >= 1")
    n = s.order
    # keep coefficient k while C(n, k) q^(n-k) / (1-q) <= tol
    new_order = 0
    for k in range(0, n):
        bound = math.comb(n, k) * q ** (n - k) / (1.0 - q) if q > 0 else 0.0
        if bound <= tol:
            new_order = k + 1
        else:
            break
    if new_order <= 0:
        raise OutsideDisc("no coefficient satisfies the tail tolerance")
    src = s if exact else s.to_numeric()
    zero, binom0 = (ExactScalar.zero(), Fraction(1)) if exact else (0j, 1.0)
    out = [zero] * new_order
    for nn in range(src.low, src.order):
        a = src.coefficient(nn)
        if a == 0:
            continue
        # (z-c)^nn = (w + d)^nn with w = z - s; generalized binomial for nn < 0
        binom, dpow = binom0, dd ** nn
        for j in range(0, new_order):
            if j > 0:
                binom = binom * (nn - (j - 1)) / j
                dpow = dpow / dd
            if nn >= 0 and j > nn:
                break
            out[j] = out[j] + a * binom * dpow
    return TruncSeries(target, out, low=0, order=new_order, exact=exact)


def compose_shift(f: TruncSeries) -> "BiSeries":
    """Expand f(center + (x+y)) as a bivariate series in (x, y).

    Coefficient of x^i y^j is binomial(i+j, i) * a_{i+j}.
    """
    if f.low < 0:
        v = f.valuation()
        if v is None or v < 0:
            raise SingularCenter("cannot shift-expand a polar element")
        f = f.normalized_low()
    out = BiSeries.zeros(f.order, f.exact, center=(f.center, f.center))
    for k in range(f.low, f.order):
        a = f.coefficient(k)
        if f._coeff_is_zero(a, f._scale_hint()):
            continue
        for i in range(0, k + 1):
            c = math.comb(k, i)
            term = a * ExactScalar(c) if f.exact else a * c
            out._add_term(i, k - i, term)
    out._clean()
    return out


class BiSeries:
    """Bivariate series: {(i, j): coeff} with i + j < order (total degree).

    Exact series multiply as Gaussian-integer rows over the product of the
    operands' common denominators (see the module docstring), complex ones
    by a dict convolution.  Either way the result order is
    min(a.order + v_b, b.order + v_a) for valuations v_a, v_b.
    """

    __slots__ = ("coeffs", "order", "center", "exact")

    def __init__(self, coeffs: dict, order: int, exact: bool, center=(0, 0)):
        self.order = int(order)
        self.exact = bool(exact)
        self.center = center
        self.coeffs = {}
        for (i, j), c in coeffs.items():
            if i + j >= self.order:
                continue
            c = ExactScalar.coerce(c) if exact else complex(c)
            if (exact and c.is_zero()) or (not exact and c == 0):
                continue
            self.coeffs[(i, j)] = c

    @staticmethod
    def zeros(order: int, exact: bool, center=(0, 0)) -> "BiSeries":
        return BiSeries({}, order, exact, center)

    @staticmethod
    def const(value, order: int, exact: bool, center=(0, 0)) -> "BiSeries":
        v = ExactScalar.coerce(value) if exact else complex(value)
        return BiSeries({(0, 0): v}, order, exact, center)

    @staticmethod
    def from_univariate(s: TruncSeries, slot: int, order: int | None = None) -> "BiSeries":
        """Embed a power series as a series in x (slot=0) or y (slot=1)."""
        if s.low < 0 and (s.valuation() or -1) < 0:
            raise SingularCenter("cannot embed a polar element")
        order = order if order is not None else s.order
        out = BiSeries.zeros(min(order, s.order), s.exact)
        for k in range(max(s.low, 0), s.order):
            c = s.coefficient(k)
            key = (k, 0) if slot == 0 else (0, k)
            out._add_term(*key, c)
        out._clean()
        return out

    def _zero(self):
        return ExactScalar.zero() if self.exact else 0j

    def _add_term(self, i: int, j: int, c):
        if i + j >= self.order:
            return
        cur = self.coeffs.get((i, j))
        self.coeffs[(i, j)] = c if cur is None else cur + c

    def _clean(self):
        if self.exact:
            dead = [k for k, c in self.coeffs.items() if c.is_zero()]
        else:
            dead = [k for k, c in self.coeffs.items() if c == 0]
        for k in dead:
            del self.coeffs[k]

    def coefficient(self, i: int, j: int):
        return self.coeffs.get((i, j), self._zero())

    def max_abs(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    def valuation(self, tol: float = 0.0) -> int | None:
        """Minimal total degree with a (significant) nonzero coefficient."""
        scale = self.max_abs()
        best = None
        for (i, j), c in self.coeffs.items():
            if not self.exact and tol > 0 and abs(c) <= tol * max(scale, 1.0):
                continue
            d = i + j
            if best is None or d < best:
                best = d
        return best

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.valuation(tol) is None

    def truncate(self, order: int) -> "BiSeries":
        return BiSeries(self.coeffs, min(order, self.order), self.exact, self.center)

    def to_numeric(self) -> "BiSeries":
        if not self.exact:
            return self
        return BiSeries({k: complex(c) for k, c in self.coeffs.items()},
                        self.order, False, self.center)

    def _pair(self, other: "BiSeries"):
        a, b = self, other
        if a.exact != b.exact:
            a, b = a.to_numeric(), b.to_numeric()
        return a, b

    def __neg__(self) -> "BiSeries":
        return BiSeries({k: -c for k, c in self.coeffs.items()},
                        self.order, self.exact, self.center)

    def __add__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            other = BiSeries.const(other, self.order, self.exact, self.center)
        a, b = self._pair(other)
        out = BiSeries(dict(a.coeffs), min(a.order, b.order), a.exact, a.center)
        for k, c in b.coeffs.items():
            out._add_term(*k, c)
        out._clean()
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            other = BiSeries.const(other, self.order, self.exact, self.center)
        return self + (-other)

    def __rsub__(self, other) -> "BiSeries":
        return (-self) + other

    def __mul__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            if self.exact and _is_exact_scalar(other):
                c = ExactScalar.coerce(other)
                return BiSeries({k: v * c for k, v in self.coeffs.items()},
                                self.order, True, self.center)
            z = complex(other)
            s = self.to_numeric()
            return BiSeries({k: v * z for k, v in s.coeffs.items()},
                            s.order, False, s.center)
        a, b = self._pair(other)
        va = a.valuation() or 0
        vb = b.valuation() or 0
        order = min(a.order + vb, b.order + va)
        if a.exact:
            da, ar, ai = _gaussian_rows(a)
            db, br, bi = _gaussian_rows(b)
            out = BiSeries.zeros(order, True, a.center)
            out.coeffs = _rows_to_fractions(
                _triangle_product(ar, ai, br, bi, va, vb, order), da * db)
            return out
        out = BiSeries.zeros(order, a.exact, a.center)
        for (i1, j1), c1 in a.coeffs.items():
            for (i2, j2), c2 in b.coeffs.items():
                if i1 + j1 + i2 + j2 >= order:
                    continue
                out._add_term(i1 + i2, j1 + j2, c1 * c2)
        out._clean()
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = BiSeries.const(1, self.order, self.exact, self.center)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "BiSeries":
        """Inverse of a series with invertible constant term.

        Solved order by order (numerically stable; no large intermediate
        powers)."""
        c0 = self.coefficient(0, 0)
        bad = c0.is_zero() if self.exact else (c0 == 0)
        if bad:
            raise DivisionByZeroSeries("constant term is zero; cannot invert")
        inv0 = (ExactScalar.one() / c0) if self.exact else (1.0 / c0)
        out: dict[tuple[int, int], object] = {(0, 0): inv0}
        tail = [(k, c) for k, c in self.coeffs.items() if k != (0, 0)]
        for d in range(1, self.order):
            for i in range(d + 1):
                j = d - i
                acc = None
                for (p, q), b in tail:
                    if p <= i and q <= j:
                        c = out.get((i - p, j - q))
                        if c is None:
                            continue
                        term = b * c
                        acc = term if acc is None else acc + term
                if acc is not None:
                    out[(i, j)] = -inv0 * acc
        return BiSeries(out, self.order, self.exact, self.center)

    def __truediv__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            if self.exact and _is_exact_scalar(other):
                return self * (ExactScalar.one() / ExactScalar.coerce(other))
            return self * (1.0 / complex(other))
        a, b = self._pair(other)
        return a * b.inverse()

    def derivative(self, slot: int) -> "BiSeries":
        out = BiSeries.zeros(self.order - 1, self.exact, self.center)
        for (i, j), c in self.coeffs.items():
            if slot == 0 and i > 0:
                out._add_term(i - 1, j, c * i)
            elif slot == 1 and j > 0:
                out._add_term(i, j - 1, c * j)
        out._clean()
        return out

    def restrict_y0(self) -> TruncSeries:
        """Set the second variable to zero, leaving a series in the first."""
        coeffs = [self._zero() for _ in range(self.order)]
        for (i, j), c in self.coeffs.items():
            if j == 0:
                coeffs[i] = c
        center = self.center[0] if isinstance(self.center, tuple) else self.center
        return TruncSeries(center, coeffs, low=0, order=self.order, exact=self.exact)

    def eval(self, x: complex, y: complex) -> complex:
        acc = 0j
        for (i, j), c in self.coeffs.items():
            acc += complex(c) * x ** i * y ** j
        return acc

    def __repr__(self) -> str:
        tag = "exact" if self.exact else "numeric"
        items = sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0]))
        return f"BiSeries(order={self.order}, {tag}, {items!r})"


# -- fixed-point Gaussian-integer bivariate series ------------------------------

PREC_BITS = 160     # mantissa budget (45 decimal digits are 153 bits)
_INV_GUARD = 32     # extra bits carried through the inverse recurrence


def _round_shift(m: int, s: int) -> int:
    """m / 2**s (s > 0) rounded to the nearest integer, ties to even."""
    t = m + (1 << (s - 1))
    q = t >> s
    if q & 1 and not t & ((1 << s) - 1):
        q -= 1
    return q


def _round_div(n: int, d: int) -> int:
    """n / d (d > 0) rounded to the nearest integer, ties to even."""
    q, r = divmod(n, d)
    r += r
    if r > d or (r == d and q & 1):
        q += 1
    return q


def _pack(vals: list[int], slot: int) -> int:
    """Kronecker substitution: sum vals[k] * 2**(k*slot), signed entries."""
    x = 0
    for v in reversed(vals):
        x = (x << slot) + v
    return x


def _unpack(x: int, n: int, slot: int) -> list[int]:
    """Inverse of _pack for n entries that each fit in slot - 1 bits."""
    full = 1 << slot
    mask, half = full - 1, full >> 1
    out = []
    for _ in range(n):
        v = x & mask
        if v >= half:
            v -= full
        out.append(v)
        x = (x - v) >> slot
    return out


def _pack_rows(re: list[list[int]], im: list[list[int]],
               slot: int) -> list[tuple[int, int, int, int]]:
    """Per row: the number z of leading zero entries, then the packed real
    parts, imaginary parts and their sum from entry z on (the sums give the
    third product of Gauss's three-multiplication complex product)."""
    out = []
    for ra, rb in zip(re, im):
        z = 0
        while z < len(ra) and not (ra[z] or rb[z]):
            z += 1
        pr, pi = _pack(ra[z:], slot), _pack(rb[z:], slot)
        out.append((z, pr, pi, pr + pi))
    return out


def _row_product(pa: list, pb: list, d: int, ks: range,
                 slot: int) -> tuple[list[int], list[int]]:
    """Row d of a Gaussian product: the sum over k in ks of row k of a times
    row d - k of b, from their _pack_rows forms; exact."""
    s1 = s2 = s3 = 0
    for k in ks:
        za, ar, ai, asum = pa[k]
        zb, br, bi, bsum = pb[d - k]
        z = (za + zb) * slot
        s1 += ar * br << z
        s2 += ai * bi << z
        s3 += asum * bsum << z
    return _unpack(s1 - s2, d + 1, slot), _unpack(s3 - s1 - s2, d + 1, slot)


def _max_bits(rows: list[list[int]]) -> int:
    return max(map(abs, chain.from_iterable(rows)), default=0).bit_length()


def _triangle_product(ar: list[list[int]], ai: list[list[int]],
                      br: list[list[int]], bi: list[list[int]],
                      va: int, vb: int, order: int) -> list[tuple[list[int], list[int]]]:
    """Rows d < order of the exact product of two triangular Gaussian-integer
    series, as (re, im) pairs; va and vb are the operands' valuations (the
    rows below them are zero and skipped)."""
    # The coefficient of x^i y^j (i + j < order) sums (i+1)(j+1) <=
    # ((order+1)/2)**2 <= 2**(2L-2) pair terms, L = order.bit_length(), and
    # each real or imaginary part a_r b_r - a_i b_i, a_r b_i + a_i b_r is
    # below 2**(bits_a + bits_b + 1) in size; so every entry of the result
    # is below 2**(slot - 1) and unpacks from signed slot-bit fields.
    slot = _max_bits(ar + ai) + _max_bits(br + bi) + 2 * order.bit_length()
    pa, pb = _pack_rows(ar, ai, slot), _pack_rows(br, bi, slot)
    na, nb = len(ar), len(br)
    return [_row_product(pa, pb, d, range(max(va, d - nb + 1),
                                          min(d - vb, na - 1) + 1), slot)
            for d in range(order)]


def _line_product(ar: list[int], ai: list[int], br: list[int], bi: list[int],
                  n: int) -> tuple[list[int], list[int]]:
    """The first n coefficients (re, im) of the exact product of two
    univariate Gaussian-integer coefficient lists: each operand packed into
    one big integer per part (Kronecker substitution), three products."""
    # a coefficient below n sums at most n pair terms, each part of which
    # is below 2**(bits_a + bits_b + 1) in size, so it fits a signed field
    # of slot bits with n < 2**n.bit_length()
    slot = _max_bits([ar, ai]) + _max_bits([br, bi]) + n.bit_length() + 2
    xr, xi, yr, yi = (_pack(v[:n], slot) for v in (ar, ai, br, bi))
    s1, s2 = xr * yr, xi * yi
    return (_unpack(s1 - s2, n, slot),
            _unpack((xr + xi) * (yr + yi) - s1 - s2, n, slot))


def _line_powers(re: list[int], im: list[int], top: int,
                 n: int) -> list[tuple[list[int], list[int]]]:
    """(re, im) rows of a^0 .. a^top, exact, first n coefficients each."""
    out = [([1] + [0] * (n - 1), [0] * n)]
    for _ in range(top):
        out.append(_line_product(*out[-1], re, im, n))
    return out


def _exact_product(a: list[ExactScalar], b: list[ExactScalar],
                   n: int) -> list[ExactScalar]:
    """The first n coefficients of the product of two exact coefficient
    lists, as Gaussian-integer rows over the product of their common
    denominators; one Fraction per nonzero part."""
    da, ar, ai = gaussian_integers(a[:n])
    db, br, bi = gaussian_integers(b[:n])
    D = da * db
    re, im = _line_product(ar, ai, br, bi, n)
    return [_gaussian_scalar(x, y, D) for x, y in zip(re, im)]


def _exact_inverse(a: list[ExactScalar]) -> list[ExactScalar]:
    """The first len(a) coefficients of 1/a for exact a with a[0] != 0.

    With a = A / D over the Gaussian integers and g = A_0, the inverse is
    b_k = D B_k / g^(k+1), where B_0 = 1 and
    B_k = -(A_1 g^0 B_(k-1) + A_2 g^1 B_(k-2) + ... + A_k g^(k-1) B_0):
    a fraction-free recurrence of Gaussian-integer products and sums.  Each
    b_k then becomes one Fraction per part, D B_k conj(g)^(k+1) over
    |g|^(2(k+1)).
    """
    n = len(a)
    D, ar, ai = gaussian_integers(a)
    gr, gi = ar[0], ai[0]
    pr, pi = [0] * n, [0] * n          # A_j g^(j-1)
    xr, xi = 1, 0
    for j in range(1, n):
        pr[j], pi[j] = ar[j] * xr - ai[j] * xi, ar[j] * xi + ai[j] * xr
        xr, xi = xr * gr - xi * gi, xr * gi + xi * gr
    br, bi = [1], [0]
    for k in range(1, n):
        sr = si = 0
        for j in range(1, k + 1):
            u, v = br[k - j], bi[k - j]
            sr += pr[j] * u - pi[j] * v
            si += pr[j] * v + pi[j] * u
        br.append(-sr)
        bi.append(-si)
    norm = gr * gr + gi * gi
    out = []
    cr, ci, den = D * gr, -D * gi, norm          # D conj(g)^(k+1), |g|^(2(k+1))
    for u, v in zip(br, bi):
        out.append(_gaussian_scalar(u * cr - v * ci, u * ci + v * cr, den))
        cr, ci, den = cr * gr + ci * gi, ci * gr - cr * gi, den * norm
    return out


def _gaussian_scalar(x: int, y: int, D: int) -> ExactScalar:
    """The ExactScalar (x + i y) / D, D > 0."""
    return ExactScalar.of_fractions(Fraction(x, D) if x else _ZERO,
                                    Fraction(y, D) if y else _ZERO)


def _gaussian_rows(s: "BiSeries") -> tuple[int, list[list[int]], list[list[int]]]:
    """(D, re, im) with s = (re + i im) / D: triangular Gaussian-integer rows
    (row d holds x^(d-j) y^j) over the lcm D of the coefficient denominators."""
    D, nre, nim = gaussian_integers(list(s.coeffs.values()))
    re = [[0] * (d + 1) for d in range(s.order)]
    im = [[0] * (d + 1) for d in range(s.order)]
    for (i, j), x, y in zip(s.coeffs, nre, nim):
        re[i + j][j], im[i + j][j] = x, y
    return D, re, im


def _rows_to_fractions(rows: list[tuple[list[int], list[int]]], D: int) -> dict:
    """{(i, j): ExactScalar} for the nonzero entries of rows / D."""
    out = {}
    for d, (rr, ri) in enumerate(rows):
        for j, (x, y) in enumerate(zip(rr, ri)):
            if x or y:
                out[(d - j, j)] = _gaussian_scalar(x, y, D)
    return out


def _gaussian_fractions(v) -> tuple[Fraction, Fraction]:
    """Exact parts (re, im) of an int, Fraction, ExactScalar or complex."""
    if isinstance(v, ExactScalar):
        return v.re, v.im
    if isinstance(v, (int, Fraction)):
        return Fraction(v), Fraction(0)
    z = complex(v)
    return Fraction(z.real), Fraction(z.imag)


def _floor_log2(x: Fraction) -> int:
    """floor(log2 |x|) for x != 0."""
    n, d = abs(x.numerator), x.denominator
    t = n.bit_length() - d.bit_length()
    return t if (n << max(-t, 0)) >= (d << max(t, 0)) else t - 1


class FixedBiSeries:
    """Bivariate series in (x, y), total degree < order, in fixed point.

    Row d holds the coefficients of x^(d-j) y^j for j = 0..d as Gaussian
    integer mantissas re[d][j] + i im[d][j]; all coefficients share the
    binary exponent ``exp``.  Every operation computes its exact result and,
    if that needs more than PREC_BITS bits, rounds it once (half to even) to
    PREC_BITS bits, so each result carries an absolute error of at most
    about 2**-PREC_BITS times its largest coefficient.  Products are exact integer convolutions of whole
    rows, one big-integer product per pair of rows (Kronecker substitution),
    and ``inverse`` solves order by order in integers.

    The interface is the part of BiSeries that the series GCD in
    ``elimination`` and the Schwarz reduction use; coefficients read back as
    complex.
    """

    __slots__ = ("re", "im", "exp", "order")
    exact = False

    def __init__(self, re: list[list[int]], im: list[list[int]], exp: int,
                 order: int):
        top = max(_max_bits(re), _max_bits(im))
        if top > PREC_BITS:
            s = top - PREC_BITS
            re = [[_round_shift(v, s) for v in r] for r in re]
            im = [[_round_shift(v, s) for v in r] for r in im]
            exp += s
        elif top == 0:
            exp = 0
        self.re, self.im, self.exp, self.order = re, im, exp, order

    # -- construction ----------------------------------------------------------

    @staticmethod
    def zeros(order: int) -> "FixedBiSeries":
        return FixedBiSeries([[0] * (d + 1) for d in range(order)],
                             [[0] * (d + 1) for d in range(order)], 0, order)

    @staticmethod
    def from_univariate(values, slot: int, order: int) -> "FixedBiSeries":
        """values[k] as the coefficient of x^k (slot 0) or y^k (slot 1),
        each rounded once to the budget.

        Entries may be int, Fraction, ExactScalar or complex; missing ones
        are zero."""
        parts = [_gaussian_fractions(v) for v in values[:order]]
        logs = [_floor_log2(x) for c in parts for x in c if x]
        k = PREC_BITS - 1 - max(logs, default=0)   # mantissa = round(x * 2**k)

        def mant(x: Fraction) -> int:
            if k >= 0:
                return _round_div(x.numerator << k, x.denominator)
            return _round_div(x.numerator, x.denominator << -k)

        re = [[0] * (d + 1) for d in range(order)]
        im = [[0] * (d + 1) for d in range(order)]
        for d, (xr, xi) in enumerate(parts):
            j = d if slot else 0
            re[d][j], im[d][j] = mant(xr), mant(xi)
        return FixedBiSeries(re, im, -k, order)

    @staticmethod
    def const(value, order: int) -> "FixedBiSeries":
        return FixedBiSeries.from_univariate([value], 0, order)

    @staticmethod
    def from_outer(pairs, exp: int, order: int) -> "FixedBiSeries":
        """2**exp times the sum of r(x) s(y) over (r, s) in pairs, exact and
        then rounded once to the budget.

        r and s are univariate Gaussian-integer rows, (re, im) pairs of
        lists of at least `order` entries; zero entries of s are skipped."""
        re = [[0] * (d + 1) for d in range(order)]
        im = [[0] * (d + 1) for d in range(order)]
        for (rr, ri), (sr, si) in pairs:
            for j in range(order):
                a, b = sr[j], si[j]
                if not (a or b):
                    continue
                for i in range(order - j):
                    x, y = rr[i], ri[i]
                    re[i + j][j] += x * a - y * b
                    im[i + j][j] += x * b + y * a
        return FixedBiSeries(re, im, exp, order)

    # -- reading -------------------------------------------------------------

    def line(self, slot: int) -> tuple[list[int], list[int]]:
        """Mantissas (re, im) of the coefficients of x^k (slot 0) or y^k
        (slot 1), for a series in that variable only."""
        j = -1 if slot else 0
        return [r[j] for r in self.re], [r[j] for r in self.im]

    def coefficient(self, i: int, j: int) -> complex:
        if i < 0 or j < 0 or i + j >= self.order:
            return 0j
        d = i + j
        return complex(math.ldexp(self.re[d][j], self.exp),
                       math.ldexp(self.im[d][j], self.exp))

    def max_abs(self) -> float:
        best = max((a * a + b * b for ra, rb in zip(self.re, self.im)
                    for a, b in zip(ra, rb)), default=0)
        return math.ldexp(math.sqrt(best), self.exp)

    def valuation(self, tol: float = 0.0) -> int | None:
        """Minimal total degree with a (significant) nonzero coefficient."""
        cut = tol * max(self.max_abs(), 1.0) if tol > 0 else -1.0
        e = self.exp
        for d, (ra, rb) in enumerate(zip(self.re, self.im)):
            for a, b in zip(ra, rb):
                if (a or b) and math.ldexp(math.hypot(a, b), e) > cut:
                    return d
        return None

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.valuation(tol) is None

    def restrict_y0(self) -> TruncSeries:
        """Set y to zero, leaving a complex series in x centered at 0."""
        return TruncSeries(0j, [self.coefficient(i, 0) for i in range(self.order)],
                           exact=False)

    def __repr__(self) -> str:
        return f"FixedBiSeries(order={self.order}, exp={self.exp})"

    # -- arithmetic ------------------------------------------------------------

    def __neg__(self) -> "FixedBiSeries":
        return FixedBiSeries([[-v for v in r] for r in self.re],
                             [[-v for v in r] for r in self.im],
                             self.exp, self.order)

    def __add__(self, other: "FixedBiSeries") -> "FixedBiSeries":
        order = min(self.order, other.order)
        e = min(self.exp, other.exp)
        sa, sb = self.exp - e, other.exp - e
        re = [[(a << sa) + (b << sb) for a, b in zip(ra, rb)]
              for ra, rb in zip(self.re[:order], other.re)]
        im = [[(a << sa) + (b << sb) for a, b in zip(ra, rb)]
              for ra, rb in zip(self.im[:order], other.im)]
        return FixedBiSeries(re, im, e, order)

    def __sub__(self, other: "FixedBiSeries") -> "FixedBiSeries":
        return self + (-other)

    def __mul__(self, other) -> "FixedBiSeries":
        if not isinstance(other, FixedBiSeries):     # scalar, rounded first
            c = FixedBiSeries.const(other, 1)
            gr, gi = c.re[0][0], c.im[0][0]
            pairs = [list(zip(ra, rb)) for ra, rb in zip(self.re, self.im)]
            return FixedBiSeries([[x * gr - y * gi for x, y in r] for r in pairs],
                                 [[x * gi + y * gr for x, y in r] for r in pairs],
                                 self.exp + c.exp, self.order)
        a, b = self, other
        va = a.valuation() or 0
        vb = b.valuation() or 0
        order = min(a.order + vb, b.order + va)
        rows = _triangle_product(a.re, a.im, b.re, b.im, va, vb, order)
        return FixedBiSeries([r[0] for r in rows], [r[1] for r in rows],
                             a.exp + b.exp, order)

    __rmul__ = __mul__

    def inverse(self) -> "FixedBiSeries":
        """Inverse of a series with nonzero constant term, row by row.

        With B = 1/A written as b * 2**(-K - exp), the rows satisfy
        b_0 = 2**K / a_0 and b_d = -(a_1 b_(d-1) + ... + a_d b_0) / a_0:
        exact integer row products, one rounded Gaussian division per
        coefficient.  K puts PREC_BITS + _INV_GUARD bits into b_0.
        """
        gr, gi = self.re[0][0], self.im[0][0]
        if not (gr or gi):
            raise DivisionByZeroSeries("constant term is zero; cannot invert")
        norm = gr * gr + gi * gi
        n = self.order
        K = PREC_BITS + _INV_GUARD + max(abs(gr), abs(gi)).bit_length()

        def div(sr: int, si: int) -> tuple[int, int]:
            return (_round_div(sr * gr + si * gi, norm),
                    _round_div(si * gr - sr * gi, norm))

        b0 = div(1 << K, 0)
        re, im = [[b0[0]]], [[b0[1]]]
        bits_a = _max_bits(self.re + self.im)
        bits_b = max(abs(b0[0]), abs(b0[1])).bit_length()
        slot, pa, pb = 0, [], []
        for d in range(1, n):
            need = bits_a + bits_b + 2 * n.bit_length() + 4
            if need > slot:               # widen and repack (rarely needed)
                slot = need + 32
                pa = _pack_rows(self.re, self.im, slot)
                pb = _pack_rows(re, im, slot)
            sr, si = _row_product(pa, pb, d, range(1, d + 1), slot)
            row = [div(-x, -y) for x, y in zip(sr, si)]
            rr, ri = [c[0] for c in row], [c[1] for c in row]
            re.append(rr)
            im.append(ri)
            bits_b = max(bits_b, _max_bits([rr, ri]))
            pb += _pack_rows([rr], [ri], slot)
        return FixedBiSeries(re, im, -K - self.exp, n)

    def __truediv__(self, other: "FixedBiSeries") -> "FixedBiSeries":
        return self * other.inverse()

    def derivative(self, slot: int) -> "FixedBiSeries":
        """d/dx (slot 0) or d/dy (slot 1)."""
        if slot == 0:
            re = [[v * (d - j) for j, v in enumerate(r[:d])]
                  for d, r in enumerate(self.re) if d]
            im = [[v * (d - j) for j, v in enumerate(r[:d])]
                  for d, r in enumerate(self.im) if d]
        else:
            re = [[v * j for j, v in enumerate(r) if j] for r in self.re[1:]]
            im = [[v * j for j, v in enumerate(r) if j] for r in self.im[1:]]
        return FixedBiSeries(re, im, self.exp, self.order - 1)
