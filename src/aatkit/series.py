"""Truncated power series with explicit centers, in one and two variables.

A TruncSeries represents f(z) = sum c_k (z - center)^k for k in
[low, order), plus an unknown tail O((z-center)^order).  An exact series
stores one Gaussian-integer line over one denominator, reduced (c_k =
(re + i im) / den, the same line a BiSeries row of rational scale holds),
and reads its coefficients as ExactScalars; a numeric one stores complex
values.  The modes never mix inside one series; promotion exact -> numeric
is explicit and one-way via ``to_numeric``.  Negative ``low`` gives finite
Laurent tails for pole-type elements.  Every operation records the order
to which its output is trustworthy.  ``rearrange_at`` re-expands an element
about a new center: by zi_shift on the line when the series and the new
center are exact, by a generalized-binomial loop on complex values else.

BiSeries is the two-variable analogue with total-degree truncation: the
expansions of f(u+v) and the bivariate coefficients of addition-theorem
work.  It is one class on triangular rows of Gaussian integers (row d
holds the coefficients of x^(d-j) y^j) with one scale per series, chosen
by the data:

* rational (exact data): the rows over one positive denominator D,
  gcd-normalized, so the representation of a series is unique;
* binary (complex data, and the Schwarz chain's fixed-point elements): the
  rows times 2**exp, each result rounded once (half to even) to PREC_BITS
  bits when its exact value needs more, row by row.

An operation with a binary operand promotes the other one to binary.  Each
operation runs one integer row routine for both scales and normalizes its
result once, by a gcd or by one rounding.  Zero parts cost nothing: each
kernel looks at its data (a zero list, a zero packed value, a real g), so
an all-zero row packs to 0 and 0 unpacks to zeros, rounding keeps a zero
row as it is, sums, differences and negation skip zero rows, a real row
over a real g is one division per entry in the binary inverse, outer_sums
takes one product per term when everything is real, and max_abs reads
max |re| of a real series.  A real series thus does the real half of the
work, with the same integers a complex one would give.

No other module reads series storage, and every series kernel is here:
_triangle_product, _row_recurrence and _line_product (BiSeries products and
inverses, exact TruncSeries products) on one exact Kronecker row kernel
(_pack_rows, _row_product), _line_inverse (exact TruncSeries),
array_product and array_inverse (complex TruncSeries and algebroid's dense
branch series), outer_sums (sum c_pq U^p V^q, U in x and V in y: the
W-coefficients of an addition-theorem residual and discovery's numeric
columns), coefficient_rows (the coefficient matrix of a list of BiSeries)
and BiSeries.residues (a rational series modulo a prime, for discovery's
images in the residue kernel engine).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .errors import (
    CenterMismatch,
    DivisionByZeroSeries,
    InvariantViolation,
    NumericOverflow,
    OutsideDisc,
    SchemaError,
    SingularCenter,
    TooFewCoefficients,
)
from .scalars import ExactScalar, json_pair
from .zi import _max_bits, _pack, _unpack, gaussian_integers, gaussian_scalar, zi_shift

_NUMERIC_ZERO_REL = 1e-12


def _is_exact_scalar(c) -> bool:
    return isinstance(c, (ExactScalar, int, Fraction))


class TruncSeries:
    """Function element: coefficients for exponents low .. order-1, exact
    ones (re[k] + i im[k]) / den with den > 0 coprime to the numerators."""

    __slots__ = ("center", "low", "order", "exact", "den", "re", "im", "_vals")

    def __init__(self, center, coeffs: Sequence, low: int = 0,
                 order: int | None = None, exact: bool | None = None):
        coeffs = list(coeffs)
        if exact is None:
            exact = all(_is_exact_scalar(c) for c in coeffs) and (
                _is_exact_scalar(center) or center == 0)
        self.exact, self.low = bool(exact), int(low)
        self.order = int(order) if order is not None else self.low + len(coeffs)
        if len(coeffs) != self.order - self.low:
            raise InvariantViolation("coefficient list length must equal order - low")
        if self.exact:
            self.center = ExactScalar.coerce(center if _is_exact_scalar(center) else 0)
            self.den, self.re, self.im = gaussian_integers([ExactScalar.coerce(c) for c in coeffs])
            self._vals = None
        else:
            self.center, self.den, self.re, self.im = complex(center), None, None, None
            self._vals = [complex(c) for c in coeffs]

    # -- basics -------------------------------------------------------------

    @staticmethod
    def from_line(center, den: int, re: list[int], im: list[int], low: int = 0,
                  order: int | None = None) -> "TruncSeries":
        """The exact series with coefficient low + k equal to (re[k] + i im[k])
        / den, den > 0, cut or padded with zeros to the order."""
        n = len(re) if order is None else order - low
        re, im = re[:n] + [0] * (n - len(re)), im[:n] + [0] * (n - len(im))
        g = math.gcd(den, *re, *im)
        if g != 1:
            den, re, im = den // g, [x // g for x in re], [y // g for y in im]
        s = object.__new__(TruncSeries)
        s.center, s.low, s.order, s.exact = ExactScalar.coerce(center), low, low + n, True
        s.den, s.re, s.im, s._vals = den, re, im, None
        return s

    @staticmethod
    def taylor(center, den: int, re: list[int], im: list[int]) -> "TruncSeries":
        """The exact element sum d_k t^k / k! from the derivatives d_k =
        (re[k] + i im[k]) / den at the center: numerators over den (n - 1)!."""
        top = math.factorial(max(len(re) - 1, 0))
        w = [top // math.factorial(k) for k in range(len(re))]
        return TruncSeries.from_line(center, den * top, [x * f for x, f in zip(re, w)],
                                     [y * f for y, f in zip(im, w)])

    @staticmethod
    def zeros(center, order: int, exact: bool, low: int = 0) -> "TruncSeries":
        return TruncSeries(center, [0] * (order - low), low=low, order=order, exact=exact)

    @staticmethod
    def const(value, center, order: int, exact: bool) -> "TruncSeries":
        return TruncSeries(center, [value] + [0] * (order - 1), exact=exact)

    @staticmethod
    def identity(center, order: int, exact: bool) -> "TruncSeries":
        """The local coordinate (z - center) itself."""
        return TruncSeries(center, ([0, 1] + [0] * order)[:order], exact=exact)

    @property
    def coeffs(self) -> list:
        """Coefficients low .. order-1: ExactScalars (exact) or complex."""
        if self._vals is None:
            self._vals = [gaussian_scalar(x, y, self.den) for x, y in zip(self.re, self.im)]
        return self._vals

    def coefficient(self, k: int):
        if k < self.low or k >= self.order:
            return ExactScalar.zero() if self.exact else 0j
        return self.coeffs[k - self.low]

    def _nonzero(self) -> list[bool]:
        """Per coefficient: nonzero (numeric: above 1e-12 of the largest)."""
        if self.exact:
            return [bool(x or y) for x, y in zip(self.re, self.im)]
        m = max((abs(c) for c in self._vals), default=0.0)
        cut = _NUMERIC_ZERO_REL * (m if m > 0 else 1.0)
        return [not abs(c) <= cut for c in self._vals]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None if all zero."""
        return next((self.low + k for k, nz in enumerate(self._nonzero()) if nz), None)

    def is_zero(self) -> bool:
        return self.valuation() is None

    def _span(self, low: int, order: int) -> "TruncSeries":
        """The coefficients for exponents low .. order-1, zero outside self's."""
        def pick(xs: list, zero) -> list:
            return [xs[k - self.low] if self.low <= k < self.order else zero
                    for k in range(low, order)]

        if self.exact:
            return TruncSeries.from_line(self.center, self.den, pick(self.re, 0),
                                         pick(self.im, 0), low)
        return TruncSeries(self.center, pick(self._vals, 0j), low=low, order=order, exact=False)

    def normalized_low(self) -> "TruncSeries":
        """Strip leading zero coefficients (raise low to the valuation)."""
        v = self.valuation()
        return self if v is None or v == self.low else self._span(v, self.order)

    def truncate(self, order: int) -> "TruncSeries":
        return self if order >= self.order else self._span(self.low, order)

    def with_center(self, center) -> "TruncSeries":
        """The same coefficients about another center (an ExactScalar for an
        exact series), padded with zeros down to exponent 0."""
        s = self._span(min(self.low, 0), self.order)
        s.center = center
        return s

    def to_numeric(self) -> "TruncSeries":
        """Explicit one-way promotion of coefficients to complex."""
        if not self.exact:
            return self
        d = self.den                     # x / d is float(Fraction(x, d))
        return TruncSeries(complex(self.center),
                           [complex(x / d, y / d) for x, y in zip(self.re, self.im)],
                           low=self.low, order=self.order, exact=False)

    def _same_center(self, other: "TruncSeries") -> bool:
        if self.exact and other.exact:
            return self.center == other.center
        return abs(complex(self.center) - complex(other.center)) == 0.0

    def _pair(self, other: "TruncSeries") -> tuple["TruncSeries", "TruncSeries"]:
        if not isinstance(other, TruncSeries):
            raise SchemaError("expected TruncSeries")
        a, b = self, other
        if a.exact != b.exact:
            a, b = a.to_numeric(), b.to_numeric()
        if not a._same_center(b):
            raise CenterMismatch(f"centers differ: {a.center} vs {b.center}")
        return a, b

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "TruncSeries":
        if self.exact:
            return self * -1
        return TruncSeries(self.center, [-c for c in self._vals],
                           low=self.low, order=self.order, exact=False)

    def __add__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            # a complex scalar promotes an exact series, as in __mul__
            s = self if _is_exact_scalar(other) else self.to_numeric()
            return s + TruncSeries.const(other, s.center, s.order, s.exact)
        a, b = self._pair(other)
        low, order = min(a.low, b.low), min(a.order, b.order)
        if a.exact:
            sa, sb = a._span(low, order), b._span(low, order)
            den = math.lcm(sa.den, sb.den)
            fa, fb = den // sa.den, den // sb.den
            return TruncSeries.from_line(a.center, den,
                                         [x * fa + y * fb for x, y in zip(sa.re, sb.re)],
                                         [x * fa + y * fb for x, y in zip(sa.im, sb.im)], low)
        coeffs = [a.coefficient(k) + b.coefficient(k) for k in range(low, order)]
        return TruncSeries(a.center, coeffs, low=low, order=order, exact=False)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncSeries":
        return self + (-other)

    def __rsub__(self, other) -> "TruncSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            if self.exact and _is_exact_scalar(other):
                D, (x,), (y,) = gaussian_integers([ExactScalar.coerce(other)])
                return TruncSeries.from_line(
                    self.center, self.den * D,
                    [u * x - v * y for u, v in zip(self.re, self.im)],
                    [u * y + v * x for u, v in zip(self.re, self.im)], self.low)
            z = complex(other)
            s = self.to_numeric()
            return TruncSeries(s.center, [k * z for k in s._vals],
                               low=s.low, order=s.order, exact=False)
        a, b = self._pair(other)
        va, vb = a.valuation(), b.valuation()
        if va is None or vb is None:
            low = a.low + b.low
            order = min(a.order + b.low, b.order + a.low)
            return TruncSeries.zeros(a.center, order, a.exact, low=low)
        order = min(a.order + vb, b.order + va)
        low = va + vb
        n = order - low
        ka, kb = va - a.low, vb - b.low
        if a.exact:
            re, im = _line_product(a.re[ka:], a.im[ka:], b.re[kb:], b.im[kb:], n)
            return TruncSeries.from_line(a.center, a.den * b.den, re, im, low)
        out = array_product(np.array(a._vals[ka:]), np.array(b._vals[kb:]), n).tolist()
        return TruncSeries(a.center, out, low=low, order=order, exact=False)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        v = self.valuation()
        if v is None:
            raise DivisionByZeroSeries("divisor is zero to the available order")
        s = self.normalized_low()
        # shift to valuation zero, invert the unit part, shift back; the
        # result exponents are -v .. (order - 2v)
        low, order = -v, s.order - 2 * v
        n = order - low
        if s.exact:
            return TruncSeries.from_line(s.center, *_line_inverse(s.den, s.re[:n], s.im[:n]), low)
        out = array_inverse(np.array(s._vals[:n]), n).tolist()
        return TruncSeries(s.center, out, low=low, order=order, exact=False)

    def __truediv__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            if self.exact and _is_exact_scalar(other):
                return self * (ExactScalar.one() / ExactScalar.coerce(other))
            if complex(other) == 0:
                raise DivisionByZeroSeries("division by a zero scalar")
            return self * (1.0 / complex(other))
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other) -> "TruncSeries":
        return self.inverse() * other

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, TruncSeries.const(1, self.center, self.order, self.exact))

    def derivative(self) -> "TruncSeries":
        # exponent k maps to k - 1; from low = 0 the k = 0 slot (zero) drops
        skip = 1 if self.low == 0 else 0
        ks, low = range(self.low + skip, self.order), self.low - 1 + skip
        if self.exact:
            return TruncSeries.from_line(self.center, self.den,
                                         [x * k for k, x in zip(ks, self.re[skip:])],
                                         [y * k for k, y in zip(ks, self.im[skip:])], low)
        return TruncSeries(self.center, [c * k for k, c in zip(ks, self._vals[skip:])],
                           low=low, order=self.order - 1, exact=False)

    def eval(self, z: complex) -> complex:
        """Numeric evaluation of the truncated element at a point."""
        w = complex(z) - complex(self.center)
        acc = 0j
        for c in reversed(self.to_numeric()._vals):
            acc = acc * w + c
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
            coeffs = [ExactScalar.from_json(*json_pair(k)) for k in data["coeffs"]]
        else:
            center = complex(cre, cim)
            coeffs = [complex(*json_pair(k)) for k in data["coeffs"]]
        return TruncSeries(center, coeffs, low=int(data["low"]),
                           order=int(data["order"]), exact=exact)


def _power(base, n: int, result):
    """result times base**n for n >= 0, by repeated squaring."""
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


# -- spec operation surface ------------------------------------------------

def series_arith(a: TruncSeries, b: TruncSeries, op: str) -> TruncSeries:
    """add | mul | div on two elements sharing a center."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise SchemaError(f"unknown op {op!r}")


def radius_estimate(s: TruncSeries) -> float:
    """Cauchy-Hadamard radius estimate from the top half of the coefficients.

    Returns math.inf when the coefficients decay super-geometrically (entire
    behavior); raises TooFewCoefficients below 8 nonzero coefficients.
    """
    num = s.to_numeric()
    items = [(k, abs(num.coefficient(k))) for k in range(max(s.low, 1), s.order)]
    nonzero = [(k, a) for k, a in items if a > 0]
    if sum(s._nonzero()) < 8:
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
    s = s.to_numeric()
    ks = [k for k in range(max(s.low, 1), s.order) if abs(s.coefficient(k)) > 0]
    if len(ks) < 2:
        return math.inf
    k1 = ks[-1]
    k0 = ks[max(0, len(ks) - 6)]
    if k1 == k0:
        return math.inf
    a1, a0 = abs(s.coefficient(k1)), abs(s.coefficient(k0))
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
    target = ExactScalar.coerce(new_center) if exact else complex(new_center)
    dd = target - (s.center if exact else complex(s.center))
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
    if exact:
        # t^L s(t), L = max(-low, 0), is a polynomial: zi_shift moves it to
        # the new center exactly, and then it is divided by (t + dd)^L
        L = max(-s.low, 0)
        m, (wr,), (wi,) = gaussian_integers([dd])
        t = s._span(-L, s.order)
        c = zi_shift(list(zip(t.re[::-1], t.im[::-1])), (wr, wi), m)[::-1]
        out = TruncSeries.from_line(target, t.den * m ** (len(c) - 1), [x for x, _ in c],
                                    [y for _, y in c], order=new_order)
        if L:
            out = (out / (TruncSeries.identity(target, new_order, True) + dd) ** L)
        return out.with_center(target)
    src = s.to_numeric()
    out = [0j] * new_order
    for nn in range(src.low, src.order):
        a = src.coefficient(nn)
        if a == 0:
            continue
        # (z-c)^nn = (w + d)^nn with w = z - s; generalized binomial for nn < 0
        binom, dpow = 1.0, dd ** nn
        for j in range(0, new_order):
            if j > 0:
                binom = binom * (nn - (j - 1)) / j
                dpow = dpow / dd
            if nn >= 0 and j > nn:
                break
            out[j] = out[j] + a * binom * dpow
    return TruncSeries(target, out, low=0, order=new_order, exact=False)


# -- Gaussian-integer row kernels ------------------------------------------------

PREC_BITS = 160     # mantissa budget (45 decimal digits are 153 bits)
_INV_GUARD = 32     # extra bits carried through the inverse recurrence
# two Kronecker points from this slot width on: on order-24 real rows they took
# 1.18x, 0.99x and 0.76x the one-point time at 132-, 172- and 332-bit slots
_TWO_POINT_SLOT = 200


def _round_rows(rows: list[list[int]], s: int) -> list[list[int]]:
    """Every entry divided by 2**s (s > 0) and rounded to the nearest
    integer, ties to even (a tie is an entry whose low s bits are 2**(s-1));
    a zero row is kept as it is."""
    half, mask = 1 << (s - 1), (1 << s) - 1
    return [[(v + half) >> s if v & mask != half else (v >> s) + ((v >> s) & 1)
             for v in r] if any(r) else r for r in rows]


def _round_div(n: int, d: int) -> int:
    """n / d (d > 0) rounded to the nearest integer, ties to even."""
    q, r = divmod(n, d)
    r += r
    if r > d or (r == d and q & 1):
        q += 1
    return q


def _add_rows(A: list[list[int]], B: list[list[int]], n: int, fa: int,
              fb: int) -> list[list[int]]:
    """Rows fa A_d + fb B_d for d < n.  A term whose factor or row is zero
    is skipped, and a row times 1 is the row itself (rows are never changed
    in place)."""
    out = []
    for ra, rb in zip(A[:n], B):
        ta, tb = fa and any(ra), fb and any(rb)
        if ta and tb:
            out.append([x * fa + y * fb for x, y in zip(ra, rb)])
        elif ta or tb:
            r, f = (ra, fa) if ta else (rb, fb)
            out.append(r if f == 1 else [x * f for x in r])
        else:
            out.append([0] * len(ra))
    return out


def _plus_minus(vals: list[int], h: int) -> tuple[int, int]:
    """sum vals[k] t**k at t = 2**h and t = -2**h, from its even and odd parts."""
    if not any(vals):
        return 0, 0
    even, odd = _pack(vals[::2], 2 * h), _pack(vals[1::2], 2 * h) << h
    return even + odd, even - odd


def _pack_rows(re: list[list[int]], im: list[list[int]],
               slot: int) -> list[list[tuple[int, int, int, int]]]:
    """Per Kronecker point, per row: its number z of leading zero entries,
    then its real parts, imaginary parts and their sum from entry z on, at
    t = 2**slot below _TWO_POINT_SLOT, else at t = +-2**h, h = ceil(slot/2),
    (-1)**z folded in (Harvey's two-point substitution: half-width operands)."""
    plus, minus = [], []
    h = (slot + 1) // 2
    for ra, rb in zip(re, im):
        z = 0
        while z < len(ra) and not (ra[z] or rb[z]):
            z += 1
        if slot < _TWO_POINT_SLOT:
            pr, pi = _pack(ra[z:], slot), _pack(rb[z:], slot)
        else:
            (pr, mr), (pi, mi) = _plus_minus(ra[z:], h), _plus_minus(rb[z:], h)
            if z & 1:
                mr, mi = -mr, -mi
            minus.append((z, mr, mi, mr + mi))
        plus.append((z, pr, pi, pr + pi))
    return [plus, minus] if minus else [plus]


def _row_product(pa: list, pb: list, d: int, ks: range, slot: int,
                 n: int) -> tuple[list[int], list[int]]:
    """The first n coefficients (re, im) of the sum over k in ks of row k
    of a times row d - k of b, from their _pack_rows forms; exact.  At each
    point a pair of real rows costs one product, a real and a complex row
    two, two complex rows three (Gauss); _split reads two points."""
    w = slot if len(pa) == 1 else (slot + 1) // 2
    sums = []
    for qa, qb in zip(pa, pb):
        sr = si = 0
        for k in ks:
            za, ar, ai, asum = qa[k]
            zb, br, bi, bsum = qb[d - k]
            z = (za + zb) * w
            if ai and bi:
                s1, s2 = ar * br, ai * bi
                sr += s1 - s2 << z
                si += asum * bsum - s1 - s2 << z
            else:                        # a real row: one product per part
                sr += ar * br << z
                if ai or bi:
                    si += (ai * br if ai else ar * bi) << z
        sums.append((sr, si))
    if len(sums) == 1:
        return _unpack(sums[0][0], n, slot), _unpack(sums[0][1], n, slot)
    return tuple(_split(p, m, n, w) for p, m in zip(*sums))


def _split(p: int, m: int, n: int, h: int) -> list[int]:
    """The first n coefficients of C(t) from p = C(2**h), m = C(-2**h): the
    even ones from (p + m) / 2, the odd from (p - m) / 2**(h + 1)."""
    out = [0] * n
    if not (p or m):
        return out
    out[::2] = _unpack((p + m) >> 1, (n + 1) // 2, 2 * h)
    out[1::2] = _unpack((p - m) >> (h + 1), n // 2, 2 * h)
    return out


def _triangle_product(ar: list[list[int]], ai: list[list[int]],
                      br: list[list[int]], bi: list[list[int]],
                      va: int, vb: int, order: int) -> list[tuple[list[int], list[int]]]:
    """Rows d < order of the exact product of two triangular Gaussian-integer
    series, as (re, im) pairs; va and vb are the operands' valuations (the
    rows below them are zero and skipped), each row packed once and row d
    the _row_product of the pairs of rows k and d - k."""
    # The coefficient of x^i y^j (i + j < order) sums (i+1)(j+1) <=
    # ((order+1)/2)**2 <= 2**(2L-2) pair terms, L = order.bit_length(), and
    # each real or imaginary part a_r b_r - a_i b_i, a_r b_i + a_i b_r is
    # below 2**(bits_a + bits_b + 1) in size; so every entry of the result
    # is below 2**(slot - 1) and unpacks from signed slot-bit fields.
    slot = _max_bits(ar + ai) + _max_bits(br + bi) + 2 * order.bit_length()
    pa, pb = _pack_rows(ar, ai, slot), _pack_rows(br, bi, slot)
    na, nb = len(ar), len(br)
    return [_row_product(pa, pb, d, range(max(va, d - nb + 1),
                                          min(d - vb, na - 1) + 1), slot, d + 1)
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
    return _row_product(_pack_rows([ar[:n]], [ai[:n]], slot),
                        _pack_rows([br[:n]], [bi[:n]], slot), 0, range(1), slot, n)


def _line_powers(re: list[int], im: list[int], top: int,
                 n: int) -> list[tuple[list[int], list[int]]]:
    """(re, im) rows of a^0 .. a^top, exact, first n coefficients each."""
    out = [([1] + [0] * (n - 1), [0] * n)]
    for _ in range(top):
        out.append(_line_product(*out[-1], re, im, n))
    return out


def _line_inverse(den: int, ar: list[int], ai: list[int]) -> tuple[int, list[int], list[int]]:
    """(D, re, im): the first len(ar) coefficients of 1/a over D, for the
    line a = (ar + i ai) / den with a_0 != 0.

    With A = ar + i ai and g = A_0, the inverse is b_k = den B_k / g^(k+1),
    where B_0 = 1 and
    B_k = -(A_1 g^0 B_(k-1) + A_2 g^1 B_(k-2) + ... + A_k g^(k-1) B_0):
    a fraction-free recurrence of Gaussian-integer products and sums.  Then
    b_k is den B_k conj(g)^(k+1) |g|^(2(n-1-k)) over D = |g|^(2n).
    """
    n = len(ar)
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
    re, im = [], []
    cr, ci = den * gr, -den * gi                 # den conj(g)^(k+1)
    for k, (u, v) in enumerate(zip(br, bi)):
        f = norm ** (n - 1 - k)
        re.append((u * cr - v * ci) * f)
        im.append((u * ci + v * cr) * f)
        cr, ci = cr * gr + ci * gi, ci * gr - cr * gi
    return norm ** n, re, im


# -- complex array kernels --------------------------------------------------------

def array_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of the product of two ascending complex
    coefficient arrays."""
    out = np.convolve(a[:n], b[:n])[:n]
    if len(out) < n:
        out = np.pad(out, (0, n - len(out)))
    return out


def array_inverse(a: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of 1/a for an ascending complex array a of
    at least n entries with a[0] != 0."""
    if a[0] == 0:
        raise DivisionByZeroSeries("series inverse needs a nonzero constant term")
    out = np.zeros(n, dtype=complex)
    out[0] = 1.0 / a[0]
    for k in range(1, n):
        s = np.dot(a[1: k + 1], out[k - 1:: -1][: k])
        out[k] = -s / a[0]
    return out


def _floor_log2(n: int, d: int) -> int:
    """floor(log2(n / d)) for integers n, d > 0."""
    t = n.bit_length() - d.bit_length()
    return t if (n << max(-t, 0)) >= (d << max(t, 0)) else t - 1


def _triangle(order: int) -> list[list[int]]:
    return [[0] * (d + 1) for d in range(order)]


def _row_recurrence(ar: list[list[int]], ai: list[list[int]], n: int,
                    b0: tuple[int, int], step) -> tuple[list, list]:
    """Rows b_0 .. b_(n-1) of b_d = step(a_1 b_(d-1) + ... + a_d b_0), the
    sum an exact row product of triangular Gaussian-integer rows and step a
    map from its (re, im) entry lists to the next row's, zero to zero."""
    re, im = [[b0[0]]], [[b0[1]]]
    if not any(map(any, chain(ar[1:], ai[1:]))):    # constant a: every sum is zero
        return re + _triangle(n)[1:], im + _triangle(n)[1:]
    bits_a = _max_bits(ar + ai)
    bits_b = max(abs(b0[0]), abs(b0[1])).bit_length()
    slot, pa, pb = 0, [], []
    for d in range(1, n):
        need = bits_a + bits_b + 2 * n.bit_length() + 4
        if need > slot:                   # widen and repack
            slot = need + 32
            pa = _pack_rows(ar, ai, slot)
            pb = _pack_rows(re, im, slot)
        rr, ri = step(*_row_product(pa, pb, d, range(1, d + 1), slot, d + 1))
        re.append(rr)
        im.append(ri)
        bits_b = max(bits_b, _max_bits([rr, ri]))
        pb = [q + row for q, row in zip(pb, _pack_rows([rr], [ri], slot))]
    return re, im


def _ldexp(m, e: int) -> float:
    """m * 2**e as a float; NumericOverflow when it is beyond the double
    range (a binary-scale value read as a complex)."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        raise NumericOverflow(f"{m:.6g} * 2**{e} overflows a double") from None


def _common(a: "BiSeries", b: "BiSeries") -> tuple["BiSeries", "BiSeries"]:
    """a and b on one scale: rational if both are, else both binary."""
    if a.exp is None and b.exp is None:
        return a, b
    return a.to_binary(), b.to_binary()


class BiSeries:
    """Bivariate series in (x, y), total degree < order, on Gaussian-integer
    rows with one scale.

    re[d][j] + i im[d][j] is the mantissa of the coefficient of x^(d-j) y^j.
    Rational scale (``exp`` is None): the coefficient is the mantissa over
    the positive denominator ``den``, and den and all mantissas are coprime.
    Binary scale: the coefficient is the mantissa times 2**exp (``den`` is
    1), and no mantissa has more than PREC_BITS bits: a result that needs
    more is rounded once (half to even), so it carries an absolute error of
    at most about 2**-PREC_BITS times its largest coefficient.

    Series from exact data are rational, those from complex data binary;
    an operation with a binary operand is binary.  The product of two series
    has order min(a.order + v_b, b.order + v_a) for valuations v_a, v_b.
    """

    __slots__ = ("re", "im", "order", "den", "exp", "_coeffs")

    def __init__(self, re: list[list[int]], im: list[list[int]], order: int,
                 den: int = 1, exp: int | None = None):
        if exp is None:
            g = math.gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
            if g > 1:
                re = [[v // g for v in r] for r in re]
                im = [[v // g for v in r] for r in im]
                den //= g
        else:
            top = max(_max_bits(re), _max_bits(im))
            if top > PREC_BITS:
                s = top - PREC_BITS
                re, im = _round_rows(re, s), _round_rows(im, s)
                exp += s
            elif top == 0:
                exp = 0
        self.re, self.im, self.order, self.den, self.exp = re, im, order, den, exp
        self._coeffs = None

    # -- construction ----------------------------------------------------------

    @staticmethod
    def zeros(order: int) -> "BiSeries":
        return BiSeries(_triangle(order), _triangle(order), order)

    @staticmethod
    def from_coeffs(coeffs, order: int) -> "BiSeries":
        """The series with {(i, j): value} coefficients (i + j < order; the
        rest are zero): rational if every value is an ExactScalar, int or
        Fraction, else binary, each coefficient rounded once relative to
        the largest."""
        items = [(k, v) for k, v in coeffs.items() if sum(k) < order]
        exact = all(_is_exact_scalar(v) for _, v in items)
        D, nr, ni = gaussian_integers(
            [ExactScalar.coerce(v) if _is_exact_scalar(v)
             else ExactScalar.of_fractions(Fraction(v.real), Fraction(v.imag))
             for _, v in items])
        re, im = _triangle(order), _triangle(order)
        for ((i, j), _), x, y in zip(items, nr, ni):
            re[i + j][j], im[i + j][j] = x, y
        out = BiSeries(re, im, order, D)
        return out if exact else out.to_binary()

    @staticmethod
    def const(value, order: int) -> "BiSeries":
        return BiSeries.from_coeffs({(0, 0): value}, order)

    @staticmethod
    def from_univariate(s: TruncSeries, slot: int,
                        order: int | None = None) -> "BiSeries":
        """Embed a power series as a series in x (slot 0) or y (slot 1): an
        exact element on the rational scale, a numeric one on the binary
        scale."""
        if s.low < 0:
            v = s.valuation()
            if v is None or v < 0:
                raise SingularCenter("cannot expand a polar element")
        n = s.order if order is None else min(order, s.order)
        if s.exact:                       # a placement of the line
            t = s._span(0, n)
            return BiSeries(*([[0] * d + [x] if slot else [x] + [0] * d for d, x in enumerate(xs)]
                              for xs in (t.re, t.im)), n, t.den)
        return BiSeries.from_coeffs(
            {(0, k) if slot else (k, 0): s.coefficient(k) for k in range(n)}, n)

    def to_binary(self) -> "BiSeries":
        """This series on the binary scale: every mantissa rounded once to
        PREC_BITS bits of the largest coefficient part."""
        if self.exp is not None:
            return self
        D = self.den
        top = max(map(abs, chain(*self.re, *self.im)), default=0)
        k = PREC_BITS - 1 - (_floor_log2(top, D) if top else 0)

        def mant(x: int) -> int:          # round(x / D * 2**k)
            return _round_div(x << k, D) if k >= 0 else _round_div(x, D << -k)

        return BiSeries([[mant(x) if x else 0 for x in r] for r in self.re],
                        [[mant(x) if x else 0 for x in r] for r in self.im],
                        self.order, exp=-k)

    # -- reading ---------------------------------------------------------------

    @property
    def real(self) -> bool:
        return not any(map(any, self.im))

    @property
    def exact(self) -> bool:
        return self.exp is None

    def _value(self, x: int, y: int):
        if self.exp is None:
            return gaussian_scalar(x, y, self.den)
        return complex(_ldexp(x, self.exp), _ldexp(y, self.exp))

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only {(i, j): coefficient} of the nonzero coefficients:
        ExactScalar on the rational scale, complex on the binary one."""
        if self._coeffs is None:
            self._coeffs = MappingProxyType({
                (d - j, j): self._value(x, y)
                for d, (rr, ri) in enumerate(zip(self.re, self.im))
                for j, (x, y) in enumerate(zip(rr, ri)) if x or y})
        return self._coeffs

    def coefficient(self, i: int, j: int):
        if i < 0 or j < 0 or i + j >= self.order:
            return self._value(0, 0)
        return self._value(self.re[i + j][j], self.im[i + j][j])

    def line(self, slot: int) -> tuple[list[int], list[int]]:
        """Mantissas (re, im) of the coefficients of x^k (slot 0) or y^k
        (slot 1), for a series in that variable only."""
        rest = (r[:-1] if slot else r[1:] for r in chain(self.re, self.im))
        if any(map(any, rest)):
            raise InvariantViolation(f"not a series in {'xy'[slot]} alone")
        j = -1 if slot else 0
        return [r[j] for r in self.re], [r[j] for r in self.im]

    def residues(self, p: int, iota: int) -> np.ndarray | None:
        """The coefficients modulo a prime p, i -> iota, as an order x order
        int64 array, entry [i, j] that of x^i y^j (zero where i + j >=
        order), for a series on the rational scale; None when p divides its
        denominator."""
        if self.den % p == 0:
            return None
        n, inv = self.order, pow(self.den, -1, p)
        d = np.repeat(np.arange(n), np.arange(1, n + 1))     # row d holds entry j at
        j = np.arange(d.size) - d * (d + 1) // 2            # x^(d-j) y^j
        vals = chain.from_iterable(self.re)
        if not self.real:
            vals = (x + iota * y for x, y in zip(vals, chain.from_iterable(self.im)))
        out = np.zeros((n, n), dtype=np.int64)
        out[d - j, j] = [x * inv % p if x else 0 for x in vals]
        return out

    def max_abs(self) -> float:
        """The largest coefficient modulus, as a float: on the rational scale
        the largest |complex(c)|, each part correctly rounded (x / D is
        float(Fraction(x, D))); on the binary scale from the integer
        max(a**2 + b**2), max(|a|)**2 for a real series."""
        if self.exp is None:
            D = self.den
            if self.real:
                return max(map(abs, chain.from_iterable(self.re)), default=0) / D
            return max((abs(complex(x / D, y / D)) for ra, rb in zip(self.re, self.im)
                        for x, y in zip(ra, rb)), default=0.0)
        if self.real:
            best = max(map(abs, chain.from_iterable(self.re)), default=0) ** 2
        else:
            best = max((a * a + b * b for ra, rb in zip(self.re, self.im)
                        for a, b in zip(ra, rb)), default=0)
        return _ldexp(math.sqrt(best), self.exp)

    def valuation(self, tol: float = 0.0) -> int | None:
        """Minimal total degree with a nonzero coefficient; on the binary
        scale, with tol > 0, one above tol times max(max_abs, 1)."""
        if self.exp is None or tol <= 0:
            return next((d for d, (ra, rb) in enumerate(zip(self.re, self.im))
                         if any(ra) or any(rb)), None)
        cut, e = tol * max(self.max_abs(), 1.0), self.exp
        for d, (ra, rb) in enumerate(zip(self.re, self.im)):
            for a, b in zip(ra, rb):
                if (a or b) and math.ldexp(math.hypot(a, b), e) > cut:
                    return d
        return None

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.valuation(tol) is None

    def truncate(self, order: int) -> "BiSeries":
        order = min(order, self.order)
        return BiSeries(self.re[:order], self.im[:order], order, self.den, self.exp)

    def restrict_y0(self) -> TruncSeries:
        """Set y to zero, leaving a series in x centered at 0."""
        return TruncSeries(0, [self.coefficient(i, 0) for i in range(self.order)],
                           exact=self.exact)

    def __repr__(self) -> str:
        scale = f"den={self.den}" if self.exp is None else f"exp={self.exp}"
        return f"BiSeries(order={self.order}, {scale})"

    # -- arithmetic ------------------------------------------------------------

    def __neg__(self) -> "BiSeries":
        return BiSeries(_add_rows(self.re, self.im, self.order, -1, 0),
                        _add_rows(self.im, self.re, self.order, -1, 0),
                        self.order, self.den, self.exp)

    def _plus(self, other, sign: int) -> "BiSeries":
        """self + sign * other, on the common scale of the two."""
        if not isinstance(other, BiSeries):
            other = BiSeries.const(other, self.order)
        a, b = _common(self, other)
        order = min(a.order, b.order)
        if a.exp is None:
            den, exp = math.lcm(a.den, b.den), None
            fa, fb = den // a.den, den // b.den
        else:
            den, exp = 1, min(a.exp, b.exp)
            fa, fb = 1 << a.exp - exp, 1 << b.exp - exp
        return BiSeries(_add_rows(a.re, b.re, order, fa, sign * fb),
                        _add_rows(a.im, b.im, order, fa, sign * fb), order, den, exp)

    def __add__(self, other) -> "BiSeries":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "BiSeries":
        # -other rounds again when a mantissa of other was rounded up to
        # 2**PREC_BITS; then the difference is the sum with that negation
        if (isinstance(other, BiSeries) and other.exp is not None
                and _max_bits(other.re + other.im) > PREC_BITS):
            return self + (-other)
        return self._plus(other, -1)

    def __rsub__(self, other) -> "BiSeries":
        return (-self) + other

    def __mul__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            other = BiSeries.const(other, self.order)
        a, b = _common(self, other)
        den, exp = a.den * b.den, None if a.exp is None else a.exp + b.exp
        va = a.valuation() or 0
        vb = b.valuation() or 0
        order = min(a.order + vb, b.order + va)
        if not any(map(any, chain(a.re[1:], a.im[1:]))):
            a, b = b, a
        if not any(map(any, chain(b.re[1:], b.im[1:]))):
            # b is constant (only row 0 is nonzero): one Gaussian factor,
            # the product rounded once
            gr, gi = b.re[0][0], b.im[0][0]
            return BiSeries(_add_rows(a.re, a.im, order, gr, -gi),
                            _add_rows(a.re, a.im, order, gi, gr), order, den, exp)
        rows = _triangle_product(a.re, a.im, b.re, b.im, va, vb, order)
        return BiSeries([r[0] for r in rows], [r[1] for r in rows], order, den, exp)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiSeries":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, BiSeries.const(1, self.order))

    def inverse(self) -> "BiSeries":
        """Inverse of a series with nonzero constant term g = a_0, row by row.

        Binary scale: with 1/A = b * 2**(-K - exp), b_0 = 2**K / g and
        b_d = -(a_1 b_(d-1) + ... + a_d b_0) / g, one rounded Gaussian
        division per coefficient; K puts PREC_BITS + _INV_GUARD bits into b_0.
        Rational scale, A = a / D: 1/A has rows D B_d / g^(d+1) with B_0 = 1
        and B_d = -(a_1 g^0 B_(d-1) + ... + a_d g^(d-1) B_0), a fraction-free
        recurrence; row d then goes over the one denominator |g|^(2n).
        """
        gr, gi = self.re[0][0], self.im[0][0]
        if not (gr or gi):
            raise DivisionByZeroSeries("constant term is zero; cannot invert")
        norm = gr * gr + gi * gi
        n = self.order
        if self.exp is not None:
            K = PREC_BITS + _INV_GUARD + max(abs(gr), abs(gi)).bit_length()

            def div(sr: int, si: int) -> tuple[int, int]:
                return (_round_div(sr * gr + si * gi, norm),
                        _round_div(si * gr - sr * gi, norm))

            def step(sr: list[int], si: list[int]) -> tuple[list, list]:
                if not (gi or any(si)):   # real row, real g: -x / g, rounded
                    return [_round_div(-x if gr > 0 else x, abs(gr)) for x in sr], [0] * len(sr)
                row = [div(-x, -y) for x, y in zip(sr, si)]
                return [c[0] for c in row], [c[1] for c in row]

            re, im = _row_recurrence(self.re, self.im, n, div(1 << K, 0), step)
            return BiSeries(re, im, n, exp=-K - self.exp)
        ar, ai = [self.re[0]], [self.im[0]]
        pr, pi = 1, 0                                    # g^(k-1)
        for k in range(1, n):
            ar.append([x * pr - y * pi for x, y in zip(self.re[k], self.im[k])])
            ai.append([x * pi + y * pr for x, y in zip(self.re[k], self.im[k])])
            pr, pi = pr * gr - pi * gi, pr * gi + pi * gr
        re, im = _row_recurrence(ar, ai, n, (1, 0), lambda sr, si: (
            [-x for x in sr], [-y for y in si]))
        cr, ci = self.den * gr, -self.den * gi           # D conj(g)^(d+1)
        for d in range(n):
            f = norm ** (n - 1 - d)
            re[d], im[d] = ([(x * cr - y * ci) * f for x, y in zip(re[d], im[d])],
                            [(x * ci + y * cr) * f for x, y in zip(re[d], im[d])])
            cr, ci = cr * gr + ci * gi, ci * gr - cr * gi
        return BiSeries(re, im, n, norm ** n)

    def derivative(self, slot: int) -> "BiSeries":
        """d/dx (slot 0) or d/dy (slot 1)."""
        if slot == 0:
            re = [[v * (d - j) for j, v in enumerate(r[:d])]
                  for d, r in enumerate(self.re) if d]
            im = [[v * (d - j) for j, v in enumerate(r[:d])]
                  for d, r in enumerate(self.im) if d]
        else:
            re = [[v * j for j, v in enumerate(r) if j] for r in self.re[1:]]
            im = [[v * j for j, v in enumerate(r) if j] for r in self.im[1:]]
        return BiSeries(re, im, self.order - 1, self.den, self.exp)


def outer_sums(U: BiSeries, V: BiSeries, polys: list, order: int) -> list[BiSeries]:
    """sum c_pq U^p V^q to the given order for each {(p, q): c_pq} of polys,
    U a series in x alone and V one in y alone: the outer products R_q(x)
    V^q(y), R_q = sum_p c_pq U^p, of exact Gaussian-integer line powers on
    the common scale of U and V, each c_pq entering there (on the binary
    scale rounded to PREC_BITS, as a scalar product would round it), summed
    exactly and normalized once; no bivariate product is needed."""
    U, V = _common(U, V)
    (ur, ui), (vr, vi) = U.line(0), V.line(1)
    ups = _line_powers(ur, ui, max((p for c in polys for p, _ in c), default=0), order)
    vqs = _line_powers(vr, vi, max((q for c in polys for _, q in c), default=0), order)
    out = []
    for c in polys:
        terms = []           # (p, q, mantissa of c_pq, scale of c_pq U^p V^q)
        for (p, q), value in c.items():
            k = BiSeries.const(value, 1)
            if U.exact:
                scale = k.den * U.den ** p * V.den ** q
            else:
                k = k.to_binary()
                scale = k.exp + p * U.exp + q * V.exp
            terms.append((p, q, k.re[0][0], k.im[0][0], scale))
        if U.exact:      # denominators: bring every term over their lcm
            den, exp = math.lcm(*(t[4] for t in terms)), None
            terms = [(p, q, kr * (den // d), ki * (den // d)) for p, q, kr, ki, d in terms]
        else:            # exponents: align every term to the smallest
            den, exp = 1, min((t[4] for t in terms), default=0)
            terms = [(p, q, kr << e - exp, ki << e - exp) for p, q, kr, ki, e in terms]
        # U, V and every c_pq real: one product per term, no imaginary part
        real = not (any(ui) or any(vi) or any(t[3] for t in terms))
        rows: dict[int, tuple[list[int], list[int]]] = {}
        for p, q, kr, ki in terms:
            rr, ri = rows.setdefault(q, ([0] * order, [0] * order))
            for i, (x, y) in enumerate(zip(*ups[p])):
                if real:
                    rr[i] += kr * x
                else:
                    rr[i] += kr * x - ki * y
                    ri[i] += kr * y + ki * x
        re, im = _triangle(order), _triangle(order)
        for q, (rr, ri) in rows.items():
            for j, (a, b) in enumerate(zip(*vqs[q])):
                if not (a or b):
                    continue
                for i in range(order - j):
                    if real:
                        re[i + j][j] += rr[i] * a
                    else:
                        x, y = rr[i], ri[i]
                        re[i + j][j] += x * a - y * b
                        im[i + j][j] += x * b + y * a
        out.append(BiSeries(re, im, order, den, exp))
    return out


def coefficient_rows(cols: list[BiSeries], n: int) -> list[list]:
    """The matrix with one row per x^p y^q, p + q < n (p ascending, then q),
    holding that coefficient of each column."""
    return [[c.coefficient(p, q) for c in cols] for p in range(n) for q in range(n - p)]


def compose_shift(f: TruncSeries) -> BiSeries:
    """Expand f(center + (x+y)) as a bivariate series in (x, y).

    Coefficient of x^i y^j is binomial(i+j, i) * a_{i+j}.
    """
    line = BiSeries.from_univariate(f, 0)
    re, im = line.line(0)
    binom = [[math.comb(d, j) for j in range(d + 1)] for d in range(line.order)]
    return BiSeries([[c * x for c in b] for b, x in zip(binom, re)],
                    [[c * y for c in b] if y else [0] * len(b) for b, y in zip(binom, im)],
                    line.order, line.den, line.exp)
