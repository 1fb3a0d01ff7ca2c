"""Resultants, discriminants, and GCDs in a distinguished variable.

The resultant is the exact Sylvester determinant, reduced before it is
eliminated: one pseudo-division of the higher-degree operand by the other
(the first step of the Euclidean reduction of a resultant; Collins 1967,
Brown and Traub 1971) replaces an (m+n)-row Sylvester matrix by one of
n + k rows, k the degree of the pseudo-remainder, and fraction-free Bareiss
elimination (Bareiss 1968) takes the determinant of what is left.  In the
doubling chain one operand is the link, whose degree n in the eliminated
variable is f's degree in x, so the determinant has at most 2n - 1 rows
whatever the degree of the accumulated relation: none is needed when f is
linear in x (the resultant is then the pseudo-remainder, up to sign), and
3 rows suffice for the sin chain.  Both steps run on Gaussian-integer
arrays: each operand is read once over one denominator, its other
variables Kronecker-packed into one (x_0 -> t, x_1 -> t^B_0, ...), and only
the result becomes a MultiPoly, its coefficients the exact x / D.

PolyInW models a polynomial in one distinguished variable W whose
coefficients live either in the exact polynomial ring (MultiPoly) or in a
truncated bivariate series ring (BiSeries, exact or fixed-point).
gcd_in_w runs the Euclidean algorithm over the corresponding field of
fractions; for series coefficients, "zero" means "no significant term
below the working order".

eliminate_chain iterates resultants down a half-argument relation
f(x_1, x) = 0, f(x_2, x_1) = 0, ... and returns the relation connecting the
last variable with the first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    DegreeCollapse,
    DegreeTooLow,
    DegreeZero,
    OrderExhausted,
    PreconditionFailed,
)
from .poly import (MultiPoly, ZiPoly, divexact, monic_lex, poly_squarefree_content,
                   zi_divexact)
from .scalars import ExactScalar, gaussian_integers
from .series import BiSeries, _line_product

Coefficient = Union[MultiPoly, BiSeries]


# -- resultants on Gaussian-integer arrays ------------------------------------
# An operand p is read as rows: D p = sum_k rows[k] var^(d-k), row k the image
# phi(c) of a coefficient c in Z[i][x_0, ..] under x_j -> t^(B_0 .. B_(j-1)),
# a ZiPoly in t ([] is zero).  phi is a ring homomorphism into the domain
# Z[i][t], so the pseudo-division and Bareiss, run on the images, compute the
# image of their result: exact divisions stay exact, and zero tests and
# degrees in var may be read from the images, since Res(B, prem(A, B)) enters
# only as lc(B)^k prod R(roots of B), for any k >= deg R.  Reading the result
# back needs phi one-to-one on it: B_j above its degree in x_j.  Res(f, g) is
# homogeneous of degree deg g in the coefficients of f and deg f in those of
# g, so B_j = deg g deg_j f + deg f deg_j g + 1 (a discriminant: (2n - 2)
# deg_j f + 1), which also keeps every leading coefficient's image nonzero.

def _rows(p: MultiPoly, var: str, rest: tuple[str, ...],
          radix: list[int]) -> tuple[int, list[ZiPoly]]:
    iv, d = p.vars.index(var), p.degree(var)
    at = [(p.vars.index(v), math.prod(radix[:j])) for j, v in enumerate(rest) if v in p.vars]
    D, re, im = gaussian_integers(p.terms.values())
    rows: list[dict] = [{} for _ in range(d + 1)]
    for e, xr, xi in zip(p.terms, re, im):
        rows[d - e[iv]][sum(e[i] * w for i, w in at)] = (xr, xi)
    return D, [[r.get(s, (0, 0)) for s in range(max(r), -1, -1)] if r else []
               for r in rows]


def _unpacked(c: ZiPoly, D: int, rest: tuple[str, ...], radix: list[int]) -> MultiPoly:
    """phi^-1(c) / D; D < 0 flips the sign."""
    w = [math.prod(radix[:j]) for j in range(len(radix))]
    return MultiPoly(rest, {tuple(s // x % b for x, b in zip(w, radix)):
                            ExactScalar.of_fractions(Fraction(xr, D), Fraction(xi, D))
                            for s, (xr, xi) in enumerate(reversed(c)) if xr or xi})


def _mul(a: ZiPoly, b: ZiPoly) -> ZiPoly:
    """a b, Kronecker-packed into big integers (series._line_product)."""
    if not a or not b:
        return []
    return list(zip(*_line_product(*zip(*a), *zip(*b), len(a) + len(b) - 1)))


def _cross(a: ZiPoly, p: ZiPoly, c: ZiPoly, q: ZiPoly) -> ZiPoly:
    """a p - c q."""
    x, y = _mul(a, p), _mul(c, q)
    n = max(len(x), len(y))
    x, y = [(0, 0)] * (n - len(x)) + x, [(0, 0)] * (n - len(y)) + y
    out = [(xr - yr, xi - yi) for (xr, xi), (yr, yi) in zip(x, y)]
    return out[next((k for k, v in enumerate(out) if v != (0, 0)), n):]


def _power(a: ZiPoly, e: int) -> ZiPoly:
    out = [(1, 0)]
    for _ in range(e):
        out = _mul(out, a)
    return out


def _prem(a: list[ZiPoly], b: list[ZiPoly]) -> list[ZiPoly]:
    """pseudo_rem on rows: lc(b)^(da-db+1) a mod b."""
    lb, owed = b[0], len(a) - len(b) + 1
    while len(a) >= len(b):
        a = [_cross(x, lb, a[0], y) for x, y in zip(a[1:], b[1:])] + \
            [_mul(x, lb) for x in a[len(b):]]
        a = a[next((k for k, x in enumerate(a) if x), len(a)):]
        owed -= 1
    return [_mul(x, _power(lb, owed)) for x in a] if owed and a else a


def _bareiss(m: list[list[ZiPoly]]) -> tuple[int, ZiPoly]:
    """(sign, det) with the determinant sign * det, fraction-free; every
    division is exact by Sylvester's identity."""
    n, sign, prev = len(m), 1, [(1, 0)]
    for r in range(n - 1):
        if not m[r][r]:
            swap = next((i for i in range(r + 1, n) if m[i][r]), None)
            if swap is None:
                return 1, []
            m[r], m[swap], sign = m[swap], m[r], -sign
        pivot = m[r][r]
        for i in range(r + 1, n):
            m[i][r + 1:] = [zi_divexact(_cross(x, pivot, m[i][r], y), prev)
                            for x, y in zip(m[i][r + 1:], m[r][r + 1:])]
        prev = pivot
    return sign, m[-1][-1]


def _res_rows(f: list[ZiPoly], g: list[ZiPoly]) -> tuple[int, ZiPoly]:
    """(sign, res) with Res(f, g) = sign * res, for rows of positive degree.

    With A the operand of higher degree m, B the other (degree n >= 1,
    leading coefficient l) and R = prem(A, B) = l^(m-n+1) A mod B of degree
    k, every root b of B has R(b) = l^(m-n+1) A(b), so Res(B, A) =
    l^(m-k) Res(B, R) / l^((m-n+1) n), an exact division by
    l^((n-1)(m-n)+k).  Res(B, R) is R^n when k = 0, zero when R is, and
    otherwise the Bareiss determinant of the (n+k)-row Sylvester matrix.
    Res(f, g) is (-1)^(mn) Res(g, f).
    """
    swap = len(f) >= len(g)
    A, B = (f, g) if swap else (g, f)
    m, n = len(A) - 1, len(B) - 1
    R = _prem(A, B)
    k = len(R) - 1
    if k < 0:
        return 1, []
    sign, res = (1, _power(R[0], n)) if k == 0 else _bareiss(
        [[[]] * r + B + [[]] * (k - 1 - r) for r in range(k)]
        + [[[]] * r + R + [[]] * (n - 1 - r) for r in range(n)])
    e = (n - 1) * (m - n) + k
    return -sign if swap and m * n % 2 else sign, zi_divexact(res, _power(B[0], e))


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Exact Sylvester resultant Res(f, g) in `var`, over the sorted union
    of the inputs' other variables; it vanishes at a specialization of them
    iff f and g share a root there (or both leading coefficients vanish)."""
    m, n = f.degree(var), g.degree(var)
    if m <= 0 or n <= 0:
        raise DegreeZero(f"both inputs need positive degree in {var!r}")
    rest = tuple(v for v in sorted(set(f.vars) | set(g.vars)) if v != var)
    radix = [n * f.degree(v) + m * g.degree(v) + 1 for v in rest]
    (Df, F), (Dg, G) = _rows(f, var, rest, radix), _rows(g, var, rest, radix)
    sign, res = _res_rows(F, G)
    return _unpacked(res, sign * Df ** n * Dg ** m, rest, radix)


def discriminant(f: MultiPoly, var: str) -> MultiPoly:
    """Res(f, df/dvar) / lc with the usual (-1)^(n(n-1)/2) sign."""
    n = f.degree(var)
    if n < 2:
        raise DegreeTooLow(f"discriminant needs degree >= 2 in {var!r}")
    rest = tuple(v for v in sorted(f.vars) if v != var)
    radix = [(2 * n - 2) * f.degree(v) + 1 for v in rest]
    D, F = _rows(f, var, rest, radix)     # f = F / D, f' = F' / D
    sign, res = _res_rows(F, [[(xr * e, xi * e) for xr, xi in row]
                              for row, e in zip(F, range(n, 0, -1))])
    return _unpacked(zi_divexact(res, F[0]), (-1) ** (n * (n - 1) // 2) * sign
                     * D ** (2 * n - 2), rest, radix)


# -- polynomials in W over a coefficient domain -------------------------------

class PolyInW:
    """Polynomial in a distinguished variable with ring-valued coefficients.

    coeffs[k] is the coefficient of W^k; entries are MultiPoly (exact
    rational-function work) or BiSeries (truncated series work), never
    mixed.
    """

    __slots__ = ("coeffs", "zero_tol")

    def __init__(self, coeffs: Sequence[Coefficient], zero_tol: float = 1e-9):
        self.zero_tol = float(zero_tol)
        cs = list(coeffs)
        while cs and self._is_zero_coeff(cs[-1]):
            cs.pop()
        self.coeffs = cs

    def _is_zero_coeff(self, c: Coefficient) -> bool:
        if isinstance(c, MultiPoly):
            return c.is_zero()
        return c.is_zero(self.zero_tol)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Coefficient:
        return self.coeffs[-1]

    def map(self, fn) -> "PolyInW":
        return PolyInW([fn(c) for c in self.coeffs], self.zero_tol)

    def scale_coeff(self, c: Coefficient) -> "PolyInW":
        return PolyInW([k * c for k in self.coeffs], self.zero_tol)

    def sub_shifted(self, other: "PolyInW", c: Coefficient, shift: int) -> "PolyInW":
        """self - c * W^shift * other."""
        zero = _zero_like((self.coeffs or other.coeffs)[0])
        out = list(self.coeffs)
        need = shift + len(other.coeffs)
        while len(out) < need:
            out.append(zero)
        for k, o in enumerate(other.coeffs):
            out[shift + k] = out[shift + k] - c * o
        return PolyInW(out, self.zero_tol)

    def __repr__(self) -> str:
        return f"PolyInW(degree={self.degree}, coeffs={self.coeffs!r})"


def _zero_like(ref: Coefficient) -> Coefficient:
    if isinstance(ref, MultiPoly):
        return MultiPoly.zero(ref.vars)
    return BiSeries.zeros(ref.order)


def _series_invertible(c: BiSeries, tol: float) -> bool:
    c00 = c.coefficient(0, 0)
    if c.exact:
        return not c00.is_zero()
    return abs(c00) > tol * max(c.max_abs(), 1.0)


def _gcd_series(a: PolyInW, b: PolyInW) -> PolyInW:
    """Euclid over the truncated-series fraction field, not normalized.

    True division when the divisor's leading coefficient is invertible
    (nonzero constant term); a pseudo-division step otherwise, which stays in
    the ring and washes out in gcd_in_w's monic normalization.
    """
    tol = a.zero_tol
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = a
        lb = b.leading()
        # lr / lb is lr * lb.inverse(): invert once per divisor
        inv_lb = lb.inverse() if _series_invertible(lb, tol) else None
        while not r.is_zero() and r.degree >= b.degree:
            d_old = r.degree
            lr = r.leading()
            shift = r.degree - b.degree
            if inv_lb is not None:
                r = r.sub_shifted(b, lr * inv_lb, shift)
            else:
                if lb.valuation(tol) is None:
                    raise OrderExhausted(
                        "leading coefficient indistinguishable from zero at "
                        f"working order {lb.order}; raise the order")
                r = r.scale_coeff(lb).sub_shifted(b, lr, shift)
            if not r.is_zero() and r.degree >= d_old:
                raise OrderExhausted(
                    "leading term failed to cancel at the working order")
        a, b = b, r
    return a


def _monic_series(p: PolyInW) -> PolyInW:
    if p.is_zero():
        return p
    tol = p.zero_tol
    lead = p.leading()
    if _series_invertible(lead, tol):
        inv = lead.inverse()
        return p.map(lambda c: c * inv)
    # leading coefficient not invertible: normalize by the invertible
    # coefficient of lowest total valuation instead
    candidates = [(c.valuation(tol), k) for k, c in enumerate(p.coeffs)
                  if _series_invertible(c, tol)]
    if not candidates:
        raise OrderExhausted("no invertible coefficient available for "
                             "normalization; raise the working order")
    _, k = min(candidates)
    inv = p.coeffs[k].inverse()
    return p.map(lambda c: c * inv)


def _gcd_poly(a: PolyInW, b: PolyInW) -> PolyInW:
    """Primitive pseudo-remainder chain over the rational-function field."""
    from .poly import content_wrt, poly_gcd  # local: avoids polluting module API

    def prim(p: PolyInW) -> PolyInW:
        live = [c for c in p.coeffs if not c.is_zero()]
        if not live:
            return p
        g = live[0]
        for c in live[1:]:
            g = poly_gcd(g, c)
            if g.is_constant():
                break
        if g.is_constant():
            return p
        return p.map(lambda c: divexact(c, g) if not c.is_zero() else c)

    a, b = prim(a), prim(b)
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        if b.degree == 0:
            return PolyInW([MultiPoly.constant(1, b.coeffs[0].vars)], a.zero_tol)
        r = a
        lb = b.leading()
        while not r.is_zero() and r.degree >= b.degree:
            r = r.scale_coeff(lb).sub_shifted(b, r.leading(), r.degree - b.degree)
        a, b = b, prim(r)
    lead = a.leading()
    if lead.is_constant():
        inv = ExactScalar.one() / lead.constant_value()
        return a.map(lambda c: c.scale(inv))
    # non-constant leading coefficient: primitive output is the best
    # canonical form available without leaving the polynomial ring
    return a


def gcd_in_w(a: PolyInW, b: PolyInW) -> PolyInW:
    """Monic GCD in the distinguished variable over the coefficient field.

    For series coefficients a coefficient counts as zero when its valuation
    reaches the working order (numeric mode: below zero_tol relative to the
    coefficient scale).  Raises OrderExhausted when the algorithm cannot
    tell a leading coefficient from zero.
    """
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if isinstance(a.leading(), MultiPoly):
        return _gcd_poly(a, b)
    return _monic_series(_gcd_series(a, b))


def monic_in_w(p: PolyInW) -> PolyInW:
    """Normalize the leading coefficient to one over the coefficient field."""
    if p.is_zero():
        return p
    if isinstance(p.leading(), MultiPoly):
        lead = p.leading()
        if lead.is_constant():
            inv = ExactScalar.one() / lead.constant_value()
            return p.map(lambda c: c.scale(inv))
        return p
    return _monic_series(p)


# -- the doubling chain --------------------------------------------------------

def _normalize_step(g: MultiPoly, keep_vars: tuple[str, str]) -> MultiPoly:
    for v in keep_vars:
        if g.degree(v) > 0:
            g = poly_squarefree_content(g, v)
    return monic_lex(g)


def eliminate_chain(f: MultiPoly, m: int, var_half: str = "z",
                    var_full: str = "x") -> MultiPoly:
    """Iterate the half-argument relation m times and eliminate the middle.

    Given f(z, x) = 0 relating x = P(u) and z = P(u/2), returns gamma in
    (x_m, x) with gamma(P(u/2^m), P(u)) = 0.  Square-free/content
    normalization is applied after each resultant to control blowup; the
    final gamma is returned with variables (x_m, x) where x_m is named
    "<var_full>1", "<var_full>2", ... by level.
    """
    if m < 1:
        raise PreconditionFailed("chain length m must be >= 1")
    if f.degree(var_half) <= 0 or f.degree(var_full) <= 0:
        raise DegreeZero("chain input must be nonconstant in both variables")
    gamma = f.rename_var(var_half, f"{var_full}1")
    for k in range(2, m + 1):
        mid = f"{var_full}{k - 1}"
        new = f"{var_full}{k}"
        link = f.rename_var(var_half, new).rename_var(var_full, mid)
        step = resultant(gamma, link, mid)
        if step.is_zero():
            raise DegreeCollapse(f"resultant vanished at chain step {k}")
        gamma = _normalize_step(step, (new, var_full))
    return gamma
