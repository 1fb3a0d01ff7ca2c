"""Resultants, discriminants, and GCDs in a distinguished variable.

The resultant is the exact Sylvester determinant, reduced before it is
eliminated: one pseudo-division of the higher-degree operand by the other
(the first step of the Euclidean reduction of a resultant; Collins 1967,
Brown and Traub 1971) replaces an (m+n)-row Sylvester matrix by one of
n + k rows, k the degree of the pseudo-remainder, and fraction-free Bareiss
elimination over the polynomial ring takes the determinant of what is
left.  In the doubling chain one operand is the link, whose degree n in
the eliminated variable is f's degree in x, so the determinant has at most
2n - 1 rows whatever the degree of the accumulated relation: none is
needed when f is linear in x (the resultant is then the pseudo-remainder,
up to sign), and 3 rows suffice for the sin chain.

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

from typing import Sequence, Union

from .errors import (
    DegreeCollapse,
    DegreeTooLow,
    DegreeZero,
    OrderExhausted,
    PreconditionFailed,
)
from .poly import (MultiPoly, divexact, monic_lex, poly_squarefree_content,
                   pseudo_rem)
from .scalars import ExactScalar
from .series import BiSeries

Coefficient = Union[MultiPoly, BiSeries]


# -- Sylvester resultant -----------------------------------------------------

def sylvester_matrix(f: MultiPoly, g: MultiPoly, var: str) -> list[list[MultiPoly]]:
    m, n = f.degree(var), g.degree(var)
    fc = f.coefficients_wrt(var)
    gc = g.coefficients_wrt(var)
    size = m + n
    rest = tuple(v for v in sorted(set(f.vars) | set(g.vars)) if v != var)
    zero = MultiPoly.zero(rest)
    rows: list[list[MultiPoly]] = []
    for r in range(n):
        row = [zero] * size
        for k, c in enumerate(reversed(fc)):
            row[r + k] = c.with_vars(rest)
        rows.append(row)
    for r in range(m):
        row = [zero] * size
        for k, c in enumerate(reversed(gc)):
            row[r + k] = c.with_vars(rest)
        rows.append(row)
    return rows


def bareiss_det(matrix: list[list[MultiPoly]]) -> MultiPoly:
    """Fraction-free determinant; every division is exact by construction."""
    n = len(matrix)
    if n == 0:
        return MultiPoly.constant(1)
    m = [row[:] for row in matrix]
    sign = 1
    prev = MultiPoly.constant(1, m[0][0].vars)
    for r in range(n - 1):
        if m[r][r].is_zero():
            swap = next((i for i in range(r + 1, n) if not m[i][r].is_zero()), None)
            if swap is None:
                return MultiPoly.zero(m[0][0].vars)
            m[r], m[swap] = m[swap], m[r]
            sign = -sign
        pivot = m[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                num = m[i][j] * pivot - m[i][r] * m[r][j]
                m[i][j] = divexact(num, prev)
            m[i][r] = MultiPoly.zero(pivot.vars)
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Exact Sylvester resultant Res(f, g) in `var`, over the sorted union
    of the inputs' other variables; it vanishes at a specialization of them
    iff f and g share a root there (or both leading coefficients vanish).

    One pseudo-division shrinks the determinant first.  With A the operand
    of higher degree m, B the other (degree n >= 1, leading coefficient
    l) and R = prem(A, B) = l^(m-n+1) A mod B of degree k, every root b of
    B has R(b) = l^(m-n+1) A(b), so

        Res(B, A) = l^(m-k) Res(B, R) / l^((m-n+1) n),

    an exact division by l^((n-1)(m-n)+k).  Res(B, R) is R^n when k = 0,
    zero when R is, and otherwise the Bareiss determinant of the (n+k)-row
    Sylvester matrix instead of the (m+n)-row one of f and g.  Res(f, g) is
    (-1)^(mn) Res(g, f).
    """
    if f.degree(var) <= 0 or g.degree(var) <= 0:
        raise DegreeZero(f"both inputs need positive degree in {var!r}")
    rest = tuple(v for v in sorted(set(f.vars) | set(g.vars)) if v != var)
    swap = f.degree(var) >= g.degree(var)
    A, B = (f, g) if swap else (g, f)
    m, n = A.degree(var), B.degree(var)
    R = pseudo_rem(A, B, var)
    k = R.degree(var)
    if k < 0:
        return MultiPoly.zero(rest)
    if k == 0:
        res = R.coefficient_wrt(var, 0).with_vars(rest) ** n
    else:
        res = bareiss_det(sylvester_matrix(B, R, var))
    e = (n - 1) * (m - n) + k
    if e:
        res = divexact(res, B.leading_wrt(var).with_vars(rest) ** e)
    return -res if swap and m * n % 2 else res


def discriminant(f: MultiPoly, var: str) -> MultiPoly:
    """Res(f, df/dvar) / lc with the usual (-1)^(n(n-1)/2) sign."""
    n = f.degree(var)
    if n < 2:
        raise DegreeTooLow(f"discriminant needs degree >= 2 in {var!r}")
    res = resultant(f, f.derivative(var), var)
    lc = f.leading_wrt(var).with_vars(res.vars)
    disc = divexact(res, lc)
    if (n * (n - 1) // 2) % 2:
        disc = -disc
    return disc


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
    """Euclid over the truncated-series fraction field.

    True division when the divisor's leading coefficient is invertible
    (nonzero constant term); a pseudo-division step otherwise, which stays in
    the ring and washes out in the final monic normalization.
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
    return _monic_series(a)


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
    return _gcd_series(a, b)


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
