"""Resultants, discriminants, and GCDs in a distinguished variable.

The resultant is the exact Sylvester determinant, reduced before it is
eliminated: one pseudo-division of the higher-degree operand by the other
(Collins 1967, Brown and Traub 1971) leaves a Sylvester matrix of n + k
rows, k the degree of the pseudo-remainder (at most 2n - 1 in the doubling
chain, n the degree of f in x), whose determinant fraction-free Bareiss
elimination (Bareiss 1968) takes.  Both steps run on packed scalars: each
coefficient's other variables are Kronecker-packed into one, t, evaluated
at t = 2^S, so it is one Gaussian integer for aatkit.zi's zi_prem and
determinant.  S lies above an a-priori bound (_res_rows) on every value
tested for zero and on the result, the one value unpacked.

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
from typing import Sequence, Union

from .errors import (
    DegreeCollapse,
    DegreeTooLow,
    DegreeZero,
    OrderExhausted,
    PreconditionFailed,
)
from .poly import MultiPoly, divexact, monic_lex, poly_gcd, poly_squarefree_content
from .scalars import ExactScalar
from .series import BiSeries
from .zi import (ZiPoly, _unpack, determinant, gauss_divexact, gauss_pow, gaussian_integers,
                 gaussian_scalar, zi_prem)

Coefficient = Union[MultiPoly, BiSeries]
Image = dict[int, tuple[int, int]]


# -- resultants on packed scalars ----------------------------------------------
# An operand p is read as rows: D p = sum_k rows[k] var^(d-k), row k the image
# phi(c) of a coefficient c in Z[i][x_0, ..] under x_j -> t^(B_0 .. B_(j-1)),
# a {t-exponent: (re, im)} map.  phi and the evaluation at t = 2^S are ring
# homomorphisms, so the pseudo-division and Bareiss, run on the packed
# images, compute the packed image of their result, and exact divisions stay
# exact; a value is zero exactly when its image is while its t-coefficients
# are below 2^(S-1) in size.  Degrees in var may be read from the images,
# since Res(B, prem(A, B)) enters only as lc(B)^k prod R(roots of B), for any
# k >= deg R.  Reading the result back needs phi one-to-one on it: B_j above
# its degree in x_j.  Res(f, g) is homogeneous of degree deg g in the
# coefficients of f and deg f in those of g, so B_j = deg g deg_j f +
# deg f deg_j g + 1 (a discriminant: (2n - 2) deg_j f + 1), which also keeps
# every leading coefficient's image nonzero.

def _rows(p: MultiPoly, var: str, rest: tuple[str, ...],
          radix: list[int]) -> tuple[int, list[Image]]:
    iv, d = p.vars.index(var), p.degree(var)
    at = [(p.vars.index(v), math.prod(radix[:j])) for j, v in enumerate(rest) if v in p.vars]
    D, re, im = gaussian_integers(p.terms.values())
    rows: list[Image] = [{} for _ in range(d + 1)]
    for e, xr, xi in zip(p.terms, re, im):
        rows[d - e[iv]][sum(e[i] * w for i, w in at)] = (xr, xi)
    return D, rows


def _norm(c: Image) -> int:
    """N(c) = sum |re| + |im| over the terms of c: it bounds every
    t-coefficient of c, and N(c c') <= N(c) N(c')."""
    return sum(abs(xr) + abs(xi) for xr, xi in c.values())


def _packed(rows: list[Image], S: int) -> ZiPoly:
    return [(sum(xr << S * s for s, (xr, _) in c.items()),
             sum(xi << S * s for s, (_, xi) in c.items())) for c in rows]


def _unpacked(c: tuple[int, int], S: int, D: int, rest: tuple[str, ...],
              radix: list[int]) -> MultiPoly:
    """phi^-1 of the image packed at t = 2^S, over D; D < 0 flips the sign."""
    w, n = [math.prod(radix[:j]) for j in range(len(radix))], math.prod(radix)
    return MultiPoly(rest, {tuple(s // q % b for q, b in zip(w, radix)): gaussian_scalar(x, y, D)
                            for s, (x, y) in enumerate(zip(*(_unpack(v, n, S) for v in c)))
                            if x or y})


def _res_rows(f: list[Image], g: list[Image]) -> tuple[tuple[int, int], int]:
    """(Res(f, g) packed at t = 2^S, S) for rows of positive degree.

    With A the operand of higher degree m, B the other (degree n >= 1,
    leading coefficient l) and R = prem(A, B) = l^(m-n+1) A mod B of degree
    k, every root b of B has R(b) = l^(m-n+1) A(b), so Res(B, A) =
    l^(m-k) Res(B, R) / l^((m-n+1) n), an exact division by
    l^((n-1)(m-n)+k); Res(B, R) is the Bareiss determinant of the (n+k)-row
    Sylvester matrix, and Res(f, g) = (-1)^(mn) Res(g, f).  S bounds:
    * each pseudo-remainder: a step r <- l r - lc(r) x^j B at most multiplies
      the largest N of r by 2 N(B), so every remainder, times its owed power
      of l too, is at most P = (2 max N(B))^(m-n+1) max N(A);
    * each Bareiss entry, pivots included: a minor of the Sylvester matrix of
      B and R, so at most the product of its row sums of N, k <= n - 1 rows
      of B and n rows of R: (sum N(B))^(n-1) (n P)^n;
    * the result: the product of the row sums of the Sylvester matrix of f
      and g.  A discriminant Res(f, f') / lc(f) is the determinant of that
      matrix with its first column (lc and n lc) divided by lc, whose row
      sums are no larger.
    The divisions by l^e and by lc are exact in Z[i][t], and evaluation at
    2^S is a ring map, so they need no bound of their own.
    """
    swap = len(f) >= len(g)
    A, B = (f, g) if swap else (g, f)
    m, n = len(A) - 1, len(B) - 1
    nA, nB = [_norm(c) for c in A], [_norm(c) for c in B]
    P = (2 * max(nB)) ** (m - n + 1) * max(nA)
    bound = max(P, sum(nB) ** (n - 1) * (n * P) ** n, sum(nA) ** n * sum(nB) ** m)
    S = bound.bit_length() + 1
    A, B = _packed(A, S), _packed(B, S)
    R = zi_prem(A, B)
    k = len(R) - 1
    if k < 0:
        return (0, 0), S
    z = [(0, 0)]
    xr, xi = determinant([z * r + B + z * (k - 1 - r) for r in range(k)]
                         + [z * r + R + z * (n - 1 - r) for r in range(n)])
    if swap and m * n % 2:
        xr, xi = -xr, -xi
    return gauss_divexact(xr, xi, gauss_pow(B[0], (n - 1) * (m - n) + k)), S


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
    res, S = _res_rows(F, G)
    return _unpacked(res, S, Df ** n * Dg ** m, rest, radix)


def discriminant(f: MultiPoly, var: str) -> MultiPoly:
    """Res(f, df/dvar) / lc with the usual (-1)^(n(n-1)/2) sign."""
    n = f.degree(var)
    if n < 2:
        raise DegreeTooLow(f"discriminant needs degree >= 2 in {var!r}")
    rest = tuple(v for v in sorted(f.vars) if v != var)
    radix = [(2 * n - 2) * f.degree(v) + 1 for v in rest]
    D, F = _rows(f, var, rest, radix)     # f = F / D, f' = F' / D
    res, S = _res_rows(F, [{s: (xr * e, xi * e) for s, (xr, xi) in c.items()}
                           for c, e in zip(F, range(n, 0, -1))])
    return _unpacked(gauss_divexact(*res, _packed(F[:1], S)[0]), S,
                     (-1) ** (n * (n - 1) // 2) * D ** (2 * n - 2), rest, radix)


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
