"""Algebroid curves: Puiseux branches, singular points, tracking, monodromy.

A curve is p_0(u) z^n + p_1(u) z^{n-1} + ... + p_n(u) = 0 with polynomial
coefficients, square-free in z.  This module computes, numerically but with
exact preprocessing wherever the data allows it:

* all n local branches at any finite center (and at infinity via u -> 1/t),
  as fractional-power expansions z = sum c_k (u - c)^{k/e} found by the
  Newton-polygon construction followed by series Newton iteration.  Every
  branch is polished as a power series: the poles at a zero of p_0 are
  z = 1/w with w a zero branch of the reversed curve w^n F(u, 1/w), polished
  there and inverted once;
* the singular-point inventory (zeros of p_0, discriminant roots, infinity)
  with each point classified by its local branch structure;
* numeric analytic continuation along a polyline (Euler predictor, Newton
  corrector, adaptive steps) of one branch, or of all n sheets together;
* monodromy permutations around a singular point, all sheets in lockstep.

Branch coefficients are double precision; the ground truth for every
expansion is the substitution residual |F(c + t^e, z(t))|, exposed through
``branch_residual`` so callers can adjudicate printed values against it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import (
    AmbiguousMatching,
    CorrectionDiverged,
    InvariantViolation,
    NearSingular,
    NotSquareFree,
    OrderTooLow,
    RootFindingFailure,
    SchemaError,
    SingularCenter,
)
from .poly import MultiPoly, poly_gcd, zi_coeffs
from .scalars import ExactScalar, rationalize
from .series import TruncSeries, array_inverse, array_product
from .zi import (ZiPoly, gaussian_integers, gaussian_scalar, zi_derivative, zi_divexact,
                 zi_gcd, zi_horner, zi_shift)

_SUPPORT_REL = 1e-10
_CLUSTER_REL = 2e-6
_MATCH_TOL = 1e-8
_DEDUPE_TOL = 1e-8
_MAX_DEPTH = 24
_SQF_POINTS = (0, 1, -1, 2, -2, 3, -3)   # u0 tried by the square-free proof


# ---------------------------------------------------------------------------
# curve type

class AlgebroidCurve:
    """F(u, z) = sum p_k(u) z^(n-k), square-free in z, p_0 nonzero.

    Square-freeness is proved by specialization when F lives in (u, z): if
    F(u0, z) has degree n and no common factor with F_z(u0, z) for one
    integer u0 of _SQF_POINTS, then disc_z F(u0) != 0, so disc_z F is not
    identically zero and F has no repeated factor in z.  The bivariate
    poly_gcd(F, F_z) runs only when no tried u0 gives that proof, and it
    names the repeated factor in NotSquareFree.
    """

    def __init__(self, F: MultiPoly, u_var: str = "u", z_var: str = "z"):
        self.u_var = u_var
        self.z_var = z_var
        self.F = F.with_vars(tuple(sorted(set(F.vars) | {u_var, z_var})))
        if live := [v for v in self.F.vars if v not in (u_var, z_var) and self.F.degree(v) > 0]:
            raise InvariantViolation(f"curve in {u_var}, {z_var} has other variables: "
                                     + ", ".join(live))
        self.n = self.F.degree(z_var)
        if self.n < 1:
            raise InvariantViolation("curve must have positive degree in z")
        zc = self.F.coefficients_wrt(z_var)
        self.p_coeffs = [zc[self.n - k] for k in range(self.n + 1)]
        if self.p_coeffs[0].is_zero():
            raise InvariantViolation("leading coefficient p0 is identically zero")
        self._cols = _zi_columns(self)   # (D, cols), computed once per curve
        if self.n >= 2 and not self._squarefree_at_some_u0():
            g = poly_gcd(self.F, self.F.derivative(z_var))
            if g.degree(z_var) >= 1:
                raise NotSquareFree(f"repeated factor in {z_var}: {g!r}")
        self._arrays: tuple[_Rows, _Rows, _Rows] | None = None
        self._singular_cache: tuple[list[complex], int] | None = None

    def _squarefree_at_some_u0(self) -> bool:
        """True when F(u0, z) is square-free of degree n at some u0 of
        _SQF_POINTS (the proof in the class docstring); False proves nothing."""
        cols = self._cols[1]
        for u0 in _SQF_POINTS:   # f = D F(u0, z), highest power first
            f = [zi_horner(col, (u0, 0)) for col in reversed(cols)]
            if f[0] != (0, 0) and len(zi_gcd(f, zi_derivative(f))) == 1:
                return True
        return False

    @staticmethod
    def from_p_list(p_list: list[MultiPoly], u_var: str = "u",
                    z_var: str = "z") -> "AlgebroidCurve":
        if not p_list or p_list[0].is_zero():
            raise InvariantViolation("leading coefficient p0 is identically zero")
        n = len(p_list) - 1
        z = MultiPoly.variable(z_var)
        F = MultiPoly.zero((u_var, z_var))
        for k, p in enumerate(p_list):
            F = F + p.with_vars([v for v in p.vars if v != z_var]) * z ** (n - k)
        return AlgebroidCurve(F, u_var, z_var)

    # numeric fast path: dense coefficient rows of F, F_u, F_z
    def _num(self) -> tuple[_Rows, _Rows, _Rows]:
        """Rows of F, F_u, F_z from _zi_columns; k x / D, one int true
        division, is correctly rounded, as complex(ExactScalar) is."""
        if self._arrays is None:
            D, cols = self._cols
            du = len(cols[0]) - 1
            F = {(du - j, i): x for i, col in enumerate(cols)
                 for j, x in enumerate(col) if x != (0, 0)}
            Fu = {(j - 1, i): (j * xr, j * xi) for (j, i), (xr, xi) in F.items() if j}
            Fz = {(j, i - 1): (i * xr, i * xi) for (j, i), (xr, xi) in F.items() if i}
            self._arrays = tuple(_zi_rows(D, P) for P in (F, Fu, Fz))
        return self._arrays

    def eval(self, u: complex, z: complex) -> complex:
        return _horner(_at_u(self._num()[0], complex(u)), complex(z))

    def eval_du(self, u: complex, z: complex) -> complex:
        return _horner(_at_u(self._num()[1], complex(u)), complex(z))

    def eval_dz(self, u: complex, z: complex) -> complex:
        return _horner(_at_u(self._num()[2], complex(u)), complex(z))

    def z_coeffs_at(self, u: complex) -> list[complex]:
        """Ascending z-coefficients of F(u, .) as complex numbers."""
        return _at_u(self._num()[0], complex(u))[::-1]

    def roots_at(self, u: complex) -> np.ndarray:
        cs = np.array(self.z_coeffs_at(u))
        nz = np.nonzero(np.abs(cs) > 1e-13 * max(1.0, float(np.abs(cs).max())))[0]
        if len(nz) == 0:
            raise RootFindingFailure(f"curve degenerates at u={u}")
        return np.roots(cs[: nz[-1] + 1][::-1])

    def at_infinity(self) -> "AlgebroidCurve":
        """u^d F(1/u, z), d the degree in u: each u-exponent e becomes d - e."""
        iu, d = self.F.vars.index(self.u_var), self.F.degree(self.u_var)
        return AlgebroidCurve(MultiPoly(self.F.vars, {
            e[:iu] + (d - e[iu],) + e[iu + 1:]: c for e, c in self.F.terms.items()}),
            self.u_var, self.z_var)

    def singular_locations(self) -> list[complex]:
        """Finite singular candidates: zeros of p0 and discriminant roots."""
        return self._singular()[0]

    def _singular(self) -> tuple[list[complex], int]:
        """The singular locations, zeros of p0 first, and how many of them
        are zeros of p0; the other ones are discriminant roots."""
        if self._singular_cache is None:
            from .elimination import discriminant  # deferred: import cycle
            locs: list[complex] = []
            if self.p_coeffs[0].degree(self.u_var) >= 1:
                locs += [r for r, _ in
                         _distinct_roots_exact(self.p_coeffs[0], self.u_var)]
            n_p0 = len(locs)
            if self.n >= 2:
                disc = discriminant(self.F, self.z_var)
                if disc.degree(self.u_var) >= 1:
                    for r, _ in _distinct_roots_exact(disc, self.u_var):
                        if all(abs(r - s) > _DEDUPE_TOL * max(1.0, abs(s))
                               for s in locs):
                            locs.append(r)
            self._singular_cache = (locs, n_p0)
        return self._singular_cache

    def to_json_dict(self) -> dict:
        return {"type": "curve", "n": self.n,
                "p": [p.to_json_dict() for p in self.p_coeffs]}

    @staticmethod
    def from_json_dict(data: dict) -> "AlgebroidCurve":
        ps = [MultiPoly.from_json_dict(p) for p in data["p"]]
        return AlgebroidCurve.from_p_list(ps)


# ---------------------------------------------------------------------------
# branch containers

@dataclass
class PuiseuxBranch:
    """One branch z = sum coeffs[k] * (u - center)^((low_exp + k)/e)."""

    center: complex
    e: int
    low_exp: int
    coeffs: list[complex]
    order: int
    at_infinity: bool = False

    def exponents(self) -> list[Fraction]:
        return [Fraction(self.low_exp + k, self.e) for k in range(len(self.coeffs))]

    def coefficient(self, k: int) -> complex:
        """Coefficient of t^k, t = (u - center)^(1/e)."""
        if k < self.low_exp or k >= self.order:
            return 0j
        return self.coeffs[k - self.low_exp]

    def eval_t(self, t: complex) -> complex:
        acc = 0j
        for k in range(self.order - 1, self.low_exp - 1, -1):
            acc = acc * t + self.coefficient(k)
        if self.low_exp:
            acc *= t ** self.low_exp
        return acc

    def eval(self, u: complex) -> complex:
        """Evaluate via the principal e-th root of the local coordinate."""
        s = complex(u) - self.center
        t = s ** (1.0 / self.e) if self.e > 1 else s
        return self.eval_t(t)

    def sort_key(self):
        return _branch_key(self.low_exp, self.e, self.coeffs)

    def to_json_dict(self) -> dict:
        return {
            "center": "infinity" if self.at_infinity
                      else [self.center.real, self.center.imag],
            "ram_index": self.e,
            "low_exp": self.low_exp,
            "order": self.order,
            "coeffs": [[complex(c).real, complex(c).imag] for c in self.coeffs],
        }


def _branch_key(low: int, e: int, coeffs) -> tuple:
    """Deterministic order of branches and branch systems: (low, e, then the
    coefficients rounded to 9 decimals)."""
    return (low, e, tuple((round(complex(c).real, 9), round(complex(c).imag, 9))
                          for c in coeffs))


@dataclass
class BranchSystem:
    """A conjugacy class of e branches sharing one parametrization."""

    e: int
    low: int
    coeffs: np.ndarray  # index k holds the coefficient of t^(low+k)
    order: int

    def conjugates(self, center: complex, order: int,
                   at_infinity: bool = False) -> list[PuiseuxBranch]:
        out = []
        for k in range(self.e):
            zeta = cmath.exp(2j * math.pi * k / self.e)
            scaled = [complex(self.coeffs[i]) * zeta ** (self.low + i)
                      for i in range(len(self.coeffs))]
            out.append(PuiseuxBranch(center, self.e, self.low, scaled,
                                     order, at_infinity))
        return out


@dataclass
class SingularPoint:
    location: complex | None  # None encodes the point at infinity
    kind: str                 # pole | critical | pole-and-branch | regular-for-some-branches
    cycle_structure: list[int]
    source: str               # p0-zero | discriminant-root | infinity

    def to_json_dict(self) -> dict:
        loc = "infinity" if self.location is None else \
            [self.location.real, self.location.imag]
        return {"location": loc, "kind": self.kind,
                "cycle_structure": self.cycle_structure, "source": self.source}


@dataclass
class SingularityReport:
    points: list[SingularPoint]

    def finite_locations(self) -> list[complex]:
        return [p.location for p in self.points if p.location is not None]

    def to_json_dict(self) -> dict:
        return {"points": [p.to_json_dict() for p in self.points]}


@dataclass
class MonodromyPermutation:
    base_point: complex
    loop_target: complex | None
    perm: tuple[int, ...]  # perm[i] = image of branch i (0-based internally)

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def cycles(self) -> list[list[int]]:
        seen: set[int] = set()
        out = []
        for i in range(len(self.perm)):
            if i in seen:
                continue
            cyc, j = [], i
            while j not in seen:
                seen.add(j)
                cyc.append(j)
                j = self.perm[j]
            out.append(cyc)
        return out

    def cycle_type(self) -> list[int]:
        return sorted((len(c) for c in self.cycles()), reverse=True)

    def to_json_dict(self) -> dict:
        return {
            "base_point": [self.base_point.real, self.base_point.imag],
            "loop_target": None if self.loop_target is None else
                           [self.loop_target.real, self.loop_target.imag],
            "perm": [p + 1 for p in self.perm],  # 1-based in reports
            "cycles": [[i + 1 for i in c] for c in self.cycles()],
        }


def compose_permutations(first: tuple[int, ...],
                         then: tuple[int, ...]) -> tuple[int, ...]:
    """Apply `first`, then `then` (left-to-right composition)."""
    return tuple(then[f] for f in first)


# ---------------------------------------------------------------------------
# numeric bivariate-polynomial helpers (arrays H[j, i] for s^j y^i)

# F as a tuple over descending z-powers of tuples over descending u-powers
_Rows = tuple[tuple[complex, ...], ...]
# a branch system's (e, low, deferred coefficient array) in the polygon pass
_System = tuple[int, int, Callable[[], np.ndarray]]


def _zi_rows(D: int, terms: dict[tuple[int, int], tuple[int, int]]) -> _Rows:
    """Rows of sum x / D u^j z^i, x = terms[j, i] nonzero, trimmed to its degrees."""
    du = max((j for j, _ in terms), default=0)
    dz = max((i for _, i in terms), default=0)
    rows = [[0j] * (du + 1) for _ in range(dz + 1)]
    for (j, i), (xr, xi) in terms.items():
        rows[dz - i][du - j] = complex(xr / D, xi / D)
    return tuple(map(tuple, rows))


def _horner(desc: tuple[complex, ...], x: complex) -> complex:
    """Horner in the operation order of np.polyval, so bit-identical to it."""
    acc = 0j
    for c in desc:
        acc = acc * x + c
    return acc


def _at_u(rows: _Rows, u: complex) -> list[complex]:
    """Descending z-coefficients at u of the polynomial stored as rows."""
    return [_horner(row, u) for row in rows]


def _taylor_shift(coeffs, a: complex) -> list[complex]:
    """p(x) -> p(a + x) for an ascending coefficient sequence."""
    out = [complex(c) for c in coeffs]
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def _local_array(curve: AlgebroidCurve, center) -> tuple[np.ndarray, tuple[int, ZiPoly] | None]:
    """The coefficient array of F(center + s, z) over (s-exp, z-exp), and at
    an exact center c also (N, h), N F(c, z) = h a ZiPoly in z: the s^0 row
    of _exact_shift, whose floats are the correctly rounded exact values."""
    c = _as_exact(center)
    if c is None:   # the z^i row of F (ascending in u), Taylor-shifted, is column i
        return np.array([_taylor_shift(row[::-1], complex(center))
                         for row in reversed(curve._num()[0])]).T, None
    N, cols = _exact_shift(curve, c)
    out = np.zeros((len(cols[0]), len(cols)), dtype=complex)
    for i, col in enumerate(cols):
        for l, (xr, xi) in enumerate(col):
            out[l, i] = complex(xr / N, xi / N)
    h = [col[0] for col in reversed(cols)]
    return out, (N, h[next((k for k, x in enumerate(h) if x != (0, 0)), len(h)):])


def _exact_shift(curve: AlgebroidCurve,
                 c: ExactScalar) -> tuple[int, list[list[tuple[int, int]]]]:
    """(N, cols) with N F(c + s, z) = sum cols[i][l] s^l z^i in Gaussian
    integers: with c = w / m and du the degree in u, cols[i] is the zi_shift
    of the z^i column of _zi_columns, ascending, and N = D m^du."""
    m, (wr,), (wi,) = gaussian_integers([c])
    D, cols = curve._cols
    return D * m ** (len(cols[0]) - 1), [zi_shift(col, (wr, wi), m)[::-1] for col in cols]


def _zi_columns(curve: AlgebroidCurve) -> tuple[int, list[list[tuple[int, int]]]]:
    """(D, cols) with D F(u, z) = sum cols[i][j] u^(du-j) z^i in Gaussian
    integers, du the degree of F in u: cols[i] is a ZiPoly in u of length du + 1."""
    F, u, z = curve.F, curve.u_var, curve.z_var
    du, iu, iz = F.degree(u), F.vars.index(u), F.vars.index(z)
    D, re, im = gaussian_integers(F.terms.values())
    cols = [[(0, 0)] * (du + 1) for _ in range(F.degree(z) + 1)]
    for e, xr, xi in zip(F.terms, re, im):
        cols[e[iz]][du - e[iu]] = (xr, xi)
    return D, cols


def _as_exact(center) -> ExactScalar | None:
    """Recognize a center with exact Gaussian-rational float data."""
    if isinstance(center, (int, Fraction, ExactScalar)):
        return ExactScalar.coerce(center)
    z = complex(center)
    re, im = rationalize(z.real), rationalize(z.imag)
    if re is None or im is None:
        return None
    if complex(float(re), float(im)) != z:
        return None
    return ExactScalar(re, im)


def _shift_y(H: np.ndarray, zeta: complex) -> np.ndarray:
    out = np.zeros_like(H)
    for j in range(H.shape[0]):
        out[j, :] = _taylor_shift(H[j, :], zeta)
    return out


def _reverse_y(H: np.ndarray, n: int) -> np.ndarray:
    """w^n H(s, 1/w): flip the y-axis, padding to nominal degree n."""
    J, I = H.shape
    out = np.zeros((J, n + 1), dtype=complex)
    for i in range(I):
        out[:, n - i] = H[:, i]
    return out


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (a, 1, 0)
    g, x, y = _gcdex(b, a % b)
    return (g, y, x - (a // b) * y)


# ---------------------------------------------------------------------------
# roots with multiplicities

def _distinct_roots(coeffs: np.ndarray) -> list[tuple[complex, int]]:
    """Roots with multiplicities via clustering of np.roots output."""
    cs = np.array(coeffs, dtype=complex)
    scale = float(np.abs(cs).max()) if cs.size else 0.0
    if scale == 0:
        return []
    nz = np.nonzero(np.abs(cs) > 1e-13 * scale)[0]
    cs = cs[: nz[-1] + 1]
    if len(cs) <= 1:
        return []
    roots = np.roots(cs[::-1])
    groups: list[list[complex]] = []
    for r in sorted(roots, key=lambda t: (round(t.real, 7), round(t.imag, 7))):
        for g in groups:
            if abs(r - g[0]) < _CLUSTER_REL * max(1.0, abs(g[0])):
                g.append(r)
                break
        else:
            groups.append([complex(r)])
    return [(complex(np.mean(g)), len(g)) for g in groups]


def _distinct_roots_exact(p: MultiPoly, var: str) -> list[tuple[complex, int]]:
    """Polished simple roots of the square-free part with multiplicities.

    Runs on the Gaussian-integer coefficients c of p = c / D: the square-free
    part p / gcd(p, p') is exact in Z[i][x], and every float is the rounded
    exact coefficient, evaluated in MultiPoly.eval's Horner order.  Roots
    that verify exactly as small Gaussian rationals are snapped to the float
    image of that rational, so downstream exact recentering fires.
    """
    p = p.with_vars((var,))
    return _roots_zi(*zi_coeffs(p, var)) if p.degree(var) >= 1 else []


def _roots_zi(D: int, c: ZiPoly) -> list[tuple[complex, int]]:
    """_distinct_roots_exact of c / D, c of degree >= 1."""
    g = zi_gcd(c, zi_derivative(c))
    (lr, li), sqf = g[0], zi_divexact(c, g)
    sqf = [(xr * lr - xi * li, xr * li + xi * lr) for xr, xi in sqf]  # p / monic gcd
    dsqf = zi_derivative(sqf)
    derivs = [c]
    for _ in range(len(c) - 1):
        derivs.append(zi_derivative(derivs[-1]))
    fsqf, fdsqf, *fderivs = ([complex(xr / D, xi / D) for xr, xi in q]
                             for q in [sqf, dsqf] + derivs)
    scale = max(1.0, max(abs(x) for x in fderivs[0]))
    out = []
    for r in np.roots(fsqf):
        r = _snap_root(c, _polish_poly_root(fsqf, fdsqf, complex(r)))
        mult = 1
        for k in range(1, len(fderivs)):
            if abs(_horner(fderivs[k], r)) > 1e-7 * scale * math.factorial(k):
                mult = k
                break
        out.append((r, mult))
    return out


def _snap_root(c: ZiPoly, r: complex) -> complex:
    """Replace r by float(q) when q is an exactly verified rational root of
    the Gaussian-integer polynomial c (descending)."""
    re, im = rationalize(r.real, 10 ** 4), rationalize(r.imag, 10 ** 4)
    if re is None or im is None:
        return r
    m = math.lcm(re.denominator, im.denominator)   # q = (wr + i wi) / m
    w = (re.numerator * (m // re.denominator), im.numerator * (m // im.denominator))
    return complex(float(re), float(im)) if zi_horner(c, w, m) == (0, 0) else r


def _polish_poly_root(f: list[complex], df: list[complex], r: complex,
                      iters: int = 40) -> complex:
    """Newton on descending coefficient lists f and its derivative df."""
    for _ in range(iters):
        d = _horner(df, r)
        if d == 0:
            break
        step = _horner(f, r) / d
        r = r - step
        if abs(step) < 1e-15 * max(1.0, abs(r)):
            break
    return r


# ---------------------------------------------------------------------------
# series-array helpers (dense ascending arrays in one parameter)

def _newton_series(H: np.ndarray, n: int) -> np.ndarray:
    """Power series y(s), y(0) = 0, with H(s, y(s)) = O(s^n); simple root."""
    if H.shape[1] < 2 or H[0, 1] == 0:
        raise RootFindingFailure("Newton seed is not a simple root")
    cs = _spread(H, 1, n)
    dcs = _spread(H[:, 1:] * np.arange(1, H.shape[1])[None, :], 1, n)
    y = np.zeros(n, dtype=complex)
    steps = max(1, math.ceil(math.log2(max(n, 2))) + 2)
    for _ in range(steps):
        r = _horner_series(cs, y, n)
        d = _horner_series(dcs, y, n)
        y = y - array_product(r, array_inverse(d, n), n)
    return y


# ---------------------------------------------------------------------------
# the Newton-polygon recursion (parametric transforms in Duval's style)

def _polygon_sides(mins: dict[int, int]) -> list[tuple[int, int, int, list[tuple[int, int]]]]:
    """Sides of the lower Newton polygon with strictly negative slope.

    Returns (q, m, l, points) per side: branch exponent m/q in lowest terms
    and the support points on the side line q*j + m*i = l.
    """
    pts = sorted((i, j) for i, j in mins.items())
    if len(pts) < 2:
        return []
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) <= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    sides = []
    for (ia, ja), (ib, jb) in zip(hull, hull[1:]):
        if jb >= ja:
            continue
        rise, run = ja - jb, ib - ia
        g = math.gcd(rise, run)
        q, m = run // g, rise // g
        l = q * ja + m * ia
        on_side = [(i, j) for i, j in pts if ia <= i <= ib and q * j + m * i == l]
        sides.append((q, m, l, on_side))
    return sides


def _support_mins(H: np.ndarray) -> dict[int, int]:
    scale = float(np.abs(H).max())
    if scale == 0:
        return {}
    thr = _SUPPORT_REL * scale
    mins: dict[int, int] = {}
    for i in range(H.shape[1]):
        col = np.nonzero(np.abs(H[:, i]) > thr)[0]
        if len(col):
            mins[i] = int(col[0])
    return mins


def _duval_transform(H: np.ndarray, q: int, m: int, l: int, xi: complex,
                     ub: int, vb: int, n_terms: int) -> np.ndarray:
    """H(xi^vb s^q, s^m (xi^ub + y)) / s^l, truncated in s."""
    J, I = H.shape
    rows = min(q * (J - 1) + m * (I - 1) - l + 1, n_terms + m * (I - 1) + 1)
    out = np.zeros((max(rows, 1), I), dtype=complex)
    for j in range(J):
        for i in range(I):
            c = H[j, i]
            if c == 0:
                continue
            base = c * xi ** (vb * j)
            srow = q * j + m * i - l
            if srow >= out.shape[0]:
                continue
            for t in range(i + 1):
                out[srow, t] += base * math.comb(i, t) * xi ** (ub * (i - t))
    return out


def _vanishing_branches(H: np.ndarray, n_terms: int, depth: int = 0
                        ) -> list[tuple[complex, int, Callable[[], np.ndarray], int | None]]:
    """All branch systems with y(0) = 0 of H(s, y) = 0.

    Returns (mu, e, coeffs, v) parametrized by s = mu * t^e and
    y = sum coeffs()[k] t^k, where v >= 1 is the valuation of y in t, read
    from the polygon: the side's shift, or for a simple root the first
    significant s-row of H(s, 0).  v is None for the branch y = 0 itself.
    Each call of the deferred coeffs computes a fresh array.
    """
    if depth > _MAX_DEPTH:
        raise RootFindingFailure("Newton-polygon recursion exceeded max depth")
    scale = float(np.abs(H).max())
    if scale == 0:
        raise RootFindingFailure("zero polynomial in polygon recursion")
    thr = _SUPPORT_REL * scale
    out: list[tuple[complex, int, Callable[[], np.ndarray], int | None]] = []
    if np.abs(H[:, 0]).max() <= thr:
        # y divides H exactly: y = 0 itself is a branch
        out.append((1.0 + 0j, 1, partial(np.zeros, n_terms, dtype=complex), None))
        H = H[:, 1:]
        if H.shape[1] <= 1:
            return out
        if np.abs(H[:, 0]).max() <= thr:
            raise RootFindingFailure("unexpected repeated exact branch")
    if abs(H[0, 0]) > thr:
        return out  # y = 0 is not a root at s = 0
    if H.shape[1] > 1 and abs(H[0, 1]) > thr:
        v = next(j for j in range(1, H.shape[0]) if abs(H[j, 0]) > thr)
        out.append((1.0 + 0j, 1, partial(_newton_series, H, n_terms), v))
        return out
    for q, m, l, pts in _polygon_sides(_support_mins(H)):
        ia = pts[0][0]
        deg = (pts[-1][0] - ia) // q
        phi = np.zeros(deg + 1, dtype=complex)
        for i, j in pts:
            phi[(i - ia) // q] = H[j, i]
        for xi, _mult in _distinct_roots(phi):
            g, ub, vb = _gcdex(q, -m)
            if g < 0:
                ub, vb = -ub, -vb
            Ht = _duval_transform(H, q, m, l, xi, ub, vb, n_terms)
            for mu_i, e_i, arr_i, _v in _vanishing_branches(Ht, n_terms, depth + 1):
                mu = xi ** vb * mu_i ** q
                e = e_i * q
                shift = e_i * m   # y = t^shift mu_i^m (xi^ub + y_i), xi != 0
                out.append((mu, e, partial(_lift, arr_i, xi ** ub, mu_i ** m, shift,
                                           n_terms), shift))
    return out


def _lift(inner: Callable[[], np.ndarray], c: complex, scale: complex,
          shift: int, n_terms: int) -> np.ndarray:
    """t^shift scale (c + inner()) to n_terms terms."""
    arr = inner()
    arr[0] += c
    ser = np.zeros(n_terms, dtype=complex)
    take = min(n_terms - shift, len(arr))
    if take > 0:
        ser[shift: shift + take] = scale * arr[:take]
    return ser


# ---------------------------------------------------------------------------
# expansion driver

def expand_systems(curve: AlgebroidCurve, center, order: int) -> list[BranchSystem]:
    """All branch systems (one per conjugacy class) at a finite center."""
    return sorted((BranchSystem(e, low, coeffs(), order)
                   for e, low, coeffs in _polygon_systems(curve, center, order)),
                  key=lambda s: _branch_key(s.low, s.e, s.coeffs))


def _polygon_systems(curve: AlgebroidCurve, center, order: int) -> list[_System]:
    """(e, low, coeffs) of every branch system at a finite center from one
    Newton-polygon pass over order + 4 terms; coeffs() does all coefficient
    work (shift to a simple root, series Newton, _polish, pole inversion)."""
    n_terms = order + 4
    H, h0 = _local_array(curve, center)
    scale = float(np.abs(H).max())
    systems: list[_System] = []
    if h0 is not None and len(h0[1]) >= 2:
        finite_roots = _roots_zi(*h0)
    else:
        finite_roots = _distinct_roots(H[0, :])

    for zeta, mult in finite_roots:   # a simple root defers its Taylor shift
        branches = ([(1.0 + 0j, 1, None, 0)] if mult == 1 else
                    _vanishing_branches(_shift_y(H, zeta), n_terms))
        if (got := sum(e for _mu, e, _arr, _v in branches)) != mult:
            raise RootFindingFailure(f"branch count mismatch at z = {zeta}: {got} != {mult}")
        systems += [(e, 0, partial(_polish_finite, H, zeta, mu, e, arr, order))
                    for mu, e, arr, _v in branches]

    # polar branches: degree drop of F(center, .) counts them
    deg_at_center = 0
    for i in range(H.shape[1] - 1, -1, -1):
        if abs(H[0, i]) > _SUPPORT_REL * max(scale, 1e-300):
            deg_at_center = i
            break
    n_inf = curve.n - deg_at_center
    if n_inf > 0:
        R = _reverse_y(H, curve.n)
        got = 0
        for mu, e, w, v in _vanishing_branches(R, n_terms):
            if v is None:
                raise RootFindingFailure("polar branch with zero w-series")
            systems.append((e, -v, lambda mu=mu, e=e, w=w, v=v: array_inverse(
                _polish(R, mu, e, w(), order + 2 * v)[v:], order + v)))
            got += e
        if got != n_inf:
            raise RootFindingFailure(
                f"polar branch count mismatch: {got} != {n_inf}")

    total = sum(e for e, _low, _coeffs in systems)
    if total != curve.n:
        raise RootFindingFailure(
            f"branch completeness violated: sum e = {total} != n = {curve.n}")
    return systems


def _polish_finite(H: np.ndarray, zeta: complex, mu: complex, e: int,
                   arr: Callable[[], np.ndarray] | None, order: int) -> np.ndarray:
    """_polish of the branch zeta + arr() of H, or at a simple root (arr
    None) of zeta + the series Newton root of H(s, zeta + y)."""
    full = _newton_series(_shift_y(H, zeta), order + 4) if arr is None else arr()
    full[0] += zeta
    return _polish(H, mu, e, full, order)


def _polish(H: np.ndarray, mu: complex, e: int, coeffs: np.ndarray,
            order: int) -> np.ndarray:
    """The power series y(tau), s = tau^e, of a root of H(s, y) = 0 to
    `order` terms: `coeffs` in t with s = mu t^e rescaled to tau, then
    Newton-polished.

    Where F_z = H_y along the branch has valuation v > 0, the Newton step
    divides by tau^v * unit.  v is the first coefficient of F_z that is
    significant against the same Horner run on absolute values, so a
    coefficient is judged on its own rounding scale, not on the largest one.
    """
    lam = mu ** (1.0 / e) if e > 1 else complex(mu)
    y = np.zeros(order, dtype=complex)
    for k in range(min(order, len(coeffs))):
        y[k] = coeffs[k] * lam ** (-k)
    hi = order + e
    cs = _spread(H, e, hi)
    dcs = [c * i for i, c in enumerate(cs)][1:]
    dcs_abs = [np.abs(c) for c in dcs]
    y_scale = float(np.abs(y).max()) if y.size else 1.0
    for _ in range(4):
        r = _horner_series(cs, y, hi)
        if float(np.abs(r).max()) <= 1e-15 * max(1.0, y_scale):
            break
        d = _horner_series(dcs, y, hi)
        d_abs = _horner_series(dcs_abs, np.abs(y), hi).real
        v = next((k for k in range(hi) if abs(d[k]) > _SUPPORT_REL * d_abs[k]), None)
        if v is None:
            raise RootFindingFailure("F_z vanishes along the branch to the working order")
        step = array_product(r[v:], array_inverse(d[v:], hi - v), hi - v)
        y = np.pad(y, (0, hi - len(y)))
        y[: hi - v] -= step
    return y[:order]


def _spread(H: np.ndarray, e: int, n: int) -> list[np.ndarray]:
    """The z-coefficients of H(tau^e, z) as ascending arrays of n terms in
    tau: the columns of H, spread by e."""
    out = []
    for col in H.T:
        col = col[: (n - 1) // e + 1]
        dense = np.zeros(n, dtype=complex)
        dense[: e * len(col): e] = col
        out.append(dense)
    return out


def _horner_series(cs: list[np.ndarray], y: np.ndarray, n: int) -> np.ndarray:
    """sum_i cs[i] y^i truncated to n terms."""
    acc = np.zeros(n, dtype=complex)
    for c in reversed(cs):
        acc = array_product(acc, y, n) + c[:n]
    return acc


def branch_residual(curve: AlgebroidCurve, branch: PuiseuxBranch,
                    rel: float = 1e-9) -> tuple[int | None, float]:
    """Substitution oracle: valuation and relative size of F(c + t^e, z(t)).

    Returns (valuation, max_relative_residual): the first t-exponent whose
    residual coefficient is significant relative to the term scale, or None
    if the residual vanishes to the checked order.

    With z = t^low y, low = min(low_exp, 0), it evaluates the power series
    t^(-n low) F = sum_i c_i(t) t^((n - i)(-low)) y^i and offsets the
    valuation by n low.
    """
    n, hi = curve.n, branch.order
    low = min(branch.low_exp, 0)
    y = np.concatenate([np.zeros(branch.low_exp - low, dtype=complex),
                        np.array(branch.coeffs, dtype=complex)])
    v = -low
    cs = _spread(_local_array(curve, branch.center)[0], branch.e, hi + n * v)
    acc = np.zeros(hi + n * v, dtype=complex)
    power = np.array([1.0 + 0j])
    term_scale = 0.0
    for i, c in enumerate(cs):
        term = array_product(c, power, hi + i * v)      # c_i y^i from t^(i low) on
        term_scale = max(term_scale, float(np.abs(term).max()))
        acc[(n - i) * v:] += term
        power = array_product(power, y, hi + (i + 1) * v)
    scale = max(term_scale, 1.0)
    sig = np.nonzero(np.abs(acc) > rel * scale)[0]
    val = n * low + int(sig[0]) if len(sig) else None
    return val, float(np.abs(acc).max() / scale)


def puiseux_expand(curve: AlgebroidCurve, center, order: int) -> list[PuiseuxBranch]:
    """All n branches at a finite center, conjugates enumerated explicitly.

    A ramified system of index e yields its e conjugate branches via
    t -> zeta t over the e-th roots of unity, zeta = exp(2 pi i k / e) with
    k ascending.  Output is sorted by (low_exp, e, coefficient order).
    """
    systems = expand_systems(curve, center, order)
    c = complex(center) if not isinstance(center, ExactScalar) else complex(center)
    branches: list[PuiseuxBranch] = []
    for s in systems:
        branches.extend(s.conjugates(c, order))
    branches.sort(key=PuiseuxBranch.sort_key)
    if len(branches) != curve.n:
        raise RootFindingFailure(
            f"expected {curve.n} branches, found {len(branches)}")
    return branches


def puiseux_expand_at_infinity(curve: AlgebroidCurve, order: int) -> list[PuiseuxBranch]:
    """Branches at u = infinity via the substitution u -> 1/t."""
    branches = puiseux_expand(curve.at_infinity(), 0, order)
    for b in branches:
        b.at_infinity = True
    return branches


def exact_branch_element(curve: AlgebroidCurve, center, z0, order: int) -> TruncSeries:
    """Exact Taylor element of a regular branch with rational data: Newton's
    z <- z - F / F_z on the _exact_shift columns of F(center + s, z).

    Requires F(center, z0) = 0 and F_z(center, z0) != 0, both exactly (on
    the s^0 row); raises SingularCenter otherwise, SchemaError unless center
    and z0 are exact and OrderTooLow unless order >= 1.
    """
    if order < 1:
        raise OrderTooLow(f"order {order} < 1")
    if not all(isinstance(v, (int, Fraction, ExactScalar)) for v in (center, z0)):
        raise SchemaError("center and z0 must be int, Fraction or ExactScalar")
    c, z0 = ExactScalar.coerce(center), ExactScalar.coerce(z0)
    N, cols = _exact_shift(curve, c)
    h = [col[0] for col in reversed(cols)]            # N F(c, z)
    m, (wr,), (wi,) = gaussian_integers([z0])
    if zi_horner(h, (wr, wi), m) != (0, 0):
        raise SingularCenter("z0 is not an exact root at the center")
    if zi_horner(zi_derivative(h), (wr, wi), m) == (0, 0):
        raise SingularCenter("branch is ramified or multiple at the center")

    def series(col) -> TruncSeries:                    # col(s) / N to the order
        cs = [gaussian_scalar(x, y, N) for x, y in col[:order]]
        return TruncSeries(c, cs + [ExactScalar.zero()] * (order - len(cs)), exact=True)

    ps = [series(col) for col in reversed(cols)]      # highest power of z first
    z = TruncSeries.const(z0, c, order, exact=True)
    steps = max(1, math.ceil(math.log2(max(order, 2))) + 1)
    for _ in range(steps):
        f, fz = ps[0], TruncSeries.zeros(c, order, exact=True)
        for p in ps[1:]:                               # Horner for F and F_z
            f, fz = f * z + p, fz * z + f
        z = (z - f / fz).truncate(order)
    return z


# ---------------------------------------------------------------------------
# singular-point inventory

def singular_points(curve: AlgebroidCurve) -> SingularityReport:
    """Classified singular candidates: p0 zeros, discriminant roots, infinity.
    A kind reads only each system's e and sign of lowest exponent, fixed by
    the Newton polygon (Duval): `_polygon_systems` at order 8, no coefficients."""
    locs, n_p0 = curve._singular()
    candidates = sorted(((r, "p0-zero" if k < n_p0 else "discriminant-root")
                         for k, r in enumerate(locs)),
                        key=lambda t: (round(t[0].real, 8), round(t[0].imag, 8)))
    points = []
    for loc, source in candidates:
        kind, cyc = _classify(_polygon_systems(curve, loc, 8))
        points.append(SingularPoint(loc, kind, cyc, source))
    kind, cyc = _classify(_polygon_systems(curve.at_infinity(), 0, 8))
    points.append(SingularPoint(None, kind, cyc, "infinity"))
    return SingularityReport(points)


def _classify(systems: list[_System]) -> tuple[str, list[int]]:
    """Kind and cycle structure of a point from its systems' e and low."""
    cyc = sorted((e for e, _low, _coeffs in systems), reverse=True)
    has_pole, has_cycle = any(low < 0 for _e, low, _coeffs in systems), cyc[0] > 1
    if has_pole and has_cycle:
        kind = "pole-and-branch"
    elif has_pole:
        kind = "pole"
    elif has_cycle:
        kind = "critical"
    else:
        kind = "regular-for-some-branches"
    return kind, cyc


# ---------------------------------------------------------------------------
# numeric continuation and monodromy

def track_branch(curve: AlgebroidCurve, start_value: complex,
                 path: list[complex], tol: float = 1e-12,
                 clearance_rel: float = 1e-3,
                 singular: list[complex] | None = None) -> complex:
    """Continue one branch value along a polyline in the u-plane (`_track`
    with one sheet).  Raises NearSingular within the clearance margin of a
    singular point and CorrectionDiverged at the step floor."""
    return _track(curve, [start_value], path, tol, clearance_rel, singular)[0]


def _track(curve: AlgebroidCurve, starts: list[complex], path: list[complex],
           tol: float, clearance_rel: float,
           singular: list[complex] | None) -> list[complex]:
    """Continue the sheets `starts` of F(path[0], .) along a polyline with
    one shared step: Euler predictor (dz/du = -F_u / F_z) and Newton
    corrector on z-coefficient vectors built once per u (the operations of
    `AlgebroidCurve.eval`); a failed corrector or guard halves the step.
    The guard is `_pairwise_guard` for all n sheets, else `_nearest_root_guard`.

    Step policy.  Fewer than n sheets restart every segment at 1% of it
    and grow by 1.6 per accepted step up to a quarter of it.  All n sheets
    carry one step |du| across segments, grown by 1.6 per accepted full
    step and capped at `_step_cap`, half the distance from u to the
    singular set: the sheets are analytic on that disc, so the predictor
    stays within half their convergence radius.  A segment end shortens a
    step without shrinking the carried one.

    Clearance.  NearSingular is raised when the chord [u, u_next] of a
    trial step, not only its end, passes within clearance_rel * max(1,
    |u_next|) of a singular point, so no step skips over one."""
    if len(path) < 2:
        return [complex(s) for s in starts]
    if singular is None:
        singular = curve.singular_locations()
    rows, rows_u, rows_z = curve._num()
    u = complex(path[0])
    f, fu, fz = _at_u(rows, u), _at_u(rows_u, u), _at_u(rows_z, u)
    zs = [_newton_correct(f, fz, complex(s), tol) for s in starts]
    if None in zs:
        raise RootFindingFailure(f"start value {starts[zs.index(None)]} "
                                 f"does not satisfy the curve at u={u}")
    lockstep = len(zs) == curve.n
    step = _step_cap(u, singular)   # the carried |du| of a lockstep call
    for a, b in zip(path, path[1:]):
        a, b = complex(a), complex(b)
        seg = b - a
        if abs(seg) == 0:
            continue
        t, h = 0.0, step / abs(seg) if lockstep else 0.01
        while t < 1.0:
            dt = min(h, 1.0 - t)
            u_next = a + (t + dt) * seg
            margin = clearance_rel * max(1.0, abs(u_next))
            for s in singular:
                if abs(_foot(s, u, u_next) - s) < margin:
                    raise NearSingular(f"path step [{u}, {u_next}] within "
                                       f"{margin:.2e} of {s}")
            ds = [_horner(fz, z) for z in zs]
            ok = 0 not in ds
            if ok:
                f, fz_next = _at_u(rows, u_next), _at_u(rows_z, u_next)
                preds = [z - _horner(fu, z) / d * (u_next - u) for z, d in zip(zs, ds)]
                corrs = [_newton_correct(f, fz_next, p, tol, 12) for p in preds]
                ok = None not in corrs and (
                    _pairwise_guard(preds, corrs) if lockstep else
                    all(_nearest_root_guard(curve, u_next, f[::-1], p, c)
                        for p, c in zip(preds, corrs)))
            if ok:
                u, zs, fz, fu = u_next, corrs, fz_next, _at_u(rows_u, u_next)
                t += dt
                if lockstep:
                    h = min(h * 1.6 if dt == h else h, _step_cap(u, singular) / abs(seg))
                else:
                    h = min(dt * 1.6, 0.25)
            else:
                h = dt * 0.5
                if h < 1e-12:
                    raise CorrectionDiverged(f"step floor reached near u={u_next}")
        step = h * abs(seg)
    return zs


def _step_cap(u: complex, singular: list[complex]) -> float:
    """Half the distance from u to the nearest singular point (inf if none)."""
    return 0.5 * min((abs(u - s) for s in singular), default=math.inf)


def _newton_correct(f: list[complex], fz: list[complex], z: complex,
                    tol: float, max_iter: int = 24) -> complex | None:
    """Newton-correct z on the polynomial with descending coefficients f
    (derivative fz); None unless |f(z)| < tol * max|f| * max(1, |z|)^n."""
    scale, n = max(max(map(abs, f)), 1e-30), len(f) - 1
    for _ in range(max_iter):
        v = _horner(f, z)
        if abs(v) < tol * scale * max(1.0, abs(z)) ** n:
            return z
        d = _horner(fz, z)
        if d == 0:
            return None
        z = z - v / d
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return None
    return z if abs(_horner(f, z)) < 10 * tol * scale * max(1.0, abs(z)) ** n else None


def _pairwise_guard(preds: list[complex], corrs: list[complex]) -> bool:
    """Accept a step of all n sheets when each corrector moved less than
    0.45 times the distance to every other corrected value.  Those are all
    the roots of F(u, .), so two sheets landing on one root fail the test."""
    return all(abs(c - p) < 0.45 * abs(c - o)
               for i, (p, c) in enumerate(zip(preds, corrs))
               for o in corrs[:i] + corrs[i + 1:])


def _nearest_root_guard(curve: AlgebroidCurve, u: complex, cs: list[complex],
                        z_pred: complex, z_corr: complex) -> bool:
    """Accept a step when the corrector moved less than 0.45 times the
    distance from z_corr to the nearest root of F(u, .) other than the
    branch's own (or less than 1e-9 relative): first by `_separation_bound`
    on the ascending z-coefficients cs of F(u, .), else by `roots_at`."""
    d_corr = abs(z_corr - z_pred)
    if d_corr < 0.45 * _separation_bound(cs, z_corr):
        return True
    try:
        roots = curve.roots_at(u)
    except RootFindingFailure:
        return False
    dists = sorted(abs(r - z_corr) for r in roots)[1:]  # drop the own root
    if not dists:
        return True
    return d_corr < 0.45 * dists[0] or d_corr < 1e-9 * max(1.0, abs(z_corr))


def _separation_bound(cs: list[complex], z0: complex) -> float:
    """A radius r such that sum cs[k] z^k has exactly one root within r of
    z0, hence every other root at least r away; 0.0 if not certified.

    With b_k the Taylor coefficients of f at z0, gamma = max_{k>=2}
    |b_k/b_1|^(1/(k-1)) and r = 1/(4 gamma), on |w| = r the tail obeys
    |sum_{k>=2} b_k w^k| <= |b_1| r sum_{j>=1} 4^-j = |b_1| r / 3.  If also
    |b_0| < (2/3) |b_1| r, then |f - b_1 w| < |b_1 w| on the circle, so by
    Rouche f has exactly one root inside, like b_1 w.  The nearest root is
    then the branch's own and all others lie beyond r, so a step with
    d_corr < 0.45 r passes the exact guard.
    """
    b = _taylor_shift(cs, z0)
    b1 = abs(b[1])
    if b1 == 0:
        return 0.0
    gamma = max(((abs(b[k]) / b1) ** (1.0 / (k - 1)) for k in range(2, len(b))),
                default=0.0)
    if gamma == 0:
        return math.inf
    r = 0.25 / gamma
    return r if abs(b[0]) < (2.0 / 3.0) * b1 * r else 0.0


def _foot(s: complex, a: complex, b: complex) -> complex:
    """The point of the segment [a, b] nearest to s."""
    t = ((s - a) / (b - a)).real if b != a else 0.0
    return a + min(max(t, 0.0), 1.0) * (b - a)


def _safe_stem(a: complex, b: complex, singular: list[complex],
               margin: float, depth: int = 0) -> list[complex]:
    """Polyline from a to b detouring around every singular point s whose
    distance to the segment is below min(margin, |s - a| / 2, |s - b| / 2):
    a point near an end, like the loop's own center seen from the circle
    start, is passed at half its distance to that end."""
    if depth > 8 or abs(b - a) == 0:
        return [a, b]
    direction = (b - a) / abs(b - a)
    for s in singular:
        foot = _foot(s, a, b)
        d = abs(foot - s)
        if d >= min(margin, 0.5 * abs(s - a), 0.5 * abs(s - b)):
            continue
        others = [abs(s - o) for o in singular
                  if abs(s - o) > _DEDUPE_TOL * max(1.0, abs(s))]
        hop = min(0.4 * min(others), 4 * margin) if others else 4 * margin
        hop = max(hop, 2 * margin)
        w = s + ((foot - s) / d if d > 1e-12 else 1j * direction) * hop
        left = _safe_stem(a, w, singular, margin, depth + 1)
        right = _safe_stem(w, b, singular, margin, depth + 1)
        return left + right[1:]
    return [a, b]


def _loop_path(base: complex, around: complex, singular: list[complex],
               nodes: int) -> tuple[list[complex], float]:
    """The loop of `monodromy`, a circle of radius half the distance from
    `around` to the nearest other singular point joined to `base` by
    `_safe_stem`, and its clearance_rel, capped at a quarter of the radius."""
    others = [abs(s - around) for s in singular
              if abs(s - around) > _DEDUPE_TOL * max(1.0, abs(around))]
    radius = 0.5 * min(others) if others else 0.5 * max(1.0, abs(around))
    theta0 = cmath.phase(base - around) if abs(base - around) > 0 else 0.0
    circle = [around + radius * cmath.exp(1j * (theta0 + 2 * math.pi * k / nodes))
              for k in range(nodes + 1)]
    path = circle
    if abs(base - circle[0]) > 1e-12:
        scale = max(1.0, abs(base), abs(around))
        stem = _safe_stem(base, circle[0], singular, 0.05 * scale)
        path = stem + circle[1:] + stem[-2:: -1]
    return path, min(1e-3, radius / (4 * max(1.0, abs(around) + radius)))


def monodromy(curve: AlgebroidCurve, base: complex, around: complex,
              nodes: int = 16,
              singular: list[complex] | None = None) -> MonodromyPermutation:
    """Permutation of the branch values after one positive circuit along
    `_loop_path`, all n sheets tracked together.  Branch indices refer to
    the roots of F(base, .) sorted by (real, imaginary) part.

    The stem detours around every singular point it would pass closer than
    its clearance (`_safe_stem`).  Tracking carries one step across the
    loop's segments, capped at half the distance to the singular set, and
    raises NearSingular when a step's chord passes within the loop's
    clearance of a singular point (`_track`).

    Loop size.  The circle's radius r is half the distance from `around` to
    the nearest other singular point, so every inscribed N-gon, N >= 3,
    winds once around `around` and no other point: `nodes` sets only the
    step count.  A 16-gon chord, 2 r sin(pi/16) ~ 0.39 r, fits under the
    cap at its point nearest the center, r cos(pi/16) / 2 ~ 0.49 r, so each
    chord is one carried step; 12 nodes give 0.52 r chords, over the cap."""
    if singular is None:
        singular = curve.singular_locations()
    base, around = complex(base), complex(around)
    path, clearance_rel = _loop_path(base, around, singular, nodes)
    starts = sorted((complex(r) for r in curve.roots_at(base)),
                    key=lambda w: (round(w.real, 10), round(w.imag, 10)))
    if len(starts) != curve.n:
        raise RootFindingFailure("base point is not regular (root count drop)")
    ends = _track(curve, starts, path, 1e-12, clearance_rel, singular)
    perm = []
    for e_val in ends:
        hits = [i for i, s in enumerate(starts)
                if abs(e_val - s) < _MATCH_TOL * max(1.0, abs(s))]
        if len(hits) != 1:
            raise AmbiguousMatching(
                f"end value {e_val} matches {len(hits)} start values")
        perm.append(hits[0])
    if sorted(perm) != list(range(len(starts))):
        raise AmbiguousMatching("tracked values do not form a permutation")
    return MonodromyPermutation(base, around, tuple(perm))
