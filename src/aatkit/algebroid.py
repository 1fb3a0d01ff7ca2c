"""Algebroid curves: Puiseux branches, singular points, tracking, monodromy.

A curve is p_0(u) z^n + p_1(u) z^{n-1} + ... + p_n(u) = 0 with polynomial
coefficients, square-free in z.  This module computes, numerically but with
exact preprocessing wherever the data allows it:

* all n local branches at any finite center (and at infinity via u -> 1/t),
  as fractional-power expansions z = sum c_k (u - c)^{k/e} found by the
  Newton-polygon construction followed by series Newton iteration;
* the singular-point inventory (zeros of p_0, discriminant roots, infinity)
  with each point classified by its local branch structure;
* numeric analytic continuation of a single branch along a polyline
  (Euler predictor, Newton corrector, adaptive steps);
* monodromy permutations around a singular point.

Branch coefficients are double precision; the ground truth for every
expansion is the substitution residual |F(c + t^e, z(t))|, exposed through
``branch_residual`` so callers can adjudicate printed values against it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AmbiguousMatching,
    CorrectionDiverged,
    InvariantViolation,
    NearSingular,
    NotSquareFree,
    RootFindingFailure,
    SingularCenter,
)
from .poly import MultiPoly, divexact, poly_gcd
from .scalars import ExactScalar, rationalize
from .series import TruncSeries

_SUPPORT_REL = 1e-10
_CLUSTER_REL = 2e-6
_MATCH_TOL = 1e-8
_DEDUPE_TOL = 1e-8
_MAX_DEPTH = 24


# ---------------------------------------------------------------------------
# curve type

class AlgebroidCurve:
    """F(u, z) = sum p_k(u) z^(n-k), square-free in z, p_0 nonzero."""

    def __init__(self, F: MultiPoly, u_var: str = "u", z_var: str = "z"):
        self.u_var = u_var
        self.z_var = z_var
        self.F = F.with_vars(tuple(sorted(set(F.vars) | {u_var, z_var})))
        self.n = self.F.degree(z_var)
        if self.n < 1:
            raise InvariantViolation("curve must have positive degree in z")
        zc = self.F.coefficients_wrt(z_var)
        self.p_coeffs = [zc[self.n - k] for k in range(self.n + 1)]
        if self.p_coeffs[0].is_zero():
            raise InvariantViolation("leading coefficient p0 is identically zero")
        if self.n >= 2:
            g = poly_gcd(self.F, self.F.derivative(z_var))
            if g.degree(z_var) >= 1:
                raise NotSquareFree(f"repeated factor in {z_var}: {g!r}")
        self._arrays: tuple[_Rows, _Rows, _Rows] | None = None
        self._singular_cache: tuple[list[complex], int] | None = None

    @staticmethod
    def from_p_list(p_list: list[MultiPoly], u_var: str = "u",
                    z_var: str = "z") -> "AlgebroidCurve":
        if not p_list or p_list[0].is_zero():
            raise InvariantViolation("leading coefficient p0 is identically zero")
        n = len(p_list) - 1
        z = MultiPoly.variable(z_var)
        F = MultiPoly.zero((u_var, z_var))
        for k, p in enumerate(p_list):
            F = F + p.with_vars((u_var,)) * z ** (n - k)
        return AlgebroidCurve(F, u_var, z_var)

    # numeric fast path: dense coefficient rows of F, F_u, F_z
    def _num(self) -> tuple[_Rows, _Rows, _Rows]:
        if self._arrays is None:
            self._arrays = tuple(
                _poly_to_rows(P, self.u_var, self.z_var)
                for P in (self.F, self.F.derivative(self.u_var),
                          self.F.derivative(self.z_var)))
        return self._arrays

    def eval(self, u: complex, z: complex) -> complex:
        return _eval_rows(self._num()[0], complex(u), complex(z))

    def eval_du(self, u: complex, z: complex) -> complex:
        return _eval_rows(self._num()[1], complex(u), complex(z))

    def eval_dz(self, u: complex, z: complex) -> complex:
        return _eval_rows(self._num()[2], complex(u), complex(z))

    def z_coeffs_at(self, u: complex) -> list[complex]:
        """Ascending z-coefficients of F(u, .) as complex numbers."""
        u = complex(u)
        return [_horner(row, u) for row in reversed(self._num()[0])]

    def roots_at(self, u: complex) -> np.ndarray:
        cs = np.array(self.z_coeffs_at(u))
        nz = np.nonzero(np.abs(cs) > 1e-13 * max(1.0, float(np.abs(cs).max())))[0]
        if len(nz) == 0:
            raise RootFindingFailure(f"curve degenerates at u={u}")
        return np.roots(cs[: nz[-1] + 1][::-1])

    def at_infinity(self) -> "AlgebroidCurve":
        """The transformed curve under u -> 1/t (cleared denominators)."""
        d = max(p.degree(self.u_var) for p in self.p_coeffs)
        t = MultiPoly.variable(self.u_var)
        parts = []
        for p in self.p_coeffs:
            q = MultiPoly.zero((self.u_var,))
            if not p.is_zero():
                for k, c in enumerate(p.univariate_coeffs(self.u_var)):
                    q = q + MultiPoly.constant(c, (self.u_var,)) * t ** (d - k)
            parts.append(q)
        return AlgebroidCurve.from_p_list(parts, self.u_var, self.z_var)

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

def _poly_to_array(F: MultiPoly, u_var: str, z_var: str) -> np.ndarray:
    du, dz = max(F.degree(u_var), 0), max(F.degree(z_var), 0)
    out = np.zeros((du + 1, dz + 1), dtype=complex)
    if F.is_zero():
        return out
    iu = F.vars.index(u_var) if u_var in F.vars else None
    iz = F.vars.index(z_var) if z_var in F.vars else None
    for exps, coeff in F.terms.items():
        j = exps[iu] if iu is not None else 0
        i = exps[iz] if iz is not None else 0
        out[j, i] += complex(coeff)
    return out


# F as a tuple over descending z-powers of tuples over descending u-powers
_Rows = tuple[tuple[complex, ...], ...]


def _poly_to_rows(F: MultiPoly, u_var: str, z_var: str) -> _Rows:
    A = _poly_to_array(F, u_var, z_var)
    return tuple(tuple(complex(c) for c in A[::-1, i])
                 for i in range(A.shape[1] - 1, -1, -1))


def _horner(desc: tuple[complex, ...], x: complex) -> complex:
    """Horner in the operation order of np.polyval, so bit-identical to it."""
    acc = 0j
    for c in desc:
        acc = acc * x + c
    return acc


def _eval_rows(rows: _Rows, u: complex, z: complex) -> complex:
    acc = 0j
    for row in rows:
        acc = acc * z + _horner(row, u)
    return acc


def _taylor_shift(coeffs, a: complex) -> list[complex]:
    """p(x) -> p(a + x) for an ascending coefficient sequence."""
    out = [complex(c) for c in coeffs]
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def _local_array(curve: AlgebroidCurve, center) -> np.ndarray:
    """Coefficient array of F(center + s, z) over (s-exp, z-exp)."""
    exact_center = _as_exact(center)
    if exact_center is not None:
        shifted = curve.F.shift_var(curve.u_var, exact_center)
        return _poly_to_array(shifted, curve.u_var, curve.z_var)
    arr = _poly_to_array(curve.F, curve.u_var, curve.z_var)
    out = np.zeros_like(arr)
    for i in range(arr.shape[1]):
        out[:, i] = _taylor_shift(arr[:, i], complex(center))
    return out


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

    Roots that verify exactly as small Gaussian rationals are snapped to the
    float image of that rational, so downstream exact recentering fires.
    """
    p = p.with_vars((var,))
    if p.degree(var) < 1:
        return []
    g = poly_gcd(p, p.derivative(var))
    sqf = divexact(p, g) if g.degree(var) >= 1 else p
    cs = np.array([complex(c) for c in sqf.univariate_coeffs(var)])
    if len(cs) <= 1:
        return []
    roots = np.roots(cs[::-1])
    scale = max(1.0, max(abs(complex(c)) for c in p.univariate_coeffs(var)))
    derivs = [p]
    for _ in range(p.degree(var)):
        derivs.append(derivs[-1].derivative(var))
    out = []
    for r in roots:
        r = _polish_poly_root(sqf, var, complex(r))
        r = _snap_root(p, var, r)
        mult = 1
        for k in range(1, len(derivs)):
            val = derivs[k].eval({var: r})
            if abs(val) > 1e-7 * scale * math.factorial(k):
                mult = k
                break
        out.append((r, mult))
    return out


def _snap_root(p: MultiPoly, var: str, r: complex) -> complex:
    """Replace r by float(q) when q is an exactly verified rational root."""
    re, im = rationalize(r.real, 10 ** 4), rationalize(r.imag, 10 ** 4)
    if re is None or im is None:
        return r
    q = ExactScalar(re, im)
    val = p.substitute_var(var, MultiPoly.constant(q, (var,)))
    if val.is_zero():
        return complex(float(re), float(im))
    return r


def _polish_poly_root(p: MultiPoly, var: str, r: complex,
                      iters: int = 40) -> complex:
    dp = p.derivative(var)
    for _ in range(iters):
        f = p.eval({var: r})
        d = dp.eval({var: r})
        if d == 0:
            break
        step = f / d
        r = r - step
        if abs(step) < 1e-15 * max(1.0, abs(r)):
            break
    return r


# ---------------------------------------------------------------------------
# series-array helpers (dense ascending arrays in one parameter)

def _conv(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    out = np.convolve(a[:n], b[:n])[:n]
    if len(out) < n:
        out = np.pad(out, (0, n - len(out)))
    return out


def _series_inv(a: np.ndarray, n: int) -> np.ndarray:
    if a[0] == 0:
        raise ZeroDivisionError("series inverse needs a nonzero constant term")
    out = np.zeros(n, dtype=complex)
    out[0] = 1.0 / a[0]
    for k in range(1, n):
        s = np.dot(a[1: k + 1], out[k - 1:: -1][: k])
        out[k] = -s / a[0]
    return out


def _eval_poly_at_series(H: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """H(s, y(s)) truncated to n terms; H indexed [s-exp, y-exp]."""
    J, I = H.shape
    acc = np.zeros(n, dtype=complex)
    for i in range(I - 1, -1, -1):
        acc = _conv(acc, y, n)
        upto = min(J, n)
        acc[:upto] += H[:upto, i]
    return acc


def _newton_series(H: np.ndarray, n: int) -> np.ndarray:
    """Power series y(s), y(0) = 0, with H(s, y(s)) = O(s^n); simple root."""
    if H.shape[1] < 2 or H[0, 1] == 0:
        raise RootFindingFailure("Newton seed is not a simple root")
    Hy = H[:, 1:] * np.arange(1, H.shape[1])[None, :]
    y = np.zeros(n, dtype=complex)
    steps = max(1, math.ceil(math.log2(max(n, 2))) + 2)
    for _ in range(steps):
        r = _eval_poly_at_series(H, y, n)
        d = _eval_poly_at_series(Hy, y, n)
        y = y - _conv(r, _series_inv(d, n), n)
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


def _vanishing_branches(H: np.ndarray, n_terms: int,
                        depth: int = 0) -> list[tuple[complex, int, np.ndarray]]:
    """All branch systems with y(0) = 0 of H(s, y) = 0.

    Returns (mu, e, coeffs) triples parametrized by s = mu * t^e and
    y = sum coeffs[k] t^k with valuation >= 1 (or exactly zero).
    """
    if depth > _MAX_DEPTH:
        raise RootFindingFailure("Newton-polygon recursion exceeded max depth")
    scale = float(np.abs(H).max())
    if scale == 0:
        raise RootFindingFailure("zero polynomial in polygon recursion")
    out: list[tuple[complex, int, np.ndarray]] = []
    if np.abs(H[:, 0]).max() <= _SUPPORT_REL * scale:
        # y divides H exactly: y = 0 itself is a branch
        out.append((1.0 + 0j, 1, np.zeros(n_terms, dtype=complex)))
        H = H[:, 1:]
        if H.shape[1] <= 1:
            return out
        if np.abs(H[:, 0]).max() <= _SUPPORT_REL * scale:
            raise RootFindingFailure("unexpected repeated exact branch")
    if abs(H[0, 0]) > _SUPPORT_REL * scale:
        return out  # y = 0 is not a root at s = 0
    if H.shape[1] > 1 and abs(H[0, 1]) > _SUPPORT_REL * scale:
        out.append((1.0 + 0j, 1, _newton_series(H, n_terms)))
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
            for mu_i, e_i, arr_i in _vanishing_branches(Ht, n_terms, depth + 1):
                mu = xi ** vb * mu_i ** q
                e = e_i * q
                shift = e_i * m
                inner = arr_i.copy()
                inner[0] += xi ** ub
                ser = np.zeros(n_terms, dtype=complex)
                take = min(n_terms - shift, len(inner))
                if take > 0:
                    ser[shift: shift + take] = (mu_i ** m) * inner[:take]
                out.append((mu, e, ser))
    return out


# ---------------------------------------------------------------------------
# expansion driver

def expand_systems(curve: AlgebroidCurve, center, order: int) -> list[BranchSystem]:
    """All branch systems (one per conjugacy class) at a finite center."""
    n_terms = order + 4
    H = _local_array(curve, center)
    scale = float(np.abs(H).max())
    systems: list[BranchSystem] = []

    exact_center = _as_exact(center)
    h0_exact = None
    if exact_center is not None:
        h0_exact = curve.F.substitute_var(
            curve.u_var, MultiPoly.constant(exact_center, (curve.u_var,)))
    if h0_exact is not None and h0_exact.degree(curve.z_var) >= 1:
        finite_roots = _distinct_roots_exact(
            h0_exact.with_vars((curve.z_var,)), curve.z_var)
    else:
        finite_roots = _distinct_roots(H[0, :])

    for zeta, mult in finite_roots:
        Hz = _shift_y(H, zeta)
        if mult == 1:
            ser = _newton_series(Hz, n_terms)
            ser[0] += zeta
            systems.append(_polish_system(curve, H, 1.0 + 0j, 1, ser, 0, order))
            continue
        got = 0
        for mu, e, arr in _vanishing_branches(Hz, n_terms):
            full = arr.copy()
            full[0] += zeta
            systems.append(_polish_system(curve, H, mu, e, full, 0, order))
            got += e
        if got != mult:
            raise RootFindingFailure(
                f"branch count mismatch at z = {zeta}: {got} != {mult}")

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
        for mu, e, arr in _vanishing_branches(R, n_terms + curve.n * n_terms // 2):
            v = _first_significant(arr)
            if v is None:
                raise RootFindingFailure("polar branch with zero w-series")
            low, inv = _laurent_inverse(arr, v, n_terms + v)
            systems.append(_polish_system(curve, H, mu, e, inv, low, order))
            got += e
        if got != n_inf:
            raise RootFindingFailure(
                f"polar branch count mismatch: {got} != {n_inf}")

    total = sum(s.e for s in systems)
    if total != curve.n:
        raise RootFindingFailure(
            f"branch completeness violated: sum e = {total} != n = {curve.n}")
    systems.sort(key=lambda s: _branch_key(s.low, s.e, s.coeffs))
    return systems


def _first_significant(arr: np.ndarray) -> int | None:
    scale = float(np.abs(arr).max())
    if scale == 0:
        return None
    idx = np.nonzero(np.abs(arr) > 1e-9 * scale)[0]
    return int(idx[0]) if len(idx) else None


def _laurent_inverse(arr: np.ndarray, v: int, n: int) -> tuple[int, np.ndarray]:
    """Invert w(t) = t^v * unit(t): returns (low = -v, coefficients)."""
    unit = arr[v:]
    if len(unit) < n:
        unit = np.pad(unit, (0, n - len(unit)))
    return -v, _series_inv(unit[:n], n)


def _polish_system(curve: AlgebroidCurve, H: np.ndarray, mu: complex, e: int,
                   coeffs: np.ndarray, low: int, order: int) -> BranchSystem:
    """Rescale to (u - c) = tau^e and Newton-polish against the curve, whose
    local array at c is H."""
    lam = mu ** (1.0 / e) if e > 1 else complex(mu)
    n = order - low
    scaled = np.zeros(n, dtype=complex)
    for k in range(min(n, len(coeffs))):
        scaled[k] = coeffs[k] * lam ** (-(low + k))
    polished = _laurent_newton_polish(curve, H, e, low, scaled, order)
    return BranchSystem(e=e, low=low, coeffs=polished, order=order)


class _Laurent:
    """Minimal Laurent-array arithmetic truncated at a shared high exponent."""

    __slots__ = ("low", "a")

    def __init__(self, low: int, a: np.ndarray):
        self.low = int(low)
        self.a = np.asarray(a, dtype=complex)

    @staticmethod
    def zero(hi: int) -> "_Laurent":
        return _Laurent(0, np.zeros(max(hi, 1), dtype=complex))

    def add(self, other: "_Laurent", hi: int) -> "_Laurent":
        low = min(self.low, other.low)
        n = max(hi - low, 1)
        out = np.zeros(n, dtype=complex)
        for src in (self, other):
            start = src.low - low
            take = min(len(src.a), n - start)
            if take > 0:
                out[start: start + take] += src.a[:take]
        return _Laurent(low, out)

    def mul(self, other: "_Laurent", hi: int) -> "_Laurent":
        low = self.low + other.low
        n = hi - low
        if n <= 0:
            return _Laurent(low, np.zeros(1, dtype=complex))
        conv = np.convolve(self.a[:n], other.a[:n])[:n]
        if len(conv) < n:
            conv = np.pad(conv, (0, n - len(conv)))
        return _Laurent(low, conv)

    def scale(self, c: complex) -> "_Laurent":
        return _Laurent(self.low, self.a * c)

    def neg(self) -> "_Laurent":
        return _Laurent(self.low, -self.a)

    def valuation(self, rel: float = 1e-12) -> int | None:
        scale = float(np.abs(self.a).max()) if self.a.size else 0.0
        if scale == 0:
            return None
        idx = np.nonzero(np.abs(self.a) > rel * scale)[0]
        return self.low + int(idx[0]) if len(idx) else None

    def inv(self, hi: int) -> "_Laurent":
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("inverting a zero Laurent series")
        shift = v - self.low
        m = max(hi + v, 1)
        unit = self.a[shift:]
        if len(unit) < m:
            unit = np.pad(unit, (0, m - len(unit)))
        return _Laurent(-v, _series_inv(unit[:m], m))


def _curve_coeff_arrays(H: np.ndarray, e: int, hi: int) -> list["_Laurent"]:
    """Laurent arrays of the z-coefficients of F(center + tau^e, z): the
    columns of H = _local_array(curve, center), spread by e."""
    out = []
    for col in H.T:
        col = col[: (hi - 1) // e + 1]
        dense = np.zeros(hi, dtype=complex)
        dense[: e * len(col): e] = col
        out.append(_Laurent(0, dense))
    return out


def _laurent_newton_polish(curve: AlgebroidCurve, H: np.ndarray, e: int, low: int,
                           coeffs: np.ndarray, order: int) -> np.ndarray:
    hi_work = order + e + curve.n * max(-low, 0)
    cs = _curve_coeff_arrays(H, e, hi_work + curve.n * max(-low, 0) + 4)
    dcs = [c.scale(i) for i, c in enumerate(cs)][1:]
    z = _Laurent(low, np.array(coeffs, dtype=complex))

    def horner(zz: _Laurent, coeff_list: list) -> _Laurent:
        acc = _Laurent.zero(hi_work)
        for c in reversed(coeff_list):
            acc = acc.mul(zz, hi_work).add(c, hi_work)
        return acc

    z_scale = float(np.abs(z.a).max()) if z.a.size else 1.0
    for _ in range(4):
        r = horner(z, cs)
        if float(np.abs(r.a).max()) <= 1e-15 * max(1.0, z_scale):
            break
        d = horner(z, dcs)
        z = z.add(r.mul(d.inv(hi_work), hi_work).neg(), hi_work)
    out = np.zeros(order - low, dtype=complex)
    start = z.low - low
    for k in range(len(z.a)):
        idx = start + k
        if 0 <= idx < len(out):
            out[idx] = z.a[k]
    return out


def branch_residual(curve: AlgebroidCurve, branch: PuiseuxBranch,
                    rel: float = 1e-9) -> tuple[int | None, float]:
    """Substitution oracle: valuation and relative size of F(c + t^e, z(t)).

    Returns (valuation, max_relative_residual): the first t-exponent whose
    residual coefficient is significant relative to the term scale, or None
    if the residual vanishes to the checked order.
    """
    e, low = branch.e, branch.low_exp
    hi = branch.order
    cs = _curve_coeff_arrays(_local_array(curve, branch.center), e,
                             hi + curve.n * max(-low, 0) + 4)
    z = _Laurent(low, np.array(branch.coeffs, dtype=complex))
    acc = _Laurent.zero(hi)
    power = _Laurent(0, np.array([1.0 + 0j]))
    term_scale = 0.0
    for c in cs:
        t = c.mul(power, hi)
        if t.a.size:
            term_scale = max(term_scale, float(np.abs(t.a).max()))
        acc = acc.add(t, hi)
        power = power.mul(z, hi)
    scale = max(term_scale, 1.0)
    if not acc.a.size:
        return None, 0.0
    sig = np.nonzero(np.abs(acc.a) > rel * scale)[0]
    val = acc.low + int(sig[0]) if len(sig) else None
    return val, float(np.abs(acc.a).max() / scale)


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
    """Exact Taylor element of a regular branch with rational data.

    Requires F(center, z0) = 0 and F_z(center, z0) != 0, both exactly;
    raises SingularCenter otherwise.  Coefficients are Gaussian rationals.
    """
    c = ExactScalar.coerce(center)
    z0 = ExactScalar.coerce(z0)
    Fc = curve.F.substitute_var(curve.u_var, MultiPoly.constant(c, (curve.u_var,)))
    if not Fc.substitute_var(curve.z_var,
                             MultiPoly.constant(z0, (curve.z_var,))).is_zero():
        raise SingularCenter("z0 is not an exact root at the center")
    Fz = curve.F.derivative(curve.z_var)
    dval = Fz.substitute_var(curve.u_var, MultiPoly.constant(c, (curve.u_var,))) \
             .substitute_var(curve.z_var, MultiPoly.constant(z0, (curve.z_var,)))
    if dval.is_zero():
        raise SingularCenter("branch is ramified or multiple at the center")
    F_loc = curve.F.shift_var(curve.u_var, c)
    Fz_loc = F_loc.derivative(curve.z_var)
    x = TruncSeries.identity(c, order, exact=True)
    one = TruncSeries.const(1, c, order, exact=True)
    z = TruncSeries.const(z0, c, order, exact=True)
    steps = max(1, math.ceil(math.log2(max(order, 2))) + 1)
    for _ in range(steps):
        fval = F_loc.substitute({curve.u_var: x, curve.z_var: z}, one)
        dval_s = Fz_loc.substitute({curve.u_var: x, curve.z_var: z}, one)
        z = (z - fval / dval_s).truncate(order)
    return z


# ---------------------------------------------------------------------------
# singular-point inventory

def singular_points(curve: AlgebroidCurve) -> SingularityReport:
    """Classified singular candidates: p0 zeros, discriminant roots, infinity."""
    locs, n_p0 = curve._singular()
    candidates = sorted(((r, "p0-zero" if k < n_p0 else "discriminant-root")
                         for k, r in enumerate(locs)),
                        key=lambda t: (round(t[0].real, 8), round(t[0].imag, 8)))
    points = []
    for loc, source in candidates:
        systems = expand_systems(curve, loc, order=8)
        kind, cyc = _classify(systems)
        points.append(SingularPoint(loc, kind, cyc, source))
    inf_systems = expand_systems(curve.at_infinity(), 0, order=8)
    kind, cyc = _classify(inf_systems)
    points.append(SingularPoint(None, kind, cyc, "infinity"))
    return SingularityReport(points)


def _classify(systems: list[BranchSystem]) -> tuple[str, list[int]]:
    has_pole = any(s.low < 0 for s in systems)
    has_cycle = any(s.e > 1 for s in systems)
    cyc = sorted((s.e for s in systems), reverse=True)
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
    """Continue one branch value along a polyline in the u-plane.

    Euler predictor (dz/du = -F_u / F_z), Newton corrector, adaptive step
    halving with a nearest-root guard: a step is accepted only if the
    corrector moved less than 0.45 times the distance from the corrected
    value to the nearest other root of F(u, .).  That distance is first
    bounded below from the Taylor coefficients of F(u, .) at the corrected
    value (a Rouche gamma bound); only when the bound does not settle the
    step are all roots computed with `roots_at`, and then the root nearest
    the corrected value, the branch's own, is excluded.  Raises
    NearSingular when the path comes within the clearance margin of a
    singular point and CorrectionDiverged when the step floor is reached.
    """
    if len(path) < 2:
        return complex(start_value)
    if singular is None:
        singular = curve.singular_locations()
    u = complex(path[0])
    z0 = _newton_correct(curve, u, complex(start_value), tol)
    if z0 is None:
        raise RootFindingFailure(
            f"start value {start_value} does not satisfy the curve at u={u}")
    z = z0
    for a, b in zip(path, path[1:]):
        a, b = complex(a), complex(b)
        seg = b - a
        if abs(seg) == 0:
            continue
        t, h = 0.0, 0.01
        while t < 1.0:
            h = min(h, 1.0 - t)
            u_next = a + (t + h) * seg
            _check_clearance(u_next, singular, clearance_rel)
            ok = False
            denom = curve.eval_dz(u, z)
            if denom != 0:
                z_pred = z - curve.eval_du(u, z) / denom * (u_next - u)
                z_corr = _newton_correct(curve, u_next, z_pred, tol, max_iter=12)
                if z_corr is not None and _nearest_root_guard(curve, u_next,
                                                              z_pred, z_corr):
                    u, z = u_next, z_corr
                    t += h
                    h = min(h * 1.6, 0.25)
                    ok = True
            if not ok:
                h *= 0.5
                if h < 1e-12:
                    raise CorrectionDiverged(f"step floor reached near u={u_next}")
    return z


def _curve_scale(curve: AlgebroidCurve, u: complex) -> float:
    return max(max(abs(c) for c in curve.z_coeffs_at(u)), 1e-30)


def _check_clearance(u: complex, singular: list[complex], rel: float):
    margin = rel * max(1.0, abs(u))
    for s in singular:
        if abs(u - s) < margin:
            raise NearSingular(f"path point {u} within {margin:.2e} of {s}")


def _newton_correct(curve: AlgebroidCurve, u: complex, z: complex,
                    tol: float, max_iter: int = 24) -> complex | None:
    scale = _curve_scale(curve, u)
    for _ in range(max_iter):
        f = curve.eval(u, z)
        bound = tol * scale * max(1.0, abs(z)) ** curve.n
        if abs(f) < bound:
            return z
        d = curve.eval_dz(u, z)
        if d == 0:
            return None
        z = z - f / d
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return None
    f = curve.eval(u, z)
    if abs(f) < 10 * tol * scale * max(1.0, abs(z)) ** curve.n:
        return z
    return None


def _nearest_root_guard(curve: AlgebroidCurve, u: complex,
                        z_pred: complex, z_corr: complex) -> bool:
    """Accept a step when the corrector moved less than 0.45 times the
    distance from z_corr to the nearest root of F(u, .) other than the
    branch's own (or less than 1e-9 relative)."""
    d_corr = abs(z_corr - z_pred)
    if d_corr < 0.45 * _separation_bound(curve.z_coeffs_at(u), z_corr):
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


def _safe_stem(a: complex, b: complex, singular: list[complex],
               margin: float, depth: int = 0) -> list[complex]:
    """Polyline from a to b detouring around singular points on the way."""
    if depth > 8 or abs(b - a) == 0:
        return [a, b]
    direction = (b - a) / abs(b - a)
    for s in singular:
        t = ((s - a) / (b - a)).real if abs(b - a) > 0 else 0.0
        if not 0.02 < t < 0.98:
            continue
        foot = a + t * (b - a)
        d = abs(foot - s)
        if d >= margin:
            continue
        others = [abs(s - o) for o in singular
                  if abs(s - o) > _DEDUPE_TOL * max(1.0, abs(s))]
        hop = min(0.4 * min(others), 4 * margin) if others else 4 * margin
        hop = max(hop, 2 * margin)
        if d > 1e-12:
            w = s + (foot - s) / d * hop
        else:
            w = s + 1j * direction * hop
        left = _safe_stem(a, w, singular, margin, depth + 1)
        right = _safe_stem(w, b, singular, margin, depth + 1)
        return left + right[1:]
    return [a, b]


def monodromy(curve: AlgebroidCurve, base: complex, around: complex,
              nodes: int = 48,
              singular: list[complex] | None = None) -> MonodromyPermutation:
    """Permutation of the branch values after one positive circuit.

    The circle radius is half the distance from `around` to the nearest
    other singular point; tracking starts and ends at `base`, joined to the
    circle by stems that detour around any singular point in the way.
    Branch indices refer to the roots of F(base, .) sorted by (real,
    imaginary) part.
    """
    if singular is None:
        singular = curve.singular_locations()
    base, around = complex(base), complex(around)
    others = [abs(s - around) for s in singular
              if abs(s - around) > _DEDUPE_TOL * max(1.0, abs(around))]
    radius = 0.5 * min(others) if others else 0.5 * max(1.0, abs(around))
    theta0 = cmath.phase(base - around) if abs(base - around) > 0 else 0.0
    circle = [around + radius * cmath.exp(1j * (theta0 + 2 * math.pi * k / nodes))
              for k in range(nodes + 1)]
    if abs(base - circle[0]) > 1e-12:
        scale = max(1.0, abs(base), abs(around))
        stem = _safe_stem(base, circle[0], singular, 0.05 * scale)
        path = stem + circle[1:] + stem[-2:: -1]
    else:
        path = circle
    starts = sorted((complex(r) for r in curve.roots_at(base)),
                    key=lambda w: (round(w.real, 10), round(w.imag, 10)))
    if len(starts) != curve.n:
        raise RootFindingFailure("base point is not regular (root count drop)")
    ends = [track_branch(curve, s, path, singular=singular) for s in starts]
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
