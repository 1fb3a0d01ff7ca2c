"""Period detection from an addition theorem, and lattice fitting of roots.

weierstrass_period turns the classical periodicity argument into an
algorithm: draw a target value C2 whose preimage has at least m+1 points
(m = W-degree of the addition polynomial), shift by a random regular point,
find two equal values among the shifted images, and emit the difference of
the two preimages as a period candidate.  Pointwise equality is upgraded to
an identity by verification at 100 random points; verified candidates are
reduced pairwise (nearest-integer complex quotients) and the smallest
survivor is reported as the fundamental period.

find_roots supplies the preimages by grid seeding plus Newton polishing,
doubling the search region (up to 6 times) when too few roots appear; a
rational function of degree n (the larger degree of P and Q) takes each
value at most n times, so more roots are refused without a search.  The
Newton iterations run in lockstep: every regular grid seed is one entry of a
complex array, each pass evaluates phi, phi' and the regularity test once
over all live seeds (FunctionSpec.eval_many and friends), and a seed leaves
the array when it converges or dies.  Acceptance of the converged points
runs over arrays too: containment and residual masks, then deduplication in
seed order (each kept root drops the later points within 1e-6 of it).
The samplers (verify_period, the shift draw, aat.verify_aat) take the draws
of a one-point-at-a-time loop from the same Generator, in chunks of the
number of samples still needed, so they keep and evaluate exactly its
points; an overflowing (inf or nan) value is dropped like a too large one.
forsyth_fit covers a root set by arithmetic progressions with one common
difference, flagging data that refuses the lattice model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllPointsSingular,
    DerivativeVanishes,
    InsufficientRoots,
    NoEqualPair,
    PreconditionFailed,
    ShiftDegenerate,
)
from .functions import FunctionSpec, _rational_var
from .poly import MultiPoly

_ROOT_RESIDUAL = 1e-10
_ROOT_SEPARATION = 1e-6
_PAIR_TOL = 1e-8
_VERIFY_TOL = 1e-9


@dataclass
class Region:
    """Axis-aligned rectangle in the complex plane."""

    x0: float
    x1: float
    y0: float
    y1: float

    def contains(self, z, pad: float = 0.0):
        """Whether z lies in the padded rectangle (elementwise on arrays)."""
        return ((self.x0 - pad <= z.real) & (z.real <= self.x1 + pad) &
                (self.y0 - pad <= z.imag) & (z.imag <= self.y1 + pad))

    def doubled(self) -> "Region":
        cx, cy = (self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2
        hx, hy = (self.x1 - self.x0), (self.y1 - self.y0)
        return Region(cx - hx, cx + hx, cy - hy, cy + hy)

    def to_json(self) -> list[float]:
        return [self.x0, self.x1, self.y0, self.y1]


@dataclass
class RootSet:
    target: complex
    region: Region
    roots: list[complex]
    residual_max: float

    def to_json_dict(self) -> dict:
        return {"target": [self.target.real, self.target.imag],
                "region": self.region.to_json(),
                "roots": [[r.real, r.imag] for r in self.roots],
                "residual_max": self.residual_max}


@dataclass
class PeriodReport:
    candidates: list[complex]
    fundamental: complex | None
    verification_residual: float | None
    classification: str  # periodic | rational | inconclusive
    seed: int = 0

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification,
            "fundamental": None if self.fundamental is None else
                           [self.fundamental.real, self.fundamental.imag],
            "candidates": [[c.real, c.imag] for c in self.candidates],
            "residual": self.verification_residual,
            "seed": self.seed,
        }


@dataclass
class ForsythFit:
    progressions: list[tuple[complex, complex]]  # (offset, common difference)
    omega: complex | None
    lambda_flag: bool

    def to_json_dict(self) -> dict:
        return {
            "progressions": [[[o.real, o.imag], [d.real, d.imag]]
                             for o, d in self.progressions],
            "omega": None if self.omega is None else
                     [self.omega.real, self.omega.imag],
            "lambda_flag": self.lambda_flag,
        }


# ---------------------------------------------------------------------------
# root finding

def find_roots(f: FunctionSpec, C: complex, region: Region,
               want: int, max_doublings: int = 6) -> RootSet:
    """Roots of phi(v) = C in a rectangle, grown until `want` are found.

    Grid seeds polished by Newton; results are deduplicated and must meet
    the residual bound.  Raises InsufficientRoots after the region has
    doubled `max_doublings` times without reaching `want` roots, and at
    once when phi is a non-constant rational function of degree below
    `want`.
    """
    if f.kind == "builtin" and f.name == "rational":
        p, q = f.numer, f.denom
        var = _rational_var(p, q)
        n = max(p.degree(var), q.degree(var), 0)
        wronskian = p * q.derivative(var) - p.derivative(var) * q
        if want > n and not wronskian.is_zero():  # non-constant P/Q
            raise InsufficientRoots(
                f"a rational function of degree {n} takes the value {C} at "
                f"most {n} times; wanted {want}")
    C = complex(C)
    reg = region
    for _ in range(max_doublings + 1):
        roots = _roots_in_region(f, C, reg)
        if len(roots) >= want:
            with np.errstate(all="ignore"):
                res = np.abs(f.eval_many(np.array(roots, dtype=complex)) - C)
            return RootSet(C, reg, roots, float(np.max(res, initial=0.0)))
        reg = reg.doubled()
    raise InsufficientRoots(
        f"found {len(roots)} roots of phi = {C} after {max_doublings} "
        f"doublings; wanted {want}")


def _roots_in_region(f: FunctionSpec, C: complex, reg: Region) -> list[complex]:
    nx = max(18, min(42, int(1.2 * (reg.x1 - reg.x0))))
    ny = max(7, min(26, int(1.2 * (reg.y1 - reg.y0))))
    xs = np.linspace(reg.x0, reg.x1, nx)
    ys = np.linspace(reg.y0, reg.y1, ny)
    seeds = np.repeat(xs, ny) + 1j * np.tile(ys, nx)  # x outer, y inner
    seeds = seeds[f.is_regular_many(seeds)]
    if seeds.size == 0:
        raise DerivativeVanishes("no usable Newton seeds in the region")
    r = np.array(_newton_lockstep(f, C, seeds), dtype=complex)
    with np.errstate(all="ignore"):
        r = r[reg.contains(r, pad=1e-9)]
        r = r[np.abs(f.eval_many(r) - C) <= _ROOT_RESIDUAL * max(1.0, abs(C))]
        found: list[complex] = []
        while r.size:  # the first left is kept, the points near it dropped
            found.append(complex(r[0]))
            r = r[np.abs(r - r[0]) > _ROOT_SEPARATION]
    found.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return found


def _newton_lockstep(f: FunctionSpec, C: complex, seeds: np.ndarray,
                     iters: int = 40) -> list[complex]:
    """Newton for phi(z) = C from every seed at once; converged iterates in
    seed order.

    Each seed is treated as if iterated alone: it dies at an irregular iterate, a
    zero or non-finite derivative, or a non-finite iterate; it converges at
    |phi - C| < 1e-13 max(1, |C|); steps are clamped to modulus 10; after
    `iters` steps the survivors must meet 1e-11 max(1, |C|).
    """
    scale = max(1.0, abs(C))
    z = np.array(seeds, dtype=complex)
    root = np.zeros(z.size, dtype=bool)
    live = np.arange(z.size)
    with np.errstate(all="ignore"):
        for _ in range(iters):
            live = live[f.is_regular_many(z[live])]
            if live.size == 0:
                break
            zl = z[live]
            g = f.eval_many(zl) - C
            hit = np.abs(g) < 1e-13 * scale
            root[live[hit]] = True
            live, zl, g = live[~hit], zl[~hit], g[~hit]
            d = f.eval_deriv_many(zl)
            ok = (d != 0) & np.isfinite(d)
            live, zl, g, d = live[ok], zl[ok], g[ok], d[ok]
            step = g / d
            size = np.abs(step)
            big = size > 10.0
            step[big] = step[big] / size[big] * 10.0
            zl = zl - step
            ok = np.isfinite(zl)
            live = live[ok]
            z[live] = zl[ok]
        if live.size:
            g = f.eval_many(z[live]) - C
            root[live[np.abs(g) < 1e-11 * scale]] = True
    return [complex(r) for r in z[root]]


# ---------------------------------------------------------------------------
# period verification

def verify_period(f: FunctionSpec, omega: complex, samples: int = 100,
                  seed: int = 0, box: float = 2.0) -> float:
    """max |phi(u + omega) - phi(u)| over seeded random regular points.

    u is drawn uniformly in [-box, box]^2 (in chunks of the number still
    needed) and kept when phi is regular at u and u + omega with both values
    finite and at most 1e8 in modulus, until `samples` points are kept or
    `samples * 20` drawn.  AllPointsSingular when none is kept.
    """
    omega = complex(omega)
    if omega == 0 or not np.isfinite(abs(omega)):
        raise ShiftDegenerate("omega must be finite and nonzero")
    rng = np.random.default_rng(seed ^ 0x5EED)
    worst, got, drawn = 0.0, 0, 0
    with np.errstate(all="ignore"):
        while got < samples and drawn < samples * 20:
            k = min(samples - got, samples * 20 - drawn)
            drawn += k
            u = rng.uniform(-box, box, size=(k, 2)).view(complex)[:, 0]
            u = u[f.is_regular_many(u) & f.is_regular_many(u + omega)]
            a, b = f.eval_many(u), f.eval_many(u + omega)
            keep = np.maximum(np.abs(a), np.abs(b)) <= 1e8
            worst = float(np.max(np.abs(b - a)[keep], initial=worst))
            got += int(np.count_nonzero(keep))
    if got == 0:
        raise AllPointsSingular("no regular sample points for verification")
    return worst


# ---------------------------------------------------------------------------
# the periodicity algorithm

DEFAULT_REGION = Region(-20.0, 20.0, -20.0, 20.0)


def weierstrass_period(f: FunctionSpec, G: MultiPoly, seed: int = 0,
                       region: Region = DEFAULT_REGION,
                       retries: int = 8) -> PeriodReport:
    """Detect a period of phi from its addition polynomial.

    Draws C2 with at least m+1 preimages (m = deg_W G), shifts by a random
    regular point, clusters equal values among the shifted images, verifies
    each emitted difference as an identity at 100 random points, and
    reduces the verified candidates to the smallest one.  InsufficientRoots
    classifies the function as `rational`; exhausted retries give
    `inconclusive`.  Deterministic for a fixed seed.
    """
    from .aat import verify_aat
    cert = verify_aat(G, f, order=12, seed=seed)
    if not cert.verified:
        raise PreconditionFailed("G is not a verified addition theorem for f")
    m = G.degree("W")
    rng = np.random.default_rng(seed)
    all_candidates: list[complex] = []
    for _attempt in range(retries):
        C2 = complex(rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.7))
        try:
            rootset = find_roots(f, C2, region, m + 1)
        except InsufficientRoots:
            return PeriodReport([], None, None, "rational", seed)
        drawn = _draw_regular_shift(f, rootset.roots, rng)
        if drawn is None:
            continue
        values = drawn[1].tolist()
        scale = max(1.0, max(abs(v) for v in values))
        candidates = []
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if abs(values[i] - values[j]) < _PAIR_TOL * scale:
                    c = rootset.roots[i] - rootset.roots[j]
                    if abs(c) > _ROOT_SEPARATION and \
                            all(abs(c - d) > _PAIR_TOL for d in candidates):
                        candidates.append(c)
        all_candidates.extend(candidates)
        verified = []
        for c in candidates:
            try:
                res = verify_period(f, c, seed=seed)
            except AllPointsSingular:
                continue
            if res < _VERIFY_TOL:
                verified.append(c)
        if not verified:
            continue
        fundamental = _normalize_sign(_reduce_candidates(verified))
        res = verify_period(f, fundamental, seed=seed)
        if res < _VERIFY_TOL:
            return PeriodReport(all_candidates, fundamental, res,
                                "periodic", seed)
    if not all_candidates:
        raise NoEqualPair(f"no equal pair found in {retries} attempts")
    return PeriodReport(all_candidates, None, None, "inconclusive", seed)


def _draw_regular_shift(f: FunctionSpec, roots: list[complex], rng,
                        tries: int = 60) -> tuple[complex, np.ndarray] | None:
    """A shift u drawn in [0.3, 1.7]^2 where phi is regular, finite and below
    1e8 in modulus at u and every u + root, with phi at the u + root; None
    after `tries` draws."""
    offsets = np.array([0j, *roots])
    with np.errstate(all="ignore"):
        for _ in range(tries):
            u = complex(rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.7))
            pts = u + offsets
            if f.is_regular_many(pts).all():
                vals = f.eval_many(pts)
                if (np.abs(vals) < 1e8).all():
                    return u, vals[1:]
    return None


def _normalize_sign(c: complex) -> complex:
    """Canonical representative of {c, -c}: positive real part, or positive
    imaginary part on the imaginary axis; zero parts are +0.0."""
    if c.real < -1e-12 or (abs(c.real) <= 1e-12 and c.imag < 0):
        c = -c
    return complex(c.real + 0.0, c.imag + 0.0)  # -0.0 + 0.0 is +0.0


def _reduce_candidates(cands: list[complex], tol: float = 1e-9) -> complex:
    """Pairwise nearest-integer reduction to the smallest nonzero period."""
    vals = sorted(set(cands), key=abs)
    changed = True
    while changed:
        changed = False
        vals = sorted((v for v in vals if abs(v) > tol), key=abs)
        for i in range(len(vals)):
            if abs(vals[i]) <= tol:
                continue  # reduced to zero earlier in this sweep
            for j in range(i + 1, len(vals)):
                q = vals[j] / vals[i]
                n = complex(round(q.real), round(q.imag))
                r = vals[j] - n * vals[i]
                if abs(r) < abs(vals[j]) - tol:
                    vals[j] = r
                    changed = True
        vals = sorted((v for v in vals if abs(v) > tol), key=abs)
    return vals[0]


# ---------------------------------------------------------------------------
# Forsyth lattice fit

def forsyth_fit(roots, tol: float = 1e-8) -> ForsythFit:
    """Cover a root set by arithmetic progressions with one common difference.

    Every root must land in a progression of length >= 2 under the
    candidate difference; candidates are pairwise root differences tried in
    increasing modulus.  When no candidate works the data refuses the
    lattice model and lambda_flag is set.
    """
    if isinstance(roots, RootSet):
        roots = roots.roots
    pts = sorted((complex(r) for r in roots),
                 key=lambda z: (z.real, z.imag))
    if len(pts) < 4:
        raise InsufficientRoots("lattice fit needs at least 4 roots")
    lo_re = min(p.real for p in pts)
    hi_re = max(p.real for p in pts)
    lo_im = min(p.imag for p in pts)
    hi_im = max(p.imag for p in pts)
    hull = Region(lo_re, hi_re, lo_im, hi_im)
    cands: list[complex] = []
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            d = pts[j] - pts[i]
            if d.real < -tol or (abs(d.real) <= tol and d.imag <= 0):
                continue
            if abs(d) < 10 * tol:
                continue
            if all(abs(d - c) > tol for c in cands):
                cands.append(d)
    cands.sort(key=abs)
    for omega in cands:
        classes = _progressions(pts, omega, hull, tol)
        if classes is not None:
            return ForsythFit([(off, omega) for off in classes], omega, False)
    return ForsythFit([], None, True)


def _progressions(pts: list[complex], omega: complex, hull: Region,
                  tol: float) -> list[complex] | None:
    def member(z: complex) -> bool:
        return any(abs(z - p) < tol for p in pts)

    for p in pts:
        fwd = member(p + omega)
        back = member(p - omega)
        if not (fwd or back):
            return None  # isolated under omega: no progression of length 2
        if not fwd and hull.contains(p + omega, pad=tol):
            return None  # a hole inside the observed window
        if not back and hull.contains(p - omega, pad=tol):
            return None
    offsets: list[complex] = []
    for p in pts:
        q = p
        while member(q - omega):
            q = q - omega
            if abs(q) > 1e9:
                return None
        if all(abs(q - o) > tol for o in offsets):
            offsets.append(q)
    offsets.sort(key=lambda z: (z.real, z.imag))
    return offsets
