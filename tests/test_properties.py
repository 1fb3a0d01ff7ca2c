"""Randomized and property-based invariants (the always-on suites)."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from aatkit.algebroid import (
    AlgebroidCurve,
    _separation_bound,
    puiseux_expand,
    track_branch,
)
from aatkit.errors import NotSquareFree, InvariantViolation
from aatkit.functions import FunctionSpec
from aatkit.poly import MultiPoly, poly_gcd, poly_squarefree_content
from aatkit.scalars import ExactScalar
from aatkit.series import TruncSeries
from aatkit.elimination import resultant


# -- strategies ---------------------------------------------------------------

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def small_polys(draw, vars=("U", "V")):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 2)) for _ in vars)
        c = draw(small_fraction)
        if c:
            terms[exps] = ExactScalar(c)
    return MultiPoly(vars, terms)


class TestPolyRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a


class TestEvalHomomorphism:
    def test_product_respects_evaluation(self):
        rng = random.Random(42)
        vars = ("U", "V", "W")
        for _ in range(10):
            a = _random_poly(rng, vars)
            b = _random_poly(rng, vars)
            prod = a * b
            for _ in range(10):
                sigma = {v: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for v in vars}
                lhs = prod.eval(sigma)
                rhs = a.eval(sigma) * b.eval(sigma)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _random_poly(rng, vars):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = tuple(rng.randint(0, 2) for _ in vars)
        terms[exps] = ExactScalar(Fraction(rng.randint(-5, 5)))
    p = MultiPoly(vars, terms)
    return p if not p.is_zero() else MultiPoly.constant(1, vars)


class TestSquareFreeInvariant:
    def test_randomized_output_coprime_with_derivative(self):
        rng = random.Random(7)
        z = MultiPoly.variable("z")
        u = MultiPoly.variable("u")
        for _ in range(15):
            factors = []
            for _ in range(rng.randint(1, 3)):
                f = z * rng.randint(1, 3) + u * rng.randint(-2, 2) \
                    + rng.randint(-3, 3)
                if f.degree("z") > 0:
                    factors.append(f ** rng.randint(1, 3))
            if not factors:
                continue
            p = factors[0]
            for f in factors[1:]:
                p = p * f
            if p.degree("z") < 1:
                continue
            sqf = poly_squarefree_content(p, "z")
            assert poly_gcd(sqf, sqf.derivative("z")).is_constant()


class TestSeriesRingAxioms:
    def test_mul_commutative_associative(self):
        rng = random.Random(3)
        for _ in range(25):
            a, b, c = (_random_series(rng) for _ in range(3))
            ab = a * b
            ba = b * a
            _assert_series_close(ab, ba)
            _assert_series_close((a * b) * c, a * (b * c))


def _random_series(rng, order=10):
    coeffs = [ExactScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
              for _ in range(order)]
    return TruncSeries(ExactScalar(0), coeffs, exact=True)


def _assert_series_close(a, b):
    lo = max(a.low, b.low)
    hi = min(a.order, b.order)
    for k in range(lo, hi):
        assert a.coefficient(k) == b.coefficient(k)


class TestResultantRootOracle:
    def test_fifty_random_pairs(self):
        # resultant vanishes at a specialization iff the univariate pair has
        # a common root there (numpy roots as the independent oracle)
        rng = random.Random(2024)
        z = MultiPoly.variable("z")
        u = MultiPoly.variable("u")
        checked = 0
        while checked < 50:
            f = _random_uv_poly(rng, 4)
            g = _random_uv_poly(rng, 4)
            if f.degree("z") < 1 or g.degree("z") < 1:
                continue
            try:
                r = resultant(f, g, "z")
            except Exception:
                continue
            u0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            fs = [complex(c.eval({"u": u0})) for c in f.coefficients_wrt("z")]
            gs = [complex(c.eval({"u": u0})) for c in g.coefficients_wrt("z")]
            if abs(fs[-1]) < 1e-6 or abs(gs[-1]) < 1e-6:
                continue
            fr = np.roots(fs[::-1])
            gr = np.roots(gs[::-1])
            min_gap = min((abs(a - b) for a in fr for b in gr), default=1e9)
            res_val = abs(r.eval({"u": u0}))
            scale = max(abs(x) for x in fs + gs) ** (len(fs) + len(gs))
            if min_gap > 1e-3:
                assert res_val > 1e-12 * scale
            checked += 1
        # and a constructed common-root family: Res must vanish identically
        f = (z - u) * (z + 2)
        g = (z - u) * (z - 3)
        r = resultant(f, g, "z")
        for t in np.linspace(-2, 2, 9):
            assert abs(r.eval({"u": complex(t)})) < 1e-9


def _random_uv_poly(rng, max_deg):
    z = MultiPoly.variable("z")
    u = MultiPoly.variable("u")
    p = MultiPoly.zero(("u", "z"))
    for k in range(rng.randint(1, max_deg) + 1):
        c = rng.randint(-4, 4)
        if c:
            p = p + c * z ** k * u ** rng.randint(0, 1)
    return p


class TestBranchCompleteness:
    def test_random_curves_random_centers(self):
        # sum of ramification indices equals n: 5 curves x 20 centers
        rng = random.Random(11)
        curves = []
        while len(curves) < 5:
            n = rng.randint(2, 3)
            u = MultiPoly.variable("u")
            z = MultiPoly.variable("z")
            p = z ** n
            for k in range(n):
                coeff = rng.randint(-3, 3) + rng.randint(-2, 2) * u
                p = p + coeff * z ** k
            try:
                curves.append(AlgebroidCurve(p))
            except (NotSquareFree, InvariantViolation):
                continue
        for curve in curves:
            sing = curve.singular_locations()
            done = 0
            while done < 20:
                c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if any(abs(c - s) < 0.3 for s in sing):
                    continue
                branches = puiseux_expand(curve, c, 6)
                assert len(branches) == curve.n
                assert sum(b.e for b in branches) >= curve.n
                done += 1


class TestMonodromyPersistence:
    def test_quartic_invariant_under_sign_flips(self, sin_quartic, uvw):
        # the addition polynomial is even in each slot, so any monodromy
        # branch choice (sign flip of sin) preserves the relation exactly
        U, V, W = uvw
        for su in (1, -1):
            for sv in (1, -1):
                for sw in (1, -1):
                    flipped = sin_quartic.substitute_var("U", su * U) \
                        .substitute_var("V", sv * V) \
                        .substitute_var("W", sw * W)
                    assert flipped == sin_quartic

    def test_residual_before_and_after_flips(self, sin_quartic):
        rng = random.Random(5)
        for _ in range(20):
            un = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            vn = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            for su in (1, -1):
                for sv in (1, -1):
                    for sw in (1, -1):
                        val = sin_quartic.eval({
                            "U": su * cmath.sin(un),
                            "V": sv * cmath.sin(vn),
                            "W": sw * cmath.sin(un + vn)})
                        if (su, sv, sw) == (1, 1, 1):
                            assert abs(val) < 1e-8
                        # evenness: every sign choice gives the same value
                        base = sin_quartic.eval({
                            "U": cmath.sin(un), "V": cmath.sin(vn),
                            "W": cmath.sin(un + vn)})
                        assert abs(val - base) < 1e-10


class TestTrackReverse:
    def test_random_paths_return(self, golden_cubic):
        rng = random.Random(9)
        sing = golden_cubic.singular_locations()
        done = 0
        while done < 5:
            pts = [complex(rng.uniform(2, 4), rng.uniform(-2, 2))
                   for _ in range(3)]
            if any(abs(p - s) < 0.4 for p in pts for s in sing):
                continue
            start = complex(golden_cubic.roots_at(pts[0])[0])
            fwd = track_branch(golden_cubic, start, pts)
            back = track_branch(golden_cubic, fwd, pts[::-1])
            assert abs(back - start) < 1e-8
            done += 1


# -- numeric curve kernels ----------------------------------------------------

point = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
grid_point = st.builds(lambda a, b: complex(a, b) / 4,
                       st.integers(-12, 12), st.integers(-12, 12))


class TestSeparationBound:
    # roots on a 1/4 grid plus one pair 10^-k apart: the pair probes the
    # bound near a collision and is still resolved by np.roots
    @settings(max_examples=200, deadline=None)
    @given(st.lists(grid_point, min_size=2, max_size=5, unique=True),
           st.integers(1, 5), st.complex_numbers(min_magnitude=0.1, max_magnitude=4),
           st.data())
    def test_bound_below_distance_to_other_roots(self, roots, k, lead, data):
        roots[-1] = roots[0] + 10.0 ** -k
        cs = [complex(c) for c in (lead * np.poly(roots))[::-1]]
        z0 = roots[data.draw(st.integers(0, len(roots) - 1))]
        for _ in range(3):  # polish against the rounded coefficients
            f = sum(c * z0 ** j for j, c in enumerate(cs))
            df = sum(j * c * z0 ** (j - 1) for j, c in enumerate(cs) if j)
            z0 -= f / df
        r = _separation_bound(cs, z0)
        dists = sorted(abs(x - z0) for x in np.roots(cs[::-1]))
        assert r <= dists[1]


def _ref_eval(P, u, z):
    """F(u, z) the way np.polyval evaluates a dense (u, z) array."""
    du, dz = max(P.degree("u"), 0), max(P.degree("z"), 0)
    A = np.zeros((du + 1, dz + 1), dtype=complex)
    iu, iz = P.vars.index("u"), P.vars.index("z")
    for exps, coeff in P.terms.items():
        A[exps[iu], exps[iz]] += complex(coeff)
    acc = 0j
    for i in range(dz, -1, -1):
        acc = acc * z + np.polyval(A[::-1, i], u)
    return complex(acc), [complex(np.polyval(A[::-1, i], u))
                          for i in range(dz + 1)]


@st.composite
def acceptance_curves(draw):
    """Monic in z with coefficients linear in u, as in acceptance 10."""
    z, u = MultiPoly.variable("z"), MultiPoly.variable("u")
    n = draw(st.integers(2, 3))
    p = z ** n
    for k in range(n):
        p = p + (draw(st.integers(-3, 3)) + draw(st.integers(-2, 2)) * u) * z ** k
    try:
        return AlgebroidCurve(p)
    except (NotSquareFree, InvariantViolation):
        return None


class TestCurveEvalBitIdentical:
    def _check(self, curve, u0, z0):
        F = curve.F
        parts = (F, F.derivative("u"), F.derivative("z"))
        got = (curve.eval(u0, z0), curve.eval_du(u0, z0), curve.eval_dz(u0, z0))
        for P, g in zip(parts, got):
            assert g == _ref_eval(P, u0, z0)[0]
        assert curve.z_coeffs_at(u0) == _ref_eval(F, u0, z0)[1]

    @settings(max_examples=100, deadline=None)
    @given(point, point)
    def test_golden_cubic(self, golden_cubic, u0, z0):
        self._check(golden_cubic, u0, z0)

    @settings(max_examples=100, deadline=None)
    @given(acceptance_curves(), point, point)
    def test_acceptance_family(self, curve, u0, z0):
        if curve is not None:
            self._check(curve, u0, z0)


# -- batch evaluation agrees with the scalar methods ---------------------------

@st.composite
def batch_specs(draw):
    """Builtin, translated builtin, rational and element specs."""
    kind = draw(st.sampled_from(("builtin", "translated", "rational", "element")))
    if kind in ("builtin", "translated"):
        f = FunctionSpec.builtin(draw(st.sampled_from(("exp", "sin", "cos", "tan"))))
        return f.translate(draw(point)) if kind == "translated" else f
    if kind == "rational":
        u = MultiPoly.variable("u")
        num = sum((draw(small_fraction) * u ** k for k in range(3)), MultiPoly.zero(("u",)))
        den = u + draw(small_fraction) if draw(st.booleans()) else \
            u * u + draw(small_fraction) * u + draw(small_fraction)
        return FunctionSpec.rational(num, den)
    low = draw(st.sampled_from((-1, 0, 1)))
    coeffs = [draw(point) / 4 / 2 ** k for k in range(12)]
    return FunctionSpec.element(TruncSeries(draw(point) / 4, coeffs, low=low,
                                            exact=False))


class TestBatchEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(batch_specs(), st.lists(point, min_size=1, max_size=12))
    def test_matches_scalar_methods(self, f, pts):
        arr = np.array(pts, dtype=complex)
        regular = f.is_regular_many(arr)
        values, derivs = f.eval_many(arr), f.eval_deriv_many(arr)
        for k, z in enumerate(pts):
            assert bool(regular[k]) == f.is_regular(z)
            # a Laurent element's own pole sits at its center
            if not regular[k] or (f.kind == "element" and abs(z - f.series.center) < 1e-6):
                continue
            # relative to max(1, |value|): near a zero the value is a
            # cancellation, and numpy may round its products differently
            for got, want in ((values[k], f.eval(z)), (derivs[k], f.eval_deriv(z))):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
