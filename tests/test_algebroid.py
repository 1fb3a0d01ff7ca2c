"""Branch expansion, singular classification, tracking, monodromy.

The reference curve is 8u z^3 + 3(1-u) z + (1-u).  Expected expansion
coefficients are generated by an exact recurrence oracle over Q(a) with
a^2 = -3/8 (the substitution residual is the ground truth; the recurrence
solves the residual equations coefficient by coefficient with Fractions).
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aatkit import algebroid, cli
from aatkit.algebroid import (
    AlgebroidCurve,
    branch_residual,
    compose_permutations,
    exact_branch_element,
    monodromy,
    puiseux_expand,
    puiseux_expand_at_infinity,
    singular_points,
    track_branch,
)
from aatkit.errors import (
    AatkitError,
    InvariantViolation,
    NearSingular,
    NotSquareFree,
    OrderTooLow,
    SchemaError,
    SingularCenter,
)
from aatkit.elimination import discriminant
from aatkit.poly import MultiPoly, monic_lex, poly_gcd
from aatkit.scalars import ExactScalar
from aatkit.series import TruncSeries, taylor_shift
from aatkit.zi import zi_horner


# -- exact oracle for the polar branches at u = 0 ----------------------------
# numbers r + s*a with a^2 = -3/8, represented as (r, s) Fraction pairs

A2 = Fraction(-3, 8)


def _qa_mul(x, y):
    return (x[0] * y[0] + x[1] * y[1] * A2, x[0] * y[1] + x[1] * y[0])


def _qa_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _qa_scale(x, c):
    return (x[0] * c, x[1] * c)


def polar_branch_oracle(n_coeffs: int):
    """Coefficients c_{-1}..c_{n-2} of the branch a/t + 1/6 + ... in Q(a).

    Solved from the residual of 8 t^2 phi^3 + 3(1 - t^2) phi + (1 - t^2):
    adding c t^m changes the residual at t^m by -6c, so c_m = R_m / 6.
    """
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    coeffs = [(Fraction(0), Fraction(1))]  # c_{-1} = a
    low = -1
    for m in range(0, n_coeffs - 1):
        coeffs.append(zero)
        hi = m + 1
        # phi, phi^2, phi^3 as Laurent lists starting at exponent `low`*k
        def mul_series(xs, xlow, ys, ylow):
            out_low = xlow + ylow
            out = [zero] * (hi - out_low + 1)
            for i, xv in enumerate(xs):
                for j, yv in enumerate(ys):
                    e = xlow + i + ylow + j
                    if e <= hi:
                        out[e - out_low] = _qa_add(out[e - out_low],
                                                   _qa_mul(xv, yv))
            return out, out_low
        phi = coeffs
        phi2, l2 = mul_series(phi, low, phi, low)
        phi3, l3 = mul_series(phi2, l2, phi, low)
        res = {}
        def add_at(e, v):
            if e <= hi:
                res[e] = _qa_add(res.get(e, zero), v)
        for i, v in enumerate(phi3):
            add_at(l3 + i + 2, _qa_scale(v, Fraction(8)))       # 8 t^2 phi^3
        for i, v in enumerate(phi):
            add_at(low + i, _qa_scale(v, Fraction(3)))          # 3 phi
            add_at(low + i + 2, _qa_scale(v, Fraction(-3)))     # -3 t^2 phi
        add_at(0, one)                                          # 1
        add_at(2, _qa_scale(one, Fraction(-1)))                 # -t^2
        r_m = res.get(m, zero)
        coeffs[-1] = _qa_scale(r_m, Fraction(1, 6))
    return coeffs  # entry k is c_{k-1} as (rational, coefficient of a)


SQ38 = math.sqrt(3.0 / 8.0)


class TestPuiseuxAtZero:
    def test_structure(self, golden_cubic):
        branches = puiseux_expand(golden_cubic, 0, 8)
        kinds = sorted((b.e, b.low_exp) for b in branches)
        assert kinds == [(1, 0), (2, -1), (2, -1)]

    def test_regular_branch_values(self, golden_cubic):
        b = [x for x in puiseux_expand(golden_cubic, 0, 8) if x.e == 1][0]
        expect = [Fraction(-1, 3), Fraction(8, 81), Fraction(8, 729)]
        for k, e in enumerate(expect):
            assert abs(b.coefficient(k) - float(e)) < 1e-12

    def test_polar_branches_match_exact_oracle(self, golden_cubic):
        oracle = polar_branch_oracle(8)
        a_val = complex(0, SQ38)
        branches = [b for b in puiseux_expand(golden_cubic, 0, 8) if b.e == 2]
        assert len(branches) == 2
        for sign, b in ((-1, branches[0]), (1, branches[1])):
            for k, (r, s) in enumerate(oracle):
                expect = complex(float(r), 0) + float(s) * (sign * a_val)
                assert abs(b.coefficient(k - 1) - expect) < 1e-10, (k, sign)

    def test_oracle_vs_printed_values(self):
        # the recurrence confirms 1/6, -4/81, 275/1944, -4/729 and
        # adjudicates the t^1 coefficient to (7/18) a, not (17/18) a
        oracle = polar_branch_oracle(7)
        assert oracle[0] == (0, 1)                       # a t^-1
        assert oracle[1] == (Fraction(1, 6), 0)
        assert oracle[2] == (0, Fraction(-7, 18))
        assert oracle[3] == (Fraction(-4, 81), 0)
        assert oracle[4] == (0, Fraction(-275, 1944))
        assert oracle[5] == (Fraction(-4, 729), 0)

    def test_substitution_residual_bound(self, golden_cubic):
        for b in puiseux_expand(golden_cubic, 0, 10):
            val, _rel = branch_residual(golden_cubic, b)
            bound = b.order - golden_cubic.F.degree("z") * abs(b.low_exp)
            assert val is None or val >= bound


class TestPuiseuxAtOne:
    def test_single_three_cycle(self, golden_cubic):
        branches = puiseux_expand(golden_cubic, 1, 6)
        assert all(b.e == 3 for b in branches)
        leads = sorted((b.coefficient(1) for b in branches),
                       key=cmath.phase)
        # leading term (1/2)(u-1)^(1/3): the conjugates are 0.5 * cube roots
        mags = [abs(l) for l in leads]
        assert all(abs(m - 0.5) < 1e-10 for m in mags)
        phases = sorted((cmath.phase(l) % (2 * math.pi)) for l in leads)
        expect = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
        assert all(abs(p - q) < 1e-9 for p, q in zip(phases, expect))

    def test_constant_terms_vanish(self, golden_cubic):
        for b in puiseux_expand(golden_cubic, 1, 6):
            assert abs(b.coefficient(0)) < 1e-12


class TestPuiseuxAtMinusOne:
    def test_fixed_branch(self, golden_cubic):
        branches = puiseux_expand(golden_cubic, -1, 6)
        regular = [b for b in branches if b.e == 1]
        assert len(regular) == 1
        b = regular[0]
        assert abs(b.coefficient(0) - 1.0) < 1e-12
        assert abs(b.coefficient(1) - 2.0 / 9.0) < 1e-12

    def test_two_cycle_pair(self, golden_cubic):
        branches = [b for b in puiseux_expand(golden_cubic, -1, 6) if b.e == 2]
        assert len(branches) == 2
        lead = 1.0 / (2.0 * math.sqrt(6.0))
        seen = sorted(b.coefficient(1).real for b in branches)
        assert abs(seen[0] + lead) < 1e-10
        assert abs(seen[1] - lead) < 1e-10
        for b in branches:
            assert abs(b.coefficient(0) + 0.5) < 1e-12


class TestSimpleCurves:
    def test_square_root_branches(self, sqrt_curve):
        branches = puiseux_expand(sqrt_curve, 0, 6)
        assert [b.e for b in branches] == [2, 2]
        vals = sorted(b.coefficient(1).real for b in branches)
        assert abs(vals[0] + 1) < 1e-12 and abs(vals[1] - 1) < 1e-12

    def test_square_root_infinity(self, sqrt_curve):
        branches = puiseux_expand_at_infinity(sqrt_curve, 6)
        assert sorted(b.e for b in branches) == [2, 2]
        assert all(b.low_exp < 0 for b in branches)

    def test_node_curve_regular(self):
        # z^2 - (1 - u^2): discriminant roots at u = +-1, node-free origin
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        curve = AlgebroidCurve(z * z - (1 - u * u))
        rep = singular_points(curve)
        finite = {round(p.location.real, 6): p for p in rep.points
                  if p.location is not None}
        assert set(finite) == {-1.0, 1.0}
        assert all(p.kind == "critical" and p.cycle_structure == [2]
                   for p in finite.values())
        branches = puiseux_expand(curve, 0, 6)
        assert all(b.e == 1 and b.low_exp >= 0 for b in branches)

    def test_constructor_rejects_zero_p0(self):
        z = MultiPoly.variable("z")
        u = MultiPoly.variable("u")
        with pytest.raises(InvariantViolation):
            AlgebroidCurve.from_p_list([MultiPoly.zero(("u",)),
                                        MultiPoly.constant(1, ("u",)), u])

    def test_constructor_rejects_repeated_factor(self):
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        with pytest.raises(NotSquareFree):
            AlgebroidCurve((z - u) ** 2)


# -- poles: the zero branches of the reversed curve ----------------------------

def _check_at_p0_zero(curve, c, mult, order=12):
    """puiseux_expand at a zero c of p0 of multiplicity `mult`.

    By Vieta, the branches with negative exponents carry the whole zero of
    p0: sum low_exp / e over them is -mult.  Each branch also passes the
    substitution-residual bound of the bench and agrees with a root of
    F(c + delta, .) at a delta well inside the distance to the next
    singular point.
    """
    branches = puiseux_expand(curve, c, order)
    assert sum(Fraction(b.low_exp, b.e) for b in branches if b.low_exp < 0) == -mult
    for b in branches:
        val, _rel = branch_residual(curve, b)
        assert val is None or val >= order - curve.n * max(-b.low_exp, 0)
    dist = min((abs(s - c) for s in curve.singular_locations()
                if abs(s - c) > 1e-8 * max(1.0, abs(c))), default=1.0)
    u = c + 1e-3 * dist * cmath.exp(0.7j)
    roots = curve.roots_at(u)
    for b in branches:
        z = b.eval(u)
        assert min(abs(z - r) for r in roots) < 1e-8 * max(1.0, abs(z))
    return branches


def _probe_curve():
    u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
    return AlgebroidCurve(2 - z + z ** 2 + 3 * z ** 3 + u - u * z - 2 * u * z ** 2
                          - 2 * u * z ** 3)


def _sweep_curves():
    """The first 40 curves with a non-constant p0 that construct: n = 2 or 3,
    the coefficient of each u^j z^i (i <= n, j <= 2) drawn from [-3, 3]."""
    rng = random.Random(5)
    u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
    out = []
    while len(out) < 40:
        n = rng.randint(2, 3)
        F = MultiPoly.zero(("u", "z"))
        for i in range(n + 1):
            for j in range(3):
                F = F + rng.randint(-3, 3) * u ** j * z ** i
        try:
            curve = AlgebroidCurve(F)
        except AatkitError:
            continue
        if curve.p_coeffs[0].degree("u") >= 1:
            out.append(curve)
    return out


class TestPoles:
    def test_probe_pole(self):
        # w = 1/z has valuation 1, but its coefficients grow geometrically:
        # the next singular point, 1.686, is 0.19 away
        curve = _probe_curve()
        point = [p for p in singular_points(curve).points if p.location == 1.5]
        assert [(p.kind, p.source) for p in point] == [("pole", "p0-zero")]
        branches = _check_at_p0_zero(curve, 1.5, 1)
        assert [(b.e, b.low_exp) for b in branches if b.low_exp < 0] == [(1, -1)]

    def test_sweep(self):
        curves = _sweep_curves()
        zeros = 0
        for curve in curves:
            for c, mult in algebroid._distinct_roots_exact(curve.p_coeffs[0], "u"):
                _check_at_p0_zero(curve, c, mult)
                zeros += 1
        assert zeros == 74

    def test_regular_branch_with_large_coefficients(self):
        # F_z along the branch z ~ -2.325 starts at 11.3 while its
        # coefficients reach 4.9e13: the polish must judge each coefficient
        # on its own scale.  The t^8 coefficient is -147542437.077 (mpmath
        # Taylor expansion of the root at 60 digits).
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        curve = AlgebroidCurve(
            -2 - 3 * z + z ** 2 - 2 * z ** 3 + 3 * u - 2 * u * z - 3 * u * z ** 3
            + 3 * u ** 2 + u ** 2 * z - 2 * u ** 2 * z ** 2 + 3 * u ** 2 * z ** 3)
        c = (3 + math.sqrt(33)) / 6
        branches = _check_at_p0_zero(curve, c, 1)
        b = [b for b in branches if abs(b.coefficient(0) + 2.325) < 1e-3]
        assert len(b) == 1 and b[0].low_exp == 0
        assert abs(b[0].coefficient(8) + 147542437.077) < 1e-9 * 1.5e8


def _reference_array(F, u_var, z_var):
    """The deleted algebroid._poly_to_array: H[j, i] = complex(coefficient
    of u^j z^i), as numpy accumulates it."""
    du, dz = max(F.degree(u_var), 0), max(F.degree(z_var), 0)
    out = np.zeros((du + 1, dz + 1), dtype=complex)
    iu = F.vars.index(u_var) if u_var in F.vars else None
    iz = F.vars.index(z_var) if z_var in F.vars else None
    for exps, coeff in F.terms.items():
        out[exps[iu] if iu is not None else 0, exps[iz] if iz is not None else 0] += complex(coeff)
    return out


@pytest.mark.parametrize("center", [0, 1, -2, Fraction(1, 2), Fraction(-5, 3),
                                    0.75 - 0.25j, 1j, 0.3 + 0.1j])
@pytest.mark.parametrize("k", range(3))
def test_exact_recentering_matches_multipoly_shift(k, center):
    # the Gaussian-integer Taylor shift gives the floats of the exact
    # MultiPoly shift F(c + s, z), and its s^0 row the roots of F(c, z)
    u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
    q = lambda a, b=1: MultiPoly.constant(Fraction(a, b), ("u",))
    F = [8 * u * z ** 3 + 3 * (1 - u) * z + (1 - u),
         q(7, 4) + q(9, 4) * z + z ** 3 - q(11, 8) * u * u + q(11, 4) * u * z ** 2,
         q(1, 3) * u ** 3 * z ** 2 - z + u][k]
    curve = AlgebroidCurve(F)
    H, h0 = algebroid._local_array(curve, center)
    c = algebroid._as_exact(center)
    assert (h0 is None) == (c is None)
    if c is None:
        return
    want = _reference_array(curve.F.shift_var("u", c), "u", "z")
    assert repr(H.tolist()) == repr(want.tolist())
    fibre = curve.F.substitute_var("u", MultiPoly.constant(c, ("u",))).with_vars(("z",))
    assert repr(algebroid._roots_zi(*h0)) == repr(algebroid._distinct_roots_exact(fibre, "z"))


class TestSquareFreeCheck:
    """The constructor proves square-freeness at one integer u0 and runs the
    bivariate GCD only when no tried u0 gives that proof."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count the univariate GCDs at tried points and the bivariate GCDs."""
        seen = {"zi_gcd": 0, "poly_gcd": 0}

        def counting(name):
            real = getattr(algebroid, name)

            def wrapper(*args):
                seen[name] += 1
                return real(*args)
            return wrapper
        for name in seen:
            monkeypatch.setattr(algebroid, name, counting(name))
        return seen

    @staticmethod
    def uz():
        return MultiPoly.variable("u"), MultiPoly.variable("z")

    def test_repeated_factor_is_named(self, calls):
        u, z = self.uz()
        with pytest.raises(NotSquareFree) as exc:
            AlgebroidCurve((z - u) ** 2 * (z + 1))
        want = monic_lex((z - u).with_vars(("u", "z")))
        assert str(exc.value) == f"repeated factor in z: {want!r}"
        assert calls == {"zi_gcd": len(algebroid._SQF_POINTS), "poly_gcd": 1}

    def test_u_content_factor_constructs(self, calls):
        u, z = self.uz()
        curve = AlgebroidCurve((u - 1) * (z ** 2 - u))
        assert curve.n == 2
        assert calls["poly_gcd"] == 0
        # the bivariate check agrees: the u-only factor is not repeated in z
        g = poly_gcd(curve.F, curve.F.derivative("z"))
        assert g.degree("z") == 0

    def test_specialization_moves_past_bad_points(self, calls):
        # F(u0, z) = z^2 at u0 = 0, 1, -1; the proof comes at u0 = 2
        u, z = self.uz()
        AlgebroidCurve(z ** 2 - u * (u - 1) * (u + 1))
        assert algebroid._SQF_POINTS[:4] == (0, 1, -1, 2)
        assert calls == {"zi_gcd": 4, "poly_gcd": 0}

    def test_p0_vanishing_at_first_point_is_skipped(self, calls):
        u, z = self.uz()
        assert algebroid._SQF_POINTS[0] == 0
        AlgebroidCurve(u * z ** 2 - 1)
        assert calls == {"zi_gcd": 1, "poly_gcd": 0}

    def test_specialization_never_rejects(self, calls):
        # disc_z = 4 prod (u - u0) vanishes at every tried point, yet F is
        # square-free: the bivariate GCD must decide, and accept
        u, z = self.uz()
        disc_zero = MultiPoly.constant(1, ("u",))
        for u0 in algebroid._SQF_POINTS:
            disc_zero = disc_zero * (u - u0)
        curve = AlgebroidCurve(z ** 2 - disc_zero)
        assert curve.n == 2
        assert calls == {"zi_gcd": len(algebroid._SQF_POINTS), "poly_gcd": 1}

    def test_extra_variable_is_rejected(self, calls):
        # a variable other than u and z of positive degree is a typed error
        # before any check runs (it once reached the bivariate GCD)
        u, z = self.uz()
        w, t = MultiPoly.variable("w"), MultiPoly.variable("t")
        for F, names in [(z ** 2 - u * w, "w"), ((z - w) ** 2 * (z - u), "w"),
                         (z ** 2 - u + t * w, "t, w")]:
            with pytest.raises(InvariantViolation, match=f"other variables: {names}$"):
                AlgebroidCurve(F)
        assert calls == {"zi_gcd": 0, "poly_gcd": 0}

    def test_degree_zero_variable_is_allowed(self, calls):
        # a variable of degree 0 is dead: the specialization proof runs
        # (F(0, z) = z^2 is not square-free, F(1, z) is)
        u, z = self.uz()
        curve = AlgebroidCurve((z ** 2 - u).with_vars(("t", "u", "z")))
        assert curve.n == 2 and curve.F.vars == ("t", "u", "z")
        assert calls == {"zi_gcd": 2, "poly_gcd": 0}
        assert [b.coeffs[0] for b in puiseux_expand(curve, 1, 4)] == [-1, 1]


def _squarefree_draw():
    """300 curves with coefficients in [-3, 3]: of degree 2-3 in z and at
    most 2 in u, every fifth times a u-only square (u - c)^2; every fourth
    one instead (z - a - b u)^2 times a factor of degree 1-2 in z and 0-1
    in u."""
    rng = random.Random(11)
    u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
    out = []
    for k in range(300):
        repeated = k % 4 == 0
        n = rng.randint(1, 2) if repeated else rng.randint(2, 3)
        F = MultiPoly.zero(("u", "z"))
        for i in range(n + 1):
            for j in range(rng.randint(1, 2) if repeated else 3):
                F = F + rng.randint(-3, 3) * u ** j * z ** i
        if repeated:
            F = F * (z - rng.randint(-2, 2) - rng.randint(-2, 2) * u) ** 2
        elif k % 5 == 0:
            F = F * (u - rng.randint(-2, 2)) ** 2
        out.append(F)
    return out


def test_squarefree_proof_matches_discriminant():
    # the specialization reads F(u0, z) by a Gaussian-integer Horner: each
    # curve is accepted exactly when disc_z F is not zero, else rejected
    # with the message naming gcd(F, F_z); the Horner rows are the s^0 rows
    # of the Taylor shift at u0
    verdicts = {"accepted": 0, "rejected": 0}
    for F in _squarefree_draw():
        F = F.with_vars(("u", "z"))
        if discriminant(F, "z").is_zero():
            g = poly_gcd(F, F.derivative("z"))
            with pytest.raises(NotSquareFree) as exc:
                AlgebroidCurve(F)
            assert str(exc.value) == f"repeated factor in z: {g!r}"
            verdicts["rejected"] += 1
            continue
        curve = AlgebroidCurve(F)
        cols = algebroid._zi_columns(curve)[1]
        for u0 in algebroid._SQF_POINTS:
            shifted = algebroid._exact_shift(curve, ExactScalar(u0))[1]
            assert [zi_horner(c, (u0, 0)) for c in cols] == [c[0] for c in shifted]
        verdicts["accepted"] += 1
    assert verdicts == {"accepted": 225, "rejected": 75}


class TestSingularReport:
    def test_reference_cubic_inventory(self, golden_cubic):
        rep = singular_points(golden_cubic)
        by_loc = {}
        inf = None
        for p in rep.points:
            if p.location is None:
                inf = p
            else:
                by_loc[round(p.location.real, 8)] = p
        assert set(by_loc) == {-1.0, 0.0, 1.0}
        assert by_loc[0.0].kind == "pole-and-branch"
        assert by_loc[0.0].cycle_structure == [2, 1]
        assert by_loc[0.0].source == "p0-zero"
        assert by_loc[1.0].kind == "critical"
        assert by_loc[1.0].cycle_structure == [3]
        assert by_loc[-1.0].kind == "critical"
        assert by_loc[-1.0].cycle_structure == [2, 1]
        assert inf is not None
        assert inf.cycle_structure == [1, 1, 1]

    def test_cycle_structure_sums_to_n(self, golden_cubic, sqrt_curve):
        for curve in (golden_cubic, sqrt_curve):
            for p in singular_points(curve).points:
                assert sum(p.cycle_structure) == curve.n

    def test_square_root_poles_at_infinity(self, sqrt_curve):
        rep = singular_points(sqrt_curve)
        inf = [p for p in rep.points if p.location is None][0]
        assert inf.kind == "pole-and-branch"
        assert inf.cycle_structure == [2]


class TestTracking:
    def test_square_root_monodromy_by_hand(self, sqrt_curve):
        circle = [cmath.exp(2j * math.pi * k / 64) for k in range(65)]
        z_end = track_branch(sqrt_curve, 1.0, circle)
        assert abs(z_end + 1.0) < 1e-8

    def test_track_then_reverse(self, golden_cubic):
        path = [3.0, 2.5 + 1.0j, 0.5 + 2.0j]
        start = complex(golden_cubic.roots_at(3.0)[0])
        fwd = track_branch(golden_cubic, start, path)
        back = track_branch(golden_cubic, fwd, path[::-1])
        assert abs(back - start) < 1e-8

    def test_segment_matches_newton_oracle(self, golden_cubic):
        # straight segment in a singularity-free region
        path = [3.0, 3.0 + 1.5j]
        start = complex(golden_cubic.roots_at(3.0)[1])
        got = track_branch(golden_cubic, start, path)
        roots = golden_cubic.roots_at(3.0 + 1.5j)
        best = min(roots, key=lambda r: abs(r - got))
        assert abs(got - best) < 1e-9

    def test_clearance_violation(self, golden_cubic):
        with pytest.raises(NearSingular):
            start = complex(golden_cubic.roots_at(3.0)[0])
            track_branch(golden_cubic, start, [3.0, 0.0])

    def test_isolated_branch_returns_to_itself(self, golden_cubic):
        # small loop around u = -1: the branch through z = 1 is fixed
        center = -1.0
        r = 0.25
        circle = [center + r * cmath.exp(2j * math.pi * k / 48)
                  for k in range(49)]
        roots = golden_cubic.roots_at(circle[0])
        fixed = min(roots, key=lambda z: abs(z - 1.1))  # near the z=1 branch
        out = track_branch(golden_cubic, complex(fixed), circle)
        assert abs(out - fixed) < 1e-8


class TestMonodromy:
    def test_reference_cycles(self, golden_cubic):
        assert monodromy(golden_cubic, 3.0, 1.0).cycle_type() == [3]
        assert monodromy(golden_cubic, 3.0, -1.0).cycle_type() == [2, 1]
        assert monodromy(golden_cubic, 3.0, 0.0).cycle_type() == [2, 1]

    def test_regular_loop_is_identity(self, golden_cubic):
        assert monodromy(golden_cubic, 3.0, 5.0).is_identity()

    def test_product_of_loops_matches_big_circle(self, golden_cubic):
        # loops sorted by argument from a common off-axis base compose to
        # the big-circle permutation = inverse of the loop at infinity
        base = 2.5j
        sing = golden_cubic.singular_locations()
        perms = [monodromy(golden_cubic, base, s).perm
                 for s in sorted(sing, key=lambda s: cmath.phase(s - base))]
        prod = perms[0]
        for q in perms[1:]:
            prod = compose_permutations(prod, q)
        big = _big_circle_perm(golden_cubic, base, 3.0)
        assert prod == big

    def test_product_invariant_square_root(self, sqrt_curve):
        base = 1.5j
        perms = [monodromy(sqrt_curve, base, s).perm
                 for s in sqrt_curve.singular_locations()]
        prod = perms[0]
        for q in perms[1:]:
            prod = compose_permutations(prod, q)
        big = _big_circle_perm(sqrt_curve, base, 2.0)
        assert prod == big
        assert prod == (1, 0)  # matches the 2-cycle at infinity, inverted


class _FixedRoots:
    """Stands in for a curve whose F(u, .) has the given roots at every u."""

    def __init__(self, roots):
        self.roots = [complex(r) for r in roots]

    def z_coeffs_at(self, u):
        return [complex(c) for c in np.poly(self.roots)[::-1]]

    def roots_at(self, u):
        return np.array(self.roots)


class TestNearestRootGuard:
    Z = 0.3 + 0.2j

    @pytest.fixture
    def exact_only(self, monkeypatch):
        # switch the certified fast path off so only the roots_at test runs
        monkeypatch.setattr(algebroid, "_separation_bound", lambda cs, z0: 0.0)

    def test_own_root_copy_is_not_a_neighbour(self, exact_only):
        # np.roots' copy of the branch's own root sits ~1e-11 from z_corr
        curve = _FixedRoots([self.Z + 1e-11, 4.0, -4.0j])
        z_pred = self.Z + 2e-9
        assert algebroid._nearest_root_guard(curve, 0j, curve.z_coeffs_at(0j),
                                              z_pred, self.Z)

    def test_fast_path_accepts_the_same_step(self):
        curve = _FixedRoots([self.Z + 1e-11, 4.0, -4.0j])
        assert algebroid._separation_bound(curve.z_coeffs_at(0j), self.Z) > 0.1
        assert algebroid._nearest_root_guard(curve, 0j, curve.z_coeffs_at(0j),
                                              self.Z + 2e-9, self.Z)

    @pytest.mark.parametrize("fast", [True, False])
    def test_large_step_next_to_a_neighbour_rejected(self, request, fast):
        if not fast:
            request.getfixturevalue("exact_only")
        curve = _FixedRoots([self.Z + 1e-11, self.Z + 0.1, -4.0])
        z_pred = self.Z + 0.05j  # d_corr = 0.05 > 0.45 * 0.1
        assert not algebroid._nearest_root_guard(curve, 0j, curve.z_coeffs_at(0j),
                                                  z_pred, self.Z)

    def test_root_collision_does_not_pass(self):
        # two roots within 1e-12 of z_corr: only one of them is the own root
        curve = _FixedRoots([self.Z, self.Z + 5e-13, 4.0])
        assert algebroid._separation_bound(curve.z_coeffs_at(0j), self.Z) == 0.0
        assert not algebroid._nearest_root_guard(curve, 0j, curve.z_coeffs_at(0j),
                                                  self.Z + 1e-6, self.Z)


class TestPairwiseGuard:
    # the lockstep guard of `monodromy`, on the TestNearestRootGuard layouts
    Z = 0.3 + 0.2j

    def test_small_corrections_accepted(self):
        corrs = [self.Z, 4.0, -4.0j]
        preds = [self.Z + 2e-9, 4.0 + 1e-9, -4.0j]
        assert algebroid._pairwise_guard(preds, corrs)

    def test_neighbour_at_5e_13_rejects(self):
        # two sheets 5e-13 apart after correction: a 1e-6 correction fails
        corrs = [self.Z, self.Z + 5e-13, 4.0]
        preds = [self.Z + 1e-6, self.Z + 5e-13, 4.0]
        assert not algebroid._pairwise_guard(preds, corrs)

    def test_large_step_next_to_a_neighbour_rejected(self):
        corrs = [self.Z, self.Z + 0.1, -4.0]
        preds = [self.Z + 0.05j, self.Z + 0.1, -4.0]  # 0.05 > 0.45 * 0.1
        assert not algebroid._pairwise_guard(preds, corrs)


def test_step_budget_monodromy(golden_cubic, monkeypatch):
    # deterministic stand-in for a timing test: lockstep tracking finds
    # the roots at the base point and no others, and needs no Rouche bound
    calls = {"roots_at": [], "separation": 0}
    roots_at, bound = AlgebroidCurve.roots_at, algebroid._separation_bound

    def counting_roots_at(self, u):
        calls["roots_at"].append(u)
        return roots_at(self, u)

    def counting_bound(*args):
        calls["separation"] += 1
        return bound(*args)

    monkeypatch.setattr(AlgebroidCurve, "roots_at", counting_roots_at)
    monkeypatch.setattr(algebroid, "_separation_bound", counting_bound)
    assert monodromy(golden_cubic, 3.0, 1.0).perm == (2, 0, 1)
    assert calls == {"roots_at": [3.0], "separation": 0}


class TestLockstep:
    def test_loop_around_a_close_pair(self):
        # the discriminant root ~0.28178 has the p0 zero ~0.28078 1e-3 away;
        # the circle radius 5e-4 is below the old fixed clearance margin
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        curve = AlgebroidCurve(
            3 - 3 * z + z ** 2 + z ** 3 - 2 * u * z - 3 * u * z ** 2
            - 3 * u * z ** 3 + 2 * u ** 2 * z + u ** 2 * z ** 2 - 2 * u ** 2 * z ** 3)
        around = min(curve.singular_locations(), key=lambda s: abs(s - 0.28178))
        assert min(abs(s - around) for s in curve.singular_locations()
                   if s != around) < 2e-3
        perms = [monodromy(curve, 2 + 1j, around, nodes=k).perm for k in (48, 96)]
        assert perms == [(1, 0, 2), (1, 0, 2)]

    def test_loop_around_a_pole(self):
        # a sheet runs off to infinity near the pole u = 1.5; all sheets
        # moving together keep the matching unambiguous
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        curve = AlgebroidCurve(-1 + 3 * z ** 2 - 2 * u + u * z - 2 * u * z ** 2)
        for nodes in (48, 96, 192):
            assert monodromy(curve, 2.5j, 1.5, nodes=nodes).is_identity()
        # the loop product equals the inverse loop at infinity, whose
        # cycle structure is [1, 1]
        sing = sorted(curve.singular_locations(),
                      key=lambda s: cmath.phase(s - 2.5j))
        perms = [monodromy(curve, 2.5j, s).perm for s in sing]
        prod = perms[0]
        for q in perms[1:]:
            prod = compose_permutations(prod, q)
        assert prod == (0, 1)

    def test_track_branch_bits_unchanged(self, golden_cubic):
        # end values of the sheet-by-sheet tracker before the lockstep loop
        starts = sorted((complex(r) for r in golden_cubic.roots_at(3.0)),
                        key=lambda w: (w.real, w.imag))
        got = [repr(track_branch(golden_cubic, s, [3.0, 2.5 + 1.0j, 0.5 + 2.0j]))
               for s in starts]
        assert got == ["(-0.3827946218840093-0.2780710057713326j)",
                       "(-0.33702392653820534+0.12313487401550335j)",
                       "(0.7198185484222581+0.15493613175583631j)"]
        path, _rel = algebroid._loop_path(3.0 + 0j, 1.0 + 0j,
                                          golden_cubic.singular_locations(), 48)
        assert repr(track_branch(golden_cubic, starts[1], path)) == \
            "(-0.3100029524294043-0.19571788764659923j)"


def _pool_curves():
    """The bench's curve pool under its seed-1 affine maps u -> au + b,
    with the seed-1 base angles."""
    u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
    pool = [8 * u * z ** 3 + 3 * (1 - u) * z + (1 - u),
            z ** 3 + (2 * u - 1) * z ** 2 + (3 - u) * z + (1 + u),
            z ** 2 + (2 - u) * z + (2 * u - 1)]
    maps = [(0, 1, 0, 0.5897), (0, Fraction(-5, 8), 0, 0.1781),
            (1, Fraction(-11, 8), Fraction(3, 4), 5.2513),
            (2, Fraction(5, 4), Fraction(-1, 4), 2.7192)]
    out = []
    for k, a, b, theta in maps:
        image = MultiPoly.constant(a, ("u",)) * u + MultiPoly.constant(b, ("u",))
        curve = AlgebroidCurve(pool[k].substitute_var("u", image))
        sing = curve.singular_locations()
        center = sum(sing) / len(sing)
        rho = 1.5 * max(abs(s - center) for s in sing)
        out.append((curve, center + rho * cmath.exp(1j * theta)))
    return out


@pytest.mark.parametrize("case", range(7))
def test_lockstep_matches_sheet_by_sheet(case, golden_cubic, sqrt_curve):
    # every sheet tracked alone by the public track_branch along the same
    # loop (restarting its step on every segment) gives the permutation of
    # the lockstep loop (carrying its step), at 16, 48, 96 and 192 nodes
    u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
    curve, base = ([(golden_cubic, 3.0 + 0j), (sqrt_curve, 1.5j),
                    (AlgebroidCurve(z * z - (1 - u * u)), 0.5 + 1.5j)]
                   + _pool_curves())[case]
    sing = curve.singular_locations()
    starts = sorted((complex(r) for r in curve.roots_at(base)),
                    key=lambda w: (round(w.real, 10), round(w.imag, 10)))
    for nodes in (16, 48, 96, 192):
        for around in sing:
            path, rel = algebroid._loop_path(base, around, sing, nodes)
            ends = [track_branch(curve, s, path, clearance_rel=rel, singular=sing)
                    for s in starts]
            perm = tuple(min(range(len(starts)), key=lambda i: abs(e - starts[i]))
                         for e in ends)
            assert all(abs(e - starts[i]) < 1e-8 for e, i in zip(ends, perm))
            assert monodromy(curve, base, around, nodes=nodes).perm == perm


def test_step_budget_bench_loops(monkeypatch):
    # the carried, distance-capped step on the default 16-gon, whose chords
    # fit under the step cap: the 12 loops of the seed-1 bench curves take
    # 318 guard calls (700 on a 48-gon; 6,019 when every segment restarted
    # at 1% of its length)
    calls = []
    guard = algebroid._pairwise_guard

    def counting_guard(preds, corrs):
        calls.append(len(preds))
        return guard(preds, corrs)

    monkeypatch.setattr(algebroid, "_pairwise_guard", counting_guard)
    loops = 0
    for curve, base in _pool_curves():
        for around in curve.singular_locations():
            monodromy(curve, base, around)
            loops += 1
    assert loops == 12
    assert len(calls) <= 400


class TestStems:
    """`_safe_stem` clears every singular point along the whole stem."""

    def test_singular_point_next_to_the_circle_start(self):
        # from the CLI default base the straight stem runs along the real
        # axis through the discriminant root 1.5747 at 99% of its length
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        curve = AlgebroidCurve(-1 + 3 * z ** 2 - 2 * u + u * z - 2 * u * z ** 2)
        sing = curve.singular_locations()
        base = cli._default_monodromy_base(curve, 1.5)
        path, _rel = algebroid._loop_path(base, 1.5 + 0j, sing, 48)
        hit = min(sing, key=lambda s: abs(s - 1.5747))
        assert abs(hit - 1.5747) < 1e-4 and abs(base.imag) < 1e-12
        assert all(abs(algebroid._foot(s, a, b) - s) > 1e-3
                   for a, b in zip(path, path[1:]) for s in sing)
        assert monodromy(curve, base, 1.5).is_identity()

    def test_stem_through_a_node(self):
        # the straight stem of this loop runs through the node u = 1, where
        # two sheets meet without ramification; crossing it swapped them
        curve = _sweep_curves()[13]
        around = min(curve.singular_locations(), key=lambda s: abs(s - 0.74597))
        base = cli._default_monodromy_base(curve, around)
        assert monodromy(curve, base, around).cycle_type() == [2]

    def test_no_detour_around_the_loop_center(self):
        # the center lies on the stem's line just past the circle start,
        # within the margin: it is passed at half its distance, not detoured
        stem = algebroid._safe_stem(4 + 0j, 1.1 + 0j, [1 + 0j], 0.5)
        assert stem == [4 + 0j, 1.1 + 0j]
        # a singular point on the stem near its end is detoured
        stem = algebroid._safe_stem(4 + 0j, 1.1 + 0j, [1 + 0j, 1.14 + 0j], 0.5)
        assert len(stem) > 2
        assert all(abs(algebroid._foot(1.14, a, b) - 1.14) > 0.01
                   for a, b in zip(stem, stem[1:]))


def test_sweep_monodromy_matches_singular_points():
    # every finite singular point of the 40 sweep curves, from the CLI
    # default base: the loop's cycle type is the branch cycle structure
    loops = 0
    for curve in _sweep_curves():
        for p in singular_points(curve).points:
            if p.location is None:
                continue
            base = cli._default_monodromy_base(curve, p.location)
            assert monodromy(curve, base, p.location).cycle_type() == \
                p.cycle_structure, (curve.F, p.location)
            loops += 1
    assert loops == 309


def _big_circle_perm(curve, base, radius):
    theta0 = cmath.phase(base)
    circle = [radius * cmath.exp(1j * (theta0 + 2 * math.pi * k / 96))
              for k in range(97)]
    path = [base] + circle + [base]
    starts = sorted((complex(r) for r in curve.roots_at(base)),
                    key=lambda w: (round(w.real, 10), round(w.imag, 10)))
    ends = [track_branch(curve, s, path) for s in starts]
    return tuple(next(i for i, s in enumerate(starts) if abs(e - s) < 1e-8)
                 for e in ends)


def _multipoly_newton(curve, center, z0, order):
    """The Newton iteration of exact_branch_element on MultiPoly.shift_var
    and MultiPoly.substitute, as the reference."""
    c, z0 = ExactScalar.coerce(center), ExactScalar.coerce(z0)
    F_loc = curve.F.shift_var(curve.u_var, c)
    Fz_loc = F_loc.derivative(curve.z_var)
    x = TruncSeries.identity(c, order, exact=True)
    one = TruncSeries.const(1, c, order, exact=True)
    z = TruncSeries.const(z0, c, order, exact=True)
    for _ in range(max(1, math.ceil(math.log2(max(order, 2))) + 1)):
        fval = F_loc.substitute({curve.u_var: x, curve.z_var: z}, one)
        dval = Fz_loc.substitute({curve.u_var: x, curve.z_var: z}, one)
        z = (z - fval / dval).truncate(order)
    return z


class TestExactElement:
    def test_coefficients(self, golden_cubic):
        el = exact_branch_element(golden_cubic, 0, Fraction(-1, 3), 6)
        assert [c.re for c in el.coeffs[:3]] == \
            [Fraction(-1, 3), Fraction(8, 81), Fraction(8, 729)]

    @pytest.mark.parametrize("order", [1, 2, 7, 16])
    @pytest.mark.parametrize("case", ["golden", "square", "cube"])
    def test_matches_multipoly_newton(self, golden_cubic, case, order):
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        curve, center, z0 = {
            "golden": (golden_cubic, 0, Fraction(-1, 3)),
            "square": (AlgebroidCurve(z ** 2 - 2 * u), Fraction(1, 2), -1),
            "cube": (AlgebroidCurve(z ** 3 - 2 * u), Fraction(1, 2), 1)}[case]
        got = exact_branch_element(curve, center, z0, order)
        want = _multipoly_newton(curve, center, z0, order)
        assert (got.center, got.low, got.order, got.exact) == \
            (want.center, want.low, want.order, True)
        assert got.coeffs == want.coeffs

    @pytest.mark.parametrize("center,order,error", [
        (Fraction(1, 2), 0, OrderTooLow), (0.5, 4, SchemaError)])
    def test_typed_errors(self, center, order, error):
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        with pytest.raises(error):
            exact_branch_element(AlgebroidCurve(z ** 2 - 2 * u), center, 1, order)

    def test_rejects_non_root(self, golden_cubic):
        with pytest.raises(SingularCenter):
            exact_branch_element(golden_cubic, 0, Fraction(1, 2), 6)

    def test_rejects_ramified(self, golden_cubic):
        with pytest.raises(SingularCenter):
            exact_branch_element(golden_cubic, 1, 0, 6)


# -- the polygon pass and the integer rows ------------------------------------

def _reference_rows(P, u_var="u", z_var="z"):
    """The deleted _poly_to_rows: the rows of _reference_array."""
    A = _reference_array(P, u_var, z_var)
    return tuple(tuple(complex(c) for c in A[::-1, i])
                 for i in range(A.shape[1] - 1, -1, -1))


def _reference_at_infinity(curve):
    """The old at_infinity: the curve rebuilt by from_p_list."""
    d = max(p.degree(curve.u_var) for p in curve.p_coeffs)
    return AlgebroidCurve.from_p_list(
        [MultiPoly((curve.u_var,), {(d - k,): c for k, c in
                                    enumerate(p.univariate_coeffs(curve.u_var))})
         for p in curve.p_coeffs], curve.u_var, curve.z_var)


def _reference_classify(systems):
    """singular_points' classification over computed BranchSystems."""
    has_pole = any(s.low < 0 for s in systems)
    has_cycle = any(s.e > 1 for s in systems)
    kind = ("pole-and-branch" if has_pole and has_cycle else "pole" if has_pole
            else "critical" if has_cycle else "regular-for-some-branches")
    return kind, sorted((s.e for s in systems), reverse=True)


def _rows_match(curve):
    F, u, z = curve.F, curve.u_var, curve.z_var
    want = tuple(_reference_rows(P, u, z) for P in (F, F.derivative(u), F.derivative(z)))
    fresh = AlgebroidCurve(F, u, z)   # _num() is cached per curve
    return repr(fresh._num()) == repr(want)


_gauss = st.builds(lambda a, b, c, d: ExactScalar(Fraction(a, b), Fraction(c, d)),
                   st.integers(-9, 9), st.integers(1, 7),
                   st.sampled_from([0, 0, 1, -3, 5]), st.integers(1, 5))


@st.composite
def _row_curves(draw):
    """F = sum c_ji u^j z^i, n <= 3, degree <= 3 in u, Gaussian c_ji; with
    constant p0, and with the top u-degree only in the z^0 column (so F_z
    has a lower u-degree than F), each drawn often."""
    n, du = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    const_p0, top_at_z0 = draw(st.booleans()), draw(st.booleans())
    terms = {}
    for i in range(n + 1):
        top = 0 if i == n and const_p0 else du - 1 if i and top_at_z0 and du else du
        for j in range(top + 1):
            if draw(st.booleans()):
                terms[(j, i)] = draw(_gauss)
    terms[(0, n)] = draw(_gauss.filter(lambda c: not c.is_zero()))
    if top_at_z0 or not terms.get((du, 0)):
        terms[(du, 0)] = draw(_gauss.filter(lambda c: not c.is_zero()))
    try:
        return AlgebroidCurve(MultiPoly(("u", "z"), terms))
    except AatkitError:
        assume(False)


class TestIntegerRows:
    """_num() and at_infinity() read the integer columns, not MultiPoly."""

    def test_sweep_and_pool_rows(self):
        for curve in _sweep_curves() + [c for c, _base in _pool_curves()]:
            assert _rows_match(curve), curve.F
            assert _rows_match(curve.at_infinity()), curve.F

    @settings(max_examples=150, deadline=None)
    @given(_row_curves())
    def test_drawn_rows(self, curve):
        assert _rows_match(curve)

    def test_drawn_shapes_are_covered(self):
        # the shapes the draw is for: constant p0, F_u = 0, and F_z of
        # lower u-degree than F
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        half = ExactScalar(Fraction(1, 2), Fraction(-1, 3))
        for F in (z ** 3 - half * u ** 2 + u * z, z ** 2 + half * z - 3,
                  (1 + u) * z ** 2 + z - half * u ** 3):
            assert _rows_match(AlgebroidCurve(F))
        rows_u = AlgebroidCurve(z ** 2 + half * z - 3)._num()[1]
        assert rows_u == ((0j,),)

    def test_float_center_local_arrays(self):
        # at an inexact center the local array is the old one: each z^i
        # column of _reference_array Taylor-shifted in u
        center = complex(math.pi / 7, math.e / 5)
        assert algebroid._as_exact(center) is None
        for curve in _sweep_curves() + [c for c, _base in _pool_curves()]:
            H, h0 = algebroid._local_array(curve, center)
            arr = _reference_array(curve.F, "u", "z")
            want = np.zeros_like(arr)
            for i in range(arr.shape[1]):
                want[:, i] = taylor_shift(arr[:, i], center)
            assert h0 is None and repr(H.tolist()) == repr(want.tolist())

    def test_at_infinity_matches_from_p_list(self, golden_cubic, sqrt_curve):
        curves = [golden_cubic, sqrt_curve] + _sweep_curves() + \
            [c for c, _base in _pool_curves()]
        for curve in curves:
            got, want = curve.at_infinity(), _reference_at_infinity(curve)
            assert got.F == want.F and got.F.vars == want.F.vars
            assert [repr(p) for p in got.p_coeffs] == [repr(p) for p in want.p_coeffs]

    def test_no_multipoly_arithmetic(self, monkeypatch):
        curves = _sweep_curves() + [c for c, _base in _pool_curves()]
        fresh = [AlgebroidCurve(c.F) for c in curves]
        calls = []
        for name in ("derivative", "__mul__", "__pow__"):
            def spy(*args, name=name, orig=getattr(MultiPoly, name)):
                calls.append(name)
                return orig(*args)
            monkeypatch.setattr(MultiPoly, name, spy)
        for curve in fresh:
            curve._num()
            curve.at_infinity()._num()
        assert calls == []
        MultiPoly.variable("u") * 2   # the spy itself is live
        assert calls == ["__mul__"]

    def test_columns_once_per_curve(self, monkeypatch):
        # the square-free proof, singular_points, _num() and puiseux_expand
        # at exact centers all read the (D, cols) the constructor computed
        calls = []

        def spy(curve, orig=algebroid._zi_columns):
            calls.append(curve)
            return orig(curve)

        monkeypatch.setattr(algebroid, "_zi_columns", spy)
        for F in [c.F for c in _sweep_curves()[:8] + [c for c, _base in _pool_curves()]]:
            calls.clear()
            curve = AlgebroidCurve(F)
            report = singular_points(curve)
            curve._num()
            centers = [p.location for p in report.points if p.location is not None]
            for center in centers + [Fraction(1, 3), 0]:
                if algebroid._as_exact(center) is not None:
                    puiseux_expand(curve, center, 6)
            assert calls.count(curve) == 1, F
            assert all(calls.count(c) == 1 for c in calls), F


class TestPolygonOnly:
    """singular_points reads each system's e and low from the polygon."""

    def test_matches_classify_over_expand_systems(self):
        for curve in _sweep_curves() + [c for c, _base in _pool_curves()]:
            for p in singular_points(curve).points:
                systems = (algebroid.expand_systems(curve, p.location, order=8)
                           if p.location is not None else
                           algebroid.expand_systems(curve.at_infinity(), 0, order=8))
                assert (p.kind, p.cycle_structure) == _reference_classify(systems), \
                    (curve.F, p.location)

    def test_no_coefficient_work(self, golden_cubic, monkeypatch):
        calls = []
        for name in ("_newton_series", "_polish", "array_inverse"):
            def spy(*args, name=name, orig=getattr(algebroid, name)):
                calls.append(name)
                return orig(*args)
            monkeypatch.setattr(algebroid, name, spy)
        curves = [golden_cubic, _probe_curve()] + _sweep_curves()[:10] + \
            [c for c, _base in _pool_curves()]
        for curve in curves:
            singular_points(curve)
        assert calls == []
        # the same spies see the work of expand_systems
        algebroid.expand_systems(golden_cubic, 0, order=8)
        assert {"_newton_series", "_polish", "array_inverse"} <= set(calls)

    def test_live_variable_is_a_typed_error(self):
        # a curve in u, z and a live parameter t was expanded as if t = 1
        u, z, t = (MultiPoly.variable(v) for v in "uzt")
        with pytest.raises(InvariantViolation, match="other variables: t"):
            AlgebroidCurve(z ** 2 - u + t)
        with pytest.raises(InvariantViolation, match="other variables: t"):
            AlgebroidCurve.from_p_list([MultiPoly.constant(1, ("u",)),
                                        MultiPoly.zero(("u",)), t - u])
