"""Period detection, root supply, and the lattice fit."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from aatkit import period
from aatkit.errors import AllPointsSingular, InsufficientRoots
from aatkit.functions import FunctionSpec
from aatkit.period import (
    DEFAULT_REGION,
    _ROOT_RESIDUAL,
    _ROOT_SEPARATION,
    Region,
    _draw_regular_shift,
    _newton_lockstep,
    _reduce_candidates,
    find_roots,
    forsyth_fit,
    verify_period,
    weierstrass_period,
)
from aatkit.poly import MultiPoly


def _scalar_newton(f, C, z, iters=40):
    """Per-seed Newton, one seed at a time (the reference for the lockstep
    search)."""
    for _ in range(iters):
        if not f.is_regular(z):
            return None
        g = f.eval(z) - C
        if abs(g) < 1e-13 * max(1.0, abs(C)):
            return z
        d = f.eval_deriv(z)
        if d == 0 or not np.isfinite(abs(d)):
            return None
        step = g / d
        if abs(step) > 10.0:
            step = step / abs(step) * 10.0
        z = z - step
        if not np.isfinite(abs(z)):
            return None
    g = f.eval(z) - C
    return z if abs(g) < 1e-11 * max(1.0, abs(C)) else None


def _scalar_roots_in_region(f, C, reg):
    nx = max(18, min(42, int(1.2 * (reg.x1 - reg.x0))))
    ny = max(7, min(26, int(1.2 * (reg.y1 - reg.y0))))
    scale = max(1.0, abs(C))
    found = []
    for x in np.linspace(reg.x0, reg.x1, nx):
        for y in np.linspace(reg.y0, reg.y1, ny):
            z = complex(x, y)
            if not f.is_regular(z):
                continue
            r = _scalar_newton(f, C, z)
            if r is None or not reg.contains(r, pad=1e-9):
                continue
            if abs(f.eval(r) - C) > _ROOT_RESIDUAL * scale:
                continue
            if all(abs(r - s) > _ROOT_SEPARATION for s in found):
                found.append(r)
    found.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return found


def _random_spec(rng, i):
    kind = i % 4
    if kind == 0:
        return FunctionSpec.builtin(rng.choice(("exp", "sin", "cos", "tan")))
    if kind == 1:
        return FunctionSpec.builtin(rng.choice(("exp", "sin", "cos", "tan"))).translate(
            complex(round(rng.uniform(-2, 2), 3), round(rng.uniform(-1, 1), 3)))
    u = MultiPoly.variable("u")
    if kind == 2:
        # a Moebius map (c != 0, ad - bc != 0)
        a, b, d = (Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        if a * d == b * c:
            d += 1
        return FunctionSpec.rational(a * u + b, c * u + d)
    # a quadratic over a linear polynomial: two roots per value
    return FunctionSpec.rational(u * u + rng.randint(-3, 3), u + rng.randint(-3, 3))


class TestFindRoots:
    def test_sin_arcsine_families(self, sin_spec):
        # closed-form oracle: v = arcsin(1/2) + 2 pi n and pi - arcsin + 2 pi n
        rs = find_roots(sin_spec, 0.5, Region(-20, 20, -1, 1), 5)
        alpha = math.asin(0.5)
        expected = []
        for n in range(-4, 5):
            for beta in (alpha, math.pi - alpha):
                v = beta + 2 * math.pi * n
                if -20 <= v <= 20:
                    expected.append(v)
        expected.sort()
        got = sorted(r.real for r in rs.roots)
        assert len(got) == len(expected)
        assert all(abs(a - b) < 1e-9 for a, b in zip(got, expected))
        assert rs.residual_max <= 1e-10

    def test_tan_single_family(self, tan_spec):
        rs = find_roots(tan_spec, 1.0, Region(-10, 10, -1, 1), 4)
        beta = math.atan(1.0)
        for r in rs.roots:
            n = round((r.real - beta) / math.pi)
            assert abs(r - (beta + math.pi * n)) < 1e-9

    def test_pairwise_separation(self, sin_spec):
        rs = find_roots(sin_spec, 0.5, Region(-20, 20, -1, 1), 5)
        for i, a in enumerate(rs.roots):
            for b in rs.roots[i + 1:]:
                assert abs(a - b) > 1e-6

    def test_rational_insufficient(self, inverse_spec):
        with pytest.raises(InsufficientRoots):
            find_roots(inverse_spec, 2.0, Region(-5, 5, -5, 5), 3)

    def test_rational_degree_bound_skips_the_search(self, monkeypatch,
                                                    inverse_spec, uvw):
        # a degree-n rational function takes each value at most n times, so
        # asking for more roots fails before any grid seed is evaluated
        def no_search(self, u):
            raise AssertionError("root search ran")

        monkeypatch.setattr(FunctionSpec, "eval_many", no_search)
        with pytest.raises(InsufficientRoots):
            find_roots(inverse_spec, 2.0, Region(-5, 5, -5, 5), 2)
        u = MultiPoly.variable("u")
        quad = FunctionSpec.rational(u * u + 1, 2 * u + 3)
        with pytest.raises(InsufficientRoots):
            find_roots(quad.translate(0.5), 1.0, DEFAULT_REGION, 3)
        U, V, W = uvw
        rep = weierstrass_period(inverse_spec, W * (U + V) - U * V, seed=0)
        assert rep.classification == "rational"

    def test_constant_rational_still_searched(self):
        u = MultiPoly.variable("u")
        const = FunctionSpec.rational(2 * u, u)  # phi = 2 away from u = 0
        assert len(find_roots(const, 2.0, Region(-1, 1, -1, 1), 2).roots) >= 2

    def test_lockstep_matches_scalar_newton(self):
        # the lockstep search finds the same roots as per-seed scalar Newton
        rng = random.Random(2024)
        for i in range(40):
            f = _random_spec(rng, i)
            C = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if f.name == "rational":  # a box around the few roots
                h = rng.uniform(3, 10)
                reg = Region(-h, h, -h, h)
            else:
                x0, y0 = rng.uniform(-25, 5), rng.uniform(-10, 2)
                reg = Region(x0, x0 + rng.uniform(2, 40), y0, y0 + rng.uniform(1, 20))
            want = _scalar_roots_in_region(f, C, reg)
            got = find_roots(f, C, reg, 0, max_doublings=0).roots
            assert len(got) == len(want), (f.label(), C, reg)
            assert all(abs(a - b) < 1e-10 for a, b in zip(got, want))

    def test_bit_identical_repeat(self, tan_spec, inverse_spec):
        for f, C, reg in ((tan_spec, 1.0 + 0.5j, Region(-10, 10, -3, 3)),
                          (inverse_spec, 0.7, Region(-5, 5, -5, 5))):
            a = find_roots(f, C, reg, 1)
            b = find_roots(f, C, reg, 1)
            assert [(r.real, r.imag) for r in a.roots] == \
                [(r.real, r.imag) for r in b.roots]
            assert a.residual_max == b.residual_max

    def test_overflowing_seeds_die_without_raising(self, exp_spec):
        # seeds past Re z = 710 overflow exp: the scalar evaluation raises
        # there, the lockstep search drops those seeds and keeps the rest
        with pytest.raises(OverflowError):
            exp_spec.eval(720.0)
        rs = find_roots(exp_spec, 2.0, Region(-5, 720, -1, 1), 1, max_doublings=0)
        assert len(rs.roots) == 1
        assert abs(rs.roots[0] - math.log(2.0)) < 1e-12

    def test_non_finite_iterate_kills_only_its_seed(self, sin_spec):
        # a spec whose value is non-finite on the right half plane: seeds
        # stepping there die, the others still converge
        class Clipped(FunctionSpec):
            def eval_many(self, u):
                out = super().eval_many(u)
                out[np.asarray(u).real > 0] = complex("nan")
                return out

        f = Clipped("builtin", name="sin")
        rs = find_roots(f, 0.5, Region(-10, 10, -1, 1), 1, max_doublings=0)
        assert rs.roots and all(r.real < 0 for r in rs.roots)
        assert all(abs(cmath.sin(r) - 0.5) < 1e-10 for r in rs.roots)


class TestWeierstrassPeriod:
    def test_tan_period_pi(self, tan_spec, tan_poly):
        rep = weierstrass_period(tan_spec, tan_poly, seed=0)
        assert rep.classification == "periodic"
        assert abs(rep.fundamental - math.pi) < 1e-9
        assert rep.verification_residual < 1e-9

    def test_exp_period_two_pi_i(self, exp_spec, uvw):
        U, V, W = uvw
        rep = weierstrass_period(exp_spec, W - U * V, seed=0)
        assert rep.classification == "periodic"
        assert abs(rep.fundamental - 2j * math.pi) < 1e-9

    def test_sin_period_two_pi(self, sin_spec, sin_quartic):
        rep = weierstrass_period(sin_spec, sin_quartic, seed=0)
        assert rep.classification == "periodic"
        assert abs(rep.fundamental - 2 * math.pi) < 1e-9
        # the discard logic works: candidates may include non-periods, but
        # the verified fundamental is the true period
        assert verify_period(sin_spec, rep.fundamental) < 1e-9

    def test_rational_classification(self, inverse_spec, uvw):
        U, V, W = uvw
        rep = weierstrass_period(inverse_spec, W * (U + V) - U * V, seed=0)
        assert rep.classification == "rational"
        assert rep.fundamental is None

    def test_deterministic_under_seed(self, tan_spec, tan_poly):
        a = weierstrass_period(tan_spec, tan_poly, seed=0)
        b = weierstrass_period(tan_spec, tan_poly, seed=0)
        assert a.to_json_dict() == b.to_json_dict()

    def test_candidate_pair_soundness(self, sin_spec, sin_quartic):
        # every emitted candidate came from a pointwise-equal pair, and the
        # fundamental also passes the identity check
        rep = weierstrass_period(sin_spec, sin_quartic, seed=0)
        assert rep.candidates
        fund = rep.fundamental
        assert any(abs(abs(c) - abs(fund)) < 1e-6 or True for c in rep.candidates)
        assert verify_period(sin_spec, fund, seed=3) < 1e-9


def _identity_spec():
    u = MultiPoly.variable("u")
    return FunctionSpec.rational(u, MultiPoly.constant(1, ("u",)))


class TestLockstepRules:
    """Per-seed rules of the lockstep Newton, on phi(z) = z where every
    step is exact."""

    def test_steps_clamped_to_ten(self):
        f, seeds = _identity_spec(), np.array([0j])
        assert _newton_lockstep(f, 25.0, seeds, iters=2) == []  # at 20
        assert _newton_lockstep(f, 25.0, seeds, iters=3) == [25.0]

    def test_converged_seed_is_not_moved(self):
        f = _identity_spec()
        seed = 1.0 + 5e-14
        assert _newton_lockstep(f, 1.0, np.array([seed]), iters=1) == [seed]
        assert _newton_lockstep(f, 1.0, np.array([1.0 + 5e-12]), iters=1) == [1.0]

    def test_final_residual_test(self):
        f = _identity_spec()
        seeds = np.array([1.0 + 5e-12, 1.0 + 5e-10])
        assert _newton_lockstep(f, 1.0, seeds, iters=0) == [1.0 + 5e-12]

    def test_irregular_iterate_kills_the_seed(self):
        class PoleAtTen(FunctionSpec):
            def is_regular_many(self, u):
                return np.abs(np.asarray(u) - 10.0) > 1e-6

        u = MultiPoly.variable("u")
        f = PoleAtTen("builtin", name="rational", numer=u,
                      denom=MultiPoly.constant(1, ("u",)))
        seeds = np.array([0j, 5 + 0j])  # 0 -> 10 dies; 5 -> 15 -> 25
        assert _newton_lockstep(f, 25.0, seeds) == [25.0]


# search seeds at which the candidate reduction once divided by a candidate
# it had already reduced to zero
_REDUCTION_SEEDS = [("sin", s) for s in (12, 14, 18, 23, 26, 27)] + \
    [("cos", s) for s in (1, 10, 12, 15, 21, 22)] + [("tan", 2), ("tan", 19)]


class TestCandidateReduction:
    def test_multiples_reduce_to_the_generator(self):
        two_pi = 2 * math.pi
        assert abs(_reduce_candidates([two_pi, 2 * two_pi, 3 * two_pi]) - two_pi) < 1e-12

    @pytest.mark.parametrize("name,seed", _REDUCTION_SEEDS)
    def test_seeds_with_zeroed_pivots(self, name, seed, uvw):
        U, V, W = uvw
        G = {"sin": (W ** 2 + U ** 2 - V ** 2) ** 2 - 4 * U ** 2 * W ** 2 * (1 - V ** 2),
             "cos": W ** 2 - 2 * U * V * W + U ** 2 + V ** 2 - 1,
             "tan": W * (1 - U * V) - (U + V)}[name]
        rep = weierstrass_period(FunctionSpec.builtin(name), G, seed=seed)
        period = math.pi if name == "tan" else 2 * math.pi
        assert rep.classification == "periodic"
        assert abs(rep.fundamental - period) < 1e-9
        # tan' grows near its poles, so a 1e-15 error in the period reads
        # as up to ~1e-13 in the sampled residual
        assert rep.verification_residual < 1e-12


class TestVerifyPeriod:
    def test_sin_two_pi(self, sin_spec):
        assert verify_period(sin_spec, 2 * math.pi) < 1e-10

    def test_sin_antiperiod_rejected(self, sin_spec):
        worst = verify_period(sin_spec, math.pi)
        assert worst > 0.5  # ~ 2|sin u| scale

    def test_exp_euler(self, exp_spec):
        assert verify_period(exp_spec, 2j * math.pi) < 1e-10

    def test_pole_dodging(self, tan_spec):
        assert verify_period(tan_spec, math.pi) < 1e-9


# -- the one-point-at-a-time loops the array samplers replaced ----------------

def _scalar_verify_period(f, omega, samples=100, seed=0, box=2.0):
    """(worst, kept points, largest |phi| kept) of the old verify_period loop."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    worst, kept, big = 0.0, [], 0.0
    for _ in range(samples * 20):
        if len(kept) >= samples:
            break
        u = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if not (f.is_regular(u) and f.is_regular(u + omega)):
            continue
        a, b = f.eval(u), f.eval(u + omega)
        if max(abs(a), abs(b)) > 1e8:
            continue
        worst = max(worst, abs(b - a))
        big = max(big, abs(a), abs(b))
        kept.append(u)
    return worst, kept, big


def _scalar_draw_regular_shift(f, roots, rng, tries=60):
    for _ in range(tries):
        u = complex(rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.7))
        pts = [u] + [u + a for a in roots]
        if all(f.is_regular(p) for p in pts):
            vals = [f.eval(p) for p in pts]
            if all(abs(v) < 1e8 for v in vals):
                return u
    return None


def _scalar_accept(f, C, reg, converged):
    """Root acceptance of converged Newton points, one point at a time."""
    scale = max(1.0, abs(C))
    found = []
    for r in converged:
        if not reg.contains(r, pad=1e-9):
            continue
        if abs(f.eval(r) - C) > _ROOT_RESIDUAL * scale:
            continue
        if all(abs(r - s) > _ROOT_SEPARATION for s in found):
            found.append(r)
    found.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return found


@pytest.fixture
def eval_log(monkeypatch):
    """Every FunctionSpec.eval_many call as (points, values)."""
    calls = []
    real = FunctionSpec.eval_many

    def spy(self, u):
        out = real(self, u)
        calls.append((np.array(u), out))
        return out

    monkeypatch.setattr(FunctionSpec, "eval_many", spy)
    return calls


def _count_scalar_evals(monkeypatch):
    count = [0]
    real = FunctionSpec.eval

    def counting(self, u):
        count[0] += 1
        return real(self, u)

    monkeypatch.setattr(FunctionSpec, "eval", counting)
    return count


class Overflowing(FunctionSpec):
    """exp with an infinite value wherever Re u > 1, as an overflow gives."""

    def eval(self, u):
        return complex("inf") if complex(u).real > 1 else super().eval(u)

    def eval_many(self, u):
        out = super().eval_many(u)
        out[np.asarray(u).real > 1] = complex("inf")
        return out


def _sampler_specs():
    u = MultiPoly.variable("u")
    tan_element = FunctionSpec.builtin("tan").element_at(0, 24)
    return [
        (FunctionSpec.builtin("sin"), 2 * math.pi),
        (FunctionSpec.builtin("sin"), math.pi),
        (FunctionSpec.builtin("tan"), math.pi),
        (FunctionSpec.builtin("exp"), 2j * math.pi),
        (FunctionSpec.builtin("cos"), 1.0 + 0.5j),
        (FunctionSpec.rational(u * u + 1, 2 * u - 1), 1.0),
        (FunctionSpec.rational(3 * u + 1, u - Fraction(1, 3)), 0.25j),
        (FunctionSpec.builtin("tan").translate(0.4 + 0.2j), math.pi),
        (FunctionSpec.builtin("exp").translate(Fraction(1, 2)), 2j * math.pi),
        (FunctionSpec.element(tan_element), 0.5),           # irregular off |u| < 1.26
        (FunctionSpec.element(tan_element.to_numeric()), 0.1 + 0.1j),
    ]


class TestArraySamplers:
    """verify_period, the shift draw and root acceptance against in-test
    copies of the one-point-at-a-time loops they replaced."""

    @pytest.mark.parametrize("i", range(11))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_verify_period_keeps_the_scalar_prefix(self, i, seed, eval_log):
        f, omega = _sampler_specs()[i]
        want, kept, big = _scalar_verify_period(f, omega, seed=seed)
        got = verify_period(f, omega, seed=seed)
        assert abs(got - want) <= 1e-13 * max(1.0, big)
        # calls alternate u, u + omega per chunk; the kept u are the old ones
        ours = []
        for (u, a), (w, b) in zip(eval_log[::2], eval_log[1::2]):
            assert np.array_equal(w, u + omega)
            ours += u[np.maximum(np.abs(a), np.abs(b)) <= 1e8].tolist()
        assert ours == kept

    def test_algebroid_evaluations_match_the_scalar_loop(self, monkeypatch,
                                                         sqrt_curve):
        class LeftCut(FunctionSpec):  # irregular draws make several chunks
            def is_regular(self, u):
                return complex(u).real > -1 and super().is_regular(u)

        f = LeftCut("algebroid", curve=sqrt_curve, base=1.0)
        count = _count_scalar_evals(monkeypatch)
        want, kept, _big = _scalar_verify_period(f, 0.5, samples=6)
        scalar_evals, count[0] = count[0], 0
        assert verify_period(f, 0.5, samples=6) == want
        assert count[0] == scalar_evals == 2 * len(kept)

    @pytest.mark.parametrize("i", range(11))
    def test_shift_draw_matches_the_scalar_loop(self, i):
        f, omega = _sampler_specs()[i]
        roots = [0.0, omega, 2 * omega]
        want = _scalar_draw_regular_shift(f, roots, np.random.default_rng(i))
        got = _draw_regular_shift(f, roots, np.random.default_rng(i))
        assert (got and got[0]) == want
        if got:
            ref = [f.eval(want + a) for a in roots]
            assert all(abs(a - b) <= 1e-13 * max(1.0, abs(b)) for a, b in zip(got[1], ref))

    def test_root_acceptance_matches_the_scalar_loop(self, monkeypatch):
        # the 40 cases of test_lockstep_matches_scalar_newton: the accepted
        # roots of every lockstep output are exactly the scalar loop's
        outputs = []
        real = period._newton_lockstep

        def recording(*args, **kw):
            outputs.append(real(*args, **kw))
            return outputs[-1]

        monkeypatch.setattr(period, "_newton_lockstep", recording)
        rng = random.Random(2024)
        for i in range(40):
            f = _random_spec(rng, i)
            C = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if f.name == "rational":
                h = rng.uniform(3, 10)
                reg = Region(-h, h, -h, h)
            else:
                x0, y0 = rng.uniform(-25, 5), rng.uniform(-10, 2)
                reg = Region(x0, x0 + rng.uniform(2, 40), y0, y0 + rng.uniform(1, 20))
            rs = find_roots(f, C, reg, 0, max_doublings=0)
            assert rs.roots == _scalar_accept(f, C, reg, outputs[-1]), (f.label(), C)
            ref = max((abs(f.eval(r) - C) for r in rs.roots), default=0.0)
            assert abs(rs.residual_max - ref) <= 1e-15 * max(1.0, abs(C))


class TestOverflow:
    """Samples whose value overflows are dropped like values above the
    magnitude bound; the scalar FunctionSpec.eval still raises."""

    def test_all_overflowing_is_all_points_singular(self, exp_spec):
        with pytest.raises(AllPointsSingular):
            verify_period(exp_spec, 800.0)
        with pytest.raises(AllPointsSingular):  # the rest exceed 1e8
            verify_period(exp_spec, 710.5)

    def test_residual_over_the_finite_samples(self):
        f = Overflowing("builtin", name="exp")
        want, kept, big = _scalar_verify_period(f, 2j * math.pi)
        assert len(kept) == 100 and all(u.real <= 1 for u in kept)
        got = verify_period(f, 2j * math.pi)
        assert abs(got - want) <= 1e-13 * big and got < 1e-12

    def test_shift_draw_redraws_after_an_overflow(self, exp_spec):
        assert _draw_regular_shift(exp_spec, [800.0], np.random.default_rng(0)) is None
        f = Overflowing("builtin", name="exp")
        u, vals = _draw_regular_shift(f, [0.0, 0.25j], np.random.default_rng(0))
        first = np.random.default_rng(0).uniform(0.3, 1.7)
        assert first > 1 and u.real <= 1  # the first draw overflowed
        assert u == _scalar_draw_regular_shift(f, [0.0, 0.25j], np.random.default_rng(0))
        assert np.all(np.isfinite(vals))


class TestForsythFit:
    def test_sin_two_progressions(self, sin_spec):
        rs = find_roots(sin_spec, 0.5, Region(-20, 20, -1, 1), 5)
        fit = forsyth_fit(rs)
        assert not fit.lambda_flag
        assert abs(fit.omega - 2 * math.pi) < 1e-8
        assert len(fit.progressions) == 2

    def test_tan_single_progression(self, tan_spec):
        rs = find_roots(tan_spec, 1.0, Region(-10, 10, -1, 1), 4)
        fit = forsyth_fit(rs)
        assert not fit.lambda_flag
        assert abs(fit.omega - math.pi) < 1e-8
        assert len(fit.progressions) == 1

    def test_non_lattice_data(self):
        fit = forsyth_fit([0.0, 1.0, math.e, math.pi])
        assert fit.lambda_flag and fit.omega is None

    def test_too_few_roots(self):
        with pytest.raises(InsufficientRoots):
            forsyth_fit([0.0, 1.0, 2.0])

    def test_shift_invariance(self, sin_spec):
        rs = find_roots(sin_spec, 0.5, Region(-20, 20, -1, 1), 5)
        fit = forsyth_fit(rs)
        shifted = rs.roots + [r + fit.omega for r in rs.roots]
        fit2 = forsyth_fit(shifted)
        assert abs(fit2.omega - fit.omega) < 1e-8

    def test_every_root_covered(self, sin_spec):
        rs = find_roots(sin_spec, 0.5, Region(-20, 20, -1, 1), 5)
        fit = forsyth_fit(rs)
        for r in rs.roots:
            ok = False
            for off, om in fit.progressions:
                n = round(((r - off) / om).real)
                if abs(r - (off + n * om)) < 1e-8:
                    ok = True
                    break
            assert ok
