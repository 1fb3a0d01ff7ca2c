"""Resultants, discriminants, series GCDs, and the doubling chain."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from aatkit.aat import _hp_element, _shifted_poly_in_w
from aatkit.elimination import (
    PolyInW,
    discriminant,
    eliminate_chain,
    gcd_in_w,
    resultant,
)
from aatkit.errors import AatkitError, DegreeTooLow, DegreeZero, PreconditionFailed
from aatkit.functions import FunctionSpec, taylor_of_builtin
from aatkit.poly import MultiPoly, monic_lex
from aatkit.scalars import ExactScalar
from aatkit.series import BiSeries, TruncSeries


class TestResultant:
    def test_substitution_case(self):
        u, z, w = (MultiPoly.variable(v) for v in ("u", "z", "w"))
        r = resultant(z ** 2 - u, z - w, "z")
        assert monic_lex(r) == monic_lex(w ** 2 - u)

    def test_doubling_link(self):
        x, x1, x2 = (MultiPoly.variable(v) for v in ("x", "x1", "x2"))
        r = resultant(x - x1 ** 2, x1 - x2 ** 2, "x1")
        assert monic_lex(r) == monic_lex(x - x2 ** 4)

    def test_degree_zero_rejected(self):
        z = MultiPoly.variable("z")
        with pytest.raises(DegreeZero):
            resultant(z + 1, MultiPoly.constant(2, ("z",)), "z")

    def test_resultant_equals_lc_times_disc(self, golden_cubic):
        # Res(F, F_z) carries the extra leading-coefficient factor
        F = golden_cubic.F
        u = MultiPoly.variable("u")
        res = resultant(F, F.derivative("z"), "z")
        disc = discriminant(F, "z")
        lc = 8 * u
        # n = 3: Res = (-1)^3 * lc * disc
        assert res == -(lc * disc).with_vars(res.vars)

    def test_random_specializations_match_sylvester(self):
        rng = np.random.default_rng(11)
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        f = z ** 3 + u * z - 2
        g = u * z ** 2 - z + u ** 2
        r = resultant(f, g, "z")
        for _ in range(20):
            u0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            fs = np.array([complex(c.eval({"u": u0}))
                           for c in f.coefficients_wrt("z")])
            gs = np.array([complex(c.eval({"u": u0}))
                           for c in g.coefficients_wrt("z")])
            m, n = len(fs) - 1, len(gs) - 1
            size = m + n
            M = np.zeros((size, size), dtype=complex)
            for i in range(n):
                M[i, i: i + m + 1] = fs[::-1]
            for i in range(m):
                M[n + i, i: i + n + 1] = gs[::-1]
            expect = np.linalg.det(M)
            got = r.eval({"u": u0})
            assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


class TestDiscriminant:
    def test_double_root_at_origin(self):
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        d = discriminant(z ** 2 - u, "z")
        assert monic_lex(d) == monic_lex(u)

    def test_distinct_constant_roots(self):
        z = MultiPoly.variable("z")
        d = discriminant((z - 1) * (z - 2), "z")
        assert d.is_constant() and not d.is_zero()

    def test_reference_cubic_exact(self, golden_cubic):
        # depressed-cubic oracle: -4ac^3 - 27a^2d^2 = -864 u (1-u)^2 (1+u)
        u = MultiPoly.variable("u")
        a = 8 * u
        c = 3 * (1 - u)
        dd = 1 - u
        oracle = -4 * a * c ** 3 - 27 * a ** 2 * dd ** 2
        got = discriminant(golden_cubic.F, "z")
        assert got == oracle.with_vars(got.vars)
        assert got == (-864 * u * (1 - u) ** 2 * (1 + u)).with_vars(got.vars)

    def test_degree_too_low(self):
        z = MultiPoly.variable("z")
        with pytest.raises(DegreeTooLow):
            discriminant(z + 1, "z")


class TestGcdInW:
    def test_polynomial_coefficients(self):
        one = MultiPoly.constant(1)
        A = PolyInW([-one, MultiPoly.zero(), one])   # W^2 - 1
        B = PolyInW([-one, one])                     # W - 1
        g = gcd_in_w(A, B)
        assert g.degree == 1
        assert g.coeffs[1] == MultiPoly.constant(1)
        assert g.coeffs[0] == MultiPoly.constant(-1)

    def test_idempotent(self):
        one = MultiPoly.constant(1)
        A = PolyInW([MultiPoly.constant(2), MultiPoly.constant(4), 2 * one])
        g = gcd_in_w(A, A)
        assert g.degree == 2
        assert g.coeffs[2] == MultiPoly.constant(1)

    def test_sin_quartic_shift_gcd(self, sin_quartic, sin_spec):
        # roots of the quartic are +-sin(u+-v); the shifted copy shares
        # exactly +-sin(u+v), so the gcd is W^2 - sin^2(u+v)
        order = 14
        A0 = _shifted_poly_in_w(sin_quartic, sin_spec, 0, 0j, order,
                                1e-8, force_hp=True)
        A3 = _shifted_poly_in_w(sin_quartic, sin_spec, 0, 0.3, order,
                                1e-8, force_hp=True)
        g = gcd_in_w(A0, A3)
        assert g.degree == 2
        # the chain runs on fixed-point series, not on mpmath numbers
        assert all(isinstance(c, BiSeries) and not c.exact
                   for c in A0.coeffs + A3.coeffs + g.coeffs)
        # trig-identity oracle for sin^2(u+v): coefficient of x^i y^j is
        # binom(i+j, i) * [w^(i+j)] sin^2(w), sin^2(w) = (1 - cos 2w)/2
        s2 = [0.0, 0.0]
        for m in range(1, order // 2 + 1):
            s2.append((-1) ** (m + 1) * 2.0 ** (2 * m - 1) / math.factorial(2 * m))
            s2.append(0.0)
        S = -g.coeffs[0]
        for i in range(order):
            for j in range(order - i):
                expect = math.comb(i + j, i) * s2[i + j] if i + j < len(s2) else 0.0
                got = complex(S.coefficient(i, j))
                assert abs(got - expect) < 1e-10
        mid = g.coeffs[1]
        assert mid.is_zero(1e-10)

    def test_fixed_point_elements(self):
        # the fixed-point Taylor data of _shifted_poly_in_w against exact data
        # (a rational function at a binary center) and against an mpmath
        # series division at 60 digits (tan); both to the bit budget
        order = 20
        u = MultiPoly.variable("u")
        rat = FunctionSpec.rational(u * u + 1, 2 * u + 3)
        c = 0.25 - 0.5j
        want = rat.element_at(ExactScalar(Fraction(1, 4), Fraction(-1, 2)), order)
        got = _hp_element(rat, c, rat.element_at(c, order), slot=1)
        scale = max(abs(complex(w)) for w in want.coeffs)
        for k in range(order):
            assert k == 0 or got.coefficient(k, 0) == 0   # a series in y
            re = Fraction(got.re[k][k]) * Fraction(2) ** got.exp
            im = Fraction(got.im[k][k]) * Fraction(2) ** got.exp
            err = abs(complex(re - want.coeffs[k].re, im - want.coeffs[k].im))
            assert err <= 2.0 ** -150 * scale
        tan = FunctionSpec.builtin("tan")
        got = _hp_element(tan, 0.3, tan.element_at(0.3, order), slot=0)
        with mp.workdps(60):
            z = mp.mpf(0.3)
            s = [[mp.sin(z), mp.cos(z), -mp.sin(z), -mp.cos(z)][k % 4]
                 / mp.factorial(k) for k in range(order)]
            co = [[mp.cos(z), -mp.sin(z), -mp.cos(z), mp.sin(z)][k % 4]
                  / mp.factorial(k) for k in range(order)]
            t = []
            for k in range(order):
                t.append((s[k] - sum(co[j] * t[k - j] for j in range(1, k + 1)))
                         / co[0])
            scale = max(abs(x) for x in t)
            for k in range(order):
                v = mp.mpc(mp.ldexp(got.re[k][0], got.exp),
                           mp.ldexp(got.im[k][0], got.exp))
                assert abs(v - t[k]) <= mp.ldexp(scale, -150)

    def test_gcd_divides_both_inputs(self, sin_quartic, sin_spec):
        order = 12
        A0 = _shifted_poly_in_w(sin_quartic, sin_spec, 0, 0j, order,
                                1e-8, force_hp=True)
        A3 = _shifted_poly_in_w(sin_quartic, sin_spec, 0, 0.3, order,
                                1e-8, force_hp=True)
        g = gcd_in_w(A0, A3)
        for A in (A0, A3):
            r = A
            while not r.is_zero() and r.degree >= g.degree:
                lr = r.leading()
                r = r.sub_shifted(g, lr, r.degree - g.degree)
            assert r.is_zero()


class TestEliminateChain:
    def test_exp_doubling_three_steps(self):
        z, x = MultiPoly.variable("z"), MultiPoly.variable("x")
        gamma = eliminate_chain(x - z ** 2, 3)
        x3 = MultiPoly.variable("x3")
        assert monic_lex(gamma) == monic_lex(x - x3 ** 8)

    def test_linear_chain(self):
        z, x = MultiPoly.variable("z"), MultiPoly.variable("x")
        gamma = eliminate_chain(x - 2 * z, 2)
        x2 = MultiPoly.variable("x2")
        assert monic_lex(gamma) == monic_lex(x - 4 * x2)

    def test_chain_length_below_one(self):
        z, x = MultiPoly.variable("z"), MultiPoly.variable("x")
        with pytest.raises(PreconditionFailed) as info:
            eliminate_chain(x - z ** 2, 0)
        assert isinstance(info.value, AatkitError)

    def test_base_case(self):
        z, x = MultiPoly.variable("z"), MultiPoly.variable("x")
        gamma = eliminate_chain(x - z ** 2, 1)
        x1 = MultiPoly.variable("x1")
        assert monic_lex(gamma) == monic_lex(x - x1 ** 2)

    def test_exp_substitution_residual(self, exp_spec):
        # gamma(exp(u/8), exp(u)) must vanish to high order
        order = 16
        z, x = MultiPoly.variable("z"), MultiPoly.variable("x")
        gamma = eliminate_chain(x - z ** 2, 3)
        full = taylor_of_builtin(exp_spec, 0, order)
        eighth = TruncSeries(full.center,
                             [c * (Fraction(1, 8) ** k)
                              for k, c in enumerate(full.coeffs)],
                             exact=True)
        one = TruncSeries.const(1, full.center, order, exact=True)
        res = gamma.substitute({"x3": eighth, "x": full}, one)
        v = res.valuation()
        assert v is None or v >= 12