"""Truncated series: elements, rearrangement, bivariate expansion."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aatkit.errors import (
    CenterMismatch,
    DivisionByZeroSeries,
    OutsideDisc,
    SingularCenter,
    TooFewCoefficients,
)
from aatkit.functions import FunctionSpec, taylor_of_builtin
from aatkit.poly import MultiPoly
from aatkit.scalars import ExactScalar
from aatkit.series import (
    PREC_BITS,
    BiSeries,
    FixedBiSeries,
    TruncSeries,
    _line_product,
    compose_shift,
    radius_estimate,
    rearrange_at,
    series_arith,
)


def geometric(order=40, ratio=1):
    return TruncSeries(ExactScalar(0),
                       [ExactScalar(Fraction(ratio) ** k) for k in range(order)],
                       exact=True)


def long_division_oracle(num, den, n):
    """Plain-list series division, independent of TruncSeries."""
    out = []
    num = list(num) + [Fraction(0)] * n
    for k in range(n):
        c = num[k]
        for j in range(1, k + 1):
            if j < len(den):
                c -= den[j] * out[k - j]
        out.append(c / den[0])
    return out


class TestTaylorOfBuiltin:
    def test_exp_exact(self, exp_spec):
        s = taylor_of_builtin(exp_spec, 0, 4)
        assert s.exact
        assert [c.re for c in s.coeffs] == [1, 1, Fraction(1, 2), Fraction(1, 6)]

    def test_tan_matches_long_division(self, tan_spec):
        n = 6
        s = taylor_of_builtin(tan_spec, 0, n)
        sin_c = [Fraction(0), Fraction(1), Fraction(0), Fraction(-1, 6),
                 Fraction(0), Fraction(1, 120), Fraction(0)]
        cos_c = [Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(0),
                 Fraction(1, 24), Fraction(0)]
        expect = long_division_oracle(sin_c, cos_c, n)
        assert s.exact
        assert [c.re for c in s.coeffs] == expect
        assert expect == [0, 1, 0, Fraction(1, 3), 0, Fraction(2, 15)]

    def test_geometric_from_rational(self):
        u = MultiPoly.variable("u")
        f = FunctionSpec.rational(MultiPoly.constant(1, ("u",)),
                                  MultiPoly.constant(1, ("u",)) - u)
        s = taylor_of_builtin(f, 0, 3)
        assert [c.re for c in s.coeffs] == [1, 1, 1]

    def test_singular_center_rejected(self):
        u = MultiPoly.variable("u")
        f = FunctionSpec.rational(MultiPoly.constant(1, ("u",)), u)
        with pytest.raises(SingularCenter):
            taylor_of_builtin(f, 0, 4)

    def test_algebroid_branch_element_exact(self, golden_cubic):
        f = FunctionSpec.algebroid(golden_cubic, branch=2, base=0.0)
        s = f.element_at(0, 5)
        assert s.exact
        assert [c.re for c in s.coeffs[:3]] == \
            [Fraction(-1, 3), Fraction(8, 81), Fraction(8, 729)]

    def test_algebroid_element_satisfies_curve(self, golden_cubic):
        # substitution oracle: the element must annihilate F to high valuation
        f = FunctionSpec.algebroid(golden_cubic, branch=0, base=3.0)
        n = 10
        s = f.element_at(2.0, n)
        one = TruncSeries.const(1, s.center, n, exact=False)
        x = TruncSeries.identity(s.center, n, exact=False) + 2.0
        res = golden_cubic.F.substitute({"u": x, "z": s.to_numeric()}, one)
        scale = max(abs(complex(c)) for c in s.coeffs)
        bound = 1e-12 * max(scale, 1.0)
        cutoff = n - golden_cubic.F.degree("z")
        for k in range(res.low, min(res.order, cutoff)):
            assert abs(complex(res.coefficient(k))) < bound


class TestRearrange:
    def test_identity_case(self):
        s = geometric()
        assert rearrange_at(s, 0) is s

    def test_geometric_to_half(self):
        # closed form: 1/(1 - z) about 1/2 is 2 * sum (2w)^n
        s = geometric(order=80)
        r = rearrange_at(s, Fraction(1, 2))
        assert r.exact
        assert r.order >= 8
        for k in range(r.order):
            expect = Fraction(2) ** (k + 1)
            assert abs(float(r.coeffs[k].re - expect) / float(expect)) < 1e-9

    def test_exp_to_one(self, exp_spec):
        s = taylor_of_builtin(exp_spec, 0, 32)
        r = rearrange_at(s, 1)
        e = math.e
        assert r.order >= 10
        for k in range(min(r.order, 12)):
            expect = e / math.factorial(k)
            assert abs(float(r.coeffs[k].re) - expect) < 1e-10

    def test_outside_disc(self):
        s = geometric()
        with pytest.raises(OutsideDisc):
            rearrange_at(s, 2)

    def test_double_rearrange_returns(self, exp_spec):
        s = taylor_of_builtin(exp_spec, 0, 32).to_numeric()
        r1 = rearrange_at(s, 0.4)
        r2 = rearrange_at(r1, 0.0)
        for k in range(min(r2.order, 8)):
            a, b = complex(r2.coefficient(k)), complex(s.coefficient(k))
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


class TestComposeShift:
    def test_exp_x1y1(self, exp_spec):
        s = taylor_of_builtin(exp_spec, 0, 8)
        b = compose_shift(s)
        assert b.coefficient(1, 1) == ExactScalar(1)

    def test_constant(self):
        s = TruncSeries.const(5, ExactScalar(0), 6, exact=True)
        b = compose_shift(s)
        assert list(b.coeffs) == [(0, 0)]

    def test_identity_linear(self):
        s = TruncSeries.identity(ExactScalar(0), 6, exact=True)
        b = compose_shift(s)
        assert b.coefficient(1, 0) == ExactScalar(1)
        assert b.coefficient(0, 1) == ExactScalar(1)
        assert len(b.coeffs) == 2

    def test_restriction_reproduces_input(self, tan_spec):
        s = taylor_of_builtin(tan_spec, 0, 10)
        b = compose_shift(s)
        back = b.restrict_y0()
        for k in range(10):
            assert back.coefficient(k) == s.coefficient(k)

    def test_binomial_structure(self, exp_spec):
        s = taylor_of_builtin(exp_spec, 0, 8)
        b = compose_shift(s)
        for i in range(4):
            for j in range(4):
                expect = ExactScalar(math.comb(i + j, i)) * s.coefficient(i + j)
                assert b.coefficient(i, j) == expect


class TestRadiusEstimate:
    def test_geometric_radius_one(self):
        assert abs(radius_estimate(geometric(32)) - 1.0) <= 0.1

    def test_entire_reported_infinite(self, exp_spec):
        s = taylor_of_builtin(exp_spec, 0, 32)
        assert radius_estimate(s) > 1e3

    def test_radius_half(self):
        s = TruncSeries(0j, [complex(2 ** k) for k in range(32)], exact=False)
        assert abs(radius_estimate(s) - 0.5) <= 0.05

    def test_too_few(self):
        s = TruncSeries(0j, [1 + 0j] * 4, exact=False)
        with pytest.raises(TooFewCoefficients):
            radius_estimate(s)


class TestElementRegularity:
    def test_disc_is_80_percent_of_radius(self):
        f = FunctionSpec.element(geometric(32))
        assert f.is_regular(0.75) and not f.is_regular(0.85)
        assert list(f.is_regular_many(np.array([0.75, 0.85j]))) == [True, False]

    def test_too_few_coefficients_means_no_bound(self):
        f = FunctionSpec.element(TruncSeries(0j, [1 + 0j] * 4, exact=False))
        assert f.is_regular(100.0) and f.is_regular_many(np.array([100.0]))[0]

    def test_radius_computed_once(self, monkeypatch):
        import aatkit.functions as functions
        calls = []
        real = functions.radius_estimate
        monkeypatch.setattr(functions, "radius_estimate",
                            lambda s: calls.append(1) or real(s))
        f = FunctionSpec.element(geometric(32))
        for z in (0.1, 0.2, 0.3):
            f.is_regular(z)
        f.is_regular_many(np.array([0.1, 0.9]))
        assert len(calls) == 1

    def test_other_failures_propagate(self, monkeypatch):
        import aatkit.functions as functions

        def broken(s):
            raise RuntimeError("radius")
        monkeypatch.setattr(functions, "radius_estimate", broken)
        with pytest.raises(RuntimeError):
            FunctionSpec.element(geometric(32)).is_regular(0.1)


class TestSeriesArith:
    def test_pythagorean_identity(self, sin_spec):
        n = 10
        s = taylor_of_builtin(sin_spec, 0, n)
        c = taylor_of_builtin(FunctionSpec.builtin("cos"), 0, n)
        total = series_arith(s * s, c * c, "add")
        assert total.coefficient(0) == ExactScalar(1)
        for k in range(1, total.order):
            assert total.coefficient(k) == ExactScalar(0)

    def test_geometric_inverse(self):
        one = TruncSeries.const(1, ExactScalar(0), 8, exact=True)
        den = TruncSeries(ExactScalar(0),
                          [ExactScalar(1), ExactScalar(-1)] + [ExactScalar(0)] * 6,
                          exact=True)
        q = series_arith(one, den, "div")
        for k in range(q.order):
            assert q.coefficient(k) == ExactScalar(1)

    def test_sin_over_cos_is_tan(self, sin_spec, tan_spec):
        n = 8
        s = taylor_of_builtin(sin_spec, 0, n)
        c = taylor_of_builtin(FunctionSpec.builtin("cos"), 0, n)
        t = taylor_of_builtin(tan_spec, 0, n)
        q = series_arith(s, c, "div")
        for k in range(min(q.order, t.order)):
            assert q.coefficient(k) == t.coefficient(k)

    def test_center_mismatch(self):
        a = TruncSeries.const(1, ExactScalar(0), 6, exact=True)
        b = TruncSeries.const(1, ExactScalar(1), 6, exact=True)
        with pytest.raises(CenterMismatch):
            series_arith(a, b, "add")

    def test_zero_divisor(self):
        a = TruncSeries.const(1, ExactScalar(0), 6, exact=True)
        z = TruncSeries.zeros(ExactScalar(0), 6, exact=True)
        with pytest.raises(DivisionByZeroSeries):
            series_arith(a, z, "div")

    def test_laurent_division(self):
        # 1 / z  as a Laurent tail: low exponent -1
        one = TruncSeries.const(1, ExactScalar(0), 8, exact=True)
        z = TruncSeries.identity(ExactScalar(0), 8, exact=True)
        q = one / z
        assert q.low == -1
        assert q.coefficient(-1) == ExactScalar(1)

    def test_mixed_exactness_forbidden_silently(self):
        # promotion happens explicitly (to_numeric) or through pairing, never
        # by mixing inside one coefficient list
        with pytest.raises(TypeError):
            TruncSeries(ExactScalar(0), [ExactScalar(1), 0.5 + 0j], exact=True)


# -- fixed-point bivariate series ------------------------------------------------

def _fixed_exact(s, i, j):
    """Coefficient (i, j) of a FixedBiSeries as an exact mpmath complex."""
    d = i + j
    return mp.mpc(mp.ldexp(s.re[d][j], s.exp), mp.ldexp(s.im[d][j], s.exp))


def _ref_mul(a, b, order):
    out = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            if i1 + j1 + i2 + j2 < order:
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + x * y
    return out


def _ref_inverse(a, order):
    inv0 = 1 / a[(0, 0)]
    out = {(0, 0): inv0}
    tail = [(k, c) for k, c in a.items() if k != (0, 0)]
    for d in range(1, order):
        for i in range(d + 1):
            acc = 0
            for (p, q), c in tail:
                if p <= i and q <= d - i:
                    acc += c * out[(i - p, d - i - q)]
            out[(i, d - i)] = -inv0 * acc
    return out


@st.composite
def fixed_series(draw, order=None):
    """A FixedBiSeries with full-budget random mantissas; optionally a
    constant term up to 2**-60 times smaller than the other coefficients."""
    n = order if order is not None else draw(st.integers(1, 24))
    mant = st.integers(-(1 << PREC_BITS) + 1, (1 << PREC_BITS) - 1)
    re = [[draw(mant) for _ in range(d + 1)] for d in range(n)]
    im = [[draw(mant) for _ in range(d + 1)] for d in range(n)]
    small = draw(st.integers(0, 60))
    re[0][0] >>= small
    im[0][0] >>= small
    if not (re[0][0] or im[0][0]):
        re[0][0] = 1
    return FixedBiSeries(re, im, draw(st.integers(-200, 40)), n)


def _max_error(got, ref):
    with mp.workdps(80):
        scale = max(abs(v) for v in ref.values())
        err = max(abs(_fixed_exact(got, i, j) - ref.get((i, j), 0))
                  for i in range(got.order) for j in range(got.order - i))
        return err, scale


class TestFixedBiSeries:
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_product_and_inverse_within_budget(self, data):
        # one rounding of an exact integer convolution / recurrence: the
        # error stays below 2**-150 of the largest coefficient, also when
        # |c00| is far below the other coefficients
        a = data.draw(fixed_series())
        b = data.draw(fixed_series())
        with mp.workdps(80):
            ea = {(i, j): _fixed_exact(a, i, j)
                  for i in range(a.order) for j in range(a.order - i)}
            eb = {(i, j): _fixed_exact(b, i, j)
                  for i in range(b.order) for j in range(b.order - i)}
            prod = _ref_mul(ea, eb, min(a.order, b.order))
            inv = _ref_inverse(ea, a.order)
        for got, ref in ((a * b, prod), (a.inverse(), inv)):
            err, scale = _max_error(got, ref)
            assert err <= mp.ldexp(scale, -150)

    def test_matches_complex_biseries(self):
        rng = np.random.default_rng(7)
        n = 8
        def rand(low):
            return {(i, j): complex(*rng.uniform(-1, 1, 2))
                    for i in range(n) for j in range(n - i) if i + j >= low}
        for la, lb in ((0, 0), (1, 0), (2, 3), (1, 1)):
            da, db = rand(la), rand(lb)
            fa = sum((FixedBiSeries.const(c, n) * _monomial(i, j, n)
                      for (i, j), c in da.items()), FixedBiSeries.zeros(n))
            fb = sum((FixedBiSeries.const(c, n) * _monomial(i, j, n)
                      for (i, j), c in db.items()), FixedBiSeries.zeros(n))
            ba, bb = BiSeries(da, n, False), BiSeries(db, n, False)
            pairs = [(fa * fb, ba * bb), (fa + fb, ba + bb), (fa - fb, ba - bb),
                     (fa.derivative(0), ba.derivative(0)),
                     (fa.derivative(1), ba.derivative(1)),
                     (fa * Fraction(1, 3), ba * Fraction(1, 3)),
                     (fa * (0.5 - 2j), ba * (0.5 - 2j)),
                     (fa * ExactScalar(2, -1), ba * ExactScalar(2, -1))]
            if la == 0:
                pairs.append((fa.inverse(), ba.inverse()))
            for f, b in pairs:
                assert f.order == b.order
                scale = max(b.max_abs(), 1.0)
                for i in range(f.order):
                    for j in range(f.order - i):
                        assert abs(f.coefficient(i, j) - b.coefficient(i, j)) \
                            <= 1e-12 * scale
            assert fa.valuation() == ba.valuation() == la

    def test_rounding_is_half_to_even(self):
        # m * 3 has PREC_BITS + 1 bits, so the product drops one bit; both
        # cases below are exact ties
        half = 1 << (PREC_BITS - 1)
        for m, want in ((half + 1, 3 * (half >> 1) + 2),    # 1.5 -> 2
                        (half + 3, 3 * (half >> 1) + 4)):   # 4.5 -> 4
            s = FixedBiSeries([[m]], [[-m]], 0, 1) * 3
            assert (s.re[0][0], s.im[0][0], s.exp) == (want, -want, 1)

    def test_zero_constant_term_rejected(self):
        s = FixedBiSeries.from_univariate([0, 1], 0, 4)
        with pytest.raises(DivisionByZeroSeries):
            s.inverse()

    def test_univariate_embedding_and_readback(self):
        vals = [ExactScalar(Fraction(1, 3), 1), 2, Fraction(-1, 7), 0.25 - 1j]
        x = FixedBiSeries.from_univariate(vals, 0, 4)
        y = FixedBiSeries.from_univariate(vals, 1, 4)
        for k, v in enumerate(vals):
            assert abs(x.coefficient(k, 0) - complex(v)) < 1e-15
            assert abs(y.coefficient(0, k) - complex(v)) < 1e-15
        assert x.coefficient(0, 1) == y.coefficient(1, 0) == 0
        assert x.restrict_y0().coeffs == [x.coefficient(k, 0) for k in range(4)]


def _monomial(i, j, n):
    x = FixedBiSeries.from_univariate([0, 1], 0, n)
    y = FixedBiSeries.from_univariate([0, 1], 1, n)
    out = FixedBiSeries.const(1, n)
    for _ in range(i):
        out = out * x
    for _ in range(j):
        out = out * y
    return out


# -- exact BiSeries products on integer rows -----------------------------------

def _dict_product(a, b):
    """Exact BiSeries product as a plain dict convolution over ExactScalar,
    with the valuation-aware result order: (coeffs, order)."""
    va, vb = a.valuation() or 0, b.valuation() or 0
    order = min(a.order + vb, b.order + va)
    out = {}
    for (i1, j1), c1 in a.coeffs.items():
        for (i2, j2), c2 in b.coeffs.items():
            if i1 + j1 + i2 + j2 < order:
                k = (i1 + i2, j1 + j2)
                out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    return {k: c for k, c in out.items() if not c.is_zero()}, order


def _dict_power(s, n):
    """s ** n by the square-and-multiply chain of BiSeries.__pow__, each
    product taken by _dict_product."""
    def mul(x, y):
        coeffs, order = _dict_product(x, y)
        return BiSeries(coeffs, order, True, x.center)
    result, base = BiSeries.const(1, s.order, True, s.center), s
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    return result


@st.composite
def exact_biseries(draw):
    """A sparse Gaussian-rational BiSeries: order 1..20, mixed denominators,
    possibly zero, with a valuation up to 4."""
    order = draw(st.integers(1, 20))
    low = min(draw(st.integers(0, 4)), order - 1)
    part = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                     st.sampled_from([1, 2, 3, 7, 12, 1024, 3 ** 12]))
    entries = draw(st.lists(st.tuples(st.integers(low, order - 1),
                                      st.integers(0, 19), part, part),
                            max_size=25))
    return BiSeries({(d - j % (d + 1), j % (d + 1)): ExactScalar(re, im)
                     for d, j, re, im in entries}, order, True)


class TestExactBiSeriesProduct:
    @settings(max_examples=150, deadline=None)
    @given(exact_biseries(), exact_biseries())
    def test_matches_dict_product(self, a, b):
        want, order = _dict_product(a, b)
        for got in (a * b, b.__rmul__(a)):
            assert got.exact and got.order == order
            assert got.coeffs == want

    @settings(max_examples=40, deadline=None)
    @given(exact_biseries(), st.integers(0, 4))
    def test_power_matches_dict_chain(self, s, n):
        want = _dict_power(s, n)
        got = s ** n
        assert (got.coeffs, got.order) == (want.coeffs, want.order)

    def test_scalar_factor_from_the_left(self):
        s = BiSeries({(1, 0): ExactScalar(Fraction(1, 3), 2)}, 4, True)
        assert (Fraction(3, 2) * s).coeffs == {(1, 0): ExactScalar(Fraction(1, 2), 3)}

    @pytest.mark.parametrize("order", [3, 7, 15])
    @pytest.mark.parametrize("bits", [1, 9, 64])
    def test_worst_case_entries_fit_the_slot(self, order, bits):
        # dense factors m(1 - i) and m(1 + i) with m = 2**bits - 1: every
        # product coefficient is 2 m**2 times its pair count, the largest
        # the Kronecker slot width must hold
        m = (1 << bits) - 1
        keys = [(d - j, j) for d in range(order) for j in range(d + 1)]
        a = BiSeries({k: ExactScalar(m, -m) for k in keys}, order, True)
        b = BiSeries({k: ExactScalar(m, m) for k in keys}, order, True)
        want, _ = _dict_product(a, b)
        assert (a * b).coeffs == want


# -- exact TruncSeries on integer rows -------------------------------------------

def _list_product(a, b):
    """Exact TruncSeries product as a plain convolution over ExactScalar,
    with the valuation-aware order: (low, order, coeffs)."""
    va, vb = a.valuation(), b.valuation()
    order = min(a.order + vb, b.order + va)
    low = va + vb
    out = [ExactScalar.zero()] * (order - low)
    for i in range(va, a.order):
        for j in range(vb, min(b.order, order - i)):
            out[i + j - low] = out[i + j - low] + a.coefficient(i) * b.coefficient(j)
    return low, order, out


def _list_inverse(b):
    """Exact TruncSeries inverse by the ExactScalar recurrence, with the
    exponents -v .. order - 2v: (low, order, coeffs)."""
    v = b.valuation()
    cs = [b.coefficient(k) for k in range(v, b.order)]
    inv0 = ExactScalar.one() / cs[0]
    out = [inv0]
    for k in range(1, b.order - v):
        acc = ExactScalar.zero()
        for j in range(1, k + 1):
            acc = acc + cs[j] * out[k - j]
        out.append(-inv0 * acc)
    return -v, b.order - 2 * v, out


@st.composite
def exact_trunc(draw):
    """An exact TruncSeries: low -3..3, up to 24 coefficients with mixed
    (and large) denominators, Gaussian parts, possibly leading zeros."""
    low = draw(st.integers(-3, 3))
    n = draw(st.integers(1, 24))
    part = st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                     st.sampled_from([1, 2, 3, 7, 12, 1024, 3 ** 12, 10 ** 20 + 39]))
    cs = draw(st.lists(st.one_of(st.just(ExactScalar.zero()),
                                 st.builds(ExactScalar, part, part),
                                 st.builds(ExactScalar, part)),
                       min_size=n, max_size=n))
    if all(c.is_zero() for c in cs):
        cs[draw(st.integers(0, n - 1))] = ExactScalar(Fraction(-5, 3), 2)
    return TruncSeries(ExactScalar(0), cs, low=low, exact=True)


class TestExactTruncSeriesRows:
    @settings(max_examples=150, deadline=None)
    @given(exact_trunc(), exact_trunc())
    def test_product_matches_list_convolution(self, a, b):
        low, order, want = _list_product(a, b)
        got = a * b
        assert (got.exact, got.low, got.order) == (True, low, order)
        assert got.coeffs == want

    @settings(max_examples=100, deadline=None)
    @given(exact_trunc())
    def test_inverse_matches_list_recurrence(self, b):
        low, order, want = _list_inverse(b)
        got = b.inverse()
        assert (got.exact, got.low, got.order) == (True, low, order)
        assert got.coeffs == want
        assert (got * b).coefficient(0) == ExactScalar.one()

    @pytest.mark.parametrize("n", [1, 7, 16, 33])
    @pytest.mark.parametrize("bits", [1, 9, 64, 200])
    def test_worst_case_entries_fit_the_slot(self, n, bits):
        # dense m(1 - i) times m(1 + i), m = 2**bits - 1: coefficient k is
        # 2 m**2 (k + 1), the largest the slot width must hold
        m = (1 << bits) - 1
        re, im = _line_product([m] * n, [-m] * n, [m] * n, [m] * n, n)
        assert re == [2 * m * m * (k + 1) for k in range(n)]
        assert im == [0] * n
