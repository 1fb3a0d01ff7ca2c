"""Truncated series: elements, rearrangement, bivariate expansion."""

import math
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aatkit import series
from aatkit.errors import (
    CenterMismatch,
    DivisionByZeroSeries,
    InvariantViolation,
    OutsideDisc,
    SchemaError,
    SingularCenter,
    TooFewCoefficients,
)
from aatkit.functions import FunctionSpec, taylor_of_builtin
from aatkit.poly import MultiPoly
from aatkit.scalars import ExactScalar
from aatkit.series import (
    PREC_BITS,
    BiSeries,
    TruncSeries,
    _line_product,
    _triangle_product,
    compose_shift,
    radius_estimate,
    rearrange_at,
    series_arith,
)
from aatkit.zi import _max_bits, _pack, _unpack


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

    def test_unknown_op(self):
        a = TruncSeries.const(1, ExactScalar(0), 6, exact=True)
        with pytest.raises(SchemaError):
            series_arith(a, a, "pow")

    def test_operand_of_wrong_type(self):
        a = TruncSeries.const(1, ExactScalar(0), 6, exact=True)
        with pytest.raises(SchemaError):
            a._pair([1, 2])

    def test_coefficient_count_must_match_order(self):
        with pytest.raises(InvariantViolation):
            TruncSeries(ExactScalar(0), [ExactScalar(1)] * 3, low=0, order=5)

    @pytest.mark.parametrize("op,scalar", [
        (lambda s: s + 0.5, 0.5), (lambda s: 0.5 - s, None), (lambda s: s + 1j, 1j),
        (lambda s: s - 0.25, -0.25)])
    def test_complex_scalar_promotes_sums_as_products(self, op, scalar):
        # exact + 0.5 is complex, as exact * 0.5 is
        s = TruncSeries(ExactScalar(0), [ExactScalar(1), ExactScalar(Fraction(1, 3), 2)],
                        exact=True)
        got = op(s)
        want = [0.5 - 1, -complex(Fraction(1, 3), 2)] if scalar is None \
            else [1 + scalar, complex(Fraction(1, 3), 2)]
        assert not got.exact and (got.low, got.order) == (0, 2)
        assert got.coeffs == [complex(c) for c in want]

    @pytest.mark.parametrize("zero", [0, 0.0, 0j])
    def test_complex_series_over_zero_scalar(self, zero):
        s = TruncSeries(0.5, [1 + 1j, 2j], exact=False)
        with pytest.raises(DivisionByZeroSeries):
            s / zero

    def test_mixed_exactness_forbidden_silently(self):
        # promotion happens explicitly (to_numeric) or through pairing, never
        # by mixing inside one coefficient list
        with pytest.raises(TypeError):
            TruncSeries(ExactScalar(0), [ExactScalar(1), 0.5 + 0j], exact=True)


# -- fixed-point bivariate series ------------------------------------------------

def _fixed_exact(s, i, j):
    """Coefficient (i, j) of a binary-scale BiSeries as an exact mpmath complex."""
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
    """A binary-scale BiSeries with full-budget random mantissas; optionally
    a constant term up to 2**-60 times smaller than the other coefficients."""
    n = order if order is not None else draw(st.integers(1, 24))
    mant = st.integers(-(1 << PREC_BITS) + 1, (1 << PREC_BITS) - 1)
    re = [[draw(mant) for _ in range(d + 1)] for d in range(n)]
    im = [[draw(mant) for _ in range(d + 1)] for d in range(n)]
    small = draw(st.integers(0, 60))
    re[0][0] >>= small
    im[0][0] >>= small
    if not (re[0][0] or im[0][0]):
        re[0][0] = 1
    return BiSeries(re, im, n, exp=draw(st.integers(-200, 40)))


def _max_error(got, ref):
    with mp.workdps(80):
        scale = max(abs(v) for v in ref.values())
        err = max(abs(_fixed_exact(got, i, j) - ref.get((i, j), 0))
                  for i in range(got.order) for j in range(got.order - i))
        return err, scale


def _ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return out


def _ref_scale(a, c):
    return {k: v * c for k, v in a.items()}


def _ref_derivative(a, slot):
    return {(i - 1, j) if slot == 0 else (i, j - 1): v * (j if slot else i)
            for (i, j), v in a.items() if (j if slot else i)}


class TestFixedBiSeries:
    """BiSeries on the binary (fixed-point) scale."""

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
            fa = sum((BiSeries.const(c, n) * _monomial(i, j, n)
                      for (i, j), c in da.items()), BiSeries.zeros(n))
            fb = sum((BiSeries.const(c, n) * _monomial(i, j, n)
                      for (i, j), c in db.items()), BiSeries.zeros(n))
            # complex dict references, with the valuation-aware product order
            pairs = [(fa * fb, _ref_mul(da, db, n + min(la, lb)), n + min(la, lb)),
                     (fa + fb, _ref_add(da, db), n),
                     (fa - fb, _ref_add(da, _ref_scale(db, -1)), n),
                     (fa.derivative(0), _ref_derivative(da, 0), n - 1),
                     (fa.derivative(1), _ref_derivative(da, 1), n - 1),
                     (fa * Fraction(1, 3), _ref_scale(da, 1 / 3), n),
                     (fa * (0.5 - 2j), _ref_scale(da, 0.5 - 2j), n),
                     (fa * ExactScalar(2, -1), _ref_scale(da, 2 - 1j), n)]
            if la == 0:
                pairs.append((fa.inverse(), _ref_inverse(da, n), n))
            for f, ref, order in pairs:
                assert f.order == order and not f.exact
                scale = max(max(abs(v) for v in ref.values()), 1.0)
                for i in range(f.order):
                    for j in range(f.order - i):
                        assert abs(f.coefficient(i, j) - ref.get((i, j), 0)) \
                            <= 1e-12 * scale
            assert fa.valuation() == la

    def test_rounding_is_half_to_even(self):
        # m * 3 has PREC_BITS + 1 bits, so the product drops one bit; both
        # cases below are exact ties
        half = 1 << (PREC_BITS - 1)
        for m, want in ((half + 1, 3 * (half >> 1) + 2),    # 1.5 -> 2
                        (half + 3, 3 * (half >> 1) + 4)):   # 4.5 -> 4
            s = BiSeries([[m]], [[-m]], 1, exp=0) * 3
            assert (s.re[0][0], s.im[0][0], s.exp) == (want, -want, 1)

    def test_zero_constant_term_rejected(self):
        s = BiSeries.from_coeffs({(1, 0): 1}, 4).to_binary()
        with pytest.raises(DivisionByZeroSeries):
            s.inverse()

    def test_univariate_embedding_and_readback(self):
        vals = [ExactScalar(Fraction(1, 3), 1), 2, Fraction(-1, 7), 0.25 - 1j]
        x = BiSeries.from_coeffs({(k, 0): v for k, v in enumerate(vals)}, 4)
        y = BiSeries.from_coeffs({(0, k): v for k, v in enumerate(vals)}, 4)
        assert not (x.exact or y.exact)
        for k, v in enumerate(vals):
            assert abs(x.coefficient(k, 0) - complex(v)) < 1e-15
            assert abs(y.coefficient(0, k) - complex(v)) < 1e-15
        assert x.coefficient(0, 1) == y.coefficient(1, 0) == 0
        assert x.restrict_y0().coeffs == [x.coefficient(k, 0) for k in range(4)]


def _monomial(i, j, n):
    x = BiSeries.from_coeffs({(1, 0): 1}, n).to_binary()
    y = BiSeries.from_coeffs({(0, 1): 1}, n).to_binary()
    out = BiSeries.const(1, n).to_binary()
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
        return BiSeries.from_coeffs(coeffs, order)
    result, base = BiSeries.const(1, s.order), s
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
    return BiSeries.from_coeffs({(d - j % (d + 1), j % (d + 1)): ExactScalar(re, im)
                                 for d, j, re, im in entries}, order)


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
        s = BiSeries.from_coeffs({(1, 0): ExactScalar(Fraction(1, 3), 2)}, 4)
        assert (Fraction(3, 2) * s).coeffs == {(1, 0): ExactScalar(Fraction(1, 2), 3)}

    @pytest.mark.parametrize("order", [3, 7, 15])
    @pytest.mark.parametrize("bits", [1, 9, 64])
    def test_worst_case_entries_fit_the_slot(self, order, bits):
        # dense factors m(1 - i) and m(1 + i) with m = 2**bits - 1: every
        # product coefficient is 2 m**2 times its pair count, the largest
        # the Kronecker slot width must hold
        m = (1 << bits) - 1
        keys = [(d - j, j) for d in range(order) for j in range(d + 1)]
        a = BiSeries.from_coeffs({k: ExactScalar(m, -m) for k in keys}, order)
        b = BiSeries.from_coeffs({k: ExactScalar(m, m) for k in keys}, order)
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

    @settings(max_examples=100, deadline=None)
    @given(exact_trunc(), exact_trunc(), st.integers(-4, 30),
           st.sampled_from([2, Fraction(-3, 7), ExactScalar(Fraction(1, 3), -2)]))
    def test_operations_match_exactscalar_lists(self, a, b, cut, k):
        # each operation against the same one on the ExactScalar coefficient
        # lists: values, exponents, repr and JSON
        ca = [a.coefficient(j) for j in range(a.low, a.order)]
        low, order = min(a.low, b.low), min(a.order, b.order)
        checks = [
            (a + b, low, [a.coefficient(j) + b.coefficient(j) for j in range(low, order)]),
            (-a, a.low, [-c for c in ca]),
            (a * k, a.low, [c * k for c in ca]),
            (a / k, a.low, [c / k for c in ca]),
            (a.derivative(), a.low - (a.low != 0),
             [a.coefficient(j) * j for j in range(a.low + (a.low == 0), a.order)]),
            (a.truncate(max(cut, a.low)), a.low, ca[:max(cut - a.low, 0)]),
        ]
        v = a.valuation()
        checks.append((a.normalized_low(), v, ca[v - a.low:]))
        quotient = a / b
        _, _, inv = _list_inverse(b)
        ref = TruncSeries(ExactScalar(0), inv, low=-b.valuation(), exact=True)
        checks.append((quotient, *_list_product(a, ref)[::2]))
        for got, low, want in checks:
            assert got.exact and (got.low, got.order) == (low, low + len(want))
            assert got.coeffs == want
            assert [got.coefficient(j) for j in range(low, got.order)] == want
            assert repr(got) == (f"TruncSeries(center=0, low={low}, order={low + len(want)}, "
                                 f"exact, coeffs={want!r})")
            assert got.to_json_dict()["coeffs"] == [
                [[str(c.re.numerator), str(c.re.denominator)],
                 [str(c.im.numerator), str(c.im.denominator)]] for c in want]
            # the stored line is reduced: one positive denominator, coprime
            assert got.den > 0 and math.gcd(got.den, *got.re, *got.im) == 1

    @settings(max_examples=60, deadline=None)
    @given(exact_trunc(), st.sampled_from([Fraction(1, 8), ExactScalar(0, Fraction(-1, 16)),
                                           ExactScalar(Fraction(1, 20), Fraction(1, 32))]))
    def test_rearrange_matches_the_binomial_loop(self, s, target):
        # the generalized-binomial loop on ExactScalars (low < 0 included)
        # that the exact zi_shift replaced
        s = TruncSeries(ExactScalar(0), [c / 1000 ** k for k, c in
                                         enumerate(s.coefficient(j) for j in range(s.low, s.order))],
                        low=s.low, exact=True)
        try:
            got = rearrange_at(s, target)
        except (OutsideDisc, TooFewCoefficients):
            return
        dd = ExactScalar.coerce(target)
        want = [ExactScalar.zero()] * got.order
        for nn in range(s.low, s.order):
            binom, dpow = Fraction(1), dd ** nn
            for j in range(got.order):
                if j:
                    binom, dpow = binom * (nn - j + 1) / j, dpow / dd
                if nn < 0 or j <= nn:
                    want[j] = want[j] + s.coefficient(nn) * binom * dpow
        assert (got.exact, got.low, got.center) == (True, 0, dd)
        assert got.coeffs == want

    def test_lines_placed_as_bivariate_series(self):
        # an exact element enters a BiSeries as its line, equal to the
        # coefficient-dict route, in x and in y, with and without a cut
        s = TruncSeries(ExactScalar(0), [ExactScalar(Fraction(k + 1, 3 ** k), -k)
                                         for k in range(9)], low=-1, exact=True)
        s = s * TruncSeries.identity(ExactScalar(0), 9, exact=True)
        for slot, order in ((0, None), (1, None), (0, 5), (1, 5)):
            got = BiSeries.from_univariate(s, slot, order)
            n = s.order if order is None else order
            want = BiSeries.from_coeffs({(0, k) if slot else (k, 0): s.coefficient(k)
                                         for k in range(n)}, n)
            assert (got.re, got.im, got.den, got.order) == (want.re, want.im, want.den, want.order)

    @pytest.mark.parametrize("n", [1, 7, 16, 33])
    @pytest.mark.parametrize("bits", [1, 9, 64, 200])
    def test_worst_case_entries_fit_the_slot(self, n, bits):
        # dense m(1 - i) times m(1 + i), m = 2**bits - 1: coefficient k is
        # 2 m**2 (k + 1), the largest the slot width must hold
        m = (1 << bits) - 1
        re, im = _line_product([m] * n, [-m] * n, [m] * n, [m] * n, n)
        assert re == [2 * m * m * (k + 1) for k in range(n)]
        assert im == [0] * n


# -- complex TruncSeries on the array kernels -------------------------------------

def _loop_product(a, b):
    """Complex TruncSeries product as the double loop it replaced, with the
    valuation-aware order: (low, order, coeffs)."""
    va, vb = a.valuation(), b.valuation()
    order = min(a.order + vb, b.order + va)
    low = va + vb
    out = [0j] * (order - low)
    for i in range(va, a.order):
        ci = a.coefficient(i)
        if ci == 0:
            continue
        for j in range(vb, min(b.order, order - i)):
            out[i + j - low] = out[i + j - low] + ci * b.coefficient(j)
    return low, order, out


def _loop_inverse(b):
    """Complex TruncSeries inverse as the recurrence loop it replaced, with
    the exponents -v .. order - 2v: (low, order, coeffs)."""
    v = b.valuation()
    cs = [b.coefficient(k) for k in range(v, b.order)]
    inv0 = 1.0 / cs[0]
    out = [inv0]
    for k in range(1, b.order - v):
        acc = 0j
        for j in range(1, k + 1):
            acc = acc + cs[j] * out[k - j]
        out.append(-inv0 * acc)
    return -v, b.order - 2 * v, out


@st.composite
def complex_trunc(draw):
    """A complex TruncSeries: low -3..3, orders 1..24 above it, up to three
    zero leading entries, then a unit-sized leading coefficient."""
    low, n = draw(st.integers(-3, 3)), draw(st.integers(1, 24))
    part = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
    cs = [complex(draw(part), draw(part)) for _ in range(n)]
    lead = min(draw(st.integers(0, 3)), n - 1)
    cs[:lead] = [0j] * lead
    cs[lead] = draw(st.sampled_from([1, -1.5, 1j, 1 - 1j])) + cs[lead] / 4
    return TruncSeries(0.25, cs, low=low, exact=False)


def _assert_close(got, want):
    low, order, coeffs = want
    assert (got.exact, got.low, got.order) == (False, low, order)
    scale = max(abs(c) for c in coeffs)
    assert all(abs(g - w) <= 1e-13 * scale for g, w in zip(got.coeffs, coeffs))


class TestComplexTruncSeriesKernels:
    @settings(max_examples=150, deadline=None)
    @given(complex_trunc(), complex_trunc())
    def test_product_matches_double_loop(self, a, b):
        _assert_close(a * b, _loop_product(a, b))

    @settings(max_examples=150, deadline=None)
    @given(complex_trunc())
    def test_inverse_matches_recurrence_loop(self, b):
        _assert_close(b.inverse(), _loop_inverse(b))


# -- rational scale against ExactScalar dict references --------------------------

def _exact_ref(coeffs, order):
    """An ExactScalar dict reference as (its nonzero coefficients below
    order, order)."""
    return {k: c for k, c in coeffs.items()
            if sum(k) < order and not c.is_zero()}, order


def _assert_rational(got, want):
    """Exact equality with a (coeffs, order) reference, on the canonical
    rational scale: den is the lcm of the coefficient denominators."""
    coeffs, order = want
    assert got.exact and got.order == order
    assert got.coeffs == coeffs
    assert got.den == math.lcm(*(x.denominator for c in coeffs.values()
                                 for x in (c.re, c.im)))


@st.composite
def invertible_biseries(draw):
    s = draw(exact_biseries())
    c00 = draw(st.builds(ExactScalar, st.fractions(max_denominator=50),
                         st.fractions(max_denominator=50))
               .filter(lambda c: not c.is_zero()))
    return s + BiSeries.const(c00, s.order)


gaussian_q = st.builds(ExactScalar, st.fractions(max_denominator=1000),
                       st.fractions(max_denominator=1000))


class TestRationalScale:
    @settings(max_examples=100, deadline=None)
    @given(exact_biseries(), exact_biseries(), gaussian_q)
    def test_sum_difference_and_scalar_product(self, a, b, c):
        order = min(a.order, b.order)
        _assert_rational(a + b, _exact_ref(_ref_add(a.coeffs, b.coeffs), order))
        _assert_rational(b.__radd__(a), _exact_ref(_ref_add(b.coeffs, a.coeffs), order))
        minus_b = _ref_scale(b.coeffs, -1)
        _assert_rational(-b, _exact_ref(minus_b, b.order))
        _assert_rational(a - b, _exact_ref(_ref_add(a.coeffs, minus_b), order))
        for k in (c, 3, Fraction(-2, 7)):
            want = _exact_ref(_ref_scale(a.coeffs, k), a.order)
            _assert_rational(a * k, want)
            _assert_rational(a.__rmul__(k), want)

    @settings(max_examples=60, deadline=None)
    @given(invertible_biseries())
    def test_inverse(self, a):
        inv = a.inverse()
        _assert_rational(inv, _exact_ref(_ref_inverse(a.coeffs, a.order), a.order))
        assert (inv * a).coeffs == {(0, 0): ExactScalar.one()}

    @settings(max_examples=60, deadline=None)
    @given(exact_biseries(), st.integers(0, 22))
    def test_derivative_truncate_restrict(self, a, n):
        for slot in (0, 1):
            _assert_rational(a.derivative(slot),
                             _exact_ref(_ref_derivative(a.coeffs, slot), a.order - 1))
        keep = min(n, a.order)
        _assert_rational(a.truncate(n), ({k: c for k, c in a.coeffs.items()
                                          if sum(k) < keep}, keep))
        r = a.restrict_y0()
        assert r.exact and (r.low, r.order) == (0, a.order)
        assert r.coeffs == [a.coefficient(i, 0) for i in range(a.order)]

    @settings(max_examples=60, deadline=None)
    @given(exact_trunc())
    def test_compose_shift(self, f):
        if f.low < 0 and (f.valuation() or 0) < 0:
            with pytest.raises(SingularCenter):
                compose_shift(f)
            return
        want = {}
        for d in range(f.order):
            for i in range(d + 1):
                c = f.coefficient(d) * math.comb(d, i)
                if not c.is_zero():
                    want[(i, d - i)] = c
        _assert_rational(compose_shift(f), (want, f.order))

    def test_line_needs_one_variable(self):
        s = BiSeries.from_coeffs({(0, 0): 2, (1, 0): 3, (1, 1): 1}, 4)
        assert s.truncate(2).line(0) == ([2, 3], [0, 0])
        with pytest.raises(InvariantViolation):
            s.line(0)
        with pytest.raises(InvariantViolation):
            s.truncate(2).line(1)


# -- binary scale and mixed operands against mpmath --------------------------------

@st.composite
def dense_rational(draw):
    """A dense rational BiSeries of order 1..14 with mixed denominators."""
    n = draw(st.integers(1, 14))
    part = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                     st.sampled_from([1, 3, 7, 12, 1024, 3 ** 12]))
    return BiSeries.from_coeffs({(d - j, j): ExactScalar(draw(part), draw(part))
                                 for d in range(n) for j in range(d + 1)}, n)


def _mp_coeffs(s):
    """{(i, j): mpmath value} of every coefficient, exact for the binary
    scale and to 80 digits for the rational one."""
    out = {}
    for i in range(s.order):
        for j in range(s.order - i):
            if s.exact:
                c = s.coefficient(i, j)
                out[(i, j)] = mp.mpc(mp.mpf(c.re.numerator) / c.re.denominator,
                                     mp.mpf(c.im.numerator) / c.im.denominator)
            else:
                out[(i, j)] = _fixed_exact(s, i, j)
    return out


class TestBinaryAndMixedScale:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_within_budget(self, data):
        # a rational operand goes binary first, rounded relative to its own
        # largest coefficient, and the exact result is rounded once: the
        # error stays below 2**-150 of the larger of the result's largest
        # coefficient and what the operands' roundings can reach (for a
        # product, max|a| max|r|; for a sum, max(max|a|, max|r|))
        a = data.draw(fixed_series())
        r = data.draw(dense_rational())
        c = data.draw(gaussian_q.filter(lambda c: not c.is_zero()))
        with mp.workdps(80):
            ea, er = _mp_coeffs(a), _mp_coeffs(r)
            ma, mr = (max(abs(v) for v in e.values()) for e in (ea, er))
            n = min(a.order, r.order)
            keys = [(i, j) for i in range(n) for j in range(n - i)]
            ec = mp.mpc(mp.mpf(c.re.numerator) / c.re.denominator,
                        mp.mpf(c.im.numerator) / c.im.denominator)
            cases = [(a * r, _ref_mul(ea, er, n), ma * mr),
                     (r * a, _ref_mul(ea, er, n), ma * mr),
                     (a + r, {k: ea[k] + er[k] for k in keys}, max(ma, mr)),
                     (r - a, {k: er[k] - ea[k] for k in keys}, max(ma, mr)),
                     (a * c, _ref_scale(ea, ec), 0), (r.to_binary(), er, 0)]
            cases += [(a.derivative(slot), _ref_derivative(ea, slot), 0)
                      for slot in (0, 1)]
        for got, ref, reach in cases:
            assert not got.exact
            if ref:
                err, scale = _max_error(got, ref)
                assert err <= mp.ldexp(max(scale, reach), -150)

    def test_mixed_operands_promote_to_binary(self):
        r = BiSeries.const(ExactScalar(Fraction(1, 3)), 4)
        b = BiSeries.const(0.5, 4)
        assert r.exact and not b.exact
        for got in (r * b, b * r, r + b, b + r, r - b, r * 0.5, b * Fraction(1, 3)):
            assert not got.exact and got.order == 4


class TestConstantOperand:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_bit_identical_to_triangle_product(self, data):
        # a constant operand (the zero series included) takes the
        # one-Gaussian-factor branch; its result, order and scale are those
        # of the full triangle product, on either scale
        binary = data.draw(st.booleans())
        a = data.draw(fixed_series() if binary else exact_biseries())
        value = data.draw(st.one_of(st.just(ExactScalar(0)), gaussian_q))
        c = BiSeries.const(value, data.draw(st.integers(1, 22)))
        c = c.to_binary() if binary else c
        assert not any(map(any, c.re[1:] + c.im[1:]))
        for x, y in ((a, c), (c, a), (c, c)):
            vx, vy = x.valuation() or 0, y.valuation() or 0
            order = min(x.order + vy, y.order + vx)
            rows = _triangle_product(x.re, x.im, y.re, y.im, vx, vy, order)
            want = BiSeries([r[0] for r in rows], [r[1] for r in rows], order,
                            x.den * y.den, None if x.exp is None else x.exp + y.exp)
            got = x * y
            assert (got.re, got.im, got.order, got.den, got.exp) == (
                want.re, want.im, want.order, want.den, want.exp)
        got, want = a * value, a * BiSeries.const(value, a.order)
        assert (got.re, got.im, got.order, got.den, got.exp) == (
            want.re, want.im, want.order, want.den, want.exp)


# -- the row kernel against the one-point Gaussian kernel it replaced --------------

def _ref_pack_rows(re, im, slot):
    """One-point packing at t = 2**slot: (leading zeros z, real parts,
    imaginary parts, their sum) per row, from entry z on."""
    out = []
    for ra, rb in zip(re, im):
        z = 0
        while z < len(ra) and not (ra[z] or rb[z]):
            z += 1
        pr, pi = _pack(ra[z:], slot), _pack(rb[z:], slot)
        out.append((z, pr, pi, pr + pi))
    return out


def _ref_row_product(pa, pb, d, ks, slot):
    """Row d of a Gaussian product by three products per pair, always."""
    s1 = s2 = s3 = 0
    for k in ks:
        za, ar, ai, asum = pa[k]
        zb, br, bi, bsum = pb[d - k]
        z = (za + zb) * slot
        s1 += ar * br << z
        s2 += ai * bi << z
        s3 += asum * bsum << z
    return _unpack(s1 - s2, d + 1, slot), _unpack(s3 - s1 - s2, d + 1, slot)


def _ref_triangle_product(ar, ai, br, bi, va, vb, order):
    slot = _max_bits(ar + ai) + _max_bits(br + bi) + 2 * order.bit_length()
    pa, pb = _ref_pack_rows(ar, ai, slot), _ref_pack_rows(br, bi, slot)
    na, nb = len(ar), len(br)
    return [_ref_row_product(pa, pb, d, range(max(va, d - nb + 1),
                                              min(d - vb, na - 1) + 1), slot)
            for d in range(order)]


def _ref_line_product(ar, ai, br, bi, n):
    slot = _max_bits([ar, ai]) + _max_bits([br, bi]) + n.bit_length() + 2
    xr, xi, yr, yi = (_pack(v[:n], slot) for v in (ar, ai, br, bi))
    s1, s2 = xr * yr, xi * yi
    return (_unpack(s1 - s2, n, slot),
            _unpack((xr + xi) * (yr + yi) - s1 - s2, n, slot))


def _ref_row_recurrence(ar, ai, n, b0, step):
    """The inverse recurrence on the one-point kernel, every row computed."""
    re, im = [[b0[0]]], [[b0[1]]]
    bits_a = _max_bits(ar + ai)
    bits_b = max(abs(b0[0]), abs(b0[1])).bit_length()
    slot, pa, pb = 0, [], []
    for d in range(1, n):
        need = bits_a + bits_b + 2 * n.bit_length() + 4
        if need > slot:
            slot = need + 32
            pa = _ref_pack_rows(ar, ai, slot)
            pb = _ref_pack_rows(re, im, slot)
        rr, ri = step(*_ref_row_product(pa, pb, d, range(1, d + 1), slot))
        re.append(rr)
        im.append(ri)
        bits_b = max(bits_b, _max_bits([rr, ri]))
        pb += _ref_pack_rows([rr], [ri], slot)
    return re, im


@st.composite
def kernel_rows(draw, order=None):
    """Triangular Gaussian-integer rows with entries of exactly `bits` bits
    at their largest: real, complex or mixed rows, leading zeros of either
    parity, zero rows, negative entries and a valuation."""
    n = order if order is not None else draw(st.integers(1, 24))
    bits = draw(st.integers(1, 190))
    kind = draw(st.sampled_from(["real", "complex", "mixed"]))
    low = draw(st.integers(0, n - 1)) if draw(st.booleans()) else 0
    top = (1 << bits) - 1
    part = st.integers(-top, top)
    re, im = [], []
    for d in range(n):
        lead = draw(st.integers(0, d + 1))
        zero_row = d < low or draw(st.integers(0, 5)) == 0
        real = kind == "real" or (kind == "mixed" and draw(st.booleans()))
        re.append([0 if zero_row or j < lead else draw(part) for j in range(d + 1)])
        im.append([0 if zero_row or real or j < lead else draw(part) for j in range(d + 1)])
    d = draw(st.integers(low, n - 1))
    re[d][draw(st.integers(0, d))] = draw(st.sampled_from([top, -top]))
    return re, im


def _valuation(re, im):
    return next((d for d, (a, b) in enumerate(zip(re, im)) if any(a) or any(b)), 0)


class TestRowKernel:
    """The two-point, real-aware kernel gives the one-point kernel's rows."""

    @settings(max_examples=250, deadline=None)
    @given(kernel_rows(), kernel_rows())
    def test_triangle_product_bit_identical(self, a, b):
        va, vb = _valuation(*a), _valuation(*b)
        order = min(len(a[0]) + vb, len(b[0]) + va)
        assert _triangle_product(*a, *b, va, vb, order) == \
            _ref_triangle_product(*a, *b, va, vb, order)

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("order", [1, 2, 7, 24])
    def test_slots_around_the_crossover(self, shift, order):
        # slot = bits_a + bits_b + 2 L: odd and even widths just below, at
        # and just above the width where the second point starts
        bits_b = 37
        bits_a = series._TWO_POINT_SLOT + shift - bits_b - 2 * order.bit_length()
        rng = np.random.default_rng(order * 3 + shift)
        rows = []
        for bits, real in ((bits_a, False), (bits_b, True), (bits_a, True)):
            top = (1 << bits) - 1
            re = [[int(v) % top - top // 2 for v in rng.integers(0, 2 ** 62, d + 1)]
                  for d in range(order)]
            im = [[0] * (d + 1) if real else [-x for x in r] for d, r in enumerate(re)]
            re[-1][0] = top
            rows.append((re, im))
        for a, b in ((rows[0], rows[1]), (rows[1], rows[0]), (rows[2], rows[1]),
                     (rows[0], rows[0])):
            assert _triangle_product(*a, *b, 0, 0, order) == \
                _ref_triangle_product(*a, *b, 0, 0, order)
            assert _line_product(a[0][-1], a[1][-1], b[0][-1], b[1][-1], order) == \
                _ref_line_product(a[0][-1], a[1][-1], b[0][-1], b[1][-1], order)

    @settings(max_examples=150, deadline=None)
    @given(kernel_rows(), kernel_rows(), st.integers(1, 24))
    def test_line_product_bit_identical(self, a, b, n):
        x = [(r + [0] * n)[:n] for r in (a[0][-1], a[1][-1])]
        y = [(r + [0] * n)[:n] for r in (b[0][-1], b[1][-1])]
        assert _line_product(*x, *y, n) == _ref_line_product(*x, *y, n)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_inverse_bit_identical(self, data):
        re, im = data.draw(kernel_rows())
        binary = data.draw(st.booleans())
        if not (re[0][0] or im[0][0]) or binary and _max_bits(re + im) > PREC_BITS:
            re[0][0] = -(1 << _max_bits(re + im))   # g survives the binary rounding
        if binary:
            s = BiSeries(re, im, len(re), exp=data.draw(st.integers(-300, 40)))
        else:
            s = BiSeries(re, im, len(re), den=data.draw(st.integers(1, 10 ** 12)))
        got = s.inverse()
        with mock.patch.object(series, "_row_recurrence", _ref_row_recurrence):
            want = s.inverse()
        assert (got.re, got.im, got.order, got.den, got.exp) == (
            want.re, want.im, want.order, want.den, want.exp)


class TestConstantInverse:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_row_zero_alone(self, data):
        # a series with only row 0 nonzero inverts without a row product,
        # to the full recurrence's rows, order and scale, on either scale
        value = data.draw(gaussian_q.filter(lambda c: not c.is_zero()))
        c = BiSeries.const(value, data.draw(st.integers(1, 24)))
        for s in (c, c.to_binary(), BiSeries(c.re, c.im, c.order, exp=-40)):
            with mock.patch.object(series, "_row_product", side_effect=AssertionError):
                got = s.inverse()
            with mock.patch.object(series, "_row_recurrence", _ref_row_recurrence):
                want = s.inverse()
            assert (got.re, got.im, got.order, got.den, got.exp) == (
                want.re, want.im, want.order, want.den, want.exp)
