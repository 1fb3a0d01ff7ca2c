"""Exact scalars and sparse polynomial arithmetic."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aatkit import poly, zi
from aatkit.cli import parse_spec_data
from aatkit.errors import (AatkitError, DegreeZero, DivisionByZeroScalar, InexactDivision,
                           MissingVariable, PolyDomainError, SchemaError)
from aatkit.poly import (
    MultiPoly,
    content_wrt,
    divexact,
    monic_lex,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_squarefree_content,
    pseudo_rem,
)
from aatkit.scalars import ExactScalar


def brute_mul(a: MultiPoly, b: MultiPoly) -> dict:
    """Independent product oracle: naive term enumeration on aligned dicts."""
    a, b = a.align(b)
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, ExactScalar.zero()) + ca * cb
    return {k: v for k, v in out.items() if not v.is_zero()}


class TestExactScalar:
    def test_field_ops(self):
        a = ExactScalar(Fraction(1, 2), Fraction(1, 3))
        b = ExactScalar(Fraction(-2, 5), 1)
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * a.conjugate() == ExactScalar(
            Fraction(1, 4) + Fraction(1, 9))

    def test_lowest_terms_by_construction(self):
        c = ExactScalar(Fraction(2, 4), Fraction(-3, -9))
        assert c.re == Fraction(1, 2) and c.re.denominator == 2
        assert c.im == Fraction(1, 3) and c.im.denominator > 0

    def test_pow_and_inverse(self):
        i = ExactScalar(0, 1)
        assert i ** 2 == ExactScalar(-1)
        assert i ** -1 == ExactScalar(0, -1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            ExactScalar.coerce(0.5)
        with pytest.raises(TypeError):
            ExactScalar(1) + 0.5
        with pytest.raises(TypeError):
            0.5 * ExactScalar(1)

    def test_series_operand_reaches_its_reflected_method(self):
        # an operand ExactScalar cannot coerce gives NotImplemented, so a
        # scalar multiplies a series from the left as well as from the right
        from aatkit.series import BiSeries, TruncSeries
        two = ExactScalar(2)
        t = TruncSeries.const(1, ExactScalar(0), 4, exact=True)
        assert (two * t).coeffs == (t * two).coeffs == [ExactScalar(2)] + [ExactScalar(0)] * 3
        b = BiSeries.const(ExactScalar(3), 4)
        assert dict((two * b).coeffs) == dict((b * two).coeffs) == {(0, 0): ExactScalar(6)}


class TestMultiPoly:
    def test_mul_difference_of_squares(self):
        U, V = MultiPoly.variable("U"), MultiPoly.variable("V")
        assert poly_mul(U + V, U - V) == U ** 2 - V ** 2

    def test_mul_identity_case(self):
        U, V, W = (MultiPoly.variable(v) for v in "UVW")
        p = W - U * V
        assert poly_mul(p, MultiPoly.constant(1)) == p

    def test_mul_square_expansion(self):
        # oracle: naive term enumeration
        U, V, W = (MultiPoly.variable(v) for v in "UVW")
        p = W - U - V
        expect = brute_mul(p, p)
        got = poly_mul(p, p)
        assert got.terms == expect
        expanded = (W ** 2 + U ** 2 + V ** 2
                    - 2 * U * W - 2 * V * W + 2 * U * V)
        assert got == expanded

    def test_eval_exp_relation(self):
        U, V, W = (MultiPoly.variable(v) for v in "UVW")
        assert poly_eval(W - U * V, {"U": 2, "V": 3, "W": 6}) == 0

    def test_eval_difference_of_squares_zero(self):
        U, V = MultiPoly.variable("U"), MultiPoly.variable("V")
        assert poly_eval(U ** 2 - V ** 2, {"U": 1, "V": 1}) == 0

    def test_eval_reference_cubic_regular_root(self):
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        F = 8 * u * z ** 3 + 3 * (1 - u) * z + (1 - u)
        assert abs(poly_eval(F, {"u": 0, "z": -1 / 3})) < 1e-15

    @staticmethod
    def recursive_eval(p: MultiPoly, assignment) -> complex:
        """The Horner recursion through coefficient_wrt sub-polynomials that
        MultiPoly.eval replaced; eval must keep its floating-point result."""
        live = [v for v in p.vars if p.degree(v) > 0]
        if not live:
            return complex(p.constant_value())
        v = live[0]
        acc = 0j
        for k in range(p.degree(v), -1, -1):
            acc = acc * complex(assignment[v]) + \
                TestMultiPoly.recursive_eval(p.coefficient_wrt(v, k), assignment)
        return acc

    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(
               st.tuples(*[st.integers(0, 3)] * 4),
               st.builds(ExactScalar, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
                         st.sampled_from([0, 0, Fraction(1, 3), -2])),
               max_size=8),
           st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False), min_size=4, max_size=4),
           st.permutations("uvwx"))
    def test_eval_matches_the_recursion(self, terms, point, names):
        p = MultiPoly(names, terms)
        assignment = dict(zip(names, point))
        assert repr(p.eval(assignment)) == repr(self.recursive_eval(p, assignment))

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
               st.tuples(*[st.integers(0, 3)] * 3),
               st.builds(ExactScalar, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
                         st.sampled_from([0, Fraction(1, 3), -2])),
               max_size=8),
           st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False), min_size=15,
                    max_size=15))
    def test_eval_over_arrays_is_elementwise(self, terms, values):
        p = MultiPoly("UVW", terms)
        cols = [np.array(values[i::3]) for i in range(3)]
        got = p.eval(dict(zip("UVW", cols)))
        for k in range(5):
            at = [c[k] for c in cols]
            want = p.eval(dict(zip("UVW", at)))
            size = sum(abs(complex(c)) * math.prod(abs(x) ** e for x, e in zip(at, exps))
                       for exps, c in p.terms.items())  # Horner's error scale
            assert abs(np.broadcast_to(got, (5,))[k] - want) <= 1e-14 * max(1.0, size)

    def test_eval_missing_variable(self):
        U, V = MultiPoly.variable("U"), MultiPoly.variable("V")
        with pytest.raises(MissingVariable):
            poly_eval(U * V, {"U": 1})

    def test_alignment_by_name(self):
        U = MultiPoly.variable("U")
        W = MultiPoly.variable("W")
        s = U + W
        assert s.vars == ("U", "W")
        assert s.degree("U") == 1 and s.degree("W") == 1

    def test_json_round_trip_sorted(self):
        U, V, W = (MultiPoly.variable(v) for v in "UVW")
        p = W - U * V + MultiPoly.constant(ExactScalar(Fraction(1, 2), 3))
        data = p.to_json_dict()
        exps = [tuple(t["exps"]) for t in data["terms"]]
        assert exps == sorted(exps)
        assert MultiPoly.from_json_dict(data) == p


class TestSquareFreeContent:
    def test_repeated_factor_collapses(self):
        z = MultiPoly.variable("z")
        p = (z - 1) ** 2 * (z + 2)
        got = poly_squarefree_content(p, "z")
        assert got == monic_lex((z - 1) * (z + 2))

    def test_content_removed(self):
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        got = poly_squarefree_content(u * (z ** 2 - u), "z")
        assert got == monic_lex(z ** 2 - u)

    def test_reference_cubic_at_minus_one(self):
        # F(-1, z) = -2 (z-1)(2z+1)^2; square-free part (z-1)(2z+1) up to scalar
        z = MultiPoly.variable("z")
        p = (z - 1) * (2 * z + 1) ** 2 * (-2)
        got = poly_squarefree_content(p, "z")
        assert got == monic_lex((z - 1) * (2 * z + 1))

    def test_constant_rejected(self):
        z = MultiPoly.variable("z")
        with pytest.raises(DegreeZero):
            poly_squarefree_content(MultiPoly.constant(3, ("z",)), "z")

    def test_output_coprime_with_derivative(self):
        z, u = MultiPoly.variable("z"), MultiPoly.variable("u")
        p = (z - u) ** 3 * (z + 1) ** 2 * (z * z - u)
        sqf = poly_squarefree_content(p, "z")
        g = poly_gcd(sqf, sqf.derivative("z"))
        assert g.is_constant()


def _chain(p, var):
    """The GCD chain of poly_squarefree_content without its certificate:
    divide out the content, then the GCD with the derivative."""
    prim = divexact(p, content_wrt(p, var))
    return monic_lex(divexact(prim, poly_gcd(prim, prim.derivative(var))))


@st.composite
def _factor(draw, vars):
    """A small polynomial with Gaussian-rational coefficients."""
    part = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 5]))
    coeff = st.builds(ExactScalar, part, st.one_of(st.just(0), part))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 1)] * len(vars)), coeff,
                                 min_size=1, max_size=3))
    return MultiPoly(vars, terms)


@st.composite
def _planted(draw):
    """A polynomial in x and up to two more variables, times a planted
    square and a planted content (free of x) when drawn."""
    vars = ("x",) + tuple(draw(st.sampled_from([(), ("y",), ("y", "z")])))
    p = draw(_factor(vars))
    if draw(st.booleans()):
        p = p * draw(_factor(vars)) ** 2
    if len(vars) > 1 and draw(st.booleans()):
        p = p * draw(_factor(vars[1:])).with_vars(vars)
    return p


class TestSquareFreeCertificate:
    """poly_squarefree_content proves most inputs content-free and
    square-free on images modulo zi._P and returns monic_lex(p) for them;
    every other input runs the GCD chain."""

    @settings(max_examples=80, deadline=None)
    @given(_planted())
    def test_equals_the_gcd_chain(self, p):
        if p.degree("x") <= 0:
            return
        got, want = poly_squarefree_content(p, "x"), _chain(p, "x")
        assert repr(got) == repr(want) and list(got.terms) == list(want.terms)

    def _runs_chain(self, p):
        with mock.patch.object(poly, "content_wrt", wraps=poly.content_wrt) as spy:
            got = poly_squarefree_content(p, "x")
        assert got == _chain(p, "x") and list(got.terms) == list(_chain(p, "x").terms)
        return spy.call_count > 0

    def test_forced_fallbacks_run_the_chain(self):
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        repeated = (x + 1) ** 2 * (x + 2)
        # y is the variable at index 1, so its point is 2 * 1 + 3 = 5
        lead_vanishes = (y - 5) * x ** 2 + x + y
        den_is_p = x ** 2 + x * Fraction(1, zi._P) + 1
        assert all(self._runs_chain(p) for p in (repeated, lead_vanishes, den_is_p))
        assert poly_squarefree_content(lead_vanishes, "x") == monic_lex(lead_vanishes)

    def test_certified_inputs_skip_the_chain(self):
        x, y, z = (MultiPoly.variable(v) for v in "xyz")
        for p in (x ** 2 + 1, (x - y) * (x + y + 1), y * x ** 2 + z * x + y * z + 1):
            assert not self._runs_chain(p)
            assert poly_squarefree_content(p, "x") == monic_lex(p)


class TestGcdDivision:
    def test_divexact_round_trip(self):
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        a = (z ** 2 - u) * (3 * z + u ** 2)
        assert divexact(a, z ** 2 - u) == 3 * z + u ** 2

    def test_divexact_rejects_nondivisor(self):
        z = MultiPoly.variable("z")
        with pytest.raises(InexactDivision):
            divexact(z ** 2 + 1, z + 1)

    def test_gcd_common_factor(self):
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        g = z - u
        a = g * (z + 1)
        b = g * (z * z + u)
        assert poly_gcd(a, b) == monic_lex(g)

    def test_gcd_coprime(self):
        z = MultiPoly.variable("z")
        assert poly_gcd(z + 1, z + 2).is_constant()

    def test_content(self):
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        p = u * z ** 2 + u * u * z
        c = content_wrt(p, "z")
        assert c == monic_lex(u)


def _one_factor_per_step_prem(a, b, var):
    """The pseudo-remainder as it was once computed: one factor lc(b) per
    reduction step, so lc(b)^(steps) * a mod b (a lower power than the
    documented one when a reduction step drops the degree by more than
    one)."""
    da, db = a.degree(var), b.degree(var)
    if da < db:
        return a
    lc_b = b.leading_wrt(var)
    x = MultiPoly.variable(var)
    rem = a
    while not rem.is_zero() and rem.degree(var) >= db:
        rem = rem * lc_b - b * rem.leading_wrt(var) * x ** (rem.degree(var) - db)
    return rem


@st.composite
def uz_poly(draw, max_z=3):
    """A polynomial in (u, z) with small rational coefficients."""
    part = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, max_z)),
                                 part, min_size=1, max_size=6))
    return MultiPoly(("u", "z"), terms)


class TestPseudoRemainder:
    def test_documented_power_of_the_leading_coefficient(self):
        # one reduction step drops z^2 + 1 to the constant 1, yet the
        # pseudo-remainder carries lc(b)^(2 - 1 + 1) = 4
        z = MultiPoly.variable("z")
        assert pseudo_rem(z ** 2 + 1, 2 * z, "z") == MultiPoly.constant(4, ("z",))

    @settings(max_examples=80, deadline=None)
    @given(uz_poly(), uz_poly(max_z=2))
    def test_definition(self, a, b):
        # deg prem < deg b and lc(b)^(da-db+1) a - prem is a multiple of b
        da, db = a.degree("z"), b.degree("z")
        if db < 0 or da < db:
            return
        r = pseudo_rem(a, b, "z")
        assert r.degree("z") < db
        scaled = a * b.leading_wrt("z").with_vars(a.vars) ** (da - db + 1) - r
        if not scaled.is_zero():
            divexact(scaled, b)            # raises InexactDivision otherwise

    @settings(max_examples=60, deadline=None)
    @given(uz_poly(), uz_poly(), uz_poly(max_z=1))
    def test_gcd_output_unchanged(self, a, b, c):
        # poly_gcd strips content after every pseudo-remainder, so the
        # power of lc(b) in it cannot reach its (monic_lex) output
        a, b = a * c, b * c
        got = poly_gcd(a, b)
        saved = poly.pseudo_rem
        poly.pseudo_rem = _one_factor_per_step_prem
        try:
            want = poly_gcd(a, b)
        finally:
            poly.pseudo_rem = saved
        assert got.vars == want.vars and got.terms == want.terms

    def test_zero_divisor_is_typed(self):
        z = MultiPoly.variable("z")
        with pytest.raises(InexactDivision):
            pseudo_rem(z + 1, MultiPoly.zero(("z",)), "z")


def test_divexact_by_zero_is_typed():
    z = MultiPoly.variable("z")
    with pytest.raises(InexactDivision) as info:
        divexact(z + 1, MultiPoly.zero(("z",)))
    assert isinstance(info.value, AatkitError)


@pytest.mark.parametrize("divide", [lambda: ExactScalar(1, 2) / ExactScalar(0),
                                    lambda: 3 / ExactScalar(0),
                                    lambda: ExactScalar(0) ** -2])
def test_scalar_division_by_zero_is_typed(divide):
    with pytest.raises(DivisionByZeroScalar) as info:
        divide()
    assert isinstance(info.value, AatkitError)
    assert isinstance(info.value, ZeroDivisionError)   # old except clauses still catch it


# -- typed errors: one case per raise site of poly.py -------------------------

_u, _z = MultiPoly.variable("u"), MultiPoly.variable("z")
POLY_DOMAIN_ERRORS = {
    "exponent vector length": lambda: MultiPoly(("u", "z"), {(1,): 1}),
    "negative exponent": lambda: MultiPoly(("z",), {(-1,): 1}),
    "constant_value of a nonconstant": lambda: (_z + 1).constant_value(),
    "drop a live variable": lambda: (_u * _z).with_vars(("z",)),
    "negative power": lambda: _z ** -1,
    "univariate_coeffs of a bivariate": lambda: (_u * _z).univariate_coeffs("z"),
    "rename onto a present variable": lambda: (_u * _z).rename_var("u", "z"),
}


@pytest.mark.parametrize("site", sorted(POLY_DOMAIN_ERRORS))
def test_poly_domain_errors_are_typed(site):
    with pytest.raises(PolyDomainError) as info:
        POLY_DOMAIN_ERRORS[site]()
    assert isinstance(info.value, AatkitError)


@pytest.mark.parametrize("terms", [
    [{"exps": [1], "re": ["1", "1"]}],           # wrong length for (u, z)
    [{"exps": [0, -2], "re": ["1", "1"]}],       # negative exponent
    [{"exps": [0.5, 0], "re": ["1", "1"]}],      # a float exponent int() would truncate
    [{"exps": [1, 0], "re": [1.5, "1"]}],        # a float numerator, likewise
])
def test_bad_polynomial_file_is_a_schema_error(terms):
    with pytest.raises(SchemaError):
        parse_spec_data({"vars": ["u", "z"], "terms": terms})
