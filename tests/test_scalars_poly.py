"""Exact scalars and sparse polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aatkit import poly
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
    zi_coeffs,
    zi_derivative,
    zi_divexact,
    zi_gcd,
    zi_primitive,
)
from aatkit.scalars import ExactScalar, gauss_divexact, gauss_gcd


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
])
def test_bad_polynomial_file_is_a_schema_error(terms):
    with pytest.raises(SchemaError):
        parse_spec_data({"vars": ["u", "z"], "terms": terms})


# -- the univariate core on Gaussian integers ----------------------------------

UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def test_gauss_gcd_and_exact_division():
    g = gauss_gcd((3, 4), (5, 0))                # 3 + 4i = (2 + i)^2, 5 = (2 + i)(2 - i)
    assert g[0] ** 2 + g[1] ** 2 == 5
    assert gauss_divexact(3, 4, g) and gauss_divexact(5, 0, g)   # no remainder
    assert gauss_gcd((0, 0), (1, 2)) == (1, 2) and gauss_gcd((1, 2), (0, 0)) == (1, 2)
    assert gauss_gcd((6, 0), (4, 0)) in [(2 * a, 2 * b) for a, b in UNITS]
    with pytest.raises(InexactDivision):
        gauss_divexact(1, 0, (1, 1))


def test_zi_gcd_is_primitive_and_divides():
    x = MultiPoly.variable("x")
    i = MultiPoly.constant(ExactScalar(0, 1), ("x",))
    D, a = zi_coeffs((2 + 2 * i) * (x - i) ** 2 * (x + 3), "x")
    _, b = zi_coeffs(6 * (x - i) * (x - 5), "x")
    assert D == 1 and a[0] == (2, 2)
    x_minus_i = [(1, 0), (0, -1)]
    for g in (zi_gcd(a, b), zi_gcd(b, a), zi_gcd(a, zi_derivative(a))):
        assert len(g) == 2 and g[0] in UNITS          # primitive, degree 1
        assert zi_divexact(g, x_minus_i) == [g[0]]
    assert zi_gcd(b, [(7, 0)]) == [(1, 0)]
    assert zi_primitive([(4, 0), (6, 0)]) == [(2, 0), (3, 0)]
    # 2 + 2i and 4i share (1 + i)^3; what is left is a unit times (1, 1 + i)
    (ur, ui), rest = zi_primitive([(2, 2), (0, 4)])
    assert (ur, ui) in UNITS and rest == (ur - ui, ur + ui)
    with pytest.raises(InexactDivision):
        zi_divexact(b, [(1, 0), (1, 0)])
