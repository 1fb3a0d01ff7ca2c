"""Differential tests against sympy: resultants, discriminants, exact series
products and inverses, and the doubling chain of sin."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aatkit.elimination import discriminant, eliminate_chain, resultant
from aatkit.poly import MultiPoly, pseudo_rem
from aatkit.scalars import ExactScalar
from aatkit.series import TruncSeries

sympy = pytest.importorskip("sympy")
from sympy.polys.ring_series import rs_series_inversion  # noqa: E402
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402


def to_sympy_scalar(c: ExactScalar):
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))


def to_sympy(p: MultiPoly):
    syms = [sympy.Symbol(v) for v in p.vars]
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = to_sympy_scalar(c)
        for s, e in zip(syms, exps):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


def same(p: MultiPoly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def sympy_resultant(f: MultiPoly, g: MultiPoly, var: str = "z"):
    """Res(f, g) by sympy.  sympy.resultant(f, g) returns Res(g, f) when
    deg f < deg g (its own Sylvester determinant disagrees by the sign
    (-1)^(mn) there), so it is asked with the higher degree first."""
    m, n = f.degree(var), g.degree(var)
    if m >= n:
        return sympy.resultant(to_sympy(f), to_sympy(g), sympy.Symbol(var))
    return (-1) ** (m * n) * sympy.resultant(to_sympy(g), to_sympy(f),
                                             sympy.Symbol(var))


gaussian = st.builds(ExactScalar,
                     st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3])),
                     st.sampled_from([0, 0, 1, -2]))


@st.composite
def poly_in(draw, z_degree: int, lead=None):
    """A polynomial of exact degree z_degree in z over Q(i)[u, w]; `lead`
    fixes its leading coefficient in z."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, z_degree - 1)),
        gaussian, max_size=5))
    p = MultiPoly(("u", "w", "z"), terms)
    if lead is None:
        lead = MultiPoly.constant(draw(gaussian.filter(bool)), ("u", "w"))
    return p + lead.with_vars(("u", "w")) * MultiPoly.variable("z") ** z_degree


class TestResultantAgainstSympy:
    """Every branch of the reduced resultant: the pseudo-remainder of the
    higher-degree operand by the other is nonzero of positive degree, of
    degree zero, or zero, with a constant or a non-constant leading
    coefficient, and either operand first."""

    @staticmethod
    def check(f, g):
        got = resultant(f, g, "z")
        assert got.vars == ("u", "w")
        assert same(got, sympy_resultant(f, g))
        return got

    def test_sympy_convention(self):
        # Res(1 + 2z, z^3 + 1) = 2^3 (1 - 1/8) = 7 is the Sylvester
        # determinant; sympy.resultant itself returns -7 here
        z = MultiPoly.variable("z")
        got = resultant(1 + 2 * z, z ** 3 + 1, "z")
        assert got == MultiPoly.constant(7)
        Z = sympy.Symbol("z")
        assert sylvester(1 + 2 * Z, Z ** 3 + 1, Z, 1).det() == 7
        assert same(got, sympy_resultant(1 + 2 * z, z ** 3 + 1))

    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 4))
    def test_random_degrees(self, data, df, dg):
        self.check(data.draw(poly_in(df)), data.draw(poly_in(dg)))

    @settings(max_examples=20, deadline=None)
    @given(st.data(), st.integers(2, 4), st.integers(1, 3), st.booleans())
    def test_non_monic_leading_coefficient(self, data, m, n, b_first):
        n = min(n, m)
        u, w = MultiPoly.variable("u"), MultiPoly.variable("w")
        lead = (2 * u + 3 * w - 1).with_vars(("u", "w"))
        A, B = data.draw(poly_in(m)), data.draw(poly_in(n, lead=lead))
        assert not B.leading_wrt("z").is_constant()
        if b_first:
            self.check(B, A)
        else:
            self.check(A, B)

    @settings(max_examples=15, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(0, 2))
    def test_zero_pseudo_remainder(self, data, n, extra):
        B = data.draw(poly_in(n))
        A = B * data.draw(poly_in(extra + 1))
        assert pseudo_rem(A, B, "z").is_zero()
        assert self.check(A, B).is_zero()
        assert self.check(B, A).is_zero()

    @settings(max_examples=15, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_constant_pseudo_remainder(self, data, m):
        A, B = data.draw(poly_in(m)), data.draw(poly_in(1))
        assert pseudo_rem(A, B, "z").degree("z") <= 0
        self.check(A, B)
        self.check(B, A)


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(2, 4))
def test_discriminant_against_sympy(data, n):
    f = data.draw(poly_in(n))
    want = sympy.discriminant(to_sympy(f), sympy.Symbol("z"))
    assert same(discriminant(f, "z"), want)


# -- exact series -----------------------------------------------------------

T = sympy.Symbol("t")


@st.composite
def exact_series(draw):
    """An exact TruncSeries: order up to 14 above its low exponent (-2..2),
    Gaussian-rational coefficients, possibly leading zeros."""
    low = draw(st.integers(-2, 2))
    n = draw(st.integers(1, 14))
    cs = draw(st.lists(gaussian, min_size=n, max_size=n))
    if all(c.is_zero() for c in cs):
        cs[-1] = ExactScalar(Fraction(3, 2), 1)
    return TruncSeries(ExactScalar(0), cs, low=low, exact=True)


def as_expr(s: TruncSeries):
    return sum((to_sympy_scalar(s.coefficient(k)) * T ** k
                for k in range(s.low, s.order)), sympy.Integer(0))


def assert_coefficients(s: TruncSeries, expr):
    expr = sympy.expand(expr)
    for k in range(s.low, s.order):
        assert sympy.expand(to_sympy_scalar(s.coefficient(k)) - expr.coeff(T, k)) == 0


@settings(max_examples=30, deadline=None)
@given(exact_series(), exact_series())
def test_exact_series_product_against_sympy(a, b):
    # within the valuation-aware order the truncated tails cannot reach
    # a coefficient, so the product of the truncations is exact there
    got = a * b
    assert got.exact
    assert got.order == min(a.order + b.valuation(), b.order + a.valuation())
    assert_coefficients(got, as_expr(a) * as_expr(b))


@settings(max_examples=30, deadline=None)
@given(exact_series())
def test_exact_series_inverse_against_sympy(b):
    # 1/b = t^-v / (b / t^v), the unit part inverted by sympy's ring series
    got = b.inverse()
    v = b.valuation()
    assert (got.low, got.order) == (-v, b.order - 2 * v)
    ring, t = sympy.ring("t", sympy.QQ_I)
    unit = ring(sympy.expand(as_expr(b) / T ** v))
    inv = rs_series_inversion(unit, t, got.order + v)
    assert_coefficients(got, inv.as_expr() / T ** v)


# -- the doubling chain --------------------------------------------------------

def test_sin_doubling_chain_against_sympy():
    # x = sin^2-like relation of P(u) and P(u/2): x^2 = 4 z^2 (1 - z^2);
    # each sympy step is the resultant made square-free, as in the chain
    x, z = MultiPoly.variable("x"), MultiPoly.variable("z")
    got = eliminate_chain(x ** 2 - 4 * z ** 2 * (1 - z ** 2), 4)
    X, Z = sympy.symbols("x z")
    fx = X ** 2 - 4 * Z ** 2 * (1 - Z ** 2)
    gamma = fx.subs(Z, sympy.Symbol("x1"))
    for k in range(2, 5):
        mid, new = sympy.Symbol(f"x{k - 1}"), sympy.Symbol(f"x{k}")
        link = fx.subs({Z: new, X: mid}, simultaneous=True)
        step = sympy.resultant(gamma, link, mid)
        gamma = sympy.sqf_part(sympy.Poly(step, new, X)).as_expr()
    gens = (sympy.Symbol("x4"), X)
    pw, pg = sympy.Poly(gamma, *gens), sympy.Poly(to_sympy(got), *gens)
    assert pg.degree(gens[0]) == 32
    assert sympy.expand(pw.LC() * pg.as_expr() - pg.LC() * pw.as_expr()) == 0
