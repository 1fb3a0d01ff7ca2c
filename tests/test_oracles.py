"""Answer oracles on drawn inputs: each property checks an engine's answer
with an oracle that shares no code with that engine.  The draws are fixed
(derandomized), so every run sees the same examples.

Elimination: gcd_in_w on polynomial coefficients is sympy's gcd, made
primitive in W and scaled so that its leading coefficient in W is
lex-monic.  The drawn pairs g f1, g f2 include leading coefficients that
are not constant and pairs that share only W-free content (gcd 1).

Discovery: for a Moebius map phi(u) = (a u + b) / (c u + d), ad - bc != 0,
its inverse psi(x) = (d x - b) / (a - c x) turns phi(u + v) into
psi(W) = psi(U) + psi(V), and clearing denominators gives a relation of
degree at most 1 in each of U, V, W.  Every relation discover_aat returns
at (1, 1, 1) must pass verify_aat at a second regular base, and that
closed form, built here with sympy, must lie in their span.
"""

from fractions import Fraction

import sympy
from hypothesis import assume, example, given, settings, strategies as st

from aatkit.aat import discover_aat, verify_aat
from aatkit.elimination import PolyInW, gcd_in_w
from aatkit.functions import FunctionSpec
from aatkit.poly import MultiPoly
from aatkit.scalars import ExactScalar

gaussian_int = st.tuples(st.integers(-3, 3), st.integers(-3, 3))

# candidate second bases, tried in order: the first regular one is used
SECOND_BASES = [ExactScalar(Fraction(1, 3), Fraction(1, 7)),
                ExactScalar(Fraction(-2, 5), Fraction(1, 3)),
                ExactScalar(Fraction(3, 4), Fraction(-1, 5))]

U, V, W = sympy.symbols("U V W")
u, v = sympy.symbols("u v")
BOX = [U ** i * V ** j * W ** k for i in range(2) for j in range(2) for k in range(2)]


def _to_sympy(p: MultiPoly):
    return sum((sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
               * sympy.prod(sympy.Symbol(x) ** e for x, e in zip(p.vars, exps))
               for exps, c in p.terms.items())


def _box_vector(expr) -> list:
    """Coefficients of expr over the monomials of the (1, 1, 1) box."""
    poly = sympy.Poly(sympy.expand(expr), U, V, W)
    assert poly.total_degree() <= 3 and max(poly.degree(x) for x in (U, V, W)) <= 1
    return [poly.coeff_monomial(m) for m in BOX]


# polynomials in W, u, v: up to three terms, degree <= 2 in W, <= 1 in u and v
poly_wuv = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1),
                              gaussian_int), min_size=1, max_size=3).map(
    lambda ts: MultiPoly(("W", "u", "v"), {tuple(e): ExactScalar(x, y) for *e, (x, y) in ts}))
pu, pv, pW = (MultiPoly.variable(x) for x in ("u", "v", "W"))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(poly_wuv, poly_wuv, poly_wuv)
@example(pu * pW + 1, pW - pu, pW + 2)                  # gcd u W + 1: leading coefficient u
@example(pu, pW + pu + 1, (pu - 1) * pW + pu)          # only u is shared: gcd 1
@example(pu * pv * pW ** 2 * ExactScalar(1, 2) + (pv - ExactScalar(0, 1)) * pW + pu,
         3 * (pW + pv), (pu * pW - 3) * ExactScalar(0, 2))
def test_polynomial_gcd_in_w_against_sympy(g, f1, f2):
    A, B = g * f1, g * f2
    assume(not A.is_zero() and not B.is_zero())
    got = gcd_in_w(*(PolyInW(p.coefficients_wrt("W")) for p in (A, B)))
    sa, sb = (sympy.Poly(_to_sympy(p), W, u, v, domain=sympy.QQ_I) for p in (A, B))
    want = sympy.Poly(sa.gcd(sb).as_expr(), W).primitive()[1]
    lead = sympy.Poly(want.LC(), u, v).coeffs(order="lex")[0]
    ours = sum(_to_sympy(c) * W ** k for k, c in enumerate(got.coeffs))
    assert sympy.expand(ours - want.as_expr() / lead) == 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[gaussian_int] * 4))
def test_moebius_discovery_against_the_closed_form(abcd):
    a, b, c, d = (sympy.Integer(x) + sympy.I * y for x, y in abcd)
    assume(sympy.expand(a * d - b * c) != 0)
    ea, eb, ec, ed = (ExactScalar(x, y) for x, y in abcd)
    f = FunctionSpec.rational(ea * pu + eb, ec * pu + ed)
    found = discover_aat(f, (1, 1, 1), 16)
    assert found
    base = next(z for z in SECOND_BASES
                if f.is_regular(complex(z)) and f.is_regular(2 * complex(z)))
    for G in found:
        cert = verify_aat(G, f, 16, base=base)
        assert cert.verified, (G, cert)
    closed = ((d * W - b) * (a - c * U) * (a - c * V)
              - (a - c * W) * ((d * U - b) * (a - c * V) + (d * V - b) * (a - c * U)))
    span = sympy.Matrix([_box_vector(_to_sympy(G)) for G in found])
    with_closed = span.col_join(sympy.Matrix([_box_vector(closed)]))
    assert any(x != 0 for x in _box_vector(closed))
    assert with_closed.rank() == span.rank()
