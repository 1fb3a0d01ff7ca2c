"""Differential tests against sympy and mpmath: resultants, discriminants,
polynomial GCDs (univariate and bivariate), exact root isolation, exact
series products and inverses, the doubling chain of sin, the builtin Taylor
data in every field, and the numeric Taylor shift; and pins of Puiseux
branches, of the residual oracle and of CLI discovery and Schwarz reports."""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aatkit.aat import _hp_element
from aatkit.algebroid import (AlgebroidCurve, PuiseuxBranch, _distinct_roots_exact,
                              _taylor_shift, branch_residual, puiseux_expand)
from aatkit.cli import run_command
from aatkit.elimination import discriminant, eliminate_chain, resultant
from aatkit.functions import FunctionSpec
from aatkit.poly import MultiPoly, divexact, monic_lex, poly_gcd, pseudo_rem
from aatkit.scalars import ExactScalar
from aatkit.series import PREC_BITS, BiSeries, TruncSeries

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")
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


# numerators and imaginary parts sometimes reach 2**64 in size, which
# stresses the slot bound of the packed resultant
gaussian = st.builds(ExactScalar,
                     st.builds(Fraction, st.integers(-5, 5) | st.sampled_from([2 ** 64, -2 ** 64]),
                               st.sampled_from([1, 2, 3])),
                     st.sampled_from([0, 0, 1, -2, 2 ** 64, -2 ** 64]))


@st.composite
def poly_in(draw, z_degree: int, lead=None, uw: int = 1):
    """A polynomial of exact degree z_degree in z over Q(i)[u, w], of degree
    at most uw in u and in w below z_degree; `lead` fixes its leading
    coefficient in z."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, uw), st.integers(0, uw), st.integers(0, z_degree - 1)),
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


    # the other variables are Kronecker-packed into one; these cases stress
    # the packing with higher degrees and operands on other variable sets

    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 3))
    def test_packed_higher_degrees(self, data, df, dg):
        u, w = MultiPoly.variable("u"), MultiPoly.variable("w")
        lead = data.draw(st.sampled_from([None, (u * w - 2).with_vars(("u", "w")),
                                          (u ** 2 + 3 * w ** 2).with_vars(("u", "w"))]))
        self.check(data.draw(poly_in(df, uw=3)), data.draw(poly_in(dg, lead=lead, uw=2)))

    def test_radix_bound_reached(self):
        # deg_u Res = deg g deg_u f + deg f deg_u g = 2: the packing radix
        # of u is exactly one above it
        u, w, z = (MultiPoly.variable(v) for v in "uwz")
        got = self.check(u * z + 2 * u + w, u * z + 3 * u - w)
        assert got == (u ** 2 - 2 * u * w).with_vars(("u", "w"))
        disc = discriminant(u * z ** 2 + w * z + u, "z")
        assert disc == (w ** 2 - 4 * u ** 2).with_vars(("u", "w"))

    @pytest.mark.parametrize("case", range(3))
    def test_slot_bounds_only_the_result(self, monkeypatch, case):
        # the slot S bounds the resultant alone: the Bareiss determinant
        # Res(B, prem(A, B)) outgrows it, and its image at t = 2^S still
        # divides down to the image of the resultant
        from aatkit import elimination
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        A, B = [(z ** 5 + u, 9 * z ** 2 + u * z + 1), (z ** 4 + u * z + 1, 16 * z ** 2 + u),
                (z ** 6 + u, (u + 8) * z ** 2 + z + u)][case]
        slots, res_rows = [], elimination._res_rows
        monkeypatch.setattr(elimination, "_res_rows",
                            lambda f, g: slots.append(res_rows(f, g)) or slots[-1])
        got = resultant(A, B, "z")
        det = sympy.Poly(sympy.resultant(to_sympy(B), to_sympy(pseudo_rem(A, B, "z")),
                                         sympy.Symbol("z")), sympy.Symbol("u"))
        assert max(abs(int(c)) for c in det.coeffs()).bit_length() > slots[0][1]
        assert same(got, sympy_resultant(A, B))

    def test_vanishing_leading_coefficients(self):
        # both leading coefficients vanish at u = w = 1, so the resultant does
        u, w, z = (MultiPoly.variable(v) for v in "uwz")
        got = self.check((u - w) * z ** 2 + z + 1, (w - 1) * z + u)
        assert got.eval({"u": 1, "w": 1}) == 0

    def test_common_factor_gives_zero(self):
        u, w, z = (MultiPoly.variable(v) for v in "uwz")
        h = u * z - w ** 2
        got = self.check(h * (z ** 2 + w), h * (z - u * w + 1))
        assert got.is_zero() and got.vars == ("u", "w")

    def test_constant_remainder_k0(self):
        u, w, z = (MultiPoly.variable(v) for v in "uwz")
        assert pseudo_rem(z ** 3 - u * z + w, z - w, "z").degree("z") == 0
        # Res(f, g) = (-1)^3 lc(g)^3 f(w / 2)
        assert self.check(z ** 3 - u * z + w, 2 * z - w) == \
            (4 * u * w - w ** 3 - 8 * w).with_vars(("u", "w"))

    def test_disjoint_variables(self):
        u, w, z = (MultiPoly.variable(v) for v in "uwz")
        f, g = (z ** 2 - u).with_vars(("z", "u")), (z ** 3 - w * z + 1).with_vars(("w", "z"))
        self.check(f, g)
        self.check(g, f)

    def test_result_vars(self):
        # the sorted union of the other variables, dead ones kept
        f = MultiPoly(("y", "z", "c"), {(1, 1, 0): 1, (0, 0, 0): 3})
        g = MultiPoly(("z", "a"), {(2, 0): 1, (0, 1): -1})
        got = resultant(f, g, "z")
        assert got.vars == ("a", "c", "y")
        assert same(got, sympy_resultant(f, g))


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


# -- polynomial GCD -------------------------------------------------------------

@st.composite
def poly_uz(draw, max_terms: int = 4):
    """A nonzero polynomial in (u, z) of degree <= 2 in each variable."""
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                 gaussian.filter(bool), min_size=1, max_size=max_terms))
    return MultiPoly(("u", "z"), terms)


@settings(max_examples=30, deadline=None)
@given(poly_uz(), poly_uz(), poly_uz())
def test_poly_gcd_against_sympy(g, f1, f2):
    # a common factor g makes most cases non-trivial; the two answers may
    # differ by a unit of Q(i), so each is scaled by the other's lead
    a, b = g * f1, g * f2
    gens = sympy.symbols("u z")
    ours = sympy.Poly(to_sympy(poly_gcd(a, b)), *gens, domain=sympy.QQ_I)
    want = sympy.Poly(sympy.gcd(to_sympy(a), to_sympy(b)), *gens, domain=sympy.QQ_I)
    assert ours.total_degree() == want.total_degree()
    assert (want.LC() * ours - ours.LC() * want).is_zero


# univariate operands: zero, constant and non-monic ones included
poly_x = st.lists(gaussian, max_size=5).map(lambda cs: MultiPoly.from_univariate("x", cs))


@settings(max_examples=60, deadline=None)
@given(poly_x, poly_x, poly_x)
def test_univariate_poly_gcd_against_sympy(g, f1, f2):
    a, b = g * f1, g * f2
    X = sympy.Symbol("x")
    ours = poly_gcd(a, b)
    want = sympy.Poly(sympy.gcd(to_sympy(a), to_sympy(b)), X, domain=sympy.QQ_I)
    if want.is_zero:
        assert ours.is_zero()
        return
    assert ours.terms[max(ours.terms)] == ExactScalar(1)       # monic
    got = sympy.Poly(to_sympy(ours), X, domain=sympy.QQ_I)
    assert got.degree() == want.degree()
    assert (want.LC() * got - got.LC() * want).is_zero


@settings(max_examples=40, deadline=None)
@given(poly_x, poly_x, poly_x, st.sampled_from([1, -2, Fraction(1, 3)]))
def test_univariate_poly_gcd_matches_bivariate_path(g, f1, f2, c):
    # a dummy factor y + c makes both operands bivariate, so their GCD runs
    # the multivariate chain, whose contents end in the univariate base case
    a, b = g * f1, g * f2
    dummy = MultiPoly.variable("y") + MultiPoly.constant(c, ("y",))
    both = poly_gcd(a * dummy, b * dummy)
    if a.is_zero() and b.is_zero():
        assert both.is_zero() and poly_gcd(a, b).is_zero()
        return
    assert monic_lex(divexact(both, dummy)) == poly_gcd(a, b).with_vars(("x", "y"))


# -- exact root isolation: pinned to the values of the MultiPoly implementation

def _bench_curve(k: int) -> MultiPoly:
    """The four curves of the seed-1 `curves` bench workload."""
    u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
    q = lambda a, b=1: MultiPoly.constant(Fraction(a, b), ("u",))
    return [8 * u * z ** 3 + 3 * (1 - u) * z + (1 - u),
            1 + 3 * z + q(5, 8) * u + q(15, 8) * u * z - 5 * u * z ** 3,
            q(7, 4) + q(9, 4) * z + q(1, 2) * z ** 2 + z ** 3 - q(11, 8) * u
            + q(11, 8) * u * z - q(11, 4) * u * z ** 2,
            q(-3, 2) + q(9, 4) * z + z ** 2 + q(5, 2) * u - q(5, 4) * u * z][k]


@pytest.mark.parametrize("k,want", [
    (0, [(1, "-864"), (2, "864"), (3, "864"), (4, "-864")]),
    (1, [(1, "540"), (2, "675/2"), (3, "-3375/16"), (4, "-16875/128")]),
    (2, [(0, "-5915/64"), (1, "-2431/16"), (2, "-19723/128"), (3, "1331/4"),
         (4, "-102487/1024")]),
    (3, [(0, "177/16"), (1, "-125/8"), (2, "25/16")]),
])
def test_bench_discriminants_pinned(k, want):
    # the values of the MultiPoly Sylvester/Bareiss implementation
    terms = [{"exps": [e], "re": (q.split("/") + ["1"])[:2], "im": ["0", "1"]}
             for e, q in want]
    assert discriminant(_bench_curve(k), "z").to_json_dict() == {"vars": ["u"], "terms": terms}


@pytest.mark.parametrize("k,want", [
    (0, "[((1+0j), 2), ((-1+0j), 1), (0j, 1)]"),   # the golden cubic
    (1, "[((1.6+0j), 1), ((-1.6+0j), 2), (0j, 1)]"),
    (2, "[((2.278527831204536+2.802596928649634e-44j), 1), "
        "((1.6883116883116882+0j), 1), ((-0.32108209742045+0.37007402096926395j), 1), "
        "((-0.32108209742044996-0.370074020969264j), 1)]"),
    (3, "[((9.233202097703344-0j), 1), ((0.766797902296655+0j), 1)]"),
])
def test_discriminant_roots_pinned(k, want):
    assert repr(_distinct_roots_exact(discriminant(_bench_curve(k), "z"), "u")) == want


@pytest.mark.parametrize("c,want", [
    (1, "[(0j, 3)]"),
    (-1, "[((1+0j), 1), ((-0.5+0j), 2)]"),
    (2, "[((0.5489558363614118+6.162975822039155e-32j), 1), "
        "((-0.2744779181807059+0.19625081581089757j), 1), "
        "((-0.2744779181807059-0.1962508158108975j), 1)]"),
])
def test_golden_cubic_fibre_roots_pinned(c, want):
    F = AlgebroidCurve(_bench_curve(0)).F
    h = F.substitute_var("u", MultiPoly.constant(c, ("u",))).with_vars(("z",))
    assert repr(_distinct_roots_exact(h, "z")) == want


def test_gaussian_roots_with_multiplicities_pinned():
    x = MultiPoly.variable("x")
    a = MultiPoly.constant(ExactScalar(Fraction(1, 2), 1), ("x",))
    p = (x - a) ** 2 * (3 * x ** 2 + 2) * (x + MultiPoly.constant(Fraction(3, 7), ("x",))) ** 3
    assert repr(_distinct_roots_exact(p, "x")) == (
        "[((-1.9885999477579128e-17-0.816496580927726j), 1), ((0.5+1j), 2), "
        "((3.904774243765403e-17+0.8164965809277259j), 1), ((-0.42857142857142855+0j), 3)]")


# -- Puiseux branches and the residual oracle, pinned to the values of the
# Laurent-series implementation

@pytest.mark.parametrize("k,digest", [
    (0, "782cd72a21bb8ce6b50424bc6b7349ad8117b8c3043e7f865373fc21ca73c594"),
    (1, "2d8836d5dbc8af08f0d85d306094ace9310a75c8cbc3a8745555bef0bf67bbe1"),
    (2, "ac2cfbdc78310a27bc60cc933c3a68f425ed94dae8cf26aafaf34396935e3e40"),
])
def test_regular_branches_pinned(k, digest):
    # the sha256 of the repr of the coefficient lists of the branches with
    # e = 1 and low_exp = 0 at every singular point, at the bench's order 12
    curve = AlgebroidCurve(_bench_curve(k))
    locs = sorted(curve.singular_locations(), key=lambda t: (t.real, t.imag))
    regular = [b.coeffs for c in locs for b in puiseux_expand(curve, c, 12)
               if (b.e, b.low_exp) == (1, 0)]
    assert hashlib.sha256(repr(regular).encode()).hexdigest() == digest


def _pin_curve(name: str) -> MultiPoly:
    u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
    return {"golden": _bench_curve(0),
            "quadratic": 1 + 2 * z - z ** 2 - 2 * u - 2 * u * z - 2 * u * z ** 2
            - 3 * u ** 2 + 3 * u ** 2 * z ** 2,
            "cubic": -1 + 3 * z - 3 * z ** 2 + z ** 3 - 3 * u * z + 2 * u * z ** 2
            - 2 * u * z ** 3 + u ** 2 - 2 * u ** 2 * z ** 2 - 3 * u ** 2 * z ** 3}[name]


# (curve, center, e, low_exp, coefficients at order 6, branch_residual)
RESIDUAL_PINS = [
    ("golden", 0, 2, -1,
     [(-7.499399432609231e-17+0.6123724356957945j), (0.16666666666666669+0j),
      (-2.916433112681368e-17-0.2381448361039201j),
      (-0.04938271604938269+1.2095277028615829e-17j),
      (-3.182615499949905e-17-0.08662675916478574j),
      (-0.005486968449931403+2.6878393396924027e-18j),
      (-1.9713641912708782e-17-0.03219482045996313j)],
     "(None, 1.966521892667305e-16)"),
    ("golden", 0, 1, 0,
     [(-0.3333333333333333+0j), (0.09876543209876543+0j), (0.010973936899862837+0j),
      (0.0272316211959559+0j), (0.006237130117297445+0j), (0.014502010501566425+0j)],
     "(None, 0.0)"),
    ("quadratic", 1, 2, -1,
     [(-1-1.2246467991473532e-16j), (0.25+0j), (-0.65625+8.036744619404505e-17j),
      (-0.1875+4.592425496802574e-17j), (0.35595703125-1.3077649168629206e-16j),
      (0.140625-6.888638245203862e-17j), (-0.3566436767578125+2.1838126858879919e-16j)],
     "(None, 1.1526087521386854e-16)"),
    ("quadratic", Fraction(-1, 3), 1, -1,
     [(0.6666666666666666+0j), (0.5+0j), (-2.0816681711721685e-17+0j), (-0.84375+0j),
      (0.6328125000000001+0j), (-1.4238281250000002+0j), (0.7119140625000002+0j)],
     "(None, 1.691768418476429e-16)"),
    ("cubic", -1, 1, -1,
     [(1.75+0j), (-1.044642857142857+0j), (-0.3665725218658889+0j),
      (-0.3408096793746649+0j), (-0.4634391517333484+0j), (-0.6849677662791249+0j),
      (-1.067823943231578+0j)],
     "(5, 0.38009555956900354)"),
]


@pytest.mark.parametrize("name,center,e,low,coeffs,want", RESIDUAL_PINS)
def test_branch_residual_pinned(name, center, e, low, coeffs, want):
    # branches as the Laurent implementation printed them, pole branches
    # included; the oracle on power-series arrays gives the same bits
    branch = PuiseuxBranch(complex(center), e, low, coeffs, 6)
    assert repr(branch_residual(AlgebroidCurve(_pin_curve(name)), branch)) == want


# -- builtin Taylor data ------------------------------------------------------------

BUILTINS = ("exp", "sin", "cos", "tan")


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_exact_builtin_elements_against_sympy(name, n):
    s = FunctionSpec.builtin(name).element_at(0, n)
    assert s.exact and (s.low, s.order) == (0, n)
    assert_coefficients(s, getattr(sympy, name)(T).series(T, 0, n).removeO())


@pytest.mark.parametrize("name,rel", [("exp", 1e-15), ("sin", 1e-15),
                                      ("cos", 1e-15), ("tan", 1e-13)])
@pytest.mark.parametrize("center", [0.3, 0.25 + 0.1j, -1.7 + 0.4j, 1j, 2.0])
def test_numeric_builtin_elements_against_mpmath(name, rel, center):
    n = 24
    s = FunctionSpec.builtin(name).element_at(center, n)
    assert not s.exact and s.order == n
    with mpmath.workprec(200):
        want = [complex(w) for w in
                mpmath.taylor(getattr(mpmath, name), mpmath.mpc(center), n - 1)]
    for k in range(n):
        assert abs(s.coefficient(k) - want[k]) <= rel * abs(want[k])


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("center", [0, 0.3, 0.25 + 0.125j, -0.5])
@pytest.mark.parametrize("slot", [0, 1])
def test_fixed_point_elements_against_mpmath(name, center, slot):
    # the Schwarz chain's 160-bit elements: every coefficient within 2^-150
    # of a 200-bit mpmath Taylor expansion
    f = FunctionSpec.builtin(name)
    n = 20
    h = _hp_element(f, center, f.element_at(center, n), slot)
    re, im = h.line(slot)
    with mpmath.workprec(200):
        want = mpmath.taylor(getattr(mpmath, name), mpmath.mpc(center), n - 1)
        scale = max(1, max(abs(w) for w in want))
        for k in range(n):
            got = mpmath.mpc(mpmath.ldexp(re[k], h.exp), mpmath.ldexp(im[k], h.exp))
            assert abs(got - want[k]) <= mpmath.ldexp(scale, -150)


def _fraction_route(name, center, order, slot):
    """The binary-scale element by way of Fractions: each mpmath value as
    an ExactScalar, each Taylor coefficient divided by k! on it, the series
    built from the coefficient dict and rounded once (tan: sin / cos)."""
    def frac(x):
        man, exp = x.man_exp
        man = -man if x < 0 else man
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)

    with mpmath.workprec(PREC_BITS + 32):
        z = mpmath.mpc(center.real, center.imag)
        vals = [mpmath.exp(z)] if name == "exp" else [mpmath.sin(z), mpmath.cos(z)]
    vals = [ExactScalar(frac(v.real), frac(v.imag)) for v in vals]

    def fixed(g):
        if g == "exp":
            cycle = vals
        else:
            s, c = vals
            cycle = [s, c, -s, -c] if g == "sin" else [c, -s, -c, s]
        return BiSeries.from_coeffs({(0, k) if slot else (k, 0):
                                     cycle[k % len(cycle)] / math.factorial(k)
                                     for k in range(order)}, order).to_binary()

    return fixed("sin") * fixed("cos").inverse() if name == "tan" else fixed(name)


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("center", [0.3, 0.25j, -0.5 + 0.125j])
@pytest.mark.parametrize("slot", [0, 1])
def test_fixed_point_elements_match_the_fraction_route(name, center, slot):
    # the mantissas from integers over one power of two are those of the
    # same rational built from Fractions, at every order
    f = FunctionSpec.builtin(name)
    for order in range(1, 25):
        got = _hp_element(f, center, f.element_at(center, order), slot)
        want = _fraction_route(name, center, order, slot)
        assert (got.re, got.im, got.exp, got.order) == (want.re, want.im, want.exp, want.order)


@settings(max_examples=30, deadline=None)
@given(st.lists(gaussian, min_size=1, max_size=9),
       st.sampled_from([math.pi / 7, -math.e / 3,
                        complex(math.sqrt(2) / 3, math.pi / 5),
                        complex(-math.sqrt(3) / 2, -math.log(2))]))
def test_numeric_taylor_shift_against_exact(cs, c):
    # the float center is a binary rational, so the exact shift is exact at
    # the very center the numeric shift uses
    u = MultiPoly.variable("u")
    p = MultiPoly.from_univariate("u", cs)
    dyadic = ExactScalar(Fraction(c.real), Fraction(complex(c).imag))
    exact = p.shift_var("u", dyadic)
    want = [complex(x) for x in exact.univariate_coeffs("u")] if not exact.is_zero() else []
    got = _taylor_shift(cs, c)
    scale = sum(abs(complex(x)) for x in cs) * max(1.0, abs(c)) ** len(cs)
    for k, g in enumerate(got):
        w = want[k] if k < len(want) else 0j
        assert abs(g - w) <= 1e-14 * scale
    # and the rational element built on it agrees with the exact element
    q = 2 + u * u
    f = FunctionSpec.rational(p, q)
    num = f.element_at(c, 10)
    ex = f.element_at(dyadic, 10)
    assert not num.exact and ex.exact
    for k in range(10):
        w = complex(ex.coefficient(k))
        assert abs(num.coefficient(k) - w) <= 1e-12 * max(1.0, abs(w)) * scale


# -- CLI reports, byte for byte (floats included): pinned to the values of the
# entry-by-entry discovery matrix with Bareiss over all rows, and of the
# Schwarz chain that normalized every trial GCD

@pytest.fixture(scope="module")
def report_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("reports")
    U, V, W = (MultiPoly.variable(v) for v in "UVW")
    u = MultiPoly.variable("u")

    def dump(name, data):
        path = root / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    files = {name: dump(name, {"type": "builtin", "name": name})
             for name in ("exp", "tan", "cos", "sin")}
    for k, (a, b, c, d) in enumerate([(2, 1, 1, 3), (-3, 4, 2, -1), (1, -2, -3, 4)]):
        files[f"mobius{k}"] = dump(f"mobius{k}", FunctionSpec.rational(
            a * u + b, c * u + d).to_json_dict())
    # a complex Moebius map: its elements, sums and products take the
    # complex path of every series kernel
    files["mobius_i"] = dump("mobius_i", FunctionSpec.rational(
        u + ExactScalar(0, 1), 2 * u - 1).to_json_dict())
    relations = {"sin": (W ** 2 + U ** 2 - V ** 2) ** 2 - 4 * U ** 2 * W ** 2 * (1 - V ** 2),
                 "cos": W ** 2 - 2 * U * V * W + U ** 2 + V ** 2 - 1,
                 "tan": W * (1 - U * V) - (U + V), "exp": W - U * V}
    for name, G in relations.items():
        files[f"g_{name}"] = dump(f"g_{name}", G.to_json_dict())
    return files


REPORT_PINS = [
    ("aat discover exp 2,2,2",
     "aab2cf2bfdd401243f3e664e837b728dc1cce3f29a6a9b8261b555a47c88c3c9", "0"),
    ("aat discover tan 2,2,2",
     "405f1ee5a9b155fdc108a6d279403b85ec06d81664c3b9417323703f6fa4d168", "0"),
    ("aat discover cos 2,2,2",
     "9d4198e45d7e78774a7d81782cb71689b805de903072bfb57423dc496f81dc92", "0"),
    ("aat discover sin 2,2,2",
     "e1294ea4683fb2903e938c3516f3829b61644ba1a5a0418930e09332c0fb45a5", "1"),
    ("aat discover mobius0",
     "f7696dbd3086d55da51501ab85d082e882435d955c0fe7f633b9e8c029161b7c", "0"),
    ("aat discover mobius1",
     "9cd14b7bad0dbeebe8517d7c3516135f38ae345c3de01e13b48c5dcb101c9551", "0"),
    ("aat discover mobius2",
     "18e08813daecda391c43606994db670198e1ce3b50a4c7419f4c76bc2af04255", "0"),
    ("reduce schwarz sin",
     "5375f6c10a27bb055a22c519d6dffa2357e2703e2c79972571e0e5aa56f1be3b", "0"),
    ("reduce schwarz cos",
     "26d5e968945536741eadd26d2deb43febaadc72e4ef22f0fd8946ba171533052", "0"),
    ("reduce schwarz tan",
     "615f7aa1647ecc7fd4be5f13e9c6f42fb2d7825a9ce2a4da92399ffeb36ab477", "0"),
    ("reduce schwarz exp",
     "99b6b01ab8f508319686090945a1ccfe4cd7faf8fabef903ba5d18a576d4ed75", "0"),
    # complex inputs: every other pin runs real series only
    ("aat discover mobius_i",
     "5f0dddbb16e40d5bda98a755bd48d6864abb96cc1586f750389a69ce3a992909", "0"),
    ("reduce schwarz sin 0.2+0.1j;0.1+0.05j",
     "f1999d5be3576830f013abc3c9a2c7d97639dafc48fbd44e81023e89a716848e", "0"),
]


@pytest.mark.parametrize("argv,want,code", REPORT_PINS, ids=[a for a, _, _ in REPORT_PINS])
def test_cli_reports_pinned(report_files, capsys, argv, want, code):
    words = argv.split()
    if words[0] == "aat":           # aat discover <fn> [bounds]
        cmd = ["aat", "discover", "--fn", report_files[words[2]]]
        cmd += ["--bounds", words[3]] if len(words) > 3 else []
    else:                           # reduce schwarz <fn> [shifts]
        cmd = ["reduce", "schwarz", "--poly", report_files[f"g_{words[2]}"],
               "--fn", report_files[words[2]]]
        cmd += ["--shifts", words[3]] if len(words) > 3 else []
    assert str(run_command(cmd)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want
