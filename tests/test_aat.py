"""Addition-theorem verification, discovery, and reduction chains."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aatkit import aat, zi
from aatkit.algebroid import AlgebroidCurve
from aatkit.elimination import PolyInW
from aatkit.aat import (
    algebraic_relation,
    discover_aat,
    element_relation_residual,
    koebe_normalize,
    normalize_relation,
    schwarz_reduce,
    verify_aat,
)
from aatkit.errors import (
    AatkitError,
    InexactDivision,
    MissingVariable,
    OrderTooLow,
    TooFewCoefficients,
    OrderTooLowForDegree,
    PreconditionFailed,
    SchemaError,
    ShiftDegenerate,
    SingularCenter,
)
from aatkit.functions import FunctionSpec, taylor_of_builtin
from aatkit.poly import MultiPoly, monic_lex
from aatkit.scalars import ExactScalar
from aatkit.series import BiSeries, TruncSeries, _common, _line_powers, compose_shift


def exp_like_element(scale: int, order: int = 16) -> TruncSeries:
    coeffs = [ExactScalar(Fraction(scale, math.factorial(k)))
              for k in range(order)]
    return TruncSeries(ExactScalar(0), coeffs, exact=True)


class TestVerify:
    def test_exp_product_rule(self, uvw, exp_spec):
        U, V, W = uvw
        cert = verify_aat(W - U * V, exp_spec)
        assert cert.verified and cert.mode == "exact"
        assert cert.residual_valuation >= cert.order_checked - 2

    def test_tan_addition_formula(self, uvw, tan_spec, tan_poly):
        cert = verify_aat(tan_poly, tan_spec)
        assert cert.verified and cert.mode == "exact"

    def test_exp_not_additive(self, uvw, exp_spec):
        U, V, W = uvw
        cert = verify_aat(W - U - V, exp_spec)
        assert not cert.verified
        assert cert.first_failure is not None

    def test_sin_quartic(self, sin_quartic, sin_spec):
        cert = verify_aat(sin_quartic, sin_spec)
        assert cert.verified

    def test_numeric_mode_translate(self, uvw, exp_spec):
        # psi = exp(x + ln 2) = 2 exp(x) satisfies U*V = 2*W
        U, V, W = uvw
        shifted = exp_spec.translate(math.log(2.0))
        cert = verify_aat(U * V - 2 * W, shifted)
        assert cert.verified and cert.mode == "numeric"
        assert cert.residual_max < 1e-9
        bad = verify_aat(W - U * V, shifted)
        assert not bad.verified

    def test_order_too_low(self, uvw, exp_spec):
        U, V, W = uvw
        with pytest.raises(OrderTooLowForDegree):
            verify_aat((W - U * V) ** 5, exp_spec, order=10)


def _scalar_aat_sampler(G, f, base, samples=50, seed=0):
    """(worst, kept (u, v) pairs, largest |phi| kept) of the old
    one-pair-at-a-time sampling loop of numeric verify_aat."""
    rng = np.random.default_rng(seed)
    worst, kept, big, tries = 0.0, [], 0.0, 0
    gscale = max(abs(complex(c)) for c in G.terms.values())
    while len(kept) < samples and tries < samples * 20:
        tries += 1
        u = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3)) + base
        v = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3)) + base
        if not (f.is_regular(u) and f.is_regular(v) and f.is_regular(u + v)):
            continue
        fu, fv, fw = f.eval(u), f.eval(v), f.eval(u + v)
        if max(abs(fu), abs(fv), abs(fw)) > 1e6:
            continue
        r = abs(G.eval({"U": fu, "V": fv, "W": fw}))
        scale = gscale * max(1.0, abs(fu), abs(fv), abs(fw)) ** G.total_degree()
        worst = max(worst, r / scale)
        big = max(big, abs(fu), abs(fv), abs(fw))
        kept.append((u, v))
    return worst, kept, big


class TestArraySampler:
    """Numeric verify_aat samples the pairs, and evaluates the points, of
    the one-pair-at-a-time loop it replaced."""

    @pytest.mark.parametrize("case", ["sin", "cos", "tan", "exp", "exp_shifted",
                                      "tan_shifted", "tan_element", "bad"])
    def test_same_pairs_and_residual(self, case, uvw, sin_quartic, tan_poly,
                                     monkeypatch):
        U, V, W = uvw
        tan = FunctionSpec.builtin("tan")
        G, f, base = {
            "sin": (sin_quartic, FunctionSpec.builtin("sin"), 0.3 + 0.2j),
            "cos": (W ** 2 - 2 * U * V * W + U ** 2 + V ** 2 - 1,
                    FunctionSpec.builtin("cos"), 0.15 + 0.25j),
            "tan": (tan_poly, tan, 0.3 + 0.2j),
            "exp": (W - U * V, FunctionSpec.builtin("exp"), 0.3 + 0.2j),
            "exp_shifted": (U * V - 2 * W, FunctionSpec.builtin("exp").translate(
                math.log(2.0)), None),
            "tan_shifted": (tan_poly, tan.translate(1.2 + 0.1j), None),  # near a pole
            "tan_element": (tan_poly, FunctionSpec.element(
                tan.element_at(0, 24).to_numeric()), None),
            "bad": (W - U - V, FunctionSpec.builtin("sin").translate(0.1), None),
        }[case]
        calls = []
        real = FunctionSpec.eval_many

        def spy(self, u):
            calls.append((np.array(u), real(self, u)))
            return calls[-1][1]

        monkeypatch.setattr(FunctionSpec, "eval_many", spy)
        cert = verify_aat(G, f, base=base, seed=5)
        assert cert.mode == "numeric"
        want, kept, big = _scalar_aat_sampler(G, f, cert.base, seed=5)
        assert abs(cert.residual_max - want) <= 1e-13 * max(1.0, big)
        ours = []  # calls come as u, v, u + v per chunk
        for (u, fu), (v, fv), (w, fw) in zip(calls[::3], calls[1::3], calls[2::3]):
            assert np.array_equal(w, u + v)
            keep = np.maximum(np.maximum(np.abs(fu), np.abs(fv)), np.abs(fw)) <= 1e6
            ours += list(zip(u[keep].tolist(), v[keep].tolist()))
        assert ours == kept

    def test_algebroid_evaluations_match_the_scalar_loop(self, uvw, sqrt_curve,
                                                         monkeypatch):
        # phi = sqrt(u) from base 2 (an irrational value: numeric mode),
        # irregular left of Re u = 1.9 so that the draws take several chunks
        class LeftCut(FunctionSpec):
            def is_regular(self, u):
                return complex(u).real > 1.9 and super().is_regular(u)

        U, V, W = uvw
        f = LeftCut("algebroid", curve=sqrt_curve, base=2.0)
        G = W ** 2 - U ** 2 - V ** 2
        count = [0]
        real = FunctionSpec.eval

        def counting(self, u):
            count[0] += 1
            return real(self, u)

        monkeypatch.setattr(FunctionSpec, "eval", counting)
        want, kept, big = _scalar_aat_sampler(G, f, 2.0, samples=4)
        scalar_evals, count[0] = count[0], 0
        cert = verify_aat(G, f, order=12, base=2.0, samples=4)
        assert cert.mode == "numeric" and cert.verified
        assert abs(cert.residual_max - want) <= 1e-13 * big
        assert count[0] == scalar_evals == 3 * len(kept)

    def test_overflowing_element_is_typed(self, uvw, exp_spec):
        U, V, W = uvw
        with pytest.raises(OverflowError):  # the scalar evaluation still raises
            exp_spec.eval(800.0)
        with pytest.raises(SingularCenter):
            verify_aat(W - U * V, exp_spec.translate(800))


class TestDiscover:
    def test_identity_function(self, uvw):
        U, V, W = uvw
        u = MultiPoly.variable("u")
        ident = FunctionSpec.rational(u, MultiPoly.constant(1, ("u",)))
        kernel = discover_aat(ident, (1, 1, 1), 16)
        target = normalize_relation(W - U - V)
        assert any(k == target for k in kernel)

    def test_tan_one_dimensional(self, uvw, tan_spec, tan_poly):
        kernel = discover_aat(tan_spec, (1, 1, 1), 16)
        assert len(kernel) == 1
        assert kernel[0] == normalize_relation(tan_poly)

    def test_exp(self, uvw, exp_spec):
        U, V, W = uvw
        kernel = discover_aat(exp_spec, (1, 1, 1), 16)
        assert len(kernel) == 1
        assert kernel[0] == normalize_relation(W - U * V)

    def test_square_function(self, uvw):
        U, V, W = uvw
        u = MultiPoly.variable("u")
        f = FunctionSpec.rational(u * u, MultiPoly.constant(1, ("u",)))
        kernel = discover_aat(f, (2, 2, 2), 20)
        target = normalize_relation(
            W ** 2 + U ** 2 + V ** 2 - 2 * U * W - 2 * V * W - 2 * U * V)
        assert any(k == target for k in kernel)

    def test_exact_u_v_with_numeric_w(self, uvw):
        # z = sqrt(2u) from base 1/2: z(1/2) = 1 makes U and V exact while
        # z(1) = sqrt(2) makes W numeric, so the columns without W must move
        # to W's scale; the kernels are those discovery gave before the
        # integer rows
        U, V, W = uvw
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        f = FunctionSpec.algebroid(AlgebroidCurve(z * z - 2 * u), base=0.5)
        assert [s.exact for s in aat._elements_uvw(f, 0.5, 16)] == [True, True, False]
        assert discover_aat(f, (1, 1, 1), 16) == []
        assert discover_aat(f, (2, 2, 2), 16) == [normalize_relation(U ** 2 + V ** 2 - W ** 2)]

    @pytest.mark.parametrize("order", [22, 30])
    def test_kernel_at_the_singular_value_gap(self, uvw, order):
        # z = (2u)^(1/3) from base 1/2: U and V exact, W = 2^(1/3) numeric;
        # below 1e-8 sit a cluster of noise directions of the double W (no
        # gap between them) and, 1e7 further down, U^3 + V^3 - W^3
        U, V, W = uvw
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        f = FunctionSpec.algebroid(AlgebroidCurve(z ** 3 - 2 * u), base=0.5)
        kernel = discover_aat(f, (3, 3, 3), order)
        assert kernel == [normalize_relation(U ** 3 + V ** 3 - W ** 3)]
        assert verify_aat(kernel[0], f, order=order).verified

    def test_numeric_kernel_needs_a_gap(self):
        # A = diag(s) Q, Q orthogonal: the right singular vectors are Q's rows
        Q = np.array([[1, 2, 2], [2, 1, -2], [2, -2, 1]]) / 3
        third = [ExactScalar(1), ExactScalar(-1), ExactScalar(Fraction(1, 2))]
        for s, want in (([1, 2e-5, 9e-9], []),           # below 1e-8, no gap
                        ([1, 1e-3, 1e-13], [third]),
                        ([1, 1e-6, 5e-11], [third]),       # ratio 2e4
                        ([1, 1e-6, 2e-10], [])):           # ratio 5e3
            got = aat._numeric_nullspace(np.diag(s) @ Q)
            assert got in (want, [[-x for x in v] for v in want])     # up to sign
        assert len(aat._numeric_nullspace(np.diag([1, 1e-9, 1e-10]) @ Q)) == 2
        assert len(aat._numeric_nullspace(np.zeros((2, 3)))) == 3

    def test_round_trip(self, tan_spec):
        for k in discover_aat(tan_spec, (1, 1, 1), 16):
            assert verify_aat(k, tan_spec, order=16).verified

    def test_empty_kernel_is_explicit_empty(self, sin_spec):
        # sin's minimal addition polynomial is quartic; the multilinear box
        # holds nothing, and that is an empty result rather than an error
        assert discover_aat(sin_spec, (1, 1, 1), 16) == []

    def test_order_bound_enforced(self, tan_spec):
        with pytest.raises(OrderTooLow):
            discover_aat(tan_spec, (2, 2, 2), 10)

    def test_base_point_invariance_exp(self, uvw, exp_spec):
        # same normalized kernel from an element at a different base point
        k0 = discover_aat(exp_spec, (1, 1, 1), 16)
        k1 = discover_aat(exp_spec, (1, 1, 1), 16, base=0.7)
        assert len(k0) == len(k1) == 1
        a, b = k0[0], k1[0]
        for exps in set(a.terms) | set(b.terms):
            ca = complex(a.terms.get(exps, ExactScalar.zero()))
            cb = complex(b.terms.get(exps, ExactScalar.zero()))
            assert abs(ca - cb) < 1e-7

    def test_base_point_invariance_tan(self, tan_spec, tan_poly):
        k1 = discover_aat(tan_spec, (1, 1, 1), 16, base=0.4)
        assert len(k1) == 1
        target = normalize_relation(tan_poly)
        for exps in set(k1[0].terms) | set(target.terms):
            ca = complex(k1[0].terms.get(exps, ExactScalar.zero()))
            cb = complex(target.terms.get(exps, ExactScalar.zero()))
            assert abs(ca - cb) < 1e-7


class TestKoebe:
    def test_exp_translate_instance(self, uvw):
        U, V, W = uvw
        p1 = exp_like_element(1)
        p2 = exp_like_element(2)
        gbar = koebe_normalize(W - U * V, p1, p2, p2)
        assert gbar == normalize_relation(W - U * V)
        res = element_relation_residual(gbar, p1, p1, p1)
        v = res.valuation()
        assert v is None or v >= 12

    def test_degenerate_chain(self, uvw):
        U, V, W = uvw
        p1 = exp_like_element(1)
        gbar = koebe_normalize(W - U * V, p1, p1, p1)
        assert gbar == normalize_relation(W - U * V)

    def test_affine_bookkeeping(self, uvw):
        # P1 = 1+x, P2 = 2+y, P3 = 3+(x+y); the one-element relation keeps
        # the constant: (1+x+y) - (1+x) - (1+y) + 1 = 0
        U, V, W = uvw
        def affine(c0):
            coeffs = [ExactScalar(c0), ExactScalar(1)] + [ExactScalar(0)] * 10
            return TruncSeries(ExactScalar(c0), coeffs, exact=True)
        gbar = koebe_normalize(W - U - V, affine(1), affine(2), affine(3))
        assert gbar == normalize_relation(W - U - V + 1)
        res = element_relation_residual(gbar, affine(1), affine(1), affine(1))
        assert res.valuation() is None

    def test_precondition_checked(self, uvw):
        U, V, W = uvw
        p1 = exp_like_element(1)
        with pytest.raises(PreconditionFailed):
            koebe_normalize(W - U - V, p1, p1, p1)

    def test_cleanup_lets_defects_through(self, uvw, monkeypatch):
        def defect(p, var):
            raise ValueError("defect inside the square-free step")
        monkeypatch.setattr(aat, "poly_squarefree_content", defect)
        U, V, W = uvw
        with pytest.raises(ValueError):
            koebe_normalize(W - U * V, exp_like_element(1), exp_like_element(2),
                            exp_like_element(2))

    def test_cleanup_keeps_polynomial_on_toolkit_error(self, uvw, monkeypatch):
        def inexact(p, var):
            raise InexactDivision("content does not divide")
        monkeypatch.setattr(aat, "poly_squarefree_content", inexact)
        U, V, W = uvw
        p = 2 * (W - U * V) ** 2
        assert aat._cleanup(p, ("U", "V", "W")) == monic_lex(p)
        gbar = koebe_normalize(W - U * V, exp_like_element(1), exp_like_element(2),
                               exp_like_element(2))
        assert gbar == normalize_relation(W - U * V)


class TestTypedErrors:
    def test_relation_in_other_variables(self, sin_spec):
        X = MultiPoly.variable("X")
        for call in (lambda: verify_aat(X - 1, sin_spec),
                     lambda: schwarz_reduce(X - 1, sin_spec)):
            with pytest.raises(MissingVariable) as info:
                call()
            assert isinstance(info.value, AatkitError)

    def test_element_of_wrong_type(self, tan_poly, sin_spec):
        with pytest.raises(SchemaError):
            koebe_normalize(tan_poly, 0.5, sin_spec, sin_spec)

    def test_function_of_wrong_type(self, sin_spec):
        with pytest.raises(SchemaError):
            algebraic_relation(sin_spec, [1, 2, 3], (1, 1))


class TestSingleEvaluator:
    """The outer-product evaluator against the generic MultiPoly.substitute
    Horner scheme on exact series: the same coefficients and orders, so
    verify_aat's first_failure and residual_valuation cannot drift."""

    @pytest.mark.parametrize("name", ["tan", "exp", "sin"])
    def test_matches_substitute_horner(self, uvw, tan_poly, sin_quartic, name):
        U_, V_, W_ = uvw
        G = {"tan": tan_poly, "exp": W_ - U_ * V_, "sin": sin_quartic}[name]
        f = FunctionSpec.builtin(name)
        order = 12
        s = f.element_at(0, order)
        U, V = BiSeries.from_univariate(s, 0), BiSeries.from_univariate(s, 1)
        W = compose_shift(s)
        one = BiSeries.const(1, order)

        def key(c):
            return c.exact, c.order, dict(c.coeffs)

        got = aat._shifted_poly_in_w(G, f, 0, 0j, order, 1e-8)
        want = [c.substitute({"U": U, "V": V}, one) for c in G.coefficients_wrt("W")]
        assert [key(c) for c in got.coeffs] == [key(c) for c in want]
        # the relation itself and two that fail at different degrees
        for H in (G, G + U_ * V_ * W_ ** 2, W_ - U_ - V_ + U_ * U_):
            res = aat.relation_residual(H, U, V, W)
            ref = H.substitute({"U": U, "V": V, "W": W}, one)
            assert key(res) == key(ref)
            assert res.valuation() == ref.valuation()


def _from_outer(pairs, order, den=1, exp=None):
    """The sum of r(x) s(y) over (r, s) in pairs, over den or times 2**exp:
    the BiSeries.from_outer that the two routines below used."""
    re = [[0] * (d + 1) for d in range(order)]
    im = [[0] * (d + 1) for d in range(order)]
    for (rr, ri), (sr, si) in pairs:
        for j in range(order):
            a, b = sr[j], si[j]
            if not (a or b):
                continue
            for i in range(order - j):
                x, y = rr[i], ri[i]
                re[i + j][j] += x * a - y * b
                im[i + j][j] += x * b + y * a
    return BiSeries(re, im, order, den, exp)


def _old_uvw_columns(U, V, W, monos, n):
    """discover_aat's columns as its former _uvw_columns built them: one
    outer product per monomial, then one product by W^k."""
    U, V = _common(U, V)
    ups = _line_powers(*U.line(0), max(m[0] for m in monos), n)
    vps = _line_powers(*V.line(1), max(m[1] for m in monos), n)
    wps = aat._powers(W.truncate(n), max(m[2] for m in monos))
    return [uv * wps[k] if k else _common(uv, W)[0] for i, j, k in monos
            for uv in [_from_outer([(ups[i], vps[j])], n, U.den ** i * V.den ** j,
                                   None if U.exact else i * U.exp + j * V.exp)]]


def _old_poly_in_w(G, U, V, order):
    """The former _poly_in_w, with its own term alignment."""
    G = G.with_vars(("U", "V", "W"))
    U, V = _common(U, V)
    binary = not U.exact
    ups = _line_powers(*U.line(0), G.degree("U"), order)
    vqs = _line_powers(*V.line(1), G.degree("V"), order)
    coeffs = []
    for c in G.coefficients_wrt("W"):
        terms = []
        for (p, q), value in c.terms.items():
            k = BiSeries.const(value, 1)
            if binary:
                k = k.to_binary()
                scale = k.exp + p * U.exp + q * V.exp
            else:
                scale = k.den * U.den ** p * V.den ** q
            terms.append((p, q, k.re[0][0], k.im[0][0], scale))
        if binary:
            E = min((t[4] for t in terms), default=0)
            terms = [(p, q, kr << e - E, ki << e - E) for p, q, kr, ki, e in terms]
        else:
            E = math.lcm(*(t[4] for t in terms))
            terms = [(p, q, kr * (E // d), ki * (E // d)) for p, q, kr, ki, d in terms]
        rows = {}
        for p, q, kr, ki in terms:
            rr, ri = rows.setdefault(q, ([0] * order, [0] * order))
            for i, (x, y) in enumerate(zip(*ups[p])):
                rr[i] += kr * x - ki * y
                ri[i] += kr * y + ki * x
        pairs = [(r, vqs[q]) for q, r in rows.items()]
        coeffs.append(_from_outer(pairs, order, exp=E) if binary
                      else _from_outer(pairs, order, den=E))
    return coeffs


def _box_rows(uvw, bounds):
    """The exact coefficient matrix of the box: the columns U^i V^j W^k by
    BiSeries powers and products, one row of ExactScalars per x^p y^q."""
    (U, V, W), n = uvw, min(s.order for s in uvw)
    cols = [U ** i * V ** j * W ** k for i, j, k in aat._grlex_monomials(bounds)]
    return [[c.coefficient(p, q) for c in cols] for p in range(n) for q in range(n - p)]


def _values(cols):
    return [(c.exact, c.order, dict(c.coeffs)) for c in cols]


class TestOuterSums:
    """outer_sums against the two routines it replaced: equal coefficient
    values on the rational scale, the binary one and the mixed one."""

    @pytest.mark.parametrize("case", ["exp", "tan_binary", "sqrt_mixed"])
    def test_discovery_columns_match_old_uvw_columns(self, monkeypatch, case):
        u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
        f, base, bounds = {
            "exp": (FunctionSpec.builtin("exp"), 0, (2, 2, 2)),
            "tan_binary": (FunctionSpec.builtin("tan"), 0.4, (1, 1, 1)),
            "sqrt_mixed": (FunctionSpec.algebroid(AlgebroidCurve(z * z - 2 * u), base=0.5),
                           0.5, (2, 2, 2))}[case]
        seen = []
        real = aat.coefficient_rows
        monkeypatch.setattr(aat, "coefficient_rows",
                            lambda cols, n: seen.append(cols) or real(cols, n))
        if case == "exp":   # exact data: discover_aat builds no series columns
            aat._column_kernel(*aat._elements_uvw(f, base, 16), aat._grlex_monomials(bounds), 16)
        else:
            discover_aat(f, bounds, 16, base=base)
        U, V, W = aat._elements_uvw(f, base, 16)
        assert [x.exact for x in (U, V, W)] == {
            "exp": [True] * 3, "tan_binary": [False] * 3,
            "sqrt_mixed": [True, True, False]}[case]
        want = _old_uvw_columns(U, V, W, aat._grlex_monomials(bounds), 16)
        assert _values(seen[0]) == _values(want)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("name", ["tan", "sin", "exp"])
    def test_poly_in_w_matches_old(self, uvw, tan_poly, sin_quartic, name, binary):
        U_, V_, W_ = uvw
        G = {"tan": tan_poly, "exp": W_ - U_ * V_ + Fraction(1, 3) * U_ ** 2,
             "sin": sin_quartic}[name]
        s = FunctionSpec.builtin(name).element_at(0, 12)
        U, V = BiSeries.from_univariate(s, 0), BiSeries.from_univariate(s, 1)
        if binary:
            U, V = U.to_binary(), V.to_binary()
        assert _values(aat._poly_in_w(G, U, V, 12)) == _values(_old_poly_in_w(G, U, V, 12))


class TestSchwarz:
    def test_tan_degree_one_no_iterations(self, tan_spec, tan_poly):
        rep = schwarz_reduce(tan_poly, tan_spec, order=20)
        assert rep.final_degree == 1
        assert rep.shifts == []
        assert rep.invariance_residual < 1e-12
        # psi_r is tan(u+v) itself
        t = taylor_of_builtin(tan_spec, 0, 12)
        for k in range(10):
            assert abs(complex(rep.psi.coefficient(k)) -
                       complex(t.coefficient(k))) < 1e-12
        assert rep.H == normalize_relation(
            MultiPoly.variable("X") - MultiPoly.variable("Y"))

    def test_sin_quartic_reduction(self, sin_quartic, sin_spec):
        rep = schwarz_reduce(sin_quartic, sin_spec, shifts=[0.3, 0.15],
                             order=24)
        assert rep.degrees == [4, 2]
        assert [complex(k) for k in rep.shifts] == [0.3 + 0j]
        assert rep.final_degree == 2
        assert rep.invariance_residual < 1e-9
        sin2 = _sin_squared_coeffs(13)
        for k in range(13):
            assert abs(complex(rep.psi.coefficient(k)) - sin2[k]) < 1e-12
        X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")
        assert rep.H == normalize_relation(X ** 2 - Y)

    def test_degree_monotone(self, sin_quartic, sin_spec):
        rep = schwarz_reduce(sin_quartic, sin_spec, shifts=[0.3, 0.15],
                             order=24)
        assert all(a > b for a, b in zip(rep.degrees, rep.degrees[1:]))
        assert rep.degrees[-1] >= 1

    def test_zero_shift_rejected(self, tan_spec, tan_poly):
        with pytest.raises(ShiftDegenerate):
            schwarz_reduce(tan_poly, tan_spec, shifts=[0])

    def test_psi_inherits_an_addition_theorem(self, sin_quartic, sin_spec):
        rep = schwarz_reduce(sin_quartic, sin_spec, shifts=[0.3], order=24)
        psi_spec = FunctionSpec.element(rep.psi, "psi")
        kernel = discover_aat(psi_spec, (2, 2, 2), 16, base=rep.psi.center)
        assert kernel

    @pytest.mark.parametrize("name", ["sin", "cos"])
    @pytest.mark.parametrize("k", [0.2, 0.3, 0.369487])
    def test_fixed_point_chain_precision(self, uvw, name, k):
        # psi read from the fixed-point carrier, exactly, against closed-form
        # Taylor data: sin -> sin^2 (degrees 4, 2), cos -> cos (2, 1)
        U, V, W = uvw
        G = {"sin": (W ** 2 + U ** 2 - V ** 2) ** 2
                    - 4 * U ** 2 * W ** 2 * (1 - V ** 2),
             "cos": W ** 2 - 2 * U * V * W + U ** 2 + V ** 2 - 1}[name]
        rep = schwarz_reduce(G, FunctionSpec.builtin(name), shifts=[k, k / 2],
                             order=24)
        X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")
        want_degrees, want_H, psi = {
            "sin": ([4, 2], X ** 2 - Y, _sin_squared_exact(13)),
            "cos": ([2, 1], X - Y, _cos_exact(13))}[name]
        assert rep.degrees == want_degrees
        assert [complex(s) for s in rep.shifts] == [complex(k)]
        assert rep.H == normalize_relation(want_H)
        assert rep.invariance_residual < 1e-20
        c = rep.reduced.coeffs[0]          # psi = -c0 restricted to y = 0
        for i in range(13):
            got = -Fraction(c.re[i][0]) * Fraction(2) ** c.exp
            assert abs(got - psi[i]) < Fraction(1, 10 ** 30)
            assert abs(Fraction(c.im[i][0]) * Fraction(2) ** c.exp) < \
                Fraction(1, 10 ** 30)

    @pytest.mark.parametrize("sigma", [0j, 0.3, 0.15 + 0.05j])
    def test_outer_product_coefficients_match_horner(self, sin_quartic,
                                                     sin_spec, sigma):
        # each W-coefficient, summed exactly from outer products of U^p and
        # V^q rows and rounded once, agrees with a Horner scheme of rounded
        # binary-scale BiSeries products to within a few roundings at the budget
        order = 16
        U, V = (aat._hp_element(sin_spec, c, sin_spec.element_at(c, order), slot)
                for c, slot in ((sigma, 0), (-sigma, 1)))
        got = PolyInW(aat._poly_in_w(sin_quartic, U, V, order), 1e-8)
        one = BiSeries.const(1, order).to_binary()
        want = [c.substitute({"U": U, "V": V}, one)
                for c in sin_quartic.coefficients_wrt("W")]
        assert got.degree == 4
        for k, (g, w) in enumerate(zip(got.coeffs, want)):
            if k % 2:
                assert g.is_zero() and w.is_zero()
                continue
            bound = Fraction(max(w.max_abs(), 1.0)) / 2 ** 150
            sg, sw = Fraction(2) ** g.exp, Fraction(2) ** w.exp
            for rg, rw in zip(g.re + g.im, w.re + w.im):
                for a, b in zip(rg, rw):
                    assert abs(a * sg - b * sw) < bound

    def test_relation_search_failure_propagates(self, monkeypatch, tan_spec,
                                                tan_poly):
        def broken(*args, **kwargs):
            raise ValueError("defect inside the relation search")

        monkeypatch.setattr(aat, "algebraic_relation", broken)
        with pytest.raises(ValueError):
            schwarz_reduce(tan_poly, tan_spec, order=20)

    def test_relation_search_order_too_low_gives_no_relation(
            self, monkeypatch, tan_spec, tan_poly):
        def too_low(*args, **kwargs):
            raise OrderTooLow("order too small for these bounds")

        monkeypatch.setattr(aat, "algebraic_relation", too_low)
        rep = schwarz_reduce(tan_poly, tan_spec, order=20)
        assert rep.H is None
        assert rep.to_json_dict()["relation"] is None

    def test_shift_scale_catches_only_toolkit_errors(self, monkeypatch,
                                                     sin_spec):
        def fail_with(exc):
            def radius(_s):
                raise exc
            return radius

        monkeypatch.setattr(aat, "radius_estimate",
                            fail_with(TooFewCoefficients("few")))
        assert aat._shift_scale(sin_spec, 0) == 1.0
        monkeypatch.setattr(aat, "radius_estimate",
                            fail_with(ValueError("defect")))
        with pytest.raises(ValueError):
            aat._shift_scale(sin_spec, 0)


def _sin_squared_exact(n):
    """Taylor coefficients of sin^2 = (1 - cos 2w) / 2 at 0, exactly."""
    out = [Fraction(0)] * n
    for m in range(1, (n + 1) // 2):
        out[2 * m] = Fraction((-1) ** (m + 1) * 2 ** (2 * m - 1),
                              math.factorial(2 * m))
    return out


def _cos_exact(n):
    return [Fraction((-1) ** (k // 2), math.factorial(k)) if k % 2 == 0
            else Fraction(0) for k in range(n)]


def _sin_squared_coeffs(n):
    out = [0.0] * n
    for m in range(1, n // 2 + 1):
        if 2 * m < n:
            out[2 * m] = (-1) ** (m + 1) * 2.0 ** (2 * m - 1) / math.factorial(2 * m)
    return out


class TestAlgebraicRelation:
    def test_sin_and_its_square(self, sin_spec):
        s = taylor_of_builtin(sin_spec, 0, 16)
        rel = algebraic_relation(sin_spec, FunctionSpec.element(s * s), (2, 1))
        X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")
        assert rel == normalize_relation(X ** 2 - Y)

    def test_pythagorean(self, sin_spec):
        cos = FunctionSpec.builtin("cos")
        rel = algebraic_relation(sin_spec, cos, (2, 2))
        X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")
        assert rel == normalize_relation(X ** 2 + Y ** 2 - 1)

    def test_opposite_square_root_branches(self, sqrt_curve):
        # two branches of z^2 = u as elements at u = 1 sum to zero
        f = FunctionSpec.algebroid(sqrt_curve, branch=0, base=1.0)
        g = FunctionSpec.algebroid(sqrt_curve, branch=1, base=1.0)
        rel = algebraic_relation(f, g, (1, 1), base=1)
        X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")
        assert rel == normalize_relation(X + Y)

    def test_no_relation_returns_none(self, exp_spec, sin_spec):
        assert algebraic_relation(exp_spec, sin_spec, (1, 1)) is None


# -- exact kernel ----------------------------------------------------------------

def _gauss_jordan_nullspace(rows, ncols):
    """Kernel basis from the reduced row echelon form by Gauss-Jordan over
    ExactScalar: the free column set to 1, the pivot entries read off."""
    m = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ExactScalar.one() / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):     # the pivot row is zero left of c
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i][c:] = [a if b.is_zero() else a - factor * b
                            for a, b in zip(m[i][c:], m[r][c:])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [ExactScalar.zero()] * ncols
        vec[fc] = ExactScalar.one()
        for ri, pc in enumerate(pivots):
            vec[pc] = -m[ri][fc]
        basis.append(vec)
    return basis


def _random_matrix(rng, m, n, rank):
    """m x n Gaussian-rational matrix B C with B m x rank, C rank x n."""
    def part():
        return Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 5, 8]))

    def entry():
        return ExactScalar(part(), part() if rng.random() < 0.6 else 0)
    B = [[entry() for _ in range(rank)] for _ in range(m)]
    C = [[entry() for _ in range(n)] for _ in range(rank)]
    return [[sum((B[i][k] * C[k][j] for k in range(rank)), ExactScalar.zero())
             for j in range(n)] for i in range(m)]


def _mobius_spec():
    u = MultiPoly.variable("u")
    return FunctionSpec.rational(2 * u + 1, u + 3)


def _engine_kernel(rows, ncols):
    """zi.modular_kernel of a matrix of ExactScalars, with its image (each
    row over its denominators' lcm) and its proof (M v = 0 in ExactScalar
    arithmetic) written here."""
    zrows = [list(zip(*zi.gaussian_integers(r)[1:])) for r in rows]

    def image(p, iota):
        return np.array([[(x + iota * y) % p for x, y in r] for r in zrows],
                        dtype=np.int64).reshape(len(rows), ncols)

    def proves(vecs):
        return all(sum((a * x for a, x in zip(r, v)), ExactScalar.zero()).is_zero()
                   for v in vecs for r in rows)

    return zi.modular_kernel(image, proves, any(c.im for r in rows for c in r))


def _spy_primes(monkeypatch):
    """The primes of every rref_mod call from now on."""
    primes, real = [], zi.rref_mod
    monkeypatch.setattr(zi, "rref_mod", lambda A, p: primes.append(p) or real(A, p))
    return primes


class TestExactKernel:
    # (m, n, rank): full rank, rank 0, rank-deficient, zero rows added below
    SHAPES = [(4, 4, 4), (3, 6, 3), (6, 3, 3), (5, 5, 0), (1, 4, 0), (6, 6, 2),
              (7, 5, 3), (5, 8, 4), (8, 8, 5), (2, 7, 1), (6, 4, 2), (9, 6, 4)]

    @pytest.mark.parametrize("seed", range(len(SHAPES)))
    def test_matches_sympy_nullspace(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        m, n, rank = self.SHAPES[seed]
        A = _random_matrix(rng, m, n, rank)
        if seed % 3 == 0:
            A = A + [[ExactScalar.zero()] * n] * 2
            rng.shuffle(A)

        def to_sympy(c):
            return (sympy.Rational(c.re.numerator, c.re.denominator)
                    + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))

        got = _engine_kernel(A, n)
        want = sympy.Matrix([[to_sympy(c) for c in row] for row in A]).nullspace(
            simplify=True)
        assert len(got) == len(want) == n - rank
        for v, w in zip(got, want):
            assert all(sympy.expand(to_sympy(a) - b) == 0 for a, b in zip(v, w))

    @pytest.mark.parametrize("name,bounds,dim", [
        ("exp", (2, 2, 2), 8), ("cos", (2, 2, 2), 1), ("sin", (2, 2, 2), 0),
        ("tan", (1, 1, 1), 1), ("mobius", (1, 1, 1), None)])
    def test_discovery_matrices_match_gauss_jordan(self, monkeypatch, name,
                                                   bounds, dim):
        systems = []
        engine = zi.modular_kernel

        def spy(image, proves, gaussian):
            systems.append((image, engine(image, proves, gaussian)))
            return systems[-1][1]

        monkeypatch.setattr(aat, "modular_kernel", spy)
        f = _mobius_spec() if name == "mobius" else FunctionSpec.builtin(name)
        polys = discover_aat(f, bounds, 16)
        (image, kernel), = systems
        rows = _box_rows(aat._elements_uvw(f, f.default_base(), 16), bounds)
        ncols = len(rows[0])
        m = image(*zi.prime(0))
        assert m.dtype == np.int64 and m.shape == (len(rows), ncols)
        assert kernel == _gauss_jordan_nullspace(rows, ncols)
        assert len(polys) == len(kernel)
        if dim is not None:
            assert len(kernel) == dim
        else:
            assert kernel

    def test_rows_vanishing_mod_p_move_to_the_next_prime(self, monkeypatch):
        # rows 0 and 2 are multiples of the first prime p, so modulo p the
        # rank is 1, the kernel has dimension 3 and the check M v = 0 fails;
        # the next prime has more pivots, so the engine drops p and answers
        # from that prime (two images each, i -> iota and i -> -iota)
        (p, _), (q, _) = zi.prime(0), zi.prime(1)
        re = [[p, 0, 2 * p, p], [1, 1, 0, 0], [0, p, -p, 3 * p]]
        im = [[0, p, 0, -p], [0, 0, 1, 0], [p, 0, 0, 0]]
        primes = _spy_primes(monkeypatch)
        rows = [[ExactScalar(x, y) for x, y in zip(r, i)] for r, i in zip(re, im)]
        got = _engine_kernel(rows, 4)
        assert primes == [p, p, q, q]
        assert got == _gauss_jordan_nullspace(rows, 4)
        assert len(got) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tall_rank_deficient_matches_gauss_jordan(self, data):
        n = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(n + 1, 3 * n + 4))
        rank = data.draw(st.integers(0, n - 1))
        A = _random_matrix(random.Random(data.draw(st.integers(0, 10 ** 9))), m, n, rank)
        # some rows scaled by p vanish modulo p and may force the fallback
        for k in data.draw(st.sets(st.integers(0, m - 1), max_size=3)):
            A[k] = [c * zi.prime(0)[0] for c in A[k]]
        assert _engine_kernel(A, n) == _gauss_jordan_nullspace(A, n)


# the Moebius maps (a u + b) / (c u + d) the bench discovers at seed 1
SEED1_MOBIUS = [(-2, -3, -1, -3), (3, 3, 1, 3), (-1, -3, 1, -4)]


def _mobius_abcd(a, b, c, d):
    u = MultiPoly.variable("u")
    return FunctionSpec.rational(a * u + b, c * u + d)


def _line_elements(s: TruncSeries) -> tuple:
    """(U, V, W) for an element s at base 0 whose doubled base is 0 too."""
    return BiSeries.from_univariate(s, 0), BiSeries.from_univariate(s, 1), compose_shift(s)


def _both_routes(uvw, bounds):
    """discover's relations and those of the Gauss-Jordan kernel of the
    box's exact coefficient matrix, which must be identical."""
    got = aat._discover_elements(uvw, bounds)
    monos = aat._grlex_monomials(bounds)
    want = aat._kernel_relations(_gauss_jordan_nullspace(_box_rows(uvw, bounds), len(monos)),
                                 monos, ("U", "V", "W"))
    assert repr(got) == repr(want)
    assert [p.to_json_dict() for p in got] == [p.to_json_dict() for p in want]
    return got


class TestResidueRoute:
    BENCH_BOXES = [("exp", (1, 1, 1)), ("tan", (1, 1, 1)), ("cos", (1, 1, 1)),
                   ("cos", (2, 2, 2)), ("sin", (2, 2, 2))] + \
                  [(abcd, (1, 1, 1)) for abcd in SEED1_MOBIUS]

    @staticmethod
    def _spec(name):
        return FunctionSpec.builtin(name) if isinstance(name, str) else _mobius_abcd(*name)

    @pytest.mark.parametrize("name,bounds", BENCH_BOXES + [("exp", (2, 2, 2))])
    def test_equals_the_exact_route(self, name, bounds):
        f = self._spec(name)
        uvw = aat._elements_uvw(f, f.default_base(), 16)
        got = _both_routes(uvw, bounds)
        # the residue route answered these itself
        assert aat._residue_kernel(*uvw, aat._grlex_monomials(bounds), 16) == got
        if (name, bounds) == ("exp", (2, 2, 2)):
            assert len(got) == 8

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(*[st.integers(-9, 9)] * 4), st.sampled_from([(1, 1, 1), (2, 2, 2)]))
    def test_moebius_maps_equal_the_exact_route(self, abcd, bounds):
        a, b, c, d = abcd
        assume(d != 0 and a * d - b * c != 0)      # regular at 0, not constant
        f = _mobius_abcd(*abcd)
        _both_routes(aat._elements_uvw(f, 0, 16), bounds)

    @pytest.mark.parametrize("case", ["past_the_lift", "vanish_mod_p", "gaussian"])
    def test_forced_fallbacks_equal_the_exact_route(self, monkeypatch, uvw, case):
        U, V, W = uvw
        calls = []
        monkeypatch.setattr(aat, "_column_kernel", lambda *a: calls.append(a))
        p = [zi.prime(k)[0] for k in range(4)]
        if case == "gaussian":             # complex coefficients: two images per prime
            elements = aat._elements_uvw(_mobius_abcd(1, ExactScalar(0, 1), 2, -1), 0, 16)
            want, primes_used = None, [p[0], p[0]]
        else:
            # phi = s exp: s W = U V.  s = 10**5 does not lift from one
            # prime (bound 4095) but from two (bound 2.4e7); for s = p[0]
            # the residues vanish, the rank drops and the first prime is
            # dropped, and s lifts from the next three (bound 1.4e11)
            s = 10 ** 5 if case == "past_the_lift" else p[0]
            elements = _line_elements(exp_like_element(s))
            want = [normalize_relation(U * V - s * W)]
            primes_used = p[:2] if case == "past_the_lift" else p
        primes = _spy_primes(monkeypatch)
        got = _both_routes(elements, (1, 1, 1))
        assert calls == [] and primes == primes_used    # the engine answered
        if want is not None:
            assert got == want
        else:
            assert len(got) == 1

    def test_bench_boxes_skip_the_exact_route(self, monkeypatch):
        # no numeric route and no Bareiss elimination; one prime per box
        calls = []
        monkeypatch.setattr(aat, "_column_kernel", lambda *a: calls.append("columns"))
        monkeypatch.setattr(zi, "bareiss", lambda *a: calls.append("bareiss"))
        primes = _spy_primes(monkeypatch)
        for name, bounds in self.BENCH_BOXES:
            primes.clear()
            discover_aat(self._spec(name), bounds, 16)
            assert primes == [zi.prime(0)[0]]
        assert calls == []


gaussian_int = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda z: ExactScalar(*z))


def _moebius(abcd):
    """(a u + b) / (c u + d), or None when it is singular at 0 or constant."""
    a, b, c, d = abcd
    if d.is_zero() or (a * d - b * c).is_zero():
        return None
    return _mobius_abcd(a, b, c, d)


class TestModularKernel:
    """The residue engine on Gaussian data, on entries that need several
    primes and under algebraic_relation, against the Gauss-Jordan kernel of
    the same rows."""

    @settings(max_examples=8, deadline=None)
    @given(st.tuples(*[gaussian_int] * 4), st.sampled_from([(1, 1, 1), (2, 2, 2)]))
    def test_gaussian_moebius_maps_equal_gauss_jordan(self, abcd, bounds):
        f = _moebius(abcd)
        assume(f is not None)
        assert _both_routes(aat._elements_uvw(f, 0, 16), bounds)   # W is bilinear in U, V

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30))
    def test_large_scales_take_several_primes(self, uvw, s):
        # phi = s exp: the one kernel entry is s, which lifts from the first
        # k primes once isqrt(p_1 ... p_k // 2) >= |s|
        primes = [zi.prime(k)[0] for k in range(10)]
        assume(all(s % p for p in primes))
        U, V, W = uvw
        with mock.patch.object(zi, "rref_mod", wraps=zi.rref_mod) as spy:
            got = _both_routes(_line_elements(exp_like_element(s)), (1, 1, 1))
        assert got == [normalize_relation(U * V - s * W)]
        k = next(k for k in range(1, 10) if math.isqrt(math.prod(primes[:k]) // 2) >= abs(s))
        assert [c.args[1] for c in spy.call_args_list] == primes[:k]

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(*[gaussian_int] * 4),
           st.one_of(st.tuples(*[gaussian_int] * 4), st.sampled_from(["exp", "sin", "cos"])),
           st.sampled_from([(1, 1), (2, 1), (2, 2)]))
    def test_exact_algebraic_relation_equals_gauss_jordan(self, f_abcd, g, bounds):
        f, moebius_pair = _moebius(f_abcd), not isinstance(g, str)
        g = _moebius(g) if moebius_pair else FunctionSpec.builtin(g)
        assume(f is not None and g is not None)
        got = algebraic_relation(f, g, bounds, base=0)
        sx, sy = f.element_at(0, 16), g.element_at(0, 16)
        monos = aat._grlex_monomials(bounds)
        cols = [sx ** i * sy ** j for i, j in monos]
        rows = [[c.coefficient(k) for c in cols] for k in range(min(c.order for c in cols))]
        want = aat._kernel_relations(_gauss_jordan_nullspace(rows, len(monos)), monos, ("X", "Y"))
        want.sort(key=lambda p: (p.total_degree(), len(p.terms)))
        assert repr(got) == repr(want[0] if want else None)
        if moebius_pair:
            assert got is not None           # two Moebius maps of u are related


class TestDegreeBounds:
    @pytest.mark.parametrize("bounds", [(1, 1, -1), (-1, 0, 0), (-3, 2, 2), (1, 1), ()])
    def test_negative_discovery_bound_is_an_error(self, exp_spec, bounds):
        with pytest.raises(PreconditionFailed):
            discover_aat(exp_spec, bounds, 16)

    @pytest.mark.parametrize("bounds", [(-1, 2), (2, -1), (1,), (1, 1, 1)])
    def test_negative_relation_bound_is_an_error(self, sin_spec, bounds):
        with pytest.raises(PreconditionFailed):
            algebraic_relation(sin_spec, sin_spec, bounds)

    def test_zero_box_is_valid(self, exp_spec):
        assert discover_aat(exp_spec, (0, 0, 0), 16) == []
