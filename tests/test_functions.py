"""FunctionSpec errors (every bad spec raises a typed AatkitError) and
Taylor elements."""

import cmath
import math
from fractions import Fraction

import pytest

from aatkit.errors import DivisionByZeroSeries, InvariantViolation, SchemaError
from aatkit.functions import FunctionSpec
from aatkit.poly import MultiPoly
from aatkit.scalars import ExactScalar
from aatkit.series import TruncSeries


def test_unknown_builtin():
    with pytest.raises(SchemaError, match="unknown builtin 'foo'"):
        FunctionSpec.builtin("foo")


def test_zero_denominator():
    u = MultiPoly.variable("u")
    with pytest.raises(DivisionByZeroSeries, match="zero denominator"):
        FunctionSpec.rational(u, MultiPoly.zero(("u",)))


def test_unknown_spec_kind():
    with pytest.raises(SchemaError, match="unknown function kind 'nope'"):
        FunctionSpec.from_json_dict({"type": "nope"})


@pytest.mark.parametrize("use", [lambda f: f.element_at(1, 8),
                                 lambda f: f.eval(1.5)])
def test_branch_out_of_range(sqrt_curve, use):
    f = FunctionSpec.algebroid(sqrt_curve, branch=7, base=1)
    with pytest.raises(InvariantViolation, match="branch index 7 out of range"):
        use(f)


# -- Taylor elements: exact lines and bit-identical doubles -------------------------

@pytest.mark.parametrize("name", ["exp", "sin", "cos", "tan"])
def test_exact_builtin_elements_at_zero(name):
    # the exact element at 0 against its closed form over k!; tan by the
    # ExactScalar long division of the sin and cos series
    n = 12
    cyc = {"exp": [1], "sin": [0, 1, 0, -1], "cos": [1, 0, -1, 0]}
    ref = {g: [Fraction(c[k % len(c)], math.factorial(k)) for k in range(n + 1)]
           for g, c in cyc.items()}
    if name == "tan":
        s, c = ref["sin"], ref["cos"]
        want = []
        for k in range(n):
            want.append(s[k] - sum(c[j] * want[k - j] for j in range(1, k + 1)))
    else:
        want = ref[name][:n]
    got = FunctionSpec.builtin(name).element_at(0, n)
    assert got.exact and got.coeffs == [ExactScalar(w) for w in want]


@pytest.mark.parametrize("name", ["exp", "sin", "cos"])
def test_double_builtin_elements_are_the_cycle_over_k_factorial(name):
    c = 0.3 - 0.2j
    vals = {"exp": [cmath.exp(c)] * 4,
            "sin": [cmath.sin(c), cmath.cos(c), -cmath.sin(c), -cmath.cos(c)],
            "cos": [cmath.cos(c), -cmath.sin(c), -cmath.cos(c), cmath.sin(c)]}[name]
    got = FunctionSpec.builtin(name).element_at(c, 10)
    assert got.coeffs == [vals[k % 4] / math.factorial(k) for k in range(10)]


def test_exact_rational_element_matches_the_polynomial_shift():
    # P/Q at an exact center: the zi_shift lines against MultiPoly.shift_var
    u = MultiPoly.variable("u")
    P, Q = 3 * u ** 3 - u + Fraction(1, 2), 2 * u ** 2 + u * ExactScalar(0, 1) + 5
    center = ExactScalar(Fraction(1, 3), Fraction(-1, 4))
    f = FunctionSpec.rational(P, Q)
    got = f.element_at(center, 8)
    ps, qs = (TruncSeries(center, p.shift_var("u", center).univariate_coeffs("u") + [0] * 8,
                          exact=True).truncate(8) for p in (P, Q))
    assert got.coeffs == (ps / qs).coeffs and got.center == center
