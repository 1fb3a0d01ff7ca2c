"""FunctionSpec errors: every bad spec raises a typed AatkitError."""

import pytest

from aatkit.errors import DivisionByZeroSeries, InvariantViolation, SchemaError
from aatkit.functions import FunctionSpec
from aatkit.poly import MultiPoly


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
