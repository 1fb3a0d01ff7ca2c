"""Function specifications: the analytic functions under study.

A FunctionSpec describes phi in one of three ways:

* builtin: exp, sin, cos, tan, or a rational function P/Q with exact
  polynomial data;
* algebroid: a branch of an algebroid curve, selected by index at a base
  point (branches there sorted by the deterministic branch order);
* element: a raw truncated series carrying its own validity disc.

Every spec supports numeric evaluation, derivative evaluation, a regularity
test, and extraction of a Taylor element at a center (exact coefficients
whenever the function has rational Taylor data at a rational center).
``translate(a)`` gives the spec of x |-> phi(x + a), which is how an
addition theorem at an awkward base point is moved to the origin.

All builtin Taylor data comes from one generator, ``builtin_taylor``: the
derivative cycle of exp, sin or cos at the center.  Exact values (at 0, and
mpmath mantissas in aat._hp_element) become one line over (order - 1)! by
TruncSeries.taylor, complex doubles are divided by k!; tan is the sin/cos
quotient.  A rational P/Q shifts P and Q by zi_shift to an exact center, as
lines, and with series.taylor_shift to any other one.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .algebroid import (
    AlgebroidCurve,
    _as_exact,
    _safe_stem,
    exact_branch_element,
    puiseux_expand,
    track_branch,
)
from .errors import (
    DivisionByZeroSeries,
    InvariantViolation,
    SchemaError,
    SingularCenter,
    TooFewCoefficients,
)
from .poly import MultiPoly, zi_coeffs
from .scalars import ExactScalar, rationalize
from .series import TruncSeries, horner, radius_estimate, taylor_shift
from .zi import gaussian_integers, zi_shift

class FunctionSpec:
    """Tagged description of the function phi (possibly translated)."""

    def __init__(self, kind: str, *, name: str = "", numer: MultiPoly | None = None,
                 denom: MultiPoly | None = None, curve: AlgebroidCurve | None = None,
                 branch: int = 0, base: complex = 0j,
                 series: TruncSeries | None = None, shift=0):
        self.kind = kind
        self.name = name
        self.numer = numer
        self.denom = denom
        self.curve = curve
        self.branch = branch
        self.base = complex(base)
        self.series = series
        self.shift = shift  # int | Fraction | ExactScalar | complex
        self._shift_c = _to_complex(shift)
        self._branch_value: complex | None = None
        self._rat_arrays = None  # cached coefficient tuples for rational eval
        self._elem_data = None  # cached coefficient tuples and radius of an element

    def _rat(self):
        if self._rat_arrays is None:
            var = _rational_var(self.numer, self.denom)
            def desc(p):
                cs = p.univariate_coeffs(var) if not p.is_zero() else [0]
                return tuple(complex(c) for c in reversed(cs))
            def deriv(cs):
                n = len(cs) - 1
                if n == 0:
                    return (0j,)
                return tuple(c * (n - i) for i, c in enumerate(cs[:-1]))
            pn, qn = desc(self.numer), desc(self.denom)
            self._rat_arrays = (pn, qn, deriv(pn), deriv(qn),
                                max(max(abs(c) for c in qn), 1.0))
        return self._rat_arrays

    def _elem(self):
        """(center, (low, coeffs) of phi, (low, coeffs) of phi', radius) of an
        element spec; coefficients descending, radius computed once."""
        if self._elem_data is None:
            s = self.series
            try:
                r = radius_estimate(s)
            except TooFewCoefficients:
                r = math.inf
            def desc(t):
                return t.low, tuple(complex(t.coefficient(k))
                                    for k in range(t.order - 1, t.low - 1, -1))
            self._elem_data = (complex(s.center), desc(s), desc(s.derivative()), r)
        return self._elem_data

    # -- constructors ------------------------------------------------------

    @staticmethod
    def builtin(name: str) -> "FunctionSpec":
        if name not in ("exp", "sin", "cos", "tan"):
            raise SchemaError(f"unknown builtin {name!r}")
        return FunctionSpec("builtin", name=name)

    @staticmethod
    def rational(numer: MultiPoly, denom: MultiPoly) -> "FunctionSpec":
        if denom.is_zero():
            raise DivisionByZeroSeries("zero denominator")
        return FunctionSpec("builtin", name="rational", numer=numer, denom=denom)

    @staticmethod
    def algebroid(curve: AlgebroidCurve, branch: int = 0,
                  base: complex = 0j) -> "FunctionSpec":
        return FunctionSpec("algebroid", name=f"branch{branch}", curve=curve,
                            branch=branch, base=base)

    @staticmethod
    def element(series: TruncSeries, name: str = "element") -> "FunctionSpec":
        return FunctionSpec("element", name=name, series=series)

    def translate(self, offset) -> "FunctionSpec":
        """The spec of x |-> phi(x + offset)."""
        new_shift = _add_shift(self.shift, offset)
        out = FunctionSpec(self.kind, name=self.name, numer=self.numer,
                           denom=self.denom, curve=self.curve, branch=self.branch,
                           base=self.base, series=self.series, shift=new_shift)
        return out

    def label(self) -> str:
        tag = self.name or self.kind
        if self._shift_c != 0:
            tag += f"(x{_fmt_shift(self.shift)})"
        return tag

    # -- evaluation ---------------------------------------------------------

    def eval(self, u: complex) -> complex:
        w = complex(u) + self._shift_c
        if self.kind == "builtin":
            if self.name == "exp":
                return cmath.exp(w)
            if self.name == "sin":
                return cmath.sin(w)
            if self.name == "cos":
                return cmath.cos(w)
            if self.name == "tan":
                return cmath.tan(w)
            pn, qn, _dp, _dq, _s = self._rat()
            return horner(pn, w) / horner(qn, w)
        if self.kind == "element":
            return self.series.eval(w)
        return self._algebroid_value(w)

    def eval_deriv(self, u: complex) -> complex:
        w = complex(u) + self._shift_c
        if self.kind == "builtin":
            if self.name == "exp":
                return cmath.exp(w)
            if self.name == "sin":
                return cmath.cos(w)
            if self.name == "cos":
                return -cmath.sin(w)
            if self.name == "tan":
                c = cmath.cos(w)
                return 1.0 / (c * c)
            pn, qn, dpn, dqn, _s = self._rat()
            p, q = horner(pn, w), horner(qn, w)
            dp, dq = horner(dpn, w), horner(dqn, w)
            return (dp * q - p * dq) / (q * q)
        if self.kind == "element":
            return self.series.derivative().eval(w)
        z = self._algebroid_value(w)
        c = self.curve
        return -c.eval_du(w, z) / c.eval_dz(w, z)

    def is_regular(self, u: complex) -> bool:
        w = complex(u) + self._shift_c
        if self.kind == "builtin":
            if self.name in ("exp", "sin", "cos"):
                return True
            if self.name == "tan":
                return abs(cmath.cos(w)) > 1e-6
            _pn, qn, _dp, _dq, scale = self._rat()
            return abs(horner(qn, w)) > 1e-9 * scale
        if self.kind == "element":
            center, _s, _d, r = self._elem()
            return abs(w - center) < 0.8 * r
        sing = self.curve.singular_locations()
        return all(abs(w - s) > 1e-3 * max(1.0, abs(w)) for s in sing)

    # -- batch evaluation over complex ndarrays ------------------------------
    # Same formulas and tests as eval/eval_deriv/is_regular, elementwise;
    # overflow gives inf/nan instead of raising.  Algebroid branches have no
    # closed form and fall back to the scalar methods.

    def eval_many(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "algebroid":
            return np.array([self.eval(x) for x in u], dtype=complex)
        w = np.asarray(u, dtype=complex) + self._shift_c
        with np.errstate(all="ignore"):
            if self.kind == "element":
                center, (low, cs), _d, _r = self._elem()
                return _laurent_many(low, cs, w - center)
            if self.name in _UFUNCS:
                return _UFUNCS[self.name](w)
            pn, qn, _dp, _dq, _s = self._rat()
            return horner(pn, w) / horner(qn, w)

    def eval_deriv_many(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "algebroid":
            return np.array([self.eval_deriv(x) for x in u], dtype=complex)
        w = np.asarray(u, dtype=complex) + self._shift_c
        with np.errstate(all="ignore"):
            if self.kind == "element":
                center, _s, (low, cs), _r = self._elem()
                return _laurent_many(low, cs, w - center)
            if self.name == "exp":
                return np.exp(w)
            if self.name == "sin":
                return np.cos(w)
            if self.name == "cos":
                return -np.sin(w)
            if self.name == "tan":
                c = np.cos(w)
                return 1.0 / (c * c)
            pn, qn, dpn, dqn, _s = self._rat()
            p, q = horner(pn, w), horner(qn, w)
            dp, dq = horner(dpn, w), horner(dqn, w)
            return (dp * q - p * dq) / (q * q)

    def is_regular_many(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "algebroid":
            return np.array([self.is_regular(x) for x in u], dtype=bool)
        w = np.asarray(u, dtype=complex) + self._shift_c
        with np.errstate(all="ignore"):
            if self.kind == "element":
                center, _s, _d, r = self._elem()
                return np.abs(w - center) < 0.8 * r
            if self.name in ("exp", "sin", "cos"):
                return np.ones(w.shape, dtype=bool)
            if self.name == "tan":
                return np.abs(np.cos(w)) > 1e-6
            _pn, qn, _dp, _dq, scale = self._rat()
            return np.abs(horner(qn, w)) > 1e-9 * scale

    def default_base(self) -> complex:
        """Base point policy: 0 unless singular there, then 1/2."""
        return 0j if self.is_regular(0j) else 0.5 + 0j

    def _algebroid_value(self, w: complex) -> complex:
        if self._branch_value is None:
            self._branch_value = self._base_branch(8).coefficient(0)
        sing = self.curve.singular_locations()
        path = _safe_stem(self.base, w, sing, 0.02 * max(1.0, abs(w)))
        return track_branch(self.curve, self._branch_value, path, singular=sing)

    def _base_branch(self, order: int):
        """The selected branch at the base point, expanded to `order`; it
        must exist and be holomorphic there."""
        branches = puiseux_expand(self.curve, self.base, order)
        if not (0 <= self.branch < len(branches)):
            raise InvariantViolation(f"branch index {self.branch} out of range "
                                     f"(the curve has {len(branches)} branches)")
        b = branches[self.branch]
        if b.low_exp < 0 or b.e > 1:
            raise SingularCenter("selected branch is singular at its base point")
        return b

    # -- elements -----------------------------------------------------------

    def element_at(self, center, order: int) -> TruncSeries:
        """Taylor element of this function at `center` (exact when possible).

        Coefficients are exact Gaussian rationals whenever the function has
        rational Taylor data at a rational effective center; numeric
        otherwise.  Raises SingularCenter at poles and branch points.
        """
        eff = _add_shift(self.shift, center)
        if self.kind == "builtin":
            s = _builtin_series(self, eff, order)
        elif self.kind == "element":
            s = _element_series(self.series, eff, order)
        else:
            s = _algebroid_series(self, eff, order)
        return _recenter_tag(s, center, order)

    def to_json_dict(self) -> dict:
        out: dict = {"type": self.kind}
        if self.kind == "builtin":
            out["name"] = self.name
            if self.name == "rational":
                out["numer"] = self.numer.to_json_dict()
                out["denom"] = self.denom.to_json_dict()
        elif self.kind == "algebroid":
            out["curve"] = self.curve.to_json_dict()
            out["branch"] = self.branch
            out["base"] = [self.base.real, self.base.imag]
        else:
            out["series"] = self.series.to_json_dict()
        sh = self._shift_c
        if sh != 0:
            out["shift"] = [sh.real, sh.imag]
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "FunctionSpec":
        kind = data["type"]
        if kind == "builtin":
            name = data["name"]
            if name == "rational":
                spec = FunctionSpec.rational(MultiPoly.from_json_dict(data["numer"]),
                                             MultiPoly.from_json_dict(data["denom"]))
            else:
                spec = FunctionSpec.builtin(name)
        elif kind == "algebroid":
            curve = AlgebroidCurve.from_json_dict(data["curve"])
            base = complex(*data.get("base", [0, 0]))
            spec = FunctionSpec.algebroid(curve, int(data.get("branch", 0)), base)
        elif kind == "element":
            spec = FunctionSpec.element(TruncSeries.from_json_dict(data["series"]))
        else:
            raise SchemaError(f"unknown function kind {kind!r}")
        if "shift" in data:
            spec = spec.translate(complex(*data["shift"]))
        return spec


_UFUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "tan": np.tan}


def _laurent_many(low: int, desc: tuple[complex, ...], w: np.ndarray) -> np.ndarray:
    """TruncSeries.eval elementwise: descending coefficients times w**low."""
    acc = horner(desc, w) if desc else np.zeros_like(w)   # empty: an order-1 element's derivative
    return acc * w ** low if low else acc


def taylor_of_builtin(f: FunctionSpec, center, order: int) -> TruncSeries:
    """Taylor element of a function spec at a center (spec operation name)."""
    return f.element_at(center, order)


# -- shift bookkeeping --------------------------------------------------------

def _add_shift(a, b):
    ea, eb = _as_exactish(a), _as_exactish(b)
    if ea is not None and eb is not None:
        return ea + eb
    return _to_complex(a) + _to_complex(b)


def _as_exactish(v) -> ExactScalar | None:
    if isinstance(v, (int, Fraction, ExactScalar)):
        return ExactScalar.coerce(v)
    return _as_exact(v)


def _to_complex(v) -> complex:
    if isinstance(v, ExactScalar):
        return complex(v)
    if isinstance(v, (int, Fraction)):
        return complex(float(v), 0.0)
    return complex(v)


def _fmt_shift(v) -> str:
    z = _to_complex(v)
    return f"{z.real:+g}{z.imag:+g}i" if z.imag else f"{z.real:+g}"


# -- element construction -------------------------------------------------------

def builtin_taylor(name: str, values: list, order: int) -> list:
    """The derivatives k < order of exp, sin or cos at a center c.

    `values` holds [exp c] for exp and [sin c, cos c] otherwise, in any
    ring: complex floats, or the integer real or imaginary parts of values
    over one denominator.  The derivatives at c repeat with period p as the
    cycle [exp c], [s, c, -s, -c] (sin) or [c, -s, -c, s] (cos), so
    derivative k is cycle[k mod p]; the Taylor coefficients are those over
    k! (TruncSeries.taylor for exact data).  tan is the quotient of the sin
    and cos series, taken by the caller in its own series type.
    """
    if name == "exp":
        cycle = values
    else:
        s, c = values
        cycle = [s, c, -s, -c] if name == "sin" else [c, -s, -c, s]
    return [cycle[k % len(cycle)] for k in range(order)]


def _builtin_series(spec: FunctionSpec, eff, order: int) -> TruncSeries:
    name = spec.name
    eff_exact = _as_exactish(eff)
    c = _to_complex(eff)
    if name == "rational":
        return _rational_series(spec, eff_exact, c, order)
    n = order + (name == "tan")      # a guard term keeps the quotient order at `order`
    if eff_exact is not None and eff_exact.is_zero():
        def series(g: str) -> TruncSeries:   # exp 0 = cos 0 = 1, sin 0 = 0
            return TruncSeries.taylor(0, 1, builtin_taylor(g, [1] if g == "exp" else [0, 1], n),
                                      [0] * n)
    else:
        try:
            values = [cmath.exp(c)] if name == "exp" else [cmath.sin(c), cmath.cos(c)]
        except OverflowError:
            raise SingularCenter(f"{name} overflows at {c}") from None
        if name == "tan" and abs(values[1]) < 1e-9:
            raise SingularCenter(f"tan has a pole at {c}")

        def series(g: str) -> TruncSeries:
            return TruncSeries(c, [d / math.factorial(k) for k, d in
                                   enumerate(builtin_taylor(g, values, n))], exact=False)
    if name != "tan":
        return series(name)
    return (series("sin") / series("cos")).truncate(order)


def _rational_series(spec: FunctionSpec, eff_exact, c: complex,
                     order: int) -> TruncSeries:
    """P/Q at the center; SingularCenter at a zero of Q."""
    exact = eff_exact is not None
    if not exact:
        var = _rational_var(spec.numer, spec.denom)
        qv = spec.denom.eval({var: c})
        scale = max(abs(complex(x)) for x in spec.denom.terms.values())
        if abs(qv) < 1e-12 * max(scale, 1.0):
            raise SingularCenter(f"denominator vanishes at {c}")
    ps, qs = rational_taylor(spec, eff_exact if exact else c, order)
    if exact and qs.valuation() != 0:
        raise SingularCenter(f"denominator vanishes at {eff_exact}")
    return (ps / qs).truncate(order)


def rational_taylor(spec: FunctionSpec, center, order: int) -> tuple[TruncSeries, TruncSeries]:
    """P(center + t) and Q(center + t) of a rational spec as elements of
    the given order: the exact shift zi_shift to an ExactScalar center, as
    lines, else the numeric one of series.taylor_shift."""
    var = _rational_var(spec.numer, spec.denom)

    def shifted(p: MultiPoly) -> TruncSeries:
        if not isinstance(center, ExactScalar):
            cs = taylor_shift(p.univariate_coeffs(var), center) if not p.is_zero() else [0j]
            return TruncSeries(center, cs[:order] + [0j] * (order - len(cs)), exact=False)
        if p.is_zero():
            return TruncSeries.zeros(center, order, exact=True)
        D, c = zi_coeffs(p.with_vars((var,)), var)
        m, (wr,), (wi,) = gaussian_integers([center])
        line = zi_shift(c, (wr, wi), m)[::-1]
        return TruncSeries.from_line(center, D * m ** (len(c) - 1), [x for x, _ in line],
                                     [y for _, y in line], order=order)

    return shifted(spec.numer), shifted(spec.denom)


def _rational_var(numer: MultiPoly, denom: MultiPoly) -> str:
    for p in (numer, denom):
        for v in p.vars:
            if p.degree(v) > 0:
                return v
    return numer.vars[0] if numer.vars else "u"


def _element_series(series: TruncSeries, eff, order: int) -> TruncSeries:
    c = _to_complex(eff)
    same_exact = series.exact and isinstance(eff, ExactScalar) and \
        ExactScalar.coerce(series.center) == eff
    if same_exact or abs(c - complex(series.center)) == 0.0:
        return series.truncate(order)
    from .series import rearrange_at
    target = eff if isinstance(eff, ExactScalar) else c
    return rearrange_at(series, target).truncate(order)


def _algebroid_series(spec: FunctionSpec, eff, order: int) -> TruncSeries:
    curve = spec.curve
    sel = spec._base_branch(6)
    c = _to_complex(eff)
    if abs(c - complex(spec.base)) == 0.0:
        z_at = sel.coefficient(0)
    else:
        sing = curve.singular_locations()
        path = _safe_stem(complex(spec.base), c, sing, 0.02 * max(1.0, abs(c)))
        z_at = track_branch(curve, sel.coefficient(0), path, singular=sing)
    # exact element when the center and branch value have rational data
    eff_exact = _as_exactish(eff)
    if eff_exact is not None:
        zre, zim = rationalize(z_at.real), rationalize(z_at.imag)
        if zre is not None and zim is not None:
            try:
                return exact_branch_element(curve, eff_exact,
                                            ExactScalar(zre, zim), order)
            except SingularCenter:
                pass
    branches = puiseux_expand(curve, c, order)
    best = min(branches, key=lambda b: abs(b.coefficient(0) - z_at)
               if (b.low_exp >= 0) else math.inf)
    if best.low_exp < 0 or best.e > 1 or \
            abs(best.coefficient(0) - z_at) > 1e-6 * max(1.0, abs(z_at)):
        raise SingularCenter(f"branch is not holomorphic at {c}")
    coeffs = [best.coefficient(k) for k in range(order)]
    return TruncSeries(c, coeffs, exact=False)


def _recenter_tag(s: TruncSeries, center, order: int) -> TruncSeries:
    """Relabel the element with the caller's center (shift bookkeeping)."""
    s = s.truncate(order)
    if s.exact:
        if (ce := _as_exactish(center)) is not None:
            return s.with_center(ce)
        s = s.to_numeric()
    return s.with_center(complex(center))
