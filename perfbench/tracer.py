"""In-memory span tracer that wraps aatkit's public entry points from outside.

`Tracer.install()` replaces the targets below with thin wrappers and
`Tracer.uninstall()` puts the originals back, so untraced passes run the
library exactly as shipped.  Class methods are patched on the class; module
functions are patched in every loaded `aatkit` module that holds the same
function object (e.g. both `aatkit.aat.resultant` and
`aatkit.elimination.resultant`).

A span records (id, name, start, end, self time, parent id, op id).  Self
time is the span's duration minus the durations of its direct child spans.
Count-only targets bump a counter and open no span, so their time is part of
the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# name -> targets.  A target is "module:attr" or "module:Class.attr".
SPAN_TARGETS = {
    "poly.mul": ["aatkit.poly:MultiPoly.__mul__", "aatkit.poly:MultiPoly.__rmul__"],
    "poly.divexact": ["aatkit.poly:divexact"],
    "poly.substitute": ["aatkit.poly:MultiPoly.substitute"],
    "poly.gcd": ["aatkit.poly:poly_gcd"],
    "series.bimul": ["aatkit.series:BiSeries.__mul__", "aatkit.series:BiSeries.__rmul__"],
    "series.biinv": ["aatkit.series:BiSeries.inverse"],
    "series.biadd": ["aatkit.series:BiSeries.__add__", "aatkit.series:BiSeries.__radd__"],
    "series.compose_shift": ["aatkit.series:compose_shift"],
    "series.mul": ["aatkit.series:TruncSeries.__mul__"],
    "series.inverse": ["aatkit.series:TruncSeries.inverse"],
    "elimination.resultant": ["aatkit.elimination:resultant"],
    "elimination.gcd_in_w": ["aatkit.elimination:gcd_in_w"],
    "elimination.discriminant": ["aatkit.elimination:discriminant"],
    "elimination.eliminate_chain": ["aatkit.elimination:eliminate_chain"],
    "algebroid.curve_init": ["aatkit.algebroid:AlgebroidCurve.__init__"],
    "algebroid.singular_points": ["aatkit.algebroid:singular_points"],
    "algebroid.puiseux_expand": ["aatkit.algebroid:puiseux_expand"],
    "algebroid.branch_residual": ["aatkit.algebroid:branch_residual"],
    "algebroid.track_branch": ["aatkit.algebroid:track_branch"],
    "algebroid.monodromy": ["aatkit.algebroid:monodromy"],
    "algebroid.roots_at": ["aatkit.algebroid:AlgebroidCurve.roots_at"],
    "functions.element_at": ["aatkit.functions:FunctionSpec.element_at"],
    "aat.verify_aat": ["aatkit.aat:verify_aat"],
    "aat.discover_aat": ["aatkit.aat:discover_aat"],
    "aat.schwarz_reduce": ["aatkit.aat:schwarz_reduce"],
    "aat.algebraic_relation": ["aatkit.aat:algebraic_relation"],
    "aat.koebe_normalize": ["aatkit.aat:koebe_normalize"],
    "period.weierstrass_period": ["aatkit.period:weierstrass_period"],
    "period.find_roots": ["aatkit.period:find_roots"],
    "period.verify_period": ["aatkit.period:verify_period"],
    "period.forsyth_fit": ["aatkit.period:forsyth_fit"],
    "cli.run_command": ["aatkit.cli:run_command"],
}

# metric name -> targets; each call adds one to the metric
COUNT_TARGETS = {
    "scalars.mul.calls": ["aatkit.scalars:ExactScalar.__mul__", "aatkit.scalars:ExactScalar.__rmul__"],
    "scalars.add.calls": ["aatkit.scalars:ExactScalar.__add__", "aatkit.scalars:ExactScalar.__radd__",
                    "aatkit.scalars:ExactScalar.__sub__", "aatkit.scalars:ExactScalar.__rsub__"],
    "scalars.div.calls": ["aatkit.scalars:ExactScalar.__truediv__"],
    "elimination.euclid_steps": ["aatkit.elimination:PolyInW.sub_shifted"],
    "algebroid.curve_eval.calls": ["aatkit.algebroid:AlgebroidCurve.eval",
                             "aatkit.algebroid:AlgebroidCurve.eval_du",
                             "aatkit.algebroid:AlgebroidCurve.eval_dz"],
    "functions.eval.calls": ["aatkit.functions:FunctionSpec.eval",
                       "aatkit.functions:FunctionSpec.eval_deriv"],
    "functions.is_regular.calls": ["aatkit.functions:FunctionSpec.is_regular"],
}

# layers whose escaping exceptions are tallied as `<layer>.failed`
FAILURE_LAYERS = ("elimination", "algebroid", "functions", "aat", "period", "cli")

# (metric, unit): the per-layer metrics a traced run reports
PER_LAYER = (
    [(f"scalars.{k}.calls", "count") for k in ("mul", "add", "div")]
    + [(f"poly.{k}.{s}", u) for k in ("mul", "divexact", "substitute")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("poly.gcd.calls", "count"), ("poly.gcd.s", "s")]
    + [(f"series.bimul.{m}.{s}", u) for m in ("hp", "exact", "double")
       for s, u in (("calls", "count"), ("self_s", "s"), ("pairs", "count"))]
    + [(f"series.biinv.{m}.{s}", u) for m in ("hp", "exact", "double")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"series.{k}.{s}", u) for k in ("compose_shift", "mul", "inverse", "biadd")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"elimination.{k}.{s}", u) for k in ("resultant", "gcd_in_w")
       for s, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [(f"elimination.{k}.{s}", u) for k in ("discriminant", "eliminate_chain")
       for s, u in (("calls", "count"), ("s", "s"))]
    + [("elimination.euclid_steps", "count"), ("elimination.failed", "count")]
    + [(f"algebroid.{k}.{s}", u) for k in ("singular_points", "puiseux_expand", "track_branch")
       for s, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [(f"algebroid.{k}.{s}", u) for k in ("curve_init", "branch_residual", "monodromy")
       for s, u in (("calls", "count"), ("s", "s"))]
    + [("algebroid.curve_eval.calls", "count"), ("algebroid.roots_at.calls", "count"),
       ("algebroid.roots_at.self_s", "s"), ("algebroid.failed", "count")]
    + [("functions.element_at.calls", "count"), ("functions.element_at.s", "s"),
       ("functions.element_at.self_s", "s"), ("functions.eval.calls", "count"),
       ("functions.is_regular.calls", "count"), ("functions.failed", "count")]
    + [(f"aat.{k}.{s}", u) for k in ("verify_aat", "discover_aat", "schwarz_reduce",
                                     "algebraic_relation")
       for s, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [("aat.koebe_normalize.calls", "count"), ("aat.koebe_normalize.s", "s"),
       ("aat.failed", "count")]
    + [(f"period.{k}.{s}", u) for k in ("weierstrass_period", "find_roots", "verify_period")
       for s, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [("period.forsyth_fit.calls", "count"), ("period.forsyth_fit.s", "s"),
       ("period.failed", "count")]
    + [("cli.run_command.calls", "count"), ("cli.run_command.s", "s"),
       ("cli.run_command.self_s", "s"), ("cli.failed", "count")]
    + [("health.branch_residual_max", "1"), ("health.schwarz_invariance_max", "1"),
       ("health.period_residual_max", "1"), ("health.known_defects_open", "count"),
       ("trace.overhead_share", "share")]
)


def _resolve(target: str):
    mod_name, path = target.split(":")
    owner = importlib.import_module(mod_name)
    *cls, attr = path.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    return owner, attr


def _series_mode(s) -> str:
    if s.exact:
        return "exact"
    first = next(iter(s.coeffs.values()), None)
    return "hp" if type(first).__module__.startswith("mpmath") else "double"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, t0, t1, self_s, parent_id, op_id, outermost)
        self.counts: Counter = Counter()
        self._stack: list[list] = []    # open frames: [id, child_s, name]
        self._open: Counter = Counter()  # open spans per name (recursion guard)
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attr, original)
        self.op_id = None

    # -- span recording ------------------------------------------------------

    def run_span(self, name: str, fn, args, kwargs):
        self._next_id += 1
        frame = [self._next_id, 0.0, name]
        parent = self._stack[-1] if self._stack else None
        outermost = self._open[name] == 0
        self._open[name] += 1
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            layer = name.split(".")[0]
            if layer in FAILURE_LAYERS and (parent is None
                                            or parent[2].split(".")[0] != layer):
                self.counts[f"{layer}.failed"] += 1
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            self.spans.append((frame[0], name, t0, t1, dur - frame[1],
                               parent[0] if parent else None, self.op_id, outermost))

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self

        if name == "series.bimul":
            @functools.wraps(fn)
            def wrapper(a, b, *rest):
                mode = _series_mode(a)
                nb = len(b.coeffs) if isinstance(b, type(a)) else 1  # scalar factor
                tracer.counts[f"series.bimul.{mode}.pairs"] += len(a.coeffs) * nb
                return tracer.run_span(f"series.bimul.{mode}", fn, (a, b) + rest, {})
        elif name == "series.biinv":
            @functools.wraps(fn)
            def wrapper(a, *rest, **kw):
                return tracer.run_span(f"series.biinv.{_series_mode(a)}", fn, (a,) + rest, kw)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kw):
                return tracer.run_span(name, fn, args, kw)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for table, make in ((SPAN_TARGETS, self._span_wrapper),
                            (COUNT_TARGETS, self._count_wrapper)):
            for name, targets in table.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    original = owner.__dict__[attr]
                    wrapped = make(name, original)
                    if isinstance(owner, type):
                        self._patch(owner, attr, original, wrapped)
                        continue
                    for mod in list(sys.modules.values()):
                        name_ = getattr(mod, "__name__", "") or ""
                        if not (name_ == "aatkit" or name_.startswith("aatkit.")):
                            continue
                        for key, val in list(vars(mod).items()):
                            if val is original:
                                self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls / s / self_s per span name, plus the counters."""
        out: Counter = Counter()
        for _id, name, t0, t1, self_s, _parent, _op, outermost in self.spans:
            if name.startswith("op."):
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            if outermost:
                out[f"{name}.s"] += t1 - t0
        out.update(self.counts)
        return dict(out)

    def check_spans(self) -> list[str]:
        """Each parent's duration equals its self time plus its children's."""
        child = Counter()
        for _id, _n, t0, t1, _s, parent, _op, _o in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        problems = []
        for sid, name, t0, t1, self_s, _p, _op, _o in self.spans:
            if abs((t1 - t0) - (self_s + child[sid])) > 1e-9 * max(1.0, t1 - t0):
                problems.append(f"span {sid} ({name}): s != self_s + children")
                break
        return problems
