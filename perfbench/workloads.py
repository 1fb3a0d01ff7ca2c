"""The workloads: seeded inputs, the ops that consume them, and checks.

A workload is a list of tasks.  A task is a function of a `Runner`; it calls
`runner.op(kind, call, check)` once per library call.  `call` starts from
the generated input data (polynomials as JSON dicts, JSON files for CLI
ops), so no op reuses another op's `AlgebroidCurve` or `FunctionSpec`.
`check` runs untimed on the result and returns an `Outcome`.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from aatkit import aat, algebroid, cli, elimination, period
from aatkit.functions import FunctionSpec
from aatkit.poly import MultiPoly
from aatkit.scalars import ExactScalar
from aatkit.series import TruncSeries

from oracles import (ADDITION, PERIOD, SCHWARZ, U, V, W, locations_match,
                     mobius_relation, psi_reference, same_relation, sin_root_error,
                     sympy_chain_matches, sympy_discriminant_matches,
                     sympy_singular_locations)

@dataclass
class Outcome:
    exact: object = None                     # canonical exact output (digested)
    problems: list = field(default_factory=list)
    health: dict = field(default_factory=dict)
    deferred: Callable[[], list] | None = None  # slow reference check, run once


@dataclass
class Workload:
    tasks: list
    inputs: dict  # a JSON-able description of the generated inputs


def _poly(data: dict) -> MultiPoly:
    return MultiPoly.from_json_dict(data)


def _const(q, vars) -> MultiPoly:
    return MultiPoly.constant(ExactScalar(q), vars)


def _rational_spec(abcd) -> FunctionSpec:
    a, b, c, d = abcd
    u = MultiPoly.variable("u")
    return FunctionSpec.rational(a * u + b, c * u + d)


def _mobius(rng: random.Random) -> tuple[int, int, int, int]:
    """(a u + b) / (c u + d) with c, d != 0 (regular at 0) and ad - bc != 0."""
    while True:
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        c, d = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        if a * d - b * c != 0:
            return a, b, c, d


# ---------------------------------------------------------------------------
# schwarz: schwarz_reduce at order 24 with shift pairs (k, k/2)

def _schwarz_task(name: str, G: dict, k: float):
    degrees, H = SCHWARZ[name]
    want_psi = [float(q) for q in psi_reference(name, 13)]

    def call():
        return aat.schwarz_reduce(_poly(G), FunctionSpec.builtin(name),
                                  shifts=[k, k / 2], order=24)

    def check(rep) -> Outcome:
        out = Outcome(exact={"degrees": rep.degrees,
                             "shifts": [repr(complex(s)) for s in rep.shifts],
                             "H": None if rep.H is None else rep.H.to_json_dict()},
                      health={"schwarz_invariance_max": float(rep.invariance_residual)})
        if rep.degrees != degrees:
            out.problems.append(f"degrees {rep.degrees} != {degrees}")
        if rep.H is None or not same_relation(rep.H, H):
            out.problems.append(f"H = {rep.H!r}")
        used = [k] if len(degrees) > 1 else []
        if [complex(s) for s in rep.shifts] != [complex(s) for s in used]:
            out.problems.append(f"shifts used {rep.shifts} != {used}")
        if not rep.invariance_residual < 1e-9:
            out.problems.append(f"invariance residual {rep.invariance_residual}")
        err = max(abs(complex(rep.psi.coefficient(i)) - want_psi[i]) for i in range(13))
        if not err < 1e-12:
            out.problems.append(f"psi off the closed form by {err:.3g}")
        return out

    return lambda r: r.op("schwarz_reduce", call, check)


def _build_schwarz(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    ks = {name: round(rng.uniform(0.2, 0.4), 6) for name in ("sin", "cos", "tan", "exp")}
    tasks = [_schwarz_task(name, ADDITION[name].to_json_dict(), ks[name]) for name in ks]
    return Workload(tasks, {"shift_k": ks})


# ---------------------------------------------------------------------------
# exact_discovery: CLI discover sweeps, Koebe normalization, doubling chains

def _cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run_command(argv)
    return code, buf.getvalue()


def _discover_task(path: str, want: MultiPoly | None, bounds: list[int] | None,
                   extra: tuple = ()):
    def call():
        return _cli(["aat", "discover", "--fn", path, *extra])

    def check(res) -> Outcome:
        code, text = res
        rep = json.loads(text)
        out = Outcome(exact={"code": code, "bounds": rep.get("bounds_used"),
                             "kernel": rep.get("kernel"),
                             "verified": rep.get("round_trip_verified")})
        if want is None:  # full-rank box: exit 1, empty kernel
            if code != 1 or rep.get("kernel_dimension") != 0:
                out.problems.append(f"expected an empty kernel, got {text[:200]}")
            return out
        if code != 0 or rep.get("bounds_used") != bounds or rep.get("kernel_dimension") != 1:
            out.problems.append(f"exit {code}, bounds {rep.get('bounds_used')}, "
                                f"dimension {rep.get('kernel_dimension')}")
        elif not same_relation(_poly(rep["kernel"][0]), want):
            out.problems.append(f"kernel {rep['kernel'][0]} is not the closed form")
        if rep.get("round_trip_verified") not in (None, [True]):
            out.problems.append("round trip not verified")
        return out

    return lambda r: r.op("cli.discover", call, check)


def _koebe_task(s2: Fraction, s3: Fraction, order: int = 16):
    G = (_const(s2, ("U", "V", "W")) * W - _const(s3, ("U", "V", "W")) * U * V).to_json_dict()

    def element(scale):
        return TruncSeries(ExactScalar(0), [ExactScalar(scale * Fraction(1, math.factorial(k)))
                                            for k in range(order)], exact=True)

    def call():  # P1 = exp, P2 = s2 exp, P3 = s3 exp, and s2 W - s3 U V = 0
        return aat.koebe_normalize(_poly(G), element(1), element(s2), element(s3))

    def check(g) -> Outcome:
        out = Outcome(exact=g.to_json_dict())
        if not same_relation(g, W - U * V):
            out.problems.append(f"Koebe result {g!r} != W - UV")
        return out

    return lambda r: r.op("koebe_normalize", call, check)


def _chain_task(f: dict, m: int):
    def call():
        return elimination.eliminate_chain(_poly(f), m)

    def check(g) -> Outcome:
        return Outcome(exact=g.to_json_dict(),
                       deferred=lambda: [] if sympy_chain_matches(_poly(f), m, g)
                       else [f"chain m={m} disagrees with sympy"])

    return lambda r: r.op("eliminate_chain", call, check)


def _nonzero_q(rng: random.Random, top: int = 4) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, 3))


def _build_exact_discovery(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)

    def dump(name: str, data: dict) -> str:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    tasks = [
        _discover_task(dump("exp", {"type": "builtin", "name": "exp"}), ADDITION["exp"], [1, 1, 1]),
        _discover_task(dump("tan", {"type": "builtin", "name": "tan"}), ADDITION["tan"], [1, 1, 1]),
        _discover_task(dump("cos", {"type": "builtin", "name": "cos"}), ADDITION["cos"], [2, 2, 2]),
        _discover_task(dump("sin", {"type": "builtin", "name": "sin"}), None, None,
                       ("--bounds", "2,2,2")),
    ]
    maps = [_mobius(rng) for _ in range(3)]
    for i, abcd in enumerate(maps):
        path = dump(f"mobius{i}", _rational_spec(abcd).to_json_dict())
        tasks.append(_discover_task(path, mobius_relation(*abcd), [1, 1, 1]))
    scales = [(q, q) for q in [_nonzero_q(rng)]] + [(_nonzero_q(rng), _nonzero_q(rng))]
    tasks += [_koebe_task(s2, s3) for s2, s3 in scales]
    x, z = MultiPoly.variable("x"), MultiPoly.variable("z")
    quads = []
    for m in (3, 4):
        a, b, c = (_nonzero_q(rng, 3) for _ in range(3))
        f = x - (_const(a, ("z",)) * z ** 2 + _const(b, ("z",)) * z + _const(c, ("z",)))
        quads.append((m, f.to_json_dict()))
        tasks.append(_chain_task(f.to_json_dict(), m))
    return Workload(tasks, {
        "mobius": maps, "koebe_scales": [[str(a), str(b)] for a, b in scales],
        "chains": [[m, str(_poly(f))] for m, f in quads]})


# ---------------------------------------------------------------------------
# curves: singular points, Puiseux expansion + residual oracle, monodromy

def _pool() -> list[MultiPoly]:
    u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
    return [
        8 * u * z ** 3 + 3 * (1 - u) * z + (1 - u),         # reference cubic, linear p0
        z ** 3 + (2 * u - 1) * z ** 2 + (3 - u) * z + (1 + u),  # monic, linear coefficients
        z ** 2 + (2 - u) * z + (2 * u - 1),
    ]


def _affine_u(F: MultiPoly, alpha: Fraction, beta: Fraction) -> MultiPoly:
    u = MultiPoly.variable("u")
    return F.substitute_var("u", _const(alpha, ("u",)) * u + _const(beta, ("u",)))


def _curve_task(F: dict, theta: float):
    def task(r):
        n = _poly(F).degree("z")
        r.op("discriminant", lambda: elimination.discriminant(_poly(F), "z"),
             lambda d: Outcome(exact=d.to_json_dict(),
                               deferred=lambda: [] if sympy_discriminant_matches(_poly(F), d)
                               else ["discriminant disagrees with sympy"]))

        def check_singular(rep) -> Outcome:
            finite = rep.finite_locations()
            return Outcome(
                exact=[[p.kind, p.cycle_structure, p.source] for p in rep.points],
                deferred=lambda: [] if locations_match(finite, sympy_singular_locations(_poly(F)))
                else [f"singular set {finite} disagrees with sympy"])

        rep = r.op("singular_points",
                   lambda: algebroid.singular_points(algebroid.AlgebroidCurve(_poly(F))),
                   check_singular)
        if rep is None:
            return
        points = [p for p in rep.points if p.location is not None]
        for p in points:
            r.op("puiseux_expand", lambda loc=p.location: _expand(F, loc),
                 lambda res, p=p: _check_branches(res, p.cycle_structure, n))
        center = sum(p.location for p in points) / len(points)
        rho = 1.5 * max(abs(p.location - center) for p in points) or 1.0
        base = center + rho * cmath.exp(1j * theta)
        for p in points:
            r.op("monodromy",
                 lambda loc=p.location: algebroid.monodromy(
                     algebroid.AlgebroidCurve(_poly(F)), base, loc),
                 lambda perm, p=p: _check_monodromy(perm, p.cycle_structure))
    return task


def _expand(F: dict, center: complex):
    curve = algebroid.AlgebroidCurve(_poly(F))
    branches = algebroid.puiseux_expand(curve, center, 12)
    return branches, [algebroid.branch_residual(curve, b) for b in branches]


def _check_branches(res, cycles: list[int], n: int) -> Outcome:
    branches, residuals = res
    out = Outcome(exact=[[b.e, b.low_exp] for b in branches],
                  health={"branch_residual_max": max(x for _v, x in residuals)})
    if len(branches) != n:
        out.problems.append(f"{len(branches)} branches for degree {n}")
    if sorted(b.e for b in branches) != sorted(e for e in cycles for _ in range(e)):
        out.problems.append(f"ramification {[b.e for b in branches]} != cycles {cycles}")
    for b, (val, _x) in zip(branches, residuals):
        if val is not None and val < b.order - n * max(-b.low_exp, 0):
            out.problems.append(f"branch residual valuation {val} at order {b.order}")
    return out


def _check_monodromy(perm, cycles: list[int]) -> Outcome:
    out = Outcome(exact=list(perm.perm))
    if perm.cycle_type() != cycles:
        out.problems.append(f"monodromy cycle type {perm.cycle_type()} != {cycles}")
    return out


def _build_curves(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    pool = _pool()
    curves = [(pool[0], Fraction(1), Fraction(0))]
    for F in pool:
        alpha = Fraction(rng.choice([-1, 1]) * rng.randint(4, 12), 8)
        curves.append((F, alpha, Fraction(rng.randint(-8, 8), 8)))
    polys = [_affine_u(F, a, b) for F, a, b in curves]
    thetas = [rng.uniform(0, 2 * math.pi) for _ in polys]
    tasks = [_curve_task(F.to_json_dict(), t) for F, t in zip(polys, thetas)]
    return Workload(tasks, {
        "curves": [str(F) for F in polys], "base_angles": thetas})


# ---------------------------------------------------------------------------
# periods: Weierstrass period detection, root finding + lattice fit,
# off-origin numeric verification

def _period_task(spec: Callable[[], FunctionSpec], G: dict, rng_seed: int,
                 omega: complex | None):
    def call():
        return period.weierstrass_period(spec(), _poly(G), seed=rng_seed)

    def check(rep) -> Outcome:
        out = Outcome(exact=rep.classification)
        if omega is None:
            if rep.classification != "rational":
                out.problems.append(f"classified {rep.classification}, want rational")
            return out
        out.health["period_residual_max"] = float(rep.verification_residual or 0.0)
        if rep.classification != "periodic" or abs(rep.fundamental - omega) > 1e-9:
            out.problems.append(f"{rep.classification} {rep.fundamental}, want {omega}")
        elif not rep.verification_residual < 1e-9:
            out.problems.append(f"period residual {rep.verification_residual}")
        return out

    return lambda r: r.op("weierstrass_period", call, check)


def _lattice_task(C: float):
    region = period.Region(-20, 20, -1, 1)

    def check_roots(rs) -> Outcome:
        out = Outcome(exact=len(rs.roots))
        err = max(sin_root_error(z, C) for z in rs.roots)
        if len(rs.roots) < 5 or not err < 1e-9:
            out.problems.append(f"{len(rs.roots)} roots, worst off by {err:.3g}")
        return out

    def check_fit(fit) -> Outcome:
        out = Outcome(exact=[len(fit.progressions), fit.lambda_flag])
        if fit.lambda_flag or fit.omega is None or abs(fit.omega - 2 * math.pi) > 1e-8 \
                or len(fit.progressions) != 2:
            out.problems.append(f"lattice fit {fit.to_json_dict()}")
        return out

    def task(r):
        rs = r.op("find_roots", lambda: period.find_roots(FunctionSpec.builtin("sin"),
                                                          C, region, 5), check_roots)
        if rs is not None:
            r.op("forsyth_fit", lambda: period.forsyth_fit(rs), check_fit)
    return task


def _verify_task(name: str, G: dict, base: complex):
    def call():
        return aat.verify_aat(_poly(G), FunctionSpec.builtin(name), order=16, base=base)

    def check(cert) -> Outcome:
        out = Outcome(exact=[cert.status, cert.mode])
        if not cert.verified or cert.mode != "numeric":
            out.problems.append(f"verify_aat {name} at {base}: {cert.status}/{cert.mode}")
        return out

    return lambda r: r.op("verify_aat", call, check)


def _build_periods(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    names = ("tan", "sin", "cos", "exp")
    # period-search RNG seed 0, as in acceptance 08: other seeds hit the
    # recorded ZeroDivisionError in _reduce_candidates (see KNOWN_DEFECTS)
    tasks = [_period_task(lambda name=name: FunctionSpec.builtin(name),
                          ADDITION[name].to_json_dict(), 0, PERIOD[name])
             for name in names]
    maps = [_mobius(rng) for _ in range(2)]
    for abcd in maps:
        tasks.append(_period_task(lambda abcd=abcd: _rational_spec(abcd),
                                  mobius_relation(*abcd).to_json_dict(),
                                  rng.randrange(2 ** 31), None))
    C = round(rng.uniform(0.2, 0.8), 6)
    tasks.append(_lattice_task(C))
    bases = {name: complex(round(rng.uniform(0.1, 0.4), 6), round(rng.uniform(0.1, 0.3), 6))
             for name in names}
    tasks += [_verify_task(name, ADDITION[name].to_json_dict(), bases[name]) for name in names]
    return Workload(tasks, {
        "mobius": maps, "sin_level": C,
        "verify_bases": {k: [b.real, b.imag] for k, b in bases.items()}})


_WORKLOADS = {"schwarz": _build_schwarz, "exact_discovery": _build_exact_discovery,
            "curves": _build_curves, "periods": _build_periods}

# The gated workloads pair the four above: `algebra` holds every exact and
# high-precision layer, `numeric` every double-precision one, so each layer
# is exercised by one and bypassed by the other.  Pairing halves the number
# of runs a sweep needs, which buys each run the measuring time that the
# host's slow phases ask for.
COMPOSITES = {"algebra": ("schwarz", "exact_discovery"), "numeric": ("curves", "periods")}
NAMES = tuple(COMPOSITES) + tuple(_WORKLOADS)


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    tasks, inputs = [], {}
    for part in COMPOSITES.get(name, (name,)):
        wl = _WORKLOADS[part](seed, workdir)
        tasks += wl.tasks
        inputs[part] = wl.inputs
    return Workload(tasks, inputs)


# ---------------------------------------------------------------------------
# recorded defects (not part of any timed workload)

KNOWN_DEFECTS = (
    ("singular_points", "2 - z + z^2 + 3z^3 + u - uz - 2uz^2 - 2uz^3", "ZeroDivisionError"),
    ("monodromy", "-1 + 3z^2 - 2u + uz - 2uz^2 around u = 1.5 from base 2.5i", "AmbiguousMatching"),
    ("weierstrass_period", "cos with its addition polynomial, seed=1", "ZeroDivisionError"),
)


def probe_known_defects() -> list[str]:
    """Names of the recorded defects that still reproduce."""
    u, z = MultiPoly.variable("u"), MultiPoly.variable("z")
    calls = {
        "singular_points": lambda: algebroid.singular_points(algebroid.AlgebroidCurve(
            2 - z + z ** 2 + 3 * z ** 3 + u - u * z - 2 * u * z ** 2 - 2 * u * z ** 3)),
        "monodromy": lambda: algebroid.monodromy(algebroid.AlgebroidCurve(
            -1 + 3 * z ** 2 - 2 * u + u * z - 2 * u * z ** 2), 2.5j, 1.5),
        "weierstrass_period": lambda: period.weierstrass_period(
            FunctionSpec.builtin("cos"), ADDITION["cos"], seed=1),
    }
    still = []
    for kind, _text, exc in KNOWN_DEFECTS:
        try:
            calls[kind]()
        except Exception as e:  # a defect reproduces when the same type escapes
            if type(e).__name__ == exc:
                still.append(kind)
    return still
