"""Batch command-line front end.

Subcommands: `aat verify`, `aat discover`, `algebroid expand`,
`algebroid singular`, `algebroid monodromy`, `period find`, `period verify`,
`reduce schwarz`, `reduce koebe`, `reduce double`.

Inputs are JSON files (function specs, polynomials, curves, series); every
report echoes the effective configuration so numeric claims are auditable.
JSON output is the machine contract (stable key order, fixed layout); text
output is for humans.  Exit codes: 0 for verified/success, 1 for
refuted/no-relation/inconclusive or an engine error (structured in the
report), 2 for usage or schema errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .aat import (
    _check_uvw_vars,
    discover_aat,
    koebe_normalize,
    schwarz_reduce,
    verify_aat,
)
from .algebroid import (
    AlgebroidCurve,
    branch_residual,
    monodromy,
    puiseux_expand,
    singular_points,
)
from .elimination import eliminate_chain
from .errors import AatkitError, InvariantViolation, MissingVariable, SchemaError
from .functions import FunctionSpec
from .period import verify_period, weierstrass_period
from .poly import MultiPoly
from .series import TruncSeries

DEFAULT_SEED = 0xADD17  # fixed toolkit constant (711959)


@dataclass
class RunConfig:
    order: int = 16
    tol: float = 1e-9
    seed: int = DEFAULT_SEED
    format: str = "json"
    degree_cap: int = 4

    def validate(self):
        if self.order < 8:
            raise SchemaError("--order must be >= 8")
        if not (0 < self.tol < 1e-3):
            raise SchemaError("--tol must lie in (0, 1e-3)")
        if self.format not in ("json", "text"):
            raise SchemaError("--format must be json or text")
        if self.degree_cap < 1:
            raise SchemaError("--degree-cap must be >= 1")

    def echo(self) -> dict:
        return {"order": self.order, "tol": self.tol, "seed": self.seed,
                "format": self.format, "degree_cap": self.degree_cap}


# ---------------------------------------------------------------------------
# input parsing

def parse_spec(path: str):
    """Load a FunctionSpec, MultiPoly, or AlgebroidCurve from a JSON file.

    The `type` field discriminates; files without one are recognized by
    shape (vars/terms = polynomial, n/p = curve).  Raises SchemaError with
    the offending field, or InvariantViolation when a domain invariant
    fails (e.g. p0 identically zero).
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    return parse_spec_data(data, path)


def parse_spec_data(data: dict, origin: str = "<data>"):
    if not isinstance(data, dict):
        raise SchemaError(f"{origin}: top level must be an object")
    kind = data.get("type")
    try:
        if kind in ("builtin", "algebroid", "element"):
            return FunctionSpec.from_json_dict(data)
        if kind == "curve" or (kind is None and "n" in data and "p" in data):
            return AlgebroidCurve.from_json_dict(data)
        if kind == "poly" or (kind is None and "vars" in data and "terms" in data):
            return MultiPoly.from_json_dict(data)
        if kind == "series" or (kind is None and "coeffs" in data and "order" in data):
            return TruncSeries.from_json_dict(data)
    except (AatkitError, ValueError, KeyError, TypeError, ZeroDivisionError,
            OverflowError) as e:
        if isinstance(e, InvariantViolation):
            raise
        raise SchemaError(f"{origin}: {e}") from e
    raise SchemaError(f"{origin}: unrecognized schema "
                      f"(type={kind!r}, keys={sorted(data)[:6]})")


def _load_function(path: str) -> FunctionSpec:
    obj = parse_spec(path)
    if isinstance(obj, FunctionSpec):
        return obj
    if isinstance(obj, AlgebroidCurve):
        return FunctionSpec.algebroid(obj)
    if isinstance(obj, TruncSeries):
        return FunctionSpec.element(obj)
    raise SchemaError(f"{path}: expected a function spec")


def _load_poly(path: str) -> MultiPoly:
    obj = parse_spec(path)
    if not isinstance(obj, MultiPoly):
        raise SchemaError(f"{path}: expected a polynomial")
    return obj


def _load_relation(path: str) -> MultiPoly:
    """A polynomial in (U, V, W), the input of every addition-theorem command."""
    G = _load_poly(path)
    try:
        _check_uvw_vars(G)
    except MissingVariable as e:
        raise SchemaError(f"{path}: {e}") from e
    return G


def _load_curve(path: str) -> AlgebroidCurve:
    obj = parse_spec(path)
    if isinstance(obj, AlgebroidCurve):
        return obj
    raise SchemaError(f"{path}: expected a curve")


def _load_series(path: str) -> TruncSeries:
    obj = parse_spec(path)
    if isinstance(obj, TruncSeries):
        return obj
    if isinstance(obj, FunctionSpec) and obj.kind == "element":
        return obj.series
    raise SchemaError(f"{path}: expected a series element")


def _parse_complex(text: str) -> complex:
    from .scalars import checked_complex
    t = text.strip().replace(" ", "")
    try:
        if "," in t:
            re_s, im_s = t.split(",", 1)
            return checked_complex(float(re_s), float(im_s))
        z = complex(t)
        return checked_complex(z.real, z.imag)
    except (ValueError, InvariantViolation):
        raise SchemaError(f"cannot parse complex number {text!r}")


def _parse_complex_list(text: str) -> list[complex]:
    return [_parse_complex(p) for p in text.split(";") if p.strip()]


# ---------------------------------------------------------------------------
# subcommand handlers (each returns exit code + report dict)

def _cmd_aat_verify(args, cfg: RunConfig):
    G = _load_relation(args.poly)
    f = _load_function(args.fn)
    cert = verify_aat(G, f, order=cfg.order, tol=cfg.tol, seed=cfg.seed)
    return (0 if cert.verified else 1), cert.to_json_dict()


def _cmd_aat_discover(args, cfg: RunConfig):
    f = _load_function(args.fn)
    if args.bounds:
        try:
            bounds_list = [tuple(int(x) for x in args.bounds.split(","))]
        except ValueError:
            bounds_list = [()]
        if len(bounds_list[0]) != 3:
            raise SchemaError("--bounds must be three integers i,j,k")
    else:
        bounds_list = [(d, d, d) for d in range(1, cfg.degree_cap + 1)]
    kernel: list[MultiPoly] = []
    bounds_used = None
    for b in bounds_list:
        order = max(cfg.order, 2 * sum(b) + 4)
        kernel = discover_aat(f, b, order=order)
        if kernel:
            bounds_used = b
            break
    report = {
        "bounds_used": list(bounds_used) if bounds_used else None,
        "kernel_dimension": len(kernel),
        "kernel": [p.to_json_dict() for p in kernel],
    }
    if kernel:
        order = max(cfg.order, 2 * sum(bounds_used) + 4)
        checks = [verify_aat(p, f, order=order, tol=cfg.tol, seed=cfg.seed).verified
                  for p in kernel]
        report["round_trip_verified"] = checks
    return (0 if kernel else 1), report


def _cmd_algebroid_expand(args, cfg: RunConfig):
    curve = _load_curve(args.curve)
    center = _parse_complex(args.center)
    branches = puiseux_expand(curve, center, cfg.order)
    out = []
    for b in branches:
        val, res = branch_residual(curve, b, rel=cfg.tol)
        d = b.to_json_dict()
        d["residual_valuation"] = val
        d["residual_max_rel"] = res
        out.append(d)
    return 0, {"center": [center.real, center.imag], "n": curve.n,
               "branches": out}


def _cmd_algebroid_singular(args, cfg: RunConfig):
    curve = _load_curve(args.curve)
    rep = singular_points(curve)
    return 0, rep.to_json_dict()


def _cmd_algebroid_monodromy(args, cfg: RunConfig):
    curve = _load_curve(args.curve)
    around = _parse_complex(args.around)
    if args.base:
        base = _parse_complex(args.base)
    else:
        base = _default_monodromy_base(curve, around)
    perm = monodromy(curve, base, around)
    return 0, perm.to_json_dict()


def _default_monodromy_base(curve: AlgebroidCurve, around: complex) -> complex:
    sing = curve.singular_locations()
    d = 2.0 * max([1.0] + [abs(s - around) for s in sing])
    for cand in (around + d, around + d * 1j, around + d * (0.6 + 0.8j),
                 around + d * (-0.6 + 0.8j)):
        if all(abs(cand - s) > 0.2 for s in sing):
            return cand
    return around + d


def _cmd_period_find(args, cfg: RunConfig):
    f = _load_function(args.fn)
    G = _load_relation(args.poly)
    rep = weierstrass_period(f, G, seed=cfg.seed)
    code = 0 if rep.classification in ("periodic", "rational") else 1
    return code, rep.to_json_dict()


def _cmd_period_verify(args, cfg: RunConfig):
    f = _load_function(args.fn)
    omega = _parse_complex(args.omega)
    worst = verify_period(f, omega, seed=cfg.seed)
    ok = worst < cfg.tol
    return (0 if ok else 1), {
        "omega": [omega.real, omega.imag],
        "max_residual": worst,
        "is_period": ok,
    }


def _cmd_reduce_schwarz(args, cfg: RunConfig):
    G = _load_relation(args.poly)
    f = _load_function(args.fn)
    shifts = _parse_complex_list(args.shifts) if args.shifts else None
    order = max(cfg.order, 24)
    rep = schwarz_reduce(G, f, shifts=shifts, order=order)
    return 0, rep.to_json_dict()


def _cmd_reduce_koebe(args, cfg: RunConfig):
    G = _load_relation(args.poly)
    p1 = _load_series(args.p1)
    p2 = _load_series(args.p2)
    p3 = _load_series(args.p3)
    gbar = koebe_normalize(G, p1, p2, p3, order=cfg.order)
    return 0, {"gbar": gbar.to_json_dict()}


def _cmd_reduce_double(args, cfg: RunConfig):
    f = _load_poly(args.poly)
    gamma = eliminate_chain(f, args.m, var_half=args.half, var_full=args.full)
    return 0, {"m": args.m, "gamma": gamma.to_json_dict()}


# ---------------------------------------------------------------------------
# dispatch

def _global_flags(parser: argparse.ArgumentParser, suppress: bool):
    """The shared flags, accepted both before and after the subcommand."""
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--order", type=int, default=d(16),
                        help="series truncation order (default 16, min 8)")
    parser.add_argument("--tol", type=float, default=d(1e-9),
                        help="numeric tolerance (default 1e-9)")
    parser.add_argument("--seed", type=int, default=d(DEFAULT_SEED),
                        help=f"RNG seed (default 0x{DEFAULT_SEED:X} = "
                             f"{DEFAULT_SEED}; env ATL_SEED overrides)")
    parser.add_argument("--format", choices=("json", "text"), default=d("json"),
                        help="report format (default json)")
    parser.add_argument("--degree-cap", type=int, default=d(4),
                        dest="degree_cap",
                        help="max total bound for discovery searches (default 4)")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise SchemaError: one JSON object, nothing on stderr."""

    def error(self, message: str):
        raise SchemaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    _global_flags(common, suppress=True)
    p = _Parser(
        prog="aatkit",
        description="Algebraic addition theorems: verify, discover, expand, "
                    "reduce, and detect periods.")
    _global_flags(p, suppress=False)
    sub = p.add_subparsers(dest="group", required=True)

    aat_p = sub.add_parser("aat", help="addition-theorem checks")
    aat_sub = aat_p.add_subparsers(dest="cmd", required=True)
    v = aat_sub.add_parser("verify", parents=[common],
                           help="verify a candidate polynomial")
    v.add_argument("--poly", required=True)
    v.add_argument("--fn", required=True)
    v.set_defaults(handler=_cmd_aat_verify)
    d = aat_sub.add_parser("discover", parents=[common],
                           help="search for addition polynomials")
    d.add_argument("--fn", required=True)
    d.add_argument("--bounds", help="degree bounds i,j,k (default: search)")
    d.set_defaults(handler=_cmd_aat_discover)

    alg_p = sub.add_parser("algebroid", help="curve branch analysis")
    alg_sub = alg_p.add_subparsers(dest="cmd", required=True)
    e = alg_sub.add_parser("expand", parents=[common],
                           help="Puiseux branches at a center")
    e.add_argument("--curve", required=True)
    e.add_argument("--center", required=True)
    e.set_defaults(handler=_cmd_algebroid_expand)
    s = alg_sub.add_parser("singular", parents=[common],
                           help="classified singular points")
    s.add_argument("--curve", required=True)
    s.set_defaults(handler=_cmd_algebroid_singular)
    m = alg_sub.add_parser("monodromy", parents=[common],
                           help="branch permutation around a point")
    m.add_argument("--curve", required=True)
    m.add_argument("--around", required=True)
    m.add_argument("--base", default=None)
    m.set_defaults(handler=_cmd_algebroid_monodromy)

    per_p = sub.add_parser("period", help="periodicity from an addition theorem")
    per_sub = per_p.add_subparsers(dest="cmd", required=True)
    pf = per_sub.add_parser("find", parents=[common], help="detect a period")
    pf.add_argument("--fn", required=True)
    pf.add_argument("--poly", required=True)
    pf.set_defaults(handler=_cmd_period_find)
    pv = per_sub.add_parser("verify", parents=[common],
                            help="check a candidate period")
    pv.add_argument("--fn", required=True)
    pv.add_argument("--omega", required=True)
    pv.set_defaults(handler=_cmd_period_verify)

    red_p = sub.add_parser("reduce", help="elimination and reduction chains")
    red_sub = red_p.add_subparsers(dest="cmd", required=True)
    rs = red_sub.add_parser("schwarz", parents=[common],
                            help="GCD reduction to the invariant")
    rs.add_argument("--poly", required=True)
    rs.add_argument("--fn", required=True)
    rs.add_argument("--shifts", help="semicolon-separated shifts, e.g. 0.3;0.15")
    rs.set_defaults(handler=_cmd_reduce_schwarz)
    rk = red_sub.add_parser("koebe", parents=[common],
                            help="one-element normalization chain")
    rk.add_argument("--poly", required=True)
    rk.add_argument("--p1", required=True)
    rk.add_argument("--p2", required=True)
    rk.add_argument("--p3", required=True)
    rk.set_defaults(handler=_cmd_reduce_koebe)
    rd = red_sub.add_parser("double", parents=[common],
                            help="iterated half-argument elimination")
    rd.add_argument("--poly", required=True)
    rd.add_argument("--m", type=int, required=True)
    rd.add_argument("--half", default="z")
    rd.add_argument("--full", default="x")
    rd.set_defaults(handler=_cmd_reduce_double)
    return p


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(val, indent + 1))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}: [{len(val)} entries]")
            for i, item in enumerate(val):
                lines.append(f"{pad}  [{i}]")
                lines.append(_render_text(item, indent + 2))
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines)


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        seed = args.seed
        if (env_seed := os.environ.get("ATL_SEED")) is not None:
            try:
                seed = int(env_seed, 0)
            except ValueError:
                raise SchemaError("ATL_SEED must be an integer") from None
    except SystemExit as e:          # --help printed its text
        return 2 if e.code not in (0, None) else 0
    except SchemaError as e:         # a usage error or a bad ATL_SEED
        print(json.dumps({"error": {"type": "SchemaError", "message": str(e)}}))
        return 2
    cfg = RunConfig(order=args.order, tol=args.tol, seed=seed,
                    format=args.format, degree_cap=args.degree_cap)
    command = f"{args.group} {args.cmd}"
    try:
        cfg.validate()
        code, report = args.handler(args, cfg)
    except AatkitError as e:
        print(json.dumps({"command": command, "config": cfg.echo(),
                          "error": {"type": type(e).__name__,
                                    "message": str(e)}}, sort_keys=True))
        return 2 if isinstance(e, (SchemaError, InvariantViolation)) else 1
    report = {"command": command, "config": cfg.echo(), **report}
    if cfg.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(_render_text(report))
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
