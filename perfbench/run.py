"""aatkit benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload numeric --seed 1 --seconds 50 --trace 0

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones (setup_s, wall_s, cpu_s, peak_rss_mb); with `--trace 1` they are the
per-layer metrics of `tracer.PER_LAYER`.  The lines before it are a readable
summary: failed_share, failures by op kind and exception type, the SHA-256
of all exact outputs, and the environment stamp.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("algebra", "numeric", "schwarz", "exact_discovery", "curves",
                            "periods"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library():
    """Import aatkit from this checkout, plus the lazily imported mpmath."""
    sys.path.insert(0, SRC)
    import aatkit  # noqa: F401
    import mpmath  # noqa: F401  (schwarz_reduce imports it on first use)


def _setup_probe(args) -> None:
    """One set-up, as a fresh process: imports, inputs, CLI files."""
    _import_library()
    import workloads
    workloads.build(args.workload, args.seed, args.setup_probe)


def _measure_setup(args) -> list[float]:
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(WORK, f"probe-{os.getpid()}-{i}")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--setup-probe", probe_dir],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
    return times


class Runner:
    """Runs the ops of one pass: times each, tallies failures, keeps checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.outcomes: dict[str, object] = {}
        self.failures: Counter = Counter()
        self.attempted = 0
        self.task = 0
        self.seq = 0

    def run(self, tasks) -> None:
        for self.task, task in enumerate(tasks):
            self.seq = 0
            task(self)

    def op(self, kind: str, call, check):
        label = f"{self.task}.{self.seq}.{kind}"
        self.seq += 1
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = label
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = call() if tracer is None else tracer.run_span(f"op.{kind}", call, (), {})
        except Exception as e:  # failure accounting: every op, no filtering
            self.failures[(kind, type(e).__name__)] += 1
            print(f"op failed: {label}: {type(e).__name__}: {e}")
            return None
        self.wall[label] = time.perf_counter() - t0
        self.cpu[label] = time.process_time() - c0
        try:
            outcome = check(result)
        except Exception as e:
            self.failures[(kind, f"check raised {type(e).__name__}")] += 1
            return None
        if outcome.problems:
            self.failures[(kind, "wrong output")] += 1
            print(f"check failed: {label}: {'; '.join(outcome.problems)}")
        self.outcomes[label] = outcome
        return result


def _problem_set_time(passes, attr: str) -> float:
    """Time for the whole problem set: each op's fastest pass, summed.

    The host's speed drifts in phases of seconds to minutes; a run that
    catches one fast stretch per op reads the same as any other, while a
    per-op median flips with whichever phase held most of the run.
    """
    per_op = defaultdict(list)
    for r in passes:
        for label, v in getattr(r, attr).items():
            per_op[label].append(v)
    return sum(min(v) for v in per_op.values())


def _run_pass(tasks, tracer=None) -> Runner:
    gc.collect()
    runner = Runner(tracer)
    if tracer is not None:
        tracer.install()
    try:
        runner.run(tasks)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return runner


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _env_stamp(args) -> dict:
    import mpmath
    import numpy
    src_lines = 0
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "aatkit")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git_commit(), "workload": args.workload, "seed": args.seed,
        "src_lines": src_lines,
    }


def _check_outputs(passes, probs: list[str]) -> str:
    """Deferred reference checks on the first pass; exact outputs must agree
    across passes.  Returns the SHA-256 of the exact outputs."""
    first = passes[0].outcomes
    for label, outcome in first.items():
        if outcome.deferred is not None:
            try:
                bad = outcome.deferred()
            except Exception as e:
                bad = [f"reference check raised {type(e).__name__}: {e}"]
            probs += [f"{label}: {b}" for b in bad]
    canon = {label: json.dumps(o.exact, sort_keys=True, default=str)
             for label, o in first.items()}
    for r in passes[1:]:
        for label, o in r.outcomes.items():
            if json.dumps(o.exact, sort_keys=True, default=str) != canon.get(label):
                probs.append(f"{label}: exact output differs between passes")
    blob = json.dumps(sorted(canon.items())).encode()
    return hashlib.sha256(blob).hexdigest()


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    if not os.path.isfile(os.path.join(SRC, "aatkit", "__init__.py")):
        print(f"perfbench: no aatkit sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    setup_times = [] if args.trace else _measure_setup(args)
    _import_library()
    import tracer as tracing
    import workloads
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    wl = workloads.build(args.workload, args.seed, workdir)

    plain, traced, tracers = [], [], []
    t_start = time.perf_counter()
    while True:
        if args.trace and len(plain) > len(traced):
            tracers.append(tracing.Tracer())
            traced.append(_run_pass(wl.tasks, tracers[-1]))
        else:
            plain.append(_run_pass(wl.tasks))
        elapsed = time.perf_counter() - t_start
        per_pass = elapsed / (len(plain) + len(traced))
        # start another pass only if it should end within a quarter pass of --seconds
        if (not args.trace or traced) and elapsed + 0.75 * per_pass >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = plain + traced
    problems: list[str] = []
    failures = sum((r.failures for r in runs), Counter())
    attempted = sum(r.attempted for r in runs)
    failed = sum(failures.values())
    digest = _check_outputs(runs, problems)
    health = defaultdict(float)
    for r in runs:
        for o in r.outcomes.values():
            for k, v in o.health.items():
                health[k] = max(health[k], v)

    if args.trace:
        metrics = {}
        per_pass = []
        for tr, r in zip(tracers, traced):
            problems += tr.check_spans()
            op_total = sum(t1 - t0 for _i, n, t0, t1, *_ in tr.spans if n.startswith("op."))
            wall = sum(r.wall.values())
            if abs(op_total - wall) > 0.01 * wall:
                problems.append(f"op spans cover {op_total:.3f}s of {wall:.3f}s traced wall")
            per_pass.append(tr.layer_metrics())
        overhead = _problem_set_time(traced, "wall") / _problem_set_time(plain, "wall") - 1
        for name, unit in tracing.PER_LAYER:
            if name == "health.known_defects_open":
                value = len(workloads.probe_known_defects())
            elif name.startswith("health."):
                value = health.get(name[len("health."):], 0.0)
            elif name == "trace.overhead_share":
                value = overhead
            else:
                value = statistics.median(m.get(name, 0) for m in per_pass)
            metrics[name] = {"value": value, "unit": unit}
        with open(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump(tracers[-1].spans, fh)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": _problem_set_time(plain, "wall"), "unit": "s"},
            "cpu_s": {"value": _problem_set_time(plain, "cpu"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} plain + "
          f"{len(traced)} traced passes, {attempted} ops")
    print(f"failed_share {failed / attempted:.6f} (share)")
    for (kind, exc), n in sorted(failures.items()):
        print(f"  failed: {kind}: {exc} x{n}")
    for p in problems:
        print(f"  problem: {p}")
    print(f"exact-output sha256 {digest}")
    print("inputs " + json.dumps(wl.inputs, sort_keys=True, default=str))
    if setup_times:
        print(f"setup samples (s): {[round(t, 4) for t in setup_times]}")
    print("env " + json.dumps(_env_stamp(args), sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
