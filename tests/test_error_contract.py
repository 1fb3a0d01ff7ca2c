"""Every failure of the toolkit reaches the caller as a typed AatkitError.

This walks the syntax tree of every module of the package and lists each
`raise ValueError` and `raise ZeroDivisionError`.  The sites still open are
allowed by name below; a new one fails the test, and a mended one must be
taken off the list, so the count can only fall.

It also fuzzes the command line: every subcommand runs on mutated input
JSON and must print exactly one JSON object and exit with 0, 1 or 2.
"""

import ast
import contextlib
import copy
import io
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import aatkit
from aatkit.cli import run_command

UNTYPED = {"ValueError", "ZeroDivisionError"}

# (module, exception, enclosing function) -> number of raise sites
ALLOWED: Counter = Counter()


def _untyped_raises(path: Path) -> Counter:
    found: Counter = Counter()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in UNTYPED:
                found[(path.name, exc.id, func)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_new_untyped_raises():
    found: Counter = Counter()
    for path in sorted(Path(aatkit.__file__).parent.glob("*.py")):
        found += _untyped_raises(path)
    new = found - ALLOWED
    assert not new, f"raise a typed AatkitError instead: {dict(new)}"
    mended = ALLOWED - found
    assert not mended, f"take the mended sites off ALLOWED: {dict(mended)}"


def test_guard_sees_a_raw_raise(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(x):\n    if x:\n        raise ValueError('x')\n"
                     "    raise ZeroDivisionError\n")
    assert _untyped_raises(probe) == Counter({("probe.py", "ValueError", "f"): 1,
                                              ("probe.py", "ZeroDivisionError", "f"): 1})


# -- the command-line error contract under mutated input JSON ----------------------

def _poly(terms, vars=("U", "V", "W")):
    """A polynomial's JSON from {exponents: integer coefficient}."""
    return {"vars": list(vars), "terms": [{"exps": list(e), "re": [str(c), "1"],
                                           "im": ["0", "1"]} for e, c in terms.items()]}


_SQRT = {"type": "curve", "n": 2, "p": [_poly({(0,): 1}, ("u",)), _poly({}, ("u",)),
                                        _poly({(1,): -1}, ("u",))]}
_SERIES = {"type": "series", "center": [0, 0], "low": 0, "order": 3, "exact": True,
           "coeffs": [[["0", "1"], ["0", "1"]], [["1", "1"], ["0", "1"]],
                      [["1", "2"], ["0", "1"]]]}
_EXP = {"type": "builtin", "name": "exp"}
_G_EXP = _poly({(0, 0, 1): 1, (1, 1, 0): -1})            # W - U V
_G_TAN = _poly({(0, 0, 1): 1, (1, 1, 1): -1, (1, 0, 0): -1, (0, 1, 0): -1})

# subcommand argv, with {name} for the input files it reads, and the files
_COMMANDS = {
    "aat verify": (["aat", "verify", "--poly", "{g}", "--fn", "{f}"],
                   {"g": _G_EXP, "f": _EXP}),
    "aat discover": (["aat", "discover", "--fn", "{f}", "--bounds", "1,1,1"], {"f": _EXP}),
    "algebroid expand": (["algebroid", "expand", "--curve", "{c}", "--center", "1"],
                         {"c": _SQRT}),
    "algebroid singular": (["algebroid", "singular", "--curve", "{c}"], {"c": _SQRT}),
    "algebroid monodromy": (["algebroid", "monodromy", "--curve", "{c}", "--around", "0",
                             "--base", "1"], {"c": _SQRT}),
    "period find": (["period", "find", "--fn", "{f}", "--poly", "{g}"],
                    {"f": {"type": "builtin", "name": "tan"}, "g": _G_TAN}),
    "period verify": (["period", "verify", "--fn", "{f}", "--omega", "0,6.283185307179586"],
                      {"f": _EXP}),
    "reduce schwarz": (["reduce", "schwarz", "--poly", "{g}", "--fn", "{f}"],
                       {"g": _G_EXP, "f": _EXP}),
    "reduce koebe": (["reduce", "koebe", "--poly", "{g}", "--p1", "{a}", "--p2", "{a}",
                      "--p3", "{a}"], {"g": _G_EXP, "a": _SERIES}),
    "reduce double": (["reduce", "double", "--poly", "{g}", "--m", "2"],
                      {"g": _poly({(1, 0): 1, (0, 2): -1}, ("x", "z"))}),
}

_KEYS = ["type", "name", "n", "p", "vars", "terms", "exps", "re", "im", "shift", "base",
         "branch", "curve", "series", "center", "low", "order", "exact", "coeffs",
         "numer", "denom"]
# small on purpose: an integer is at most 3, so no degree, order or count
# can make a run slow
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.sampled_from([0.5, -1.5, 1e308, float("nan"), float("inf")]),
                  st.sampled_from(["", "0", "1", "-2", "1/2", "x", "u", "U", "nan",
                                   "builtin", "curve", "poly", "series", "rational"]))
_VALUE = st.recursive(_LEAF, lambda c: st.lists(c, max_size=3)
                      | st.dictionaries(st.sampled_from(_KEYS), c, max_size=3),
                      max_leaves=5)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


@st.composite
def _mutated(draw, base):
    """base with one to three edits: a node replaced, deleted or grown."""
    data = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        parent = data
        for k in path[:-1]:
            parent = parent[k]
        node = parent[path[-1]] if path else data
        op = draw(st.sampled_from(["replace", "delete", "grow"]))
        if op == "replace" or (op == "delete" and not path):
            if not path:
                return draw(_VALUE)
            parent[path[-1]] = draw(_VALUE)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(node, list):
            node.append(copy.deepcopy(draw(st.sampled_from(node))) if node and
                        draw(st.booleans()) else draw(_VALUE))
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_KEYS))] = draw(_VALUE)
    return data


@st.composite
def _cli_case(draw):
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    argv, files = _COMMANDS[name]
    files = dict(files)
    key = draw(st.sampled_from(sorted(files)))
    files[key] = draw(_mutated(files[key]))
    return name, files


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _with(name, key, data):
    return name, {**_COMMANDS[name][1], key: data}


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_cli_case())
# the defects the fuzzing found, each now one typed error: a variable name
# that is not a string, a float numerator or exponent (int() truncated or
# overflowed), the zero relation, which verifies trivially and left the
# Schwarz chain nothing to reduce, and an infinite series center
@example(_with("aat verify", "g", {"vars": [[], "V", "W"], "terms": _G_EXP["terms"]}))
@example(_with("aat verify", "g", {"vars": ["U", "V", "W"], "terms": [
    {"exps": [1, 1, 0], "re": [float("inf"), "1"], "im": ["0", "1"]}]}))
@example(_with("aat verify", "g", {"vars": ["U", "V", "W"], "terms": [
    {"exps": [float("inf"), 0, 1], "re": ["1", "1"], "im": ["0", "1"]}]}))
@example(_with("reduce schwarz", "g", {"vars": ["U", "V", "W"], "terms": []}))
@example(_with("reduce koebe", "a", {**_SERIES, "center": [float("inf"), 0]}))
def test_mutated_json_is_one_json_object(fuzz_dir, case):
    name, files = case
    argv, _ = _COMMANDS[name]
    paths = {}
    for key, data in files.items():
        paths[key] = fuzz_dir / f"{key}.json"
        paths[key].write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command([a.format(**paths) for a in argv] + ["--order", "8"])
    assert code in (0, 1, 2)
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
