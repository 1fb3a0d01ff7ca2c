"""Every failure of the toolkit reaches the caller as a typed AatkitError.

This walks the syntax tree of every module of the package and lists each
`raise ValueError` and `raise ZeroDivisionError`.  The sites still open are
allowed by name below; a new one fails the test, and a mended one must be
taken off the list, so the count can only fall.
"""

import ast
from collections import Counter
from pathlib import Path

import aatkit

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
