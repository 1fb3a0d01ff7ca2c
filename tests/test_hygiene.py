"""Code that moves leaves no orphan behind, and series storage stays in
one module.

This walks the syntax tree of every module of the package: each name a
module imports is used in that module, each private function (one leading
underscore) defined in the package is referenced somewhere in it other than
by its own definition, and outside series.py no module imports a private
name from it or reads a series' denominator or raw values.
"""

import ast
from pathlib import Path

import aatkit

MODULES = {p.name: ast.parse(p.read_text())
           for p in sorted(Path(aatkit.__file__).parent.glob("*.py"))}


def _read(tree) -> set:
    """The identifiers and attribute names that tree reads."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _unused_imports(tree) -> list:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (name := (alias.asname or alias.name).split(".")[0]) not in used)


def test_every_import_is_used():
    # __init__ imports the public names to re-export them
    unused = {name: found for name, tree in MODULES.items() if name != "__init__.py"
              if (found := _unused_imports(tree))}
    assert not unused, f"remove the unused imports: {unused}"


def test_every_private_function_is_referenced():
    read = set().union(*map(_read, MODULES.values()))
    orphans = sorted(f"{name}:{node.name}" for name, tree in MODULES.items()
                     for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and node.name.startswith("_") and not node.name.startswith("__")
                     and node.name not in read)
    assert not orphans, f"remove the unreferenced private functions: {orphans}"


def _series_storage_reads(tree) -> list:
    """Private names imported from aatkit.series, and .den / ._value reads."""
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module == "series" and node.level == 1
                    or node.module == "aatkit.series")
               for alias in node.names if alias.name.startswith("_")]
    reads = [f".{n.attr}" for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr in ("den", "_value")]
    return private + reads


def test_series_storage_stays_in_series():
    leaks = {name: found for name, tree in MODULES.items() if name != "series.py"
             if (found := _series_storage_reads(tree))}
    assert not leaks, f"go through aatkit.series instead: {leaks}"


def test_guard_sees_a_series_storage_read():
    tree = ast.parse("from .series import _common, BiSeries\nx = c.den * c._value(1, 2)\n")
    assert _series_storage_reads(tree) == ["_common", ".den", "._value"]


def test_guard_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert _unused_imports(tree) == ["math", "path"]
