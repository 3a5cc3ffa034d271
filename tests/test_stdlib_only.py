"""The package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import qharmonic

PACKAGE = Path(qharmonic.__file__).resolve().parent


def _outside_stdlib(source: str) -> list[str]:
    # every absolute import, at any depth, whose top-level name is not a
    # standard library module; relative imports stay inside the package
    outside = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] not in sys.stdlib_module_names for name in names):
            outside.append(ast.unparse(node))
    return outside


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8, modules
    outside = {m.name: found for m in modules
               if (found := _outside_stdlib(m.read_text(encoding="utf-8")))}
    assert not outside, outside


def test_the_check_sees_imports_at_any_depth():
    assert _outside_stdlib("import math\nfrom . import exactq\nfrom fractions import Fraction") == []
    assert _outside_stdlib("def f():\n    import numpy.linalg as la\n") == ["import numpy.linalg as la"]
    assert _outside_stdlib("from sympy import Poly") == ["from sympy import Poly"]
