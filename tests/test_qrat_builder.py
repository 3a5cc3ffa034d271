"""One builder makes every QRat: only ``exactq._canonical`` allocates one."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qharmonic"


def _allocates_qrat(node: ast.AST) -> bool:
    # object.__new__(QRat), or any other X.__new__(QRat)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__" and bool(node.args)
            and isinstance(node.args[0], ast.Name) and node.args[0].id == "QRat")


def qrat_allocations(source: str) -> list[str]:
    """The dotted name of the innermost function or class around each
    allocation of a QRat in `source`, in order; "<module>" at top level."""
    found: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if _allocates_qrat(child):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_finder_sees_every_scope():
    source = (
        "def _canonical():\n    return object.__new__(QRat)\n"
        "class QRat:\n    def __neg__(self):\n        return object.__new__(QRat)\n"
        "def f():\n    def g():\n        return QRat.__new__(QRat)\n"
        "    return object.__new__(QPoly), object.__new__(QRat)\n"
        "X = [object.__new__(QRat) for _ in ()]\n"
    )
    assert qrat_allocations(source) == ["_canonical", "QRat.__neg__", "f.g", "f", "<module>"]


def test_canonical_is_the_only_qrat_builder():
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in qrat_allocations(path.read_text(encoding="utf-8"))]
    assert found == ["exactq._canonical"]
