"""One builder sets every outcome: only ``verify._record`` makes a record that
passes or fails, so a record fails exactly when it carries a witness."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qharmonic"


def _sets_an_outcome(node: ast.AST) -> bool:
    # Record(...) without the literal "skip" among its arguments, a store to
    # some record's .status, or a ._replace(...) that passes a status keyword
    if isinstance(node, ast.Attribute):
        return node.attr == "status" and isinstance(node.ctx, ast.Store)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "_replace":
        return any(kw.arg == "status" for kw in node.keywords)
    args = [*node.args, *(kw.value for kw in node.keywords)]
    return name == "Record" and not any(
        isinstance(a, ast.Constant) and a.value == "skip" for a in args)


def outcome_setters(source: str) -> list[str]:
    """The dotted name of the innermost function or class around each place
    in `source` that sets a record's outcome, in order; "<module>" at top
    level."""
    found: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if _sets_an_outcome(child):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_finder_sees_every_setter():
    source = (
        "def _record(w):\n    return Record('x', {}, 'pass' if w is None else 'fail', w)\n"
        "def skipped():\n    return Record('x', {}, 'skip'), Record('x', {}, status='skip')\n"
        "def by_keyword():\n    return verify.Record(identity='x', params={}, status='pass')\n"
        "class R:\n    def flip(self, rec):\n        rec.status = 'fail'\n"
        "        return rec.status == 'pass'\n"
        "def f():\n    def g():\n        return Record('x', {}, 'fail')\n"
        "    return Record('x', {}, 'pass')\n"
        "X = [Record('x', {}, s) for s in ('pass', 'skip')]\n"
        "def stamp(rec):\n    return rec._replace(wall_ms=1.0)\n"
        "def reopen(rec):\n    return rec._replace(status='pass')\n"
    )
    assert outcome_setters(source) == ["_record", "by_keyword", "R.flip", "f.g", "f",
                                       "<module>", "reopen"]


def test_record_is_the_only_outcome_setter():
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in outcome_setters(path.read_text(encoding="utf-8"))]
    assert found == ["verify._record"], found
