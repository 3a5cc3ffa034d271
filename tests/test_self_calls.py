"""One recursion per chain family: no module-level function in the program
calls itself by name, except ``harmonic._c_suffix``, the memoized walk of the
c family, whose depth is bounded: ``_c_value`` fills its suffixes shortest
first, so a call finds the next suffix in the memo."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qharmonic"


def self_callers(source: str) -> list[str]:
    """The names of the module-level functions in `source` whose body, nested
    functions and lambdas included, calls the function by its own name, in
    order."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == node.name
                for stmt in node.body for call in ast.walk(stmt)):
            found.append(node.name)
    return found


def test_finder_sees_every_self_call():
    source = (
        "import functools\n"
        "@functools.cache\ndef walk(n):\n    return 1 if n == 0 else walk(n - 1)\n"
        "def gen(n):\n    for x in range(n):\n        yield from gen(x)\n"
        "def inner(n):\n    def g(m):\n        return inner(m)\n    return g(n)\n"
        "def lam(n):\n    return (lambda m: lam(m))(n)\n"
        "def calls_other(n):\n    return walk(n)\n"
        "def method_named_alike(self):\n    return self.method_named_alike()\n"
        "class C:\n    def m(self):\n        return m(self)\n"
    )
    assert self_callers(source) == ["walk", "gen", "inner", "lam"]


def test_only_c_suffix_calls_itself():
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in self_callers(path.read_text(encoding="utf-8"))]
    assert found == ["harmonic._c_suffix"], found
