"""Process-global memo tables of the program: their number must not grow."""

from __future__ import annotations

import ast
from pathlib import Path

from qharmonic import exactq

SRC = Path(__file__).resolve().parent.parent / "src" / "qharmonic"

# q_integer, _phi_product (the table of cyclotomic products, the bounded one),
# q_binomial, q_power, _c_suffix and _c_value.
MAX_GLOBAL_TABLES = 6

_CACHES = ("cache", "lru_cache")
_TABLE_CALLS = ("dict", "list", "defaultdict", "OrderedDict")


def _called_name(node: ast.AST) -> str | None:
    # "cache" for functools.cache, functools.lru_cache(maxsize=...) or cache
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _is_table(value: ast.AST | None) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.DictComp, ast.ListComp)):
        return True
    return isinstance(value, ast.Call) and _called_name(value) in _TABLE_CALLS + _CACHES


def global_tables(source: str) -> list[str]:
    """Names of the memo-decorated functions and the module-level dict or list
    tables (or cache(...) wrappers) defined in `source`; dunders such as
    __all__ are not tables."""
    tree = ast.parse(source)
    found = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_called_name(d) in _CACHES for d in node.decorator_list)]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_table(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [name for name in map(ast.unparse, targets)
                      if not (name.startswith("__") and name.endswith("__"))]
    return found


def test_counter_sees_every_kind_of_table():
    source = (
        "import functools\n"
        "@functools.cache\ndef f(n): return n\n"
        "@functools.lru_cache(maxsize=None)\ndef g(n): return n\n"
        "class C:\n    @functools.cache\n    def h(self): return 1\n"
        "TABLE = {}\nROWS: list[int] = []\nSQUARES = {i: i * i for i in range(3)}\n"
        "MEMO = dict()\nWRAPPED = functools.cache(len)\n"
        "LIMIT = 6\nNAMES = ('a', 'b')\n__all__ = ['f']\n"
        "def local():\n    scratch = {}\n    return scratch\n"
    )
    assert sorted(global_tables(source)) == sorted(
        ["f", "g", "h", "TABLE", "ROWS", "SQUARES", "MEMO", "WRAPPED"])


def test_global_memo_tables_do_not_grow():
    found = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in global_tables(path.read_text(encoding="utf-8"))}
    assert len(found) <= MAX_GLOBAL_TABLES, sorted(found)


def test_cyclotomic_table_is_bounded():
    # past a fixed size the table of cyclotomic products drops its least recently used
    maxsize = exactq._phi_product.cache_info().maxsize
    assert isinstance(maxsize, int) and 0 < maxsize < 10 ** 6
