"""Every name the benchmark imports from the package must resolve."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_imports() -> list[tuple[str, str, str | None]]:
    """(bench file, module, imported name or None) for each qharmonic import.

    The files are parsed, never imported, so nothing is written next to them.
    """
    found = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                if node.module.split(".")[0] == "qharmonic":
                    found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "qharmonic"]
    return found


def _resolves(module_name: str, name: str | None) -> bool:
    module = importlib.import_module(module_name)
    if name is None or hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_every_bench_import_resolves():
    found = _package_imports()
    assert any(name for _, _, name in found)
    missing = [(file, module, name) for file, module, name in found
               if not _resolves(module, name)]
    assert not missing, missing
