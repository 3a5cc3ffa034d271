"""The benchmark's tracer wraps entry points by name; every one must exist."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import qharmonic.cli  # noqa: F401  (loads every layer, as the tracer does)
from qharmonic import harmonic

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # Executed from its source text, so nothing is written next to the benchmark.
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    targets = [(module, dotted) for _, module, dotted, _ in tracer.SPAN_TARGETS]
    targets += [(module, dotted) for module, dotted, _ in tracer.KERNEL_TARGETS]
    assert targets
    for module_name, dotted in targets:
        owner, attr = tracer._resolve(sys.modules[f"qharmonic.{module_name}"], dotted)
        assert attr in vars(owner), f"qharmonic.{module_name}.{dotted}"
        assert callable(vars(owner)[attr]), f"qharmonic.{module_name}.{dotted}"


def test_c_value_reports_cache_info():
    info = harmonic.c_value.cache_info()
    assert info.hits >= 0 and info.misses >= 0
