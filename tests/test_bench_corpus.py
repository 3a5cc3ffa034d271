"""The benchmark's kernel corpus must find the calls it samples."""

from __future__ import annotations

import types
from pathlib import Path

from qharmonic import exactq, harmonic

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"

# every process-global memo table: the benchmark builds its corpus in a cold process
MEMO_TABLES = (exactq.q_integer, exactq.q_factorial, exactq.q_binomial, exactq.q_power,
               harmonic._c_suffix, harmonic._c_value)


def _load_corpus() -> types.ModuleType:
    # Executed from its source text, so nothing is written next to the benchmark.
    module = types.ModuleType("bench_corpus")
    exec(compile(CORPUS.read_text(encoding="utf-8"), str(CORPUS), "exec"), vars(module))
    return module


def test_corpus_records_rational_normalizations():
    # build() samples QRat(QPoly, QPoly) calls with a non-constant denominator
    # made while computing c values; with none, its timings divide by zero.
    corpus_module = _load_corpus()
    for table in MEMO_TABLES:
        table.cache_clear()
    init = exactq.QRat.__init__
    corpus = corpus_module.build()
    assert exactq.QRat.__init__ is init
    assert corpus["recorded"] > 0
    assert corpus["normalize"]
    assert all(len(den) > 1 for _, den in corpus["normalize"])
