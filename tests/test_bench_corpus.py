"""The benchmark's kernel corpus must find the calls it samples, its campaign
workloads must stay on the factored path, and their reports must not change."""

from __future__ import annotations

import hashlib
import sys
import types
from pathlib import Path

import pytest

from qharmonic import exactq, harmonic, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"
CORPUS = BENCH / "corpus.py"
WORKLOADS = BENCH / "workloads.py"

# every process-global memo table: the benchmark builds its corpus in a cold process
MEMO_TABLES = (exactq.q_integer, exactq._phi_product, exactq.q_binomial, exactq.q_power,
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


def _load_workloads(monkeypatch) -> types.ModuleType:
    # Executed from its source text; the configs need nothing from its oracle.
    monkeypatch.setitem(sys.modules, "oracle", types.ModuleType("oracle"))
    module = types.ModuleType("bench_workloads")
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), vars(module))
    return module


@pytest.mark.parametrize("name", ["grid-w5", "series-ops", "pairs-par2"])
def test_campaign_workload_calls_no_gcd(monkeypatch, name):
    # Every denominator a campaign builds is a product of Phi_k that the
    # q-constants name, so its sums and products read their gcds off the
    # cyclotomic vectors and never run GCDHEU.  The tables start cold, as in the
    # benchmark's fresh process, so no value comes from an earlier test.
    config = verify.parse_config_text(_load_workloads(monkeypatch).config_text(name, 1))
    for table in MEMO_TABLES:
        table.cache_clear()
    calls, gcd = [], exactq._int_gcd

    def counting(u, v):
        calls.append(None)
        return gcd(u, v)

    monkeypatch.setattr(exactq, "_int_gcd", counting)
    report = verify.run_campaign(config)
    assert report.records and report.all_passed
    assert len(calls) == 0


@pytest.mark.parametrize("name", ["grid-w5", "series-ops"])
def test_campaign_workload_builds_no_polynomial_sums(monkeypatch, name):
    # The closed q-difference and the shifted products compute on QRat: no
    # QPoly monomial, zero, sum or difference is made on their way.  The tables
    # start cold, so every value is computed in this campaign.
    config = verify.parse_config_text(_load_workloads(monkeypatch).config_text(name, 1))
    for table in MEMO_TABLES:
        table.cache_clear()
    calls = []
    for attr in ("monomial", "zero", "__add__", "__sub__"):
        original = getattr(exactq.QPoly, attr)

        def counting(*args, _attr=attr, _original=original):
            calls.append(_attr)
            return _original(*args)

        # the classmethods come bound, so they are wrapped without their class
        wrapped = staticmethod(counting) if attr in ("monomial", "zero") else counting
        monkeypatch.setattr(exactq.QPoly, attr, wrapped)
    report = verify.run_campaign(config)
    assert report.records and report.all_passed
    assert calls == []


@pytest.mark.parametrize("name, parallelism, digest", [
    ("grid-w5", 1, "123232b3ae4bc5f9"),
    ("series-ops", 1, "0bcb18efd5d6732a"),
    ("pairs-par2", 1, "eaa60b7cbb11c3cf"),
    ("pairs-par2", 2, "0368467669933d87"),
    (None, 1, "728aa47f2ef793bc"),
    (None, 2, "a001aa8ef9654681"),
])
def test_campaign_workload_report_digest(monkeypatch, name, parallelism, digest):
    # The sha256 prefix of each workload's timing-free report, and of the
    # default campaign's (name None), from cold tables: a change to the kernel,
    # the tables or the runner must leave every one of them byte-identical.
    if name is None:
        config = verify.CampaignConfig(parallelism=parallelism)
    else:
        config = verify.parse_config_text(
            _load_workloads(monkeypatch).config_text(name, parallelism))
    for table in MEMO_TABLES:
        table.cache_clear()
    report = verify.run_campaign(config)
    assert report.all_passed
    text = report.to_json(include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
