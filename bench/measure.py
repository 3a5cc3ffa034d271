"""Timing, CPU and memory of one campaign call, and a digest of its report."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time
from collections import Counter

import workloads


def report_digest(report: dict) -> str:
    """sha256 of the report without its timing fields and without the parallelism."""
    stripped = dict(report)
    stripped["config"] = {k: v for k, v in report["config"].items() if k != "parallelism"}
    stripped["records"] = [{k: v for k, v in r.items() if k != "wall_ms"}
                           for r in report["records"]]
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def _cpu_and_rss() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, once joined
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0  # KiB -> MiB


def campaign(cli, config_path: str, report_path: str) -> dict:
    """Run the campaign through the CLI; wall time ends with the report on disk."""
    cpu_before, _ = _cpu_and_rss()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["campaign", "--config", config_path, "--json", report_path])
    wall = time.perf_counter() - start
    cpu_after, rss = _cpu_and_rss()
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    records = report["records"]
    return {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mib": rss,
        "digest": report_digest(report),
        "families": Counter(workloads.family(r) for r in records),
        "statuses": Counter(r["status"] for r in records),
        "busy_s": sum(r["wall_ms"] for r in records) / 1000.0,
        "records": records,
    }


def campaign_with_makeup(cli, config_path: str, report_path: str) -> dict:
    """The campaign, recording the largest denominator degree and coefficient size."""
    from qharmonic.exactq import QRat

    seen = {"max_den_degree": 0, "max_coeff_bits": 0}
    original = QRat.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        seen["max_den_degree"] = max(seen["max_den_degree"], len(self.den.coeffs) - 1)
        for c in self.num.coeffs + self.den.coeffs:
            bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            seen["max_coeff_bits"] = max(seen["max_coeff_bits"], bits)

    QRat.__init__ = recording
    try:
        result = campaign(cli, config_path, report_path)
    finally:
        QRat.__init__ = original
    return {**result, **seen}
