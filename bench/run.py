"""Campaign benchmark for qharmonic.

    python3 bench/run.py --workload grid-w5|series-ops|pairs-par2|all
        [--seed N] [--seconds S] [--trace 0|1]

Every measured campaign runs through ``qharmonic.cli.main(["campaign", ...])``
in a fresh interpreter (bench/child.py), so the memo tables start cold.

--trace 0  set-up samples, then whole campaign rounds until --seconds have
           passed (at least three); prints the end-to-end metrics -- medians
           over the rounds -- with their units.
--trace 1  pairs of an untraced and a traced round (at parallelism 1) until
           --seconds have passed, plus the kernel corpus microbenchmarks;
           prints the per-layer metrics.

Both modes check the program's output: every record passes, the record count
of every family matches its formula, all reports of the run are identical
once timing is removed, a seeded sample agrees with the Fraction oracle and
is canonical, and every negative control fails.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload untraced and then traced.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_SAMPLES = 7
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def child(mode: str, workload: str, parallelism: int, check_seed: int | None = None) -> dict:
    """Run bench/child.py in a fresh interpreter and return its JSON result."""
    config = OUT / f"{workload}-p{parallelism}.cfg"
    config.write_text(workloads.config_text(workload, parallelism), encoding="utf-8")
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(config), "--workload", workload]
    if check_seed is not None:
        cmd += ["--check-seed", str(check_seed)]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    # own session, so a timeout can stop the pool workers too
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} {workload} took more than {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} {workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def src_lines() -> int:
    """Non-blank, non-comment lines of src/qharmonic/*.py."""
    files = sorted((ROOT / "src" / "qharmonic").glob("*.py"))
    if not files:
        raise BenchError("src/qharmonic has no Python files")
    return sum(1 for f in files for line in f.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.strip().startswith("#"))


class Tally:
    """Operations attempted and failed, and what went wrong."""

    def __init__(self, workload: str) -> None:
        self.expected = workloads.expected_counts(workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def campaign(self, result: dict, label: str) -> None:
        statuses = result["statuses"]
        self.attempted += sum(statuses.values())
        self.failed += statuses.get("fail", 0) + statuses.get("skip", 0)
        if statuses.get("fail") or statuses.get("skip"):
            self.problems.append(f"{label}: records not passing: {statuses}")
        if result["exit_code"] != 0:
            self.problems.append(f"{label}: campaign exit code {result['exit_code']}")
        if result["families"] != self.expected:
            self.problems.append(f"{label}: record counts {result['families']} "
                                 f"!= formula {dict(self.expected)}")
        self.digests.add(result["digest"])
        if len(self.digests) > 1:
            self.problems.append(f"{label}: timing-free report differs from an earlier one")
        checks = result.get("checks")
        if checks:
            self.attempted += checks["attempted"]
            self.failed += checks["failed"]
            self.problems.extend(f"{label}: {p}" for p in checks["failures"])

    @property
    def correct(self) -> bool:
        return not self.problems


def run_untraced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    parallelism = workloads.WORKLOADS[workload]["parallelism"]
    child("setup", workload, parallelism)  # warm the byte-code cache; not counted
    setups = [child("setup", workload, parallelism)["setup_s"] for _ in range(SETUP_SAMPLES)]
    rounds = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        result = child("run", workload, parallelism, check_seed=seed if not rounds else None)
        tally.campaign(result, f"round {len(rounds) + 1}")
        rounds.append(result)
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and now - started + (now - round_start) > seconds:
            break
    setups += [r["setup_s"] for r in rounds]
    print(f"{workload}: {len(rounds)} rounds, {len(setups)} set-up samples, "
          f"report sha256 {rounds[0]['digest']}")
    print(f"{workload}: round wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
    return {
        "wall_s": (statistics.median([r["wall_s"] for r in rounds]), "s"),
        "cpu_s": (statistics.median([r["cpu_s"] for r in rounds]), "s"),
        "peak_rss_mib": (statistics.median([r["peak_rss_mib"] for r in rounds]), "MiB"),
        "setup_s": (statistics.median(setups), "s"),
        "src_lines": (src_lines(), "lines"),
    }


def run_traced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    parallelism = workloads.WORKLOADS[workload]["parallelism"]
    # the pool figures come from an untraced round at the workload's parallelism
    pooled = child("run", workload, parallelism, check_seed=seed)
    tally.campaign(pooled, f"untraced p{parallelism}")
    pairs = []
    started = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        if parallelism == 1 and not pairs:
            plain = pooled
        else:
            plain = child("run", workload, 1)
            tally.campaign(plain, "untraced p1")
        traced = child("trace", workload, 1)
        tally.campaign(traced, "traced p1")
        pairs.append((plain, traced))
        now = time.perf_counter()
        if now - started + (now - pair_start) > seconds:
            break
    kernel = child("corpus", workload, 1)
    last = pairs[-1][1]
    names = sorted(last["layers"])
    metrics = {name: (statistics.median([t["layers"][name] for _, t in pairs]),
                      _layer_unit(name)) for name in names}
    traced_wall = statistics.median([t["wall_s"] for _, t in pairs])
    plain_wall = statistics.median([p["wall_s"] for p, _ in pairs])
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["verify.pool.busy_s"] = (pooled["busy_s"], "s")
    metrics["verify.pool.efficiency"] = (
        pooled["busy_s"] / (parallelism * pooled["wall_s"]), "ratio")
    for name, value in kernel.items():
        if name.startswith("exactq.corpus."):
            metrics[name] = (value, "us")
    self_s = last["layer_self_s"]
    total = last["wall_s"]
    shares = ", ".join(f"{layer} {s:.2f} s ({s / total:.0%})"
                       for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]))
    print(f"{workload}: {len(pairs)} traced rounds; traced wall {total:.2f} s; "
          f"self time by layer: {shares}")
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith("cache_hits") or name.endswith("cache_misses"):
        return "count"
    return "s"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "qharmonic").is_dir():
        raise BenchError(f"no program source at {ROOT / 'src' / 'qharmonic'}")
    OUT.mkdir(exist_ok=True)
    tally = Tally(workload)
    if trace:
        metrics = run_traced(workload, seed, seconds, tally)
    else:
        metrics = run_untraced(workload, seed, seconds, tally)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} attempted = {tally.attempted}, failed = {tally.failed}")
    for problem in tally.problems:
        print(f"{workload} PROBLEM {problem}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload != "all":
            return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        codes = [run_one(w, args.seed, args.seconds, trace)
                 for trace in (False, True) for w in workloads.WORKLOADS]
        return max(codes)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
