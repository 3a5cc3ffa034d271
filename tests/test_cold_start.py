"""What a fresh interpreter loads: the CLI, a config parse, serial and pooled
campaigns and a one-shot command never import `concurrent.futures`,
`multiprocessing` or `dataclasses`, and a campaign that forks no worker
imports neither `pickle` nor `signal`."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules loaded before this script's first line (by `site`, say) do not count.
SCRIPT = """\
import sys
before = set(sys.modules)
from qharmonic import cli
from qharmonic.verify import parse_config_text, run_campaign
# printed before the pool forks, so a child that flushed its copy of the
# stdout buffer would print it twice
assert cli.main(["dual", "2,1"]) == 0
serial = parse_config_text("max_weight = 2\\nmax_n = 1\\nmax_k = 1\\nidentities = duality, main\\n")
# a pool is asked for, but one task needs none
single = parse_config_text("max_n = 1\\nmax_k = 1\\nidentities = cor250\\nparallelism = 2\\n")
# three tasks in two workers: the pool forks its own
pooled = parse_config_text("max_weight = 2\\nmax_k = 1\\nidentities = duality\\nparallelism = 2\\n")
for config in (serial, single):
    assert run_campaign(config).all_passed
unforked = set(sys.modules) - before
assert run_campaign(pooled).all_passed
print(" ".join(sorted(unforked)))
print(" ".join(sorted(set(sys.modules) - before)))
"""

NEVER_LOADED = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
# what the runner imports only once it forks a worker
FORK_ONLY = ("pickle", "signal")


@pytest.fixture(scope="module")
def loaded() -> tuple[str, list[str], list[str]]:
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert out.returncode == 0, out.stderr
    dual, unforked, everything = out.stdout.splitlines()
    return dual, unforked.split(), everything.split()


def test_cli_and_serial_campaigns_load_no_pool_and_no_dataclasses(loaded):
    dual, _, everything = loaded
    assert dual == "1,2" and "qharmonic.verify" in everything
    assert [m for m in everything
            if any(m == name or m.startswith(name + ".") for name in NEVER_LOADED)] == []


def test_a_campaign_that_forks_nothing_loads_no_pickle_or_signal(loaded):
    # the serial and single-task campaigns go through the same runner as the
    # pooled one, but fork nothing; the pooled one pickles its workers' records
    # (and needs signal only to kill a worker it did not reap)
    _, unforked, everything = loaded
    assert [m for m in FORK_ONLY if m in unforked] == []
    assert "pickle" in everything
