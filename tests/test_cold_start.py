"""What a fresh interpreter loads: the CLI, a config parse, serial campaigns
and a one-shot command never import the process pool or `dataclasses`."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules loaded before this script's first line (by `site`, say) do not count.
SCRIPT = """\
import sys
before = set(sys.modules)
from qharmonic import cli
from qharmonic.verify import parse_config_text, run_campaign
serial = parse_config_text("max_weight = 2\\nmax_n = 1\\nmax_k = 1\\nidentities = duality, main\\n")
# a pool is asked for, but one task needs none
single = parse_config_text("max_n = 1\\nmax_k = 1\\nidentities = cor250\\nparallelism = 2\\n")
for config in (serial, single):
    assert run_campaign(config).all_passed
assert cli.main(["dual", "2,1"]) == 0
print(" ".join(sorted(set(sys.modules) - before)))
"""

NEVER_LOADED = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")


def test_cli_and_serial_campaigns_load_no_pool_and_no_dataclasses():
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert out.returncode == 0, out.stderr
    dual, loaded = out.stdout.splitlines()
    loaded = loaded.split()
    assert dual == "1,2" and "qharmonic.verify" in loaded
    assert [m for m in loaded
            if any(m == name or m.startswith(name + ".") for name in NEVER_LOADED)] == []
