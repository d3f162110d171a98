"""The experiment scripts still run against the package.

Each script is run in its own process with the package on PYTHONPATH and
arguments small enough for a second or two; it must exit 0 and print its
table header.  compute_frozen_oracles.py is left out: it takes 10^6 steps.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script, its arguments, and a line its table starts with
SCRIPTS = [
    ("sin_accuracy_experiment.py", "--seeds 2 --steps 30 --particles 50", "algorithm"),
    ("slam_kl_sweep.py", "--seeds 2 --particles 50 --samples 5", "N \\ M"),
    ("bimodal_mixture_demo.py", "--steps 30 --particles 50", "squared-drive SIN"),
]


@pytest.mark.parametrize("script, args, header", SCRIPTS, ids=[s for s, _, _ in SCRIPTS])
def test_script_runs_and_prints_its_header(tmp_path, script, args, header):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "scripts" / script), *args.split()]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(line.lstrip().startswith(header) for line in proc.stdout.splitlines()), proc.stdout
