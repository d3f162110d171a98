"""The experiment scripts still run against the package.

Each script is run in its own process with the package on PYTHONPATH and
arguments small enough for a second or two; it must exit 0 and print its
table header.  compute_frozen_oracles.py is left out: it takes 10^6 steps.
The A/B driver's summary is checked on a made-up record, without running
the benchmark.
"""

import importlib.util
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
    ("step_cost.py", "--particles 20 50 --steps 30 --repeats 3", "N  median us/step"),
]


@pytest.mark.parametrize("script, args, header", SCRIPTS, ids=[s for s, _, _ in SCRIPTS])
def test_script_runs_and_prints_its_header(tmp_path, script, args, header):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "scripts" / script), *args.split()]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(line.lstrip().startswith(header) for line in proc.stdout.splitlines()), proc.stdout


def _ab_module():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_summary_without_null_pairs():
    # NULL_PAIRS 0: the parent/change pairs are summarised and the null A/B is recorded as not run
    ab = _ab_module()
    spec = {"steps_per_s": {"name": "steps_per_s", "better": "higher", "bound": 0.25}}

    def run(value, digest):
        return {"metrics": {"steps_per_s": value}, "output_digest": digest}

    pairs = [{"first": "parent", "parent": run(100.0 + i, "a"), "change": run(120.0 + i, "b")} for i in range(5)]
    entry = {"ab": pairs, "null": []}
    ab.summarise(entry, spec)
    assert entry["null_summary"] is None
    assert entry["output_digests"] == {"parent": ["a"], "change": ["b"]}
    summary = entry["summary"]["steps_per_s"]
    assert summary["change_wins"] == 5 and summary["pairs"] == 5
    assert summary["parent"]["median"] == 102.0 and summary["change"]["median"] == 122.0
