"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sin-api": dict(steps=30, particles=40),
    "sin-bimodal-mixture": dict(steps=30, particles=40),
    "slam-large-discrete": dict(steps=30, particles=40, approx_samples=8),
    "pmmh-lg": dict(steps=30, particles=10, iterations=4),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep outputs and set-up repeats small."""
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **sizes))
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_REPEATS", 1)
    return tmp_path


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def _one_pass(workload, tmp_path, wrapper=None, ref=None):
    states, observations = workloads.make_stream(workload, 3)
    data = tmp_path / "data.csv"
    workloads.write_stream_csv(data, states, observations)
    ref = ref if ref is not None else workloads.reference(workload, observations)
    out = tmp_path / "result"
    timed = run.run_pass(run.run_argv(workload, data, out, 3), out, wrapper)
    return run.check_pass(workload, ref, out, timed)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_emits_every_metric_with_its_unit(tiny, capsys, name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = _result(capsys, ["--workload", name, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _paramsmc_bindings():
    """Every callable a paramsmc module, module-level dict or ParticleStore binds."""
    import paramsmc.cli  # noqa: F401

    snapshot = {}
    for mod_name, module in sys.modules.items():
        if module is not None and mod_name.startswith("paramsmc"):
            for key, value in vars(module).items():
                if callable(value):
                    snapshot[(mod_name, key)] = value
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in value.items():
                        snapshot[(mod_name, key, dkey)] = dvalue
    store = sys.modules["paramsmc.storage"].ParticleStore
    snapshot.update({("ParticleStore", k): v for k, v in vars(store).items()})
    return snapshot


@pytest.mark.parametrize("wrapper", [spans.Tracer, lambda: spans.MemorySampler(1000)])
def test_wrappers_restore_every_patched_attribute(tmp_path, wrapper):
    before = _paramsmc_bindings()
    wrapped = wrapper()
    _one_pass(_tiny("sin-api"), tmp_path, wrapped)
    after = _paramsmc_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_patches_every_holder_of_a_function(tmp_path):
    tracer = spans.Tracer()
    _one_pass(_tiny("pmmh-lg"), tmp_path, tracer)
    stats = tracer.stats()
    # run_pmmh is reached through cli's own import, log_mean_exp through oracles'
    assert stats["engine.run"]["calls"] == 1
    assert stats["oracles.pf_log_likelihood"]["calls"] == 5
    assert stats["resampling.log_mean_exp"]["calls"] == 5 * 30
    assert stats["benchmarks.model.obs_logdensity"]["calls"] == 5 * 30


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_gives_the_untraced_digest(tmp_path, name):
    plain = _one_pass(_tiny(name), tmp_path)
    traced = _one_pass(_tiny(name), tmp_path, spans.Tracer())
    assert plain["digest"] is not None
    assert traced["digest"] == plain["digest"]


def test_self_times_sum_to_the_entry_span(tmp_path):
    tracer = spans.Tracer()
    _one_pass(_tiny("sin-bimodal-mixture"), tmp_path, tracer)
    own = tracer.self_times()
    assert tracer.names[tracer.name_id[0]] == "cli.main"
    entry = tracer.end[0] - tracer.start[0]
    assert own.min() >= 0.0
    assert own.sum() == pytest.approx(entry, rel=1e-9)


def test_wrong_reference_makes_ops_failed_nonzero(tiny, capsys, monkeypatch):
    real = workloads.reference

    def wrong(workload, observations):
        ref = real(workload, observations)
        ref["posterior_mean"] = 50.0
        return ref

    monkeypatch.setattr(workloads, "reference", wrong)
    result = _result(capsys, ["--workload", "sin-api", "--seed", "1", "--seconds", "0.01", "--trace", "0"])
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False


def test_pmmh_wrong_reference_fails_its_check(tmp_path):
    workload = _tiny("pmmh-lg")
    checked = _one_pass(workload, tmp_path, ref={"posterior_mean": 40.0, "posterior_sd": 0.05})
    assert checked["problems"]


def test_times_scale_with_the_probes_either_side():
    scaled = run.at_reference_speed([1.0, 3.0], [0.1, 0.1, 0.2], reference_s=0.1)
    assert scaled == pytest.approx([1.0, 2.0])


def test_inputs_depend_only_on_the_seed(tmp_path):
    digests = []
    for seed in (1, 1, 2):
        for name in sorted(TINY):
            workload = _tiny(name)
            states, observations = workloads.make_stream(workload, seed)
            digests.append(workloads.write_stream_csv(tmp_path / f"{name}.csv", states, observations))
    n = len(TINY)
    assert digests[:n] == digests[n : 2 * n]
    assert all(a != b for a, b in zip(digests[:n], digests[2 * n :]))


def test_lg_reference_matches_the_package_kalman_grid():
    from paramsmc import get_model
    from paramsmc.oracles import grid_posterior

    workload = _tiny("pmmh-lg")
    _, observations = workloads.make_stream(workload, 5)
    grid = np.linspace(-1.5, 1.5, 301)
    mean, sd = workloads.lg_grid_posterior(observations, grid)
    exact = grid_posterior(get_model("lg"), observations, grid)
    assert mean == pytest.approx(exact.mean(), rel=1e-9)
    assert sd == pytest.approx(np.sqrt(exact.variance()), rel=1e-9)


@pytest.mark.parametrize(
    "overrides", [{"STATE_HALF_RANGE": 7.0, "STATE_POINTS": 401}, {"THETA_CHUNK": 41}], ids=["finer-grid", "one-chunk"]
)
@pytest.mark.parametrize("name", ["sin-api", "sin-bimodal-mixture"])
def test_sin_reference_does_not_move_with_grid_or_chunking(monkeypatch, name, overrides):
    workload = dataclasses.replace(workloads.WORKLOADS[name], steps=300)
    _, observations = workloads.make_stream(workload, 7)
    grid = workload.theta + np.linspace(-0.4, 0.4, 41)
    bimodal = workload.model == "sin-bimodal"
    coarse = workloads.sin_grid_posterior(observations, grid, bimodal)
    for key, value in overrides.items():
        monkeypatch.setattr(workloads, key, value)
    fine = workloads.sin_grid_posterior(observations, grid, bimodal)
    assert coarse == pytest.approx(fine, rel=1e-5)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sin-api", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
