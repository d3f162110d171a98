"""Harness behavior: verbs, file schemas, reproducibility, exit codes."""

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from paramsmc import cli
from paramsmc import io as paramsmc_io
from paramsmc.cli import main
from paramsmc.engine import PmmhConfig
from paramsmc.errors import ConfigError
from paramsmc.io import (
    SCHEMA_VERSION,
    ResultRow,
    read_result_csv,
    read_tables_csv,
    read_trajectory_csv,
    write_result_csv,
    write_summary_json,
    write_trajectory_csv,
)


def package_env(**extra) -> dict:
    """This environment with the tested package first on PYTHONPATH, and extra."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}


def test_import_leaves_scipy_stats_unloaded():
    # No scipy module at all: scipy is most of the package's import time.
    # Only scipy.special is used, by PMMH's proposal, the mixture prior
    # split and interval masses; nothing uses scipy.stats.
    code = "import sys, paramsmc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_needs_no_ctypes():
    # The heap policy imports ctypes when the CLI runs: with ctypes
    # unimportable, the package and the CLI still import (numpy does
    # without it), so neither loads libc nor touches the allocator.
    code = "import sys; sys.modules['ctypes'] = None; import paramsmc, paramsmc.cli, paramsmc.engine"
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestHeapPolicy:
    @pytest.fixture
    def libc(self, monkeypatch):
        """A fake libc whose mallopt records its calls; the policy's cache is cleared around the test."""
        import ctypes

        fake = mock.Mock()
        monkeypatch.setattr(ctypes, "CDLL", fake)
        cli._heap_policy.cache_clear()
        yield fake
        cli._heap_policy.cache_clear()

    def test_main_fixes_both_thresholds_once_per_process(self, libc, tmp_path):
        for steps in ("0", "1"):
            assert main(["simulate", "--model", "sin", "--steps", steps, "--out", str(tmp_path / "t.csv")]) == 0
        libc.assert_called_once_with(None)
        assert libc.return_value.mallopt.call_args_list == [
            mock.call(cli.M_MMAP_THRESHOLD, 4 << 20),
            mock.call(cli.M_TRIM_THRESHOLD, 32 << 20),
        ]
        assert (cli.M_MMAP_THRESHOLD, cli.M_TRIM_THRESHOLD) == (-3, -1)

    def test_libc_without_mallopt_is_a_silent_noop(self, libc, capsys):
        del libc.return_value.mallopt
        assert cli._heap_policy() is None
        assert capsys.readouterr() == ("", "")

    def test_sweep_workers_apply_the_policy(self, monkeypatch, tmp_path):
        pools = []

        class Pool:
            def __init__(self, **kwargs):
                pools.append(kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "3", "--seed", "1", "--out", str(traj)])
        flags = ["--algorithm", "pf", "--particles-list", "10,20", "--data", str(traj), "--workers", "2"]
        assert main(["sweep", "--model", "sin", *flags, "--out", str(tmp_path / "s")]) == 0
        assert pools == [{"max_workers": 2, "initializer": cli._heap_policy}]


def glibc_version() -> str | None:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, OSError, ValueError):
        return None


@pytest.mark.skipif(glibc_version() is None, reason="the heap policy is glibc's mallopt")
def test_mixture_run_reuses_its_memory_between_steps(tmp_path):
    # A mixture step frees a few hundred KB of temporaries.  Under glibc's
    # dynamic thresholds, whether each step hands them back to the kernel
    # and faults them in again depends on the process's allocation
    # history (at hash seed 0, 30-200 minor faults a step); under the
    # CLI's fixed thresholds a step takes next to none.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data_seed": 1}))
    env = package_env(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def faults(steps: int) -> int:
        argv = ["run", "--model", "sin-bimodal", "--family", "mixture", "--mixtures", "10", "--particles", "1000"]
        argv += ["--steps", str(steps), "--config", str(cfg), "--out", str(tmp_path / "r")]
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        proc = subprocess.run([sys.executable, "-m", "paramsmc.cli", *argv], env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    assert (faults(400) - faults(50)) / 350 < 10


def readme_key_table():
    """The README's command-line key table: (key, flag, type, default, read by) cells, "—" for none."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | flag | type | default | read by |") + 2
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    return [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in table]


def test_readme_key_table_is_the_schema_and_the_parser():
    rows = readme_key_table()
    nested = {f"pmmh.{k}": key for k, key in cli.SCHEMA["pmmh"].kind.items()}
    schema = {**cli.SCHEMA, **nested}
    assert sorted(key for key, *_ in rows if key != "—") == sorted(schema)
    (verbs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {
        flag: action.dest
        for parser in verbs.choices.values()
        for action in parser._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    assert sorted(flag for _, flag, *_ in rows if flag != "—") == sorted(dests)
    readers = {"sweep": "sweep", "filter": "filters", "pmmh": "pmmh"}
    for key, flag, kind, default, read_by in rows:
        if flag != "—":  # the row's flag sets its key, or no key
            assert (dests[flag] if dests[flag] in schema else "—") == key, flag
        if key == "—":
            continue
        with pytest.raises(ConfigError) as exc:  # the type is the checker's own noun
            cli._typed(key, object(), schema[key].kind)
        assert kind == str(exc.value).split(" must be ")[1].split(", got ")[0].split(" ", 1)[1], key
        if key in nested:
            name = key.split(".")[1]
            assert default == ("n_particles" if name == "inner_particles" else json.dumps(getattr(PmmhConfig, name)))
            continue
        only = cli.SCHEMA[key].only
        assert read_by == (", ".join(readers[o] for o in only) or "any verb"), key
        if cli.SCHEMA[key].default is not None:
            assert default == json.dumps(cli.SCHEMA[key].default), key


def read_float_cells(path, header):
    """The rows of an oracle CSV, every cell parsed as a float (numpy reprs do not parse)."""
    lines = path.read_text().splitlines()
    assert lines[0] == header
    return np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_zero_steps_single_row(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--model", "sin", "--steps", "0", "--seed", "1", "--out", str(out)])
        assert code == 0
        states, obs = read_trajectory_csv(out)
        assert states.shape == (1, 1)
        assert obs.shape == (1, 1)

    def test_bit_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["simulate", "--model", "sin", "--steps", "50", "--seed", "9", "--out", str(a)])
        main(["simulate", "--model", "sin", "--steps", "50", "--seed", "9", "--out", str(b)])
        assert read_bytes(a) == read_bytes(b)

    def test_header_schema(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "3", "--seed", "0", "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == "t,x0,y0"

    @pytest.mark.parametrize("flags", [["--steps", "-1"], ["--steps", "3", "--theta", "1,2"]])
    def test_bad_steps_or_theta_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--model", "sin", *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_slam_defaults_to_action_count(self, tmp_path):
        out = tmp_path / "slam.csv"
        main(["simulate", "--model", "slam-small", "--seed", "2", "--out", str(out)])
        states, obs = read_trajectory_csv(out)
        assert states.shape[0] == 17  # 16 actions plus time zero


class TestRun:
    def test_pf_emits_one_row_per_observation(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "24", "--seed", "3", "--out", str(traj)])
        out = tmp_path / "res"
        code = main(
            [
                "run", "--model", "sin", "--algorithm", "pf", "--particles", "1",
                "--data", str(traj), "--seed", "4", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_result_csv(tmp_path / "res.csv")
        assert len(rows) == 25
        assert all(r.algorithm == "pf" for r in rows)

    def test_identical_seeds_identical_estimates(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "30", "--seed", "5", "--out", str(traj)])
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(
                [
                    "run", "--model", "sin", "--algorithm", "api", "--particles", "50",
                    "--data", str(traj), "--seed", "6", "--out", str(out),
                ]
            )
            outs.append(read_result_csv(tmp_path / f"{name}.csv"))
        est1 = [(r.timestep, r.estimate, r.spread, r.ess) for r in outs[0]]
        est2 = [(r.timestep, r.estimate, r.spread, r.ess) for r in outs[1]]
        assert est1 == est2

    def test_run_traced_memory_flat_in_steady_state(self, tmp_path, monkeypatch, step_memory):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "400", "--seed", "5", "--out", str(traj)])
        mem = step_memory()
        build = cli._build_model
        monkeypatch.setattr(cli, "_build_model", lambda cfg: mem.watch(build(cfg)))
        with mem:
            code = main(
                [
                    "run", "--model", "sin", "--algorithm", "api", "--particles", "500",
                    "--data", str(traj), "--seed", "6", "--out", str(tmp_path / "res"),
                ]
            )
        assert code == 0
        assert mem.steady_growth_kib() <= mem.LIMIT_KIB

    def test_run_id_hashes_data_content_not_paths(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "10", "--seed", "5", "--out", str(traj)])
        copy = tmp_path / "elsewhere" / "copy.csv"
        copy.parent.mkdir()
        copy.write_bytes(traj.read_bytes())
        changed = tmp_path / "changed.csv"
        text = traj.read_text()
        last = text.rstrip("\n")[-1]
        changed.write_text(text.rstrip("\n")[:-1] + ("1" if last != "1" else "2") + "\n")

        def run_id(data, out):
            main(
                [
                    "run", "--model", "sin", "--algorithm", "pf", "--particles", "8",
                    "--data", str(data), "--seed", "1", "--out", str(tmp_path / out),
                ]
            )
            return json.loads((tmp_path / f"{out}.json").read_text())["run_id"]

        first = run_id(traj, "a")
        assert run_id(copy, "b") == first
        assert run_id(changed, "c") != first

    def test_api_on_sin_completes_quickly(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "200", "--seed", "7", "--out", str(traj)])
        out = tmp_path / "res"
        start = time.perf_counter()
        code = main(
            [
                "run", "--model", "sin", "--algorithm", "api", "--particles", "100",
                "--data", str(traj), "--seed", "8", "--out", str(out),
            ]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 5.0

    def test_truth_fills_error_column(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "20", "--seed", "9", "--out", str(traj)])
        out = tmp_path / "res"
        main(
            [
                "run", "--model", "sin", "--algorithm", "api", "--particles", "50",
                "--data", str(traj), "--seed", "1", "--out", str(out),
                "--truth", "-0.5",
            ]
        )
        rows = read_result_csv(tmp_path / "res.csv")
        assert rows[-1].mse is not None
        assert all(r.mse is None for r in rows[:-1])

    @pytest.mark.parametrize("truth", ["1,2", ""])
    def test_truth_of_wrong_length_exits_2(self, tmp_path, capsys, truth):
        # a 2-vector broadcast against the 1-parameter estimate and wrote a wrong error
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "5", "--seed", "9", "--out", str(traj)])
        out = tmp_path / "res"
        argv = ["run", "--model", "sin", "--particles", "10", "--data", str(traj), f"--truth={truth}"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "res.csv").exists()

    def test_simulated_data_with_negative_steps_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_seed": 1, "steps": -3}))
        argv = ["run", "--config", str(cfg), "--model", "sin", "--particles", "10"]
        assert main([*argv, "--out", str(tmp_path / "res")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_summary_json_contains_fused(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "20", "--seed", "10", "--out", str(traj)])
        out = tmp_path / "res"
        main(
            [
                "run", "--model", "sin", "--algorithm", "api", "--particles", "20",
                "--data", str(traj), "--seed", "2", "--out", str(out),
            ]
        )
        summary = json.loads((tmp_path / "res.json").read_text())
        assert summary["schema_version"] == 2
        assert "fused" in summary
        assert len(summary["fused"]["weights"]) == 20

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "sin", "particle_count": 10}))
        assert main(["run", "--config", str(cfg)]) == 2

    def test_update_order_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "sin", "update_order": "resample_first"}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--family", "mixture", "--mixtures", "0"],
            ["--family", "mixture", "--mixtures", "-2"],
            ["--approx-samples", "0"],
            ["--algorithm", "liu-west", "--shrinkage", "1.5"],
            ["--algorithm", "liu-west", "--shrinkage", "nan"],
        ],
    )
    def test_invalid_filter_config_exits_2(self, tmp_path, capsys, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_seed": 1, "steps": 10}))
        argv = ["run", "--config", str(cfg), "--model", "sin", "--particles", "50", *flags]
        assert main([*argv, "--out", str(tmp_path / "res")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_zero_variance_matches_are_degenerate_not_fatal(self, tmp_path):
        # With a narrow transition, one Gauss-Hermite point carries all of
        # some rows' likelihood mass and their matched variance is 0 or
        # slightly negative: 9 of the distinct-ancestor updates at step 1.
        # Those rows keep their previous moments and are counted; accepted,
        # they led to a negative variance and a NaN weight at step 7.  A
        # tenth row's mass sits on the grid's centre node, z = 0, where the
        # standardized sums do not cancel: its variance, 2.5e-83 of the
        # previous one, is positive (the sums over raw points read it as <= 0).
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_overrides": {"trans_sd": 0.1}, "data_seed": 1, "steps": 200}))
        out = tmp_path / "res"
        code = main(["run", "--config", str(cfg), "--model", "lg", "--particles", "200", "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "res.json").read_text())
        assert summary["notes"]["degenerate_updates"] == 9

    def test_missing_data_exits_2(self):
        assert main(["run", "--model", "sin", "--algorithm", "pf", "--particles", "4"]) == 2

    @pytest.mark.parametrize("key", ["data", "exact"])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, key):
        # a missing data or exact file printed a FileNotFoundError traceback and exited 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_seed": 1}))
        argv = ["run", "--config", str(cfg), "--model", "slam-small", "--particles", "8"]
        code = main([*argv, f"--{key}", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "res")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.glob("res*")) == []

    @pytest.mark.parametrize("flags", [["--algorithm", "liu-west"], ["--algorithm", "api", "--family", "gaussian"]])
    def test_algorithm_that_does_not_fit_the_model_exits_2(self, tmp_path, capsys, flags):
        # liu-west on discrete parameters exited 1 with "error:"
        traj = tmp_path / "slam.csv"
        main(["simulate", "--model", "slam-small", "--seed", "2", "--out", str(traj)])
        argv = ["run", "--model", "slam-small", *flags, "--particles", "8", "--data", str(traj)]
        assert main([*argv, "--out", str(tmp_path / "res")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert list(tmp_path.glob("res*")) == []

    @pytest.mark.parametrize("verb", ["run", "simulate", "oracle"])
    @pytest.mark.parametrize(
        "key, value",
        [("particles", [7]), ("approx_samples_list", [3]), ("seeds", [1, 2]), ("workers", 2)],
    )
    def test_sweep_only_key_exits_2_outside_sweep(self, tmp_path, capsys, verb, key, value):
        # run ignored "particles": 7 and ran N = 1000
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "sin", "algorithm": "pf", "data_seed": 1, "steps": 5, key: value}))
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "res")]) == 2
        assert "read by sweep only" in capsys.readouterr().err
        assert list(tmp_path.glob("res*")) == []

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize(
        "algorithm, given",
        [
            pytest.param("api", {"pmmh": {"iterations": 3}}, id="api-given0"),
            pytest.param("pf", {"pmmh": {"iterations": 3}}, id="pf-given1"),
            pytest.param("liu-west", {"pmmh": {"iterations": 3}}, id="liu-west-given2"),
            pytest.param("api", {"pmmh": {"inner_particles": 5}}, id="api-given3"),
            pytest.param("pf", {"pmmh": {"proposal_sd": 0.3}}, id="pf-given4"),
            pytest.param("liu-west", {"pmmh": {"bounds": [-1.0, 1.0]}}, id="liu-west-given5"),
            pytest.param("api", {"pmmh": {}}, id="api-given6"),
            pytest.param("pmmh", {"approx_samples": 3}, id="pmmh-given7"),
            pytest.param("pmmh", {"scheme": "unscented"}, id="pmmh-given8"),
            pytest.param("pmmh", {"family": "mixture"}, id="pmmh-given9"),
            pytest.param("pmmh", {"mixture_size": 2}, id="pmmh-given10"),
            pytest.param("pmmh", {"resample": "systematic"}, id="pmmh-given11"),
            pytest.param("pmmh", {"shrinkage": 0.5}, id="pmmh-given12"),
            pytest.param("pmmh", ["--approx-samples", "3"], id="pmmh-given13"),
            pytest.param("pmmh", ["--scheme", "unscented"], id="pmmh-given14"),
            pytest.param("pmmh", ["--family", "mixture"], id="pmmh-given15"),
            pytest.param("pmmh", ["--mixtures", "2"], id="pmmh-given16"),
            pytest.param("pmmh", ["--resample", "systematic"], id="pmmh-given17"),
            pytest.param("pmmh", ["--shrinkage", "0.5"], id="pmmh-given18"),
        ],
    )
    def test_key_the_algorithm_never_reads_exits_2(self, tmp_path, capsys, verb, algorithm, given):
        # api ran with a pmmh block it never reads, and pmmh with filter settings
        settings = given if isinstance(given, dict) else {}
        flags = given if isinstance(given, list) else []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "sin", "data_seed": 1, "steps": 5, "n_particles": 10, **settings}))
        argv = [verb, "--config", str(cfg), "--algorithm", algorithm, *flags, "--out", str(tmp_path / "res")]
        assert main(argv) == 2
        assert "config error:" in capsys.readouterr().err
        assert list(tmp_path.glob("res*")) == []

    @pytest.mark.parametrize("given", [{"approx_samples_list": [3, 5]}, ["--samples-list", "3,5"]])
    def test_sample_list_under_pmmh_sweep_exits_2(self, tmp_path, capsys, given):
        settings = given if isinstance(given, dict) else {}
        flags = given if isinstance(given, list) else []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "sin", "algorithm": "pmmh", "data_seed": 1, "steps": 5, **settings}))
        assert main(["sweep", "--config", str(cfg), *flags, "--out", str(tmp_path / "res")]) == 2
        assert "not read by algorithm 'pmmh'" in capsys.readouterr().err
        assert list(tmp_path.glob("res*")) == []

    @pytest.mark.parametrize(
        "verb, settings, key",
        [
            pytest.param("run", {"n_particles": "abc"}, "n_particles", id="run-settings0-n_particles"),
            pytest.param("run", {"n_particles": True}, "n_particles", id="run-settings1-n_particles"),
            pytest.param("run", {"seed": "x"}, "seed", id="run-settings2-seed"),
            pytest.param("run", {"shrinkage": "x"}, "shrinkage", id="run-settings3-shrinkage"),
            pytest.param("run", {"mixture_size": 2.7}, "mixture_size", id="run-settings4-mixture_size"),
            pytest.param("run", {"steps": "5"}, "steps", id="run-settings5-steps"),
            pytest.param("run", {"data_seed": 1.5}, "data_seed", id="run-settings6-data_seed"),
            pytest.param("run", {"truth": ["a"]}, "truth", id="run-settings7-truth"),
            pytest.param("run", {"true_params": "0.5"}, "true_params", id="run-settings8-true_params"),
            pytest.param(
                "run", {"algorithm": "pmmh", "pmmh": {"iterations": "abc"}}, "pmmh.iterations",
                id="run-settings9-pmmh.iterations",
            ),
            pytest.param(
                "run", {"algorithm": "pmmh", "pmmh": {"proposal_sd": "x"}}, "pmmh.proposal_sd",
                id="run-settings10-pmmh.proposal_sd",
            ),
            pytest.param(
                "run", {"algorithm": "pmmh", "pmmh": {"bounds": ["a", "b"]}}, "pmmh.bounds",
                id="run-settings11-pmmh.bounds",
            ),
            pytest.param(
                "run", {"algorithm": "pmmh", "pmmh": {"bounds": 5}}, "pmmh.bounds",
                id="run-settings12-pmmh.bounds",
            ),
            pytest.param(
                "run", {"algorithm": "pmmh", "pmmh": {"inner_particles": 2.5}}, "pmmh.inner_particles",
                id="run-settings13-pmmh.inner_particles",
            ),
            pytest.param("run", {"algorithm": "pmmh", "pmmh": 5}, "pmmh", id="run-settings14-pmmh"),
            pytest.param("run", {"approx_samples": 2.5}, "approx_samples", id="run-settings15-approx_samples"),
            pytest.param("sweep", {"particles": ["a"]}, "particles", id="sweep-settings16-particles"),
            pytest.param("sweep", {"seeds": 3}, "seeds", id="sweep-settings17-seeds"),
            pytest.param("sweep", {"workers": 1.5}, "workers", id="sweep-settings18-workers"),
            # these exited 1 with a TypeError or AttributeError traceback
            pytest.param("run", {"resample": [1]}, "resample", id="run-settings19-resample"),
            pytest.param("run", {"model": ["sin"]}, "model", id="run-settings20-model"),
            pytest.param("run", {"algorithm": ["pf"]}, "algorithm", id="run-settings21-algorithm"),
            pytest.param("run", {"out": 5}, "out", id="run-settings22-out"),
            # null is no key's value; the run drew data_seed's data
            pytest.param("run", {"data": None}, "data", id="run-settings23-data"),
        ],
    )
    def test_malformed_value_exits_2_naming_its_key(self, tmp_path, capsys, verb, settings, key):
        # "abc" exited 1 with a traceback, and 2.5 particles ran as 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "lg", "data_seed": 1, "steps": 5, "n_particles": 10, **settings}))
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "res")]) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert list(tmp_path.glob("res*")) == []

    @pytest.mark.parametrize(
        "verb, settings, flags, key",
        [
            pytest.param("run", {}, ["--seed", "-2"], "seed", id="run-seed-flag"),
            pytest.param("run", {"seed": -1}, [], "seed", id="run-seed-file"),
            pytest.param("simulate", {}, ["--seed", "-4"], "seed", id="simulate-seed"),
            pytest.param("run", {"data_seed": -1}, [], "data_seed", id="run-data_seed"),
            pytest.param("oracle", {"data_seed": -3}, [], "data_seed", id="oracle-data_seed"),
            pytest.param("sweep", {}, ["--seeds", "0,-1"], "seeds", id="sweep-seeds-flag"),
            pytest.param("sweep", {"seeds": [-5]}, [], "seeds", id="sweep-seeds-file"),
            pytest.param("sweep", {}, ["--workers", "0"], "workers", id="sweep-workers-zero"),
            pytest.param("sweep", {"workers": -3}, [], "workers", id="sweep-workers-negative"),
            pytest.param("oracle", {}, ["--grid-lo", "nan"], "--grid-lo", id="oracle-grid-lo-nan"),
            pytest.param("oracle", {}, ["--grid-hi", "inf"], "--grid-hi", id="oracle-grid-hi-inf"),
            pytest.param("oracle", {}, ["--grid-lo=-inf"], "--grid-lo", id="oracle-grid-lo-minus-inf"),
        ],
    )
    def test_out_of_range_value_exits_2_naming_its_key(self, tmp_path, capsys, verb, settings, flags, key):
        # a negative seed ended in numpy's "expected non-negative integer" traceback with exit 1, a NaN
        # grid end in a gaussian_logpdf one, and workers 0 or -3 ran as the default and serially
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "lg", "data_seed": 1, "steps": 5, **settings}))
        argv = [verb, "--config", str(cfg), *flags, "--out", str(tmp_path / "res")]
        assert main([*argv, "--particles", "10"] if verb in ("run", "sweep") else argv) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "settings, flags",
        [
            ({"seed": 2.0}, ["--seed", "2"]),
            ({"algorithm": "liu-west", "shrinkage": 1}, ["--algorithm", "liu-west", "--shrinkage", "1.0"]),
        ],
    )
    def test_a_number_in_the_other_type_is_the_same_run(self, tmp_path, monkeypatch, settings, flags):
        # the summary and the run id saw a file's 2.0 while the run used 2: two ids for one experiment
        base = {"model": "lg", "data_seed": 1, "steps": 5, "n_particles": 10}
        outputs = []
        for name, given, argv in (("file", {**base, **settings}, []), ("flags", base, flags)):
            run_dir = tmp_path / name
            run_dir.mkdir()
            (run_dir / "cfg.json").write_text(json.dumps(given))
            monkeypatch.chdir(run_dir)
            assert main(["run", "--config", "cfg.json", *argv, "--out", "res"]) == 0
            csv = [line.split(",") for line in (run_dir / "res.csv").read_text().splitlines()]
            ms = csv[0].index("wall_clock_ms")
            summary = (run_dir / "res.json").read_text().splitlines()
            outputs.append(([row[:ms] + row[ms + 1 :] for row in csv], [s for s in summary if '"elapsed_s"' not in s]))
        assert outputs[0] == outputs[1]

    def test_integral_floats_are_integers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        settings = {"algorithm": "pmmh", "pmmh": {"inner_particles": 10.0, "iterations": 3, "bounds": [-2, 2]}}
        cfg.write_text(json.dumps({"model": "lg", "data_seed": 1, "steps": 5, "seed": 2.0, **settings}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 0
        assert read_result_csv(tmp_path / "res.csv")[0].n_particles == 10

    @pytest.mark.parametrize("overrides", [{"trans_sd": "x"}, [1]], ids=["bad-value", "not-an-object"])
    @pytest.mark.parametrize("verb", ["simulate", "run", "oracle"])
    def test_bad_model_overrides_exit_2(self, tmp_path, capsys, verb, overrides):
        # a ValueError and a TypeError from the model builder, each a traceback and exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "lg", "model_overrides": overrides, "data_seed": 1, "steps": 5}))
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "res")]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.glob("res*")) == []

    def test_fixed_theta_lg_simulates_and_runs_from_a_data_seed(self, tmp_path):
        # the default generating parameters were lg's [0.7] although this model has p = 0
        cfg = tmp_path / "cfg.json"
        overrides = {"theta_fixed": 0.5}
        cfg.write_text(json.dumps({"model": "lg", "model_overrides": overrides, "data_seed": 1, "steps": 5}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "traj.csv")]) == 0
        argv = ["run", "--config", str(cfg), "--algorithm", "pf", "--particles", "8"]
        assert main([*argv, "--out", str(tmp_path / "res")]) == 0

    def test_degenerate_data_exits_3(self, tmp_path):
        # labels outside the observation code set zero out every weight
        traj = tmp_path / "bad.csv"
        main(["simulate", "--model", "slam-small", "--seed", "1", "--out", str(traj)])
        states, obs = read_trajectory_csv(traj)
        write_trajectory_csv(traj, states, np.full_like(obs, 9.0))
        code = main(
            [
                "run", "--model", "slam-small", "--algorithm", "pf", "--particles", "8",
                "--data", str(traj), "--seed", "1", "--out", str(tmp_path / "res"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("algorithm", ["pf", "pmmh"])
    def test_nan_observation_exits_3(self, tmp_path, capsys, algorithm):
        # pmmh exited 0 with the prior draw as its estimate: no likelihood was finite
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "lg", "--steps", "20", "--seed", "3", "--out", str(traj)])
        states, obs = read_trajectory_csv(traj)
        obs[7] = np.nan
        write_trajectory_csv(traj, states, obs)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pmmh": {"inner_particles": 10, "iterations": 5}} if algorithm == "pmmh" else {}))
        argv = ["run", "--model", "lg", "--algorithm", algorithm, "--particles", "10", "--config", str(cfg)]
        code = main([*argv, "--data", str(traj), "--seed", "1", "--out", str(tmp_path / "res")])
        assert code == 3
        assert "numerical degeneracy" in capsys.readouterr().err
        assert list(tmp_path.glob("res*")) == []

    def test_pmmh_runs_and_reports_chain(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "lg", "--steps", "25", "--seed", "11", "--out", str(traj)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "lg",
                    "algorithm": "pmmh",
                    "data": str(traj),
                    "pmmh": {"inner_particles": 30, "iterations": 40, "proposal_sd": 0.3},
                }
            )
        )
        out = tmp_path / "res"
        code = main(["run", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert code == 0
        rows = read_result_csv(tmp_path / "res.csv")
        assert len(rows) == 41  # initial state plus one row per iteration
        # each row carries its own iteration's measured time, not the run's average
        ms = np.array([r.wall_clock_ms for r in rows])
        assert np.all(ms >= 0)
        assert len(set(ms)) > 1
        summary = json.loads((tmp_path / "res.json").read_text())
        assert ms.sum() / 1e3 <= summary["elapsed_s"]

    @pytest.mark.parametrize("bad", [{"inner_particles": 0}, {"proposal_sd": 0}])
    def test_invalid_pmmh_config_exits_2(self, tmp_path, capsys, bad):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "lg", "--steps", "10", "--seed", "11", "--out", str(traj)])
        cfg = tmp_path / "cfg.json"
        pmmh = {"inner_particles": 30, "iterations": 5, "proposal_sd": 0.3, **bad}
        cfg.write_text(json.dumps({"model": "lg", "algorithm": "pmmh", "data": str(traj), "pmmh": pmmh}))
        code = main(["run", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "res")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


    def test_wall_clock_budget_is_gone(self, tmp_path, capsys):
        # a PMMH run is its iteration count: a config or flag that still sets a budget exits 2
        cfg = tmp_path / "cfg.json"
        pmmh = {"iterations": 3, "inner_particles": 10}
        config = {"model": "lg", "data_seed": 1, "steps": 5, "algorithm": "pmmh", "pmmh": pmmh}
        cfg.write_text(json.dumps({**config, "time_budget_s": 1}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 2
        assert "unknown config keys: ['time_budget_s']" in capsys.readouterr().err
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--budget", "1", "--out", str(tmp_path / "res")])
        assert exc.value.code == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]


class TestSweep:
    def test_single_cell_matches_run(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "15", "--seed", "12", "--out", str(traj)])
        run_out = tmp_path / "single"
        main(
            [
                "run", "--model", "sin", "--algorithm", "api", "--particles", "30",
                "--approx-samples", "5", "--data", str(traj), "--seed", "4",
                "--out", str(run_out),
            ]
        )
        sweep_out = tmp_path / "sweep"
        main(
            [
                "sweep", "--model", "sin", "--algorithm", "api",
                "--particles-list", "30", "--samples-list", "5", "--seeds", "4",
                "--data", str(traj), "--out", str(sweep_out), "--workers", "1",
            ]
        )
        run_rows = read_result_csv(tmp_path / "single.csv")
        sweep_rows = read_result_csv(tmp_path / "sweep.csv")
        assert [(r.timestep, r.estimate) for r in run_rows] == [
            (r.timestep, r.estimate) for r in sweep_rows
        ]

    def test_cartesian_product_cells(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "sin", "--steps", "10", "--seed", "13", "--out", str(traj)])
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--model", "sin", "--algorithm", "api",
                "--particles-list", "10,20", "--samples-list", "3,5", "--seeds", "1,2",
                "--data", str(traj), "--out", str(out), "--workers", "2",
            ]
        )
        assert code == 0
        rows = read_result_csv(tmp_path / "sweep.csv")
        groups = {(r.n_particles, r.approx_samples, r.seed) for r in rows}
        assert len(groups) == 8
        summary = json.loads((tmp_path / "sweep.json").read_text())
        assert len(summary["runs"]) == 8

    def test_sweep_keys_from_a_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        keys = {"particles": [7], "approx_samples_list": [3], "seeds": [1, 2], "workers": 1}
        cfg.write_text(json.dumps({"model": "sin", "algorithm": "pf", "data_seed": 1, "steps": 5, **keys}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
        rows = read_result_csv(tmp_path / "sweep.csv")
        assert {(r.n_particles, r.seed) for r in rows} == {(7, 1), (7, 2)}


class TestOracleVerb:
    def test_slam_exact(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "slam-small", "--seed", "14", "--out", str(traj)])
        out = tmp_path / "oracle"
        code = main(
            ["oracle", "--model", "slam-small", "--data", str(traj), "--out", str(out)]
        )
        assert code == 0
        tables = read_tables_csv(tmp_path / "oracle_tables.csv")
        assert tables.shape == (8, 2)
        assert np.allclose(tables.sum(axis=1), 1.0, atol=1e-12)

    def test_lg_grid(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "lg", "--steps", "40", "--seed", "15", "--out", str(traj)])
        out = tmp_path / "oracle"
        code = main(
            [
                "oracle", "--model", "lg", "--data", str(traj), "--out", str(out),
                "--grid-points", "81",
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "oracle.json").read_text())
        assert -1.0 < summary["mean"] < 1.5
        masses = read_float_cells(tmp_path / "oracle_grid.csv", "theta,mass")[:, 1]
        assert masses.shape == (81,)
        assert abs(masses.sum() - 1.0) < 1e-12

    def test_kalman(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "lg", "--steps", "10", "--seed", "16", "--out", str(traj)])
        out = tmp_path / "oracle"
        code = main(
            [
                "oracle", "--model", "lg", "--kind", "kalman", "--theta", "0.7",
                "--data", str(traj), "--out", str(out),
            ]
        )
        assert code == 0
        cells = read_float_cells(tmp_path / "oracle_kalman.csv", "t,mean,variance")
        assert cells.shape == (11, 3)

    @pytest.mark.parametrize(
        "model, kind",
        [
            ("sin", "kalman"),  # exited 0 with a linear-Gaussian answer
            ("slam-small", "kalman"),
            ("lg", "slam-exact"),
            ("slam-small", "grid"),
            ("lg-fixed", "grid"),  # no parameter left to put on a grid
        ],
    )
    def test_kind_that_does_not_fit_the_model_exits_2(self, tmp_path, capsys, model, kind):
        cfg = tmp_path / "cfg.json"
        fixed = model == "lg-fixed"
        cfg.write_text(json.dumps({"model_overrides": {"theta_fixed": 0.5} if fixed else {}}))
        model = "lg" if fixed else model
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", model, "--steps", "6", "--seed", "3", "--out", str(traj)])
        argv = ["oracle", "--config", str(cfg), "--model", model, "--kind", kind, "--theta", "0.5"]
        code = main([*argv, "--data", str(traj), "--out", str(tmp_path / "oracle")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.glob("oracle*")) == []

    @pytest.mark.parametrize("theta", [None, "", "0.5,0.7"])
    def test_kalman_needs_one_theta(self, tmp_path, capsys, theta):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "lg", "--steps", "6", "--seed", "3", "--out", str(traj)])
        argv = ["oracle", "--model", "lg", "--kind", "kalman", "--data", str(traj), "--out", str(tmp_path / "o")]
        assert main(argv + ([] if theta is None else [f"--theta={theta}"])) == 2
        assert "config error" in capsys.readouterr().err

    def test_kalman_on_fixed_theta_lg_runs_at_the_models_theta(self, tmp_path, capsys):
        # exited 0 with -93.30, the filter at --theta 0.9, where the model's own theta 0.5 gives -91.52
        cfg = tmp_path / "cfg.json"
        fixed = {"model": "lg", "model_overrides": {"theta_fixed": 0.5}, "data_seed": 1, "steps": 50}
        cfg.write_text(json.dumps(fixed))
        argv = ["oracle", "--config", str(cfg), "--kind", "kalman"]
        assert main([*argv, "--theta", "0.9", "--out", str(tmp_path / "bad")]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.glob("bad*")) == []
        assert main([*argv, "--out", str(tmp_path / "fixed")]) == 0
        # plain lg at theta 0.5 on the same trajectory (data_seed 1 is simulate's seed 1)
        traj = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(traj)]) == 0
        plain = ["oracle", "--model", "lg", "--kind", "kalman", "--theta", "0.5", "--data", str(traj)]
        assert main([*plain, "--out", str(tmp_path / "plain")]) == 0
        fixed_ll = json.loads((tmp_path / "fixed.json").read_text())["log_likelihood"]
        assert fixed_ll == json.loads((tmp_path / "plain.json").read_text())["log_likelihood"]
        assert round(fixed_ll, 2) == -91.52
        assert read_bytes(tmp_path / "fixed_kalman.csv") == read_bytes(tmp_path / "plain_kalman.csv")

    @pytest.mark.parametrize("model", ["lg", "sin"])
    def test_grid_on_nan_data_exits_3(self, tmp_path, capsys, model):
        # wrote all-NaN masses and exited 0; run on the same file exits 3
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", model, "--steps", "8", "--seed", "3", "--out", str(traj)])
        states, obs = read_trajectory_csv(traj)
        obs[4] = np.nan
        write_trajectory_csv(traj, states, obs)
        argv = ["oracle", "--model", model, "--kind", "grid", "--grid-points", "5"]
        code = main([*argv, "--data", str(traj), "--out", str(tmp_path / "oracle")])
        assert code == 3
        assert "numerical degeneracy" in capsys.readouterr().err
        assert list(tmp_path.glob("oracle*")) == []

    @pytest.mark.parametrize("model", ["lg", "sin", "sin-bimodal"])
    def test_grid_gives_the_same_bytes_every_run(self, tmp_path, model):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", model, "--steps", "30", "--seed", "4", "--out", str(traj)])
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            argv = ["oracle", "--model", model, "--grid-points", "31", "--data", str(traj)]
            assert main([*argv, "--out", str(out / "oracle")]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_grid_of_no_points_exits_2_before_reading_data(self, tmp_path, capsys, points):
        # a ValueError traceback and exit 1, from numpy, after the data were read
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "lg", "--steps", "6", "--seed", "3", "--out", str(traj)])
        argv = ["oracle", "--model", "lg", "--data", str(traj), "--grid-points", points]
        with mock.patch.object(cli, "read_trajectory_csv", side_effect=AssertionError("data read")):
            assert main([*argv, "--out", str(tmp_path / "oracle")]) == 2
        assert "config error: --grid-points must be" in capsys.readouterr().err
        assert list(tmp_path.glob("oracle*")) == []

    def test_particle_filter_grid_flags_are_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--model", "sin", "--pf-particles", "20", "--out", str(tmp_path / "oracle")])
        assert exc.value.code == 2

    def test_oracle_rows_share_result_schema(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "slam-small", "--seed", "18", "--out", str(traj)])
        out = tmp_path / "oracle"
        main(["oracle", "--model", "slam-small", "--data", str(traj), "--out", str(out)])
        rows = read_result_csv(tmp_path / "oracle.csv")
        assert len(rows) == 1
        assert rows[0].algorithm == "oracle-slam-exact"
        assert len(rows[0].estimate) == 8

    def test_exact_feeds_kl_column(self, tmp_path):
        traj = tmp_path / "traj.csv"
        main(["simulate", "--model", "slam-small", "--seed", "17", "--out", str(traj)])
        oracle_out = tmp_path / "oracle"
        main(["oracle", "--model", "slam-small", "--data", str(traj), "--out", str(oracle_out)])
        run_out = tmp_path / "res"
        main(
            [
                "run", "--model", "slam-small", "--algorithm", "api", "--particles", "300",
                "--approx-samples", "50", "--data", str(traj), "--seed", "5",
                "--out", str(run_out), "--exact", str(tmp_path / "oracle_tables.csv"),
            ]
        )
        rows = read_result_csv(tmp_path / "res.csv")
        assert rows[-1].kl is not None
        assert rows[-1].kl >= 0


class TestCsvRoundTrip:
    def test_rows_survive(self, tmp_path):
        rows = [
            ResultRow(
                run_id="abc",
                seed=1,
                algorithm="api",
                model="sin",
                n_particles=10,
                approx_samples=7,
                mixture_size=1,
                timestep=t,
                estimate=(0.1 * t,),
                spread=(0.01,),
                ess=float(10 - t),
                wall_clock_ms=1.25,
                mse=None if t < 2 else 0.5,
                kl=None,
            )
            for t in range(3)
        ]
        path = tmp_path / "rows.csv"
        write_result_csv(path, rows)
        assert read_result_csv(path) == rows
        streamed = tmp_path / "streamed.csv"
        write_result_csv(streamed, (row for row in rows))
        assert read_bytes(streamed) == read_bytes(path)

    def test_no_rows_is_an_error(self, tmp_path):
        with pytest.raises(ValueError):
            write_result_csv(tmp_path / "rows.csv", iter([]))
        assert not (tmp_path / "rows.csv").exists()


def summary_as_json_dump(summary) -> bytes:
    """What write_summary_json wrote when it called json.dump(indent=2, sort_keys=True)."""

    def tolist(obj):
        if isinstance(obj, (np.ndarray, np.generic)):
            return obj.tolist()
        raise TypeError(f"cannot serialize {type(obj)!r}")

    text = json.dumps({"schema_version": SCHEMA_VERSION, **summary}, indent=2, sort_keys=True, default=tolist)
    return (text + "\n").encode()


def _json_arrays():
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    return st.one_of(
        hnp.arrays(np.float64, shapes, elements=st.floats(allow_nan=True, allow_infinity=True)),
        hnp.arrays(np.int64, shapes),
        hnp.arrays(np.bool_, shapes),
    )


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_JSON_TREES = st.recursive(
    st.one_of(_JSON_SCALARS, _json_arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=8,
)


class TestSummaryJson:
    @given(summary=st.dictionaries(st.text(max_size=4), _JSON_TREES, max_size=4), block=st.integers(1, 6))
    @settings(max_examples=200)
    def test_bytes_are_json_dump_indent_2_sort_keys(self, tmp_path_factory, summary, block):
        # a small block sends every array with more than a few elements through the blocked path
        path = tmp_path_factory.mktemp("summary") / "s.json"
        with mock.patch.object(paramsmc_io, "ARRAY_BLOCK", block):
            write_summary_json(path, summary)
        assert read_bytes(path) == summary_as_json_dump(summary)

    def test_large_array_is_written_in_bounded_memory(self, tmp_path):
        # json.dump's default turned the array into nested lists at once: about 15 MB here
        covs = np.random.default_rng(0).random((100_000, 1, 1))
        path = tmp_path / "s.json"
        tracemalloc.start()
        try:
            write_summary_json(path, {"covs": covs})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert read_bytes(path) == summary_as_json_dump({"covs": covs})

    def test_numpy_bools_write_as_json_bools(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary_json(path, {"flag": np.bool_(True), "flags": np.array([True, False])})
        assert json.loads(path.read_text()) == {"schema_version": SCHEMA_VERSION, "flag": True, "flags": [True, False]}

    @pytest.mark.parametrize(
        "value",
        [object(), np.array([1j]), {(1, 2): 3}, [np.datetime64("2020-01-01")]],
        ids=["object", "complex-array", "tuple-key", "datetime"],
    )
    def test_unwritable_value_raises_before_the_file_is_opened(self, tmp_path, value):
        # json.dump raised part-way, leaving a truncated file
        path = tmp_path / "s.json"
        with pytest.raises(TypeError):
            write_summary_json(path, {"a": list(range(3)), "z": value})
        assert not path.exists()

    @pytest.mark.parametrize("where", ["value", "key"])
    def test_string_that_reads_as_an_array_placeholder_raises_before_the_file_is_opened(self, tmp_path, where):
        path = tmp_path / "s.json"
        text = "\x00ndarray 0\x00"
        summary = {"a": np.zeros(2), **({"s": text} if where == "value" else {text: 1})}
        with pytest.raises(ValueError):
            write_summary_json(path, summary)
        assert not path.exists()
