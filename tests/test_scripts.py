"""The experiment scripts still run against the package.

Each script is run in its own process with the package on PYTHONPATH and
arguments small enough for a second or two; it must exit 0 and print its
table header, and sin_accuracy_experiment.py the iteration count PMMH got.
compute_frozen_oracles.py is left out: it takes 10^6 steps.
The A/B driver's summary is checked on a made-up record, without running
the benchmark, its order of sides with the benchmark stubbed out, and its
worktree clean-up on SIGTERM in a throwaway repository.  README's
benchmark table must be bench_table.py's output over the committed
records.
"""

import importlib.util
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script, its arguments, and the starts of lines it must print
SCRIPTS = [
    ("sin_accuracy_experiment.py", "--seeds 2 --steps 30 --particles 50", ("algorithm", "pmmh iterations per run: ")),
    ("slam_kl_sweep.py", "--seeds 2 --particles 50 --samples 5", ("N \\ M",)),
    ("bimodal_mixture_demo.py", "--steps 30 --particles 50", ("squared-drive SIN",)),
    ("kernel_cost.py", "--repeats 2 --calls 1", ("kernel                  shape                 median us/call",)),
]


@pytest.mark.parametrize("script, args, headers", SCRIPTS, ids=[s for s, _, _ in SCRIPTS])
def test_script_runs_and_prints_its_header(tmp_path, script, args, headers):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "scripts" / script), *args.split()]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.lstrip() for line in proc.stdout.splitlines()]
    for header in headers:
        assert any(line.startswith(header) for line in lines), proc.stdout


def test_kernel_cost_against_another_tree(tmp_path):
    # this tree against itself, loaded a second time under another name
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "scripts" / "kernel_cost.py"), "--repeats", "2", "--calls", "1"]
    argv += ["--against", str(ROOT / "src")]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split() == ["kernel", "shape", "against", "us", "this", "us", "change", "this", "faster"]
    assert len(lines) == 2 + 23 and all(line.rstrip().endswith("of 2") for line in lines[2:])


def _script_module(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ab_module():
    return _script_module("ab")


def test_readme_bench_table_is_the_scripts_output():
    # a new BENCH_<pr>.json fails this until README is regenerated from python scripts/bench_table.py
    readme = (ROOT / "README.md").read_text()
    start, end = "<!-- bench_table.py: start -->\n", "\n<!-- bench_table.py: end -->"
    assert readme[readme.index(start) + len(start) : readme.index(end)] == _script_module("bench_table").table()


def test_bench_table_summaries_are_the_recorded_ones_under_todays_rule():
    # every committed entry summarises again to the quartiles and wins it holds; only verdicts follow the rule
    ab, bench_table = _ab_module(), _script_module("bench_table")
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    kept = ("parent", "change", "change_wins", "pairs")
    cells = 0
    for _, record in bench_table.records():
        for stored in record["workloads"].values():
            entry = {"ab": stored["ab"], "null": stored["null"]}
            ab.summarise(entry, spec)
            for metric, s in entry["summary"].items():
                assert {k: s[k] for k in kept} == {k: stored["summary"][metric][k] for k in kept}
                assert s["verdict"] == "unresolved" or s["pairs"] >= ab.MIN_PAIRS
                cells += 1
    assert cells >= 148  # BENCH_17 to BENCH_22: 37 entries of 4 metrics


def fake_git(repo, *args):
    """git for ab.main without a repository: a worktree is a directory holding a BENCHMARK.json."""
    if args[:2] == ("worktree", "add"):
        tree = Path(args[3])
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": []}))
    return "a commit"


def test_ab_alternates_the_first_side_across_workloads(tmp_path, monkeypatch):
    # each workload began with the parent: 5 and 3 pairs ran it first 5 times of 8
    ab = _ab_module()
    monkeypatch.setattr(ab, "git", fake_git)
    monkeypatch.setattr(ab, "bench", lambda *args: {"metrics": {}, "output_digest": "a"})
    out = tmp_path / "ab.json"
    assert ab.main(["PARENT", "CHANGE", "one:1:5:3", "two:1:3:3", "--out", str(out)]) == 0
    entries = json.loads(out.read_text())["workloads"].values()
    assert Counter(pair["first"] for e in entries for pair in e["ab"]) == {"parent": 4, "change": 4}
    assert Counter(pair["first"] for e in entries for pair in e["null"]) == {"parent": 3, "parent_again": 3}



@pytest.mark.parametrize("spec", ["w:1:0:0", "w:1:0", "w:1:-2:3", "w:1:3:-1", "w:1", "w:one:3", "w:1:3:0:0"])
def test_ab_rejects_a_bad_run_spec_before_making_worktrees(tmp_path, monkeypatch, capsys, spec):
    # w:1:0:0 ran git worktree add three times, then died in quartiles([]) with exit 1
    ab = _ab_module()
    git_calls = []

    def git(repo, *args):
        git_calls.append(args)
        return fake_git(repo, *args)

    monkeypatch.setattr(ab, "git", git)
    monkeypatch.setattr(ab, "bench", lambda *args: {"metrics": {}, "output_digest": "a"})
    with pytest.raises(SystemExit) as exc:
        ab.main(["PARENT", "CHANGE", "ok:1:3", spec, "--out", str(tmp_path / "ab.json")])
    assert exc.value.code == 2
    assert repr(spec) in capsys.readouterr().err
    assert git_calls == [] and not (tmp_path / "ab.json").exists()


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


@pytest.mark.parametrize("n_pairs", [1, 2])
def test_ab_too_few_pairs_are_unresolved(n_pairs):
    # one pair has an IQR of 0: a single noisy pair read setup_s 0.244 -> 0.367 "worse"
    ab = _ab_module()
    spec = {"setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25}}

    def run(value):
        return {"metrics": {"setup_s": value}, "output_digest": "a"}

    pairs = [{"first": "parent", "parent": run(0.244), "change": run(0.367)} for _ in range(n_pairs)]
    entry = {"ab": pairs, "null": []}
    ab.summarise(entry, spec)
    assert entry["summary"]["setup_s"]["verdict"] == "unresolved"
    # three times as many alike pairs are enough to call it
    entry = {"ab": pairs * 3, "null": []}
    ab.summarise(entry, spec)
    assert entry["summary"]["setup_s"]["verdict"] == "worse"


def test_ab_a_move_its_null_ab_matches_is_unresolved():
    # BENCH_24's 3-pair sin-bimodal-mixture entry read setup_s 0.243 -> 0.304 "worse" on a workload
    # that runs no changed line, while its null A/B moved the parent against itself 0.42 -> 0.35
    ab = _ab_module()
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    stored = json.loads((ROOT / "BENCH_24.json").read_text())["workloads"]["sin-bimodal-mixture seed 1"]
    entry = {"ab": stored["ab"], "null": stored["null"]}
    ab.summarise(entry, spec)
    setup, null = entry["summary"]["setup_s"], entry["null_summary"]["setup_s"]
    assert setup["pairs"] == 3
    assert (setup["parent"]["median"], setup["change"]["median"]) == pytest.approx((0.243, 0.304), abs=5e-4)
    assert (null["parent"]["median"], null["parent_again"]["median"]) == pytest.approx((0.422, 0.354), abs=5e-4)
    assert setup["verdict"] == "unresolved"
    for metric, s in entry["summary"].items():
        moved = abs(s["change"]["median"] - s["parent"]["median"])
        noise = entry["null_summary"][metric]
        if abs(noise["parent_again"]["median"] - noise["parent"]["median"]) >= moved:
            assert s["verdict"] == "unresolved", metric
    # the same pairs without their null A/B have nothing to size the noise by
    entry = {"ab": stored["ab"], "null": []}
    ab.summarise(entry, spec)
    assert entry["summary"]["setup_s"]["verdict"] == "worse"


def test_ab_traced_runs_alternate_and_keep_medians(monkeypatch):
    ab = _ab_module()
    calls = []

    def bench(tree, workload, seed, seconds, trace):
        calls.append((tree, trace))
        offset = 100.0 if tree == "change-tree" else 0.0
        return {"metrics": {"layer.self_ms": offset + [5.0, 1.0, 3.0][sum(t == tree for t, _ in calls) - 1]}}

    monkeypatch.setattr(ab, "bench", bench)
    trees = {"parent": "parent-tree", "change": "change-tree"}
    record = ab.traced(trees, "any-workload", 1, 20, 0)
    order = [tree.split("-")[0] for tree, _ in calls]
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert all(trace == 1 for _, trace in calls)
    assert [run["metrics"]["layer.self_ms"] for run in record["runs"]["parent"]] == [5.0, 1.0, 3.0]
    assert record["medians"] == {"parent": {"layer.self_ms": 3.0}, "change": {"layer.self_ms": 103.0}}
    # after an odd number of earlier traced runs the alternation starts on the change
    calls.clear()
    ab.traced(trees, "any-workload", 1, 20, 3)
    assert [tree.split("-")[0] for tree, _ in calls] == ["change", "parent", "parent", "change", "change", "parent"]


def test_ab_traced_runs_alternate_across_workloads(tmp_path, monkeypatch):
    # each workload's traced runs began with the parent: two workloads ran it first 4 times of 6
    ab = _ab_module()
    traced_calls = []

    def bench(tree, workload, seed, seconds, trace):
        if trace:
            traced_calls.append(Path(tree).name)
        return {"metrics": {"layer.self_ms": 1.0}, "output_digest": "a"}

    monkeypatch.setattr(ab, "git", fake_git)
    monkeypatch.setattr(ab, "bench", bench)
    out = tmp_path / "ab.json"
    assert ab.main(["PARENT", "CHANGE", "one:1:3:0", "two:1:3:0", "--trace", "--out", str(out)]) == 0
    firsts = traced_calls[::2]
    assert len(traced_calls) == 2 * 2 * ab.TRACED_RUNS
    assert Counter(firsts) == {"parent": 3, "change": 3}


# Runs ab.main in its own process with measure replaced by a SIGTERM to
# that process; argv: ab.py, the repository, the record to write, and
# "again" to send a second SIGTERM as the first worktree is removed.
SIGTERM_DURING_MEASURE = """
import importlib.util, os, signal, sys
spec = importlib.util.spec_from_file_location("ab", sys.argv[1])
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
ab.measure = lambda *args: os.kill(os.getpid(), signal.SIGTERM)
real_git = ab.git
def git(repo, *args):
    if sys.argv[4] == "again" and args[:2] == ("worktree", "remove"):
        os.kill(os.getpid(), signal.SIGTERM)
    return real_git(repo, *args)
ab.git = git
ab.main(["HEAD", "HEAD", "any-workload:1:1", "--repo", sys.argv[2], "--out", sys.argv[3]])
"""


def kill_ab_during_measure(tmp_path, again):
    """Run the driver on a one-commit repository, SIGTERM it; return (exit code, worktrees listed)."""
    # in a subprocess, so SIGTERM's default action cannot stop the test runner
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": []}))
    git = ["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.com", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "BENCHMARK.json"], ["commit", "-q", "-m", "one commit"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    ab = str(ROOT / "scripts" / "ab.py")
    argv = [sys.executable, "-c", SIGTERM_DURING_MEASURE, ab, str(repo), str(tmp_path / "ab.json"), again]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    worktrees = subprocess.run([*git, "worktree", "list"], check=True, capture_output=True, text=True).stdout
    return proc.returncode, [line.split()[0] for line in worktrees.splitlines()], repo


def test_ab_removes_its_worktrees_on_sigterm(tmp_path):
    code, listed, repo = kill_ab_during_measure(tmp_path, "once")
    assert listed == [str(repo)]
    assert code == 128 + signal.SIGTERM


def test_ab_removes_its_worktrees_on_a_second_sigterm_during_clean_up(tmp_path):
    code, listed, repo = kill_ab_during_measure(tmp_path, "again")
    assert listed == [str(repo)]
    assert code == 128 + signal.SIGTERM
