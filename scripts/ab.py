"""A/B benchmark driver: two git refs, alternating pairs of perfbench runs, and a null A/B.

Each ref is checked out with ``git worktree`` in a temporary directory,
and the parent ref a second time for the null A/B (the parent against
itself); the worktrees are removed when the driver ends.  For each
WORKLOAD:SEED:PAIRS[:NULL_PAIRS] given, it runs PAIRS pairs of
``perfbench/run.py --trace 0`` on the parent and on the change, each run
in its own process for the run_seconds of the change's BENCHMARK.json,
alternating which side runs first, and interleaves NULL_PAIRS (default
NULL_PAIRS) pairs of the parent against its second checkout.  Both
alternations continue from one workload to the next, so over a driver
run each side goes first in half the pairs of a kind, or one more; with
NULL_PAIRS 0 the null comparison is skipped and recorded as null.  Every
run's end-to-end metrics, output digest and passes are kept, and each
metric is summarised per side as median, quartiles and IQR, with the
pairs the change won (ties count for neither) and a verdict (see
verdict; fewer than MIN_PAIRS pairs, or a move no larger than the null
A/B's, are always "unresolved").  --trace adds TRACED_RUNS
``--trace 1`` runs per side, alternating which side runs first and
continuing across workloads as the pairs do; every traced run is kept,
and each per-layer metric's median per side is recorded next to them.

The record goes to --out as JSON with the machine, the package
versions, the commit ids and the output digests; it is rewritten after
every run, so an interrupted driver leaves what it measured.  Nothing
under perfbench/ or BENCHMARK.json is written: each run reads its own
checkout's copy.  SIGTERM ends the driver as an exception would, so
the worktrees are removed then too; SIGTERM is ignored while they are.

Usage, from the repository root:

    python scripts/ab.py PARENT CHANGE sin-bimodal-mixture:1:10:5 sin-api:1:3 --out BENCH.json
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Parent/parent pairs of a WORKLOAD:SEED:PAIRS that gives no NULL_PAIRS.
NULL_PAIRS = 3
# Fewest pairs whose spread can tell a change from noise; one pair has an IQR of 0.
MIN_PAIRS = 3
# Fewest pairs that can show a gain.
MIN_GAIN_PAIRS = 10
# Traced runs per side: one run per side read a layer 27% slower that had not changed.
TRACED_RUNS = 3


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, text=True).stdout.strip()


def machine() -> dict:
    import numpy
    import scipy

    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    model = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), None)
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in its own process: its JSON result, output digest, environment and passes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "output_digest": record["output_digest"],
        "environment": record["environment"],
        "passes": [{k: p.get(k) for k in ("seconds", "exit_code", "digest", "problems")} for p in record["passes"]],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(xs: list[float], ys: list[float], wins: int, bound: float, null_move: float | None = None) -> str:
    """How ys compare with xs on a metric where lower is better.

    "unresolved" when there are fewer than MIN_PAIRS pairs; when
    null_move, the distance between the medians of the entry's null A/B
    (the parent against itself), is at least the distance between the
    medians of xs and ys, for noise moved the metric as far as the
    change did; or when the IQR of xs exceeds the bound relative to
    their median, unless every y beats every x.  Else "worse" when the
    median of ys is worse by more than the bound; "gain" when there are
    at least MIN_GAIN_PAIRS pairs, ys won at least 9 in 10 and the
    medians differ by more than the IQR of xs; "within bound" otherwise.
    """
    if len(xs) < MIN_PAIRS:
        return "unresolved"
    (xq1, xm, xq3), ym = quartiles(xs), statistics.median(ys)
    if null_move is not None and null_move >= abs(ym - xm):
        return "unresolved"
    if xq3 - xq1 > bound * abs(xm) and max(ys) >= min(xs):
        return "unresolved"
    if ym - xm > bound * abs(xm):
        return "worse"
    if len(xs) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(xs) and xm - ym > xq3 - xq1:
        return "gain"
    return "within bound"


def compare(pairs: list[dict], a: str, b: str, spec: dict, null: dict | None = None) -> dict:
    """Per end-to-end metric: each side's median, quartiles and IQR, the pairs b won over a, and the verdict.

    null, when given, is the entry's null A/B as compare summarised it:
    its distance between medians is the verdict's null_move.
    """
    out = {}
    for name, metric in spec.items():
        sign = 1 if metric["better"] == "lower" else -1
        xs = [p[a]["metrics"][name] for p in pairs]
        ys = [p[b]["metrics"][name] for p in pairs]
        wins = sum(sign * y < sign * x for x, y in zip(xs, ys))
        (xq1, xm, xq3), (yq1, ym, yq3) = quartiles(xs), quartiles(ys)
        out[name] = {
            a: {"median": xm, "q1": xq1, "q3": xq3, "iqr": xq3 - xq1},
            b: {"median": ym, "q1": yq1, "q3": yq3, "iqr": yq3 - yq1},
            f"{b}_wins": wins,
            "pairs": len(pairs),
            "relative_change": (ym - xm) / xm,
            "verdict": verdict(
                [sign * x for x in xs],
                [sign * y for y in ys],
                wins,
                metric["bound"],
                None if null is None else abs(null[name]["parent_again"]["median"] - null[name]["parent"]["median"]),
            ),
        }
    return out


def measure(
    entry: dict, trees: dict, workload: str, seed: int, pairs: int, null_pairs: int, seconds, save, done: dict
) -> None:
    """Alternating parent/change pairs into entry["ab"], interleaved with parent/parent pairs into entry["null"].

    done holds the pairs of each kind that the driver's earlier workloads
    ran; each alternation goes on from there.
    """
    for i in range(max(pairs, null_pairs)):
        for kind, sides, n in (("ab", ("parent", "change"), pairs), ("null", ("parent", "parent_again"), null_pairs)):
            if i >= n:
                continue
            order = sides if (done[kind] + i) % 2 == 0 else sides[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = bench(trees[side], workload, seed, seconds, 0)
                values = ", ".join(f"{k} {v:.4g}" for k, v in pair[side]["metrics"].items())
                print(f"  {workload} seed {seed} {kind} pair {i + 1} {side}: {values}", flush=True)
            entry[kind].append(pair)
            save()


def traced(trees: dict, workload: str, seed: int, seconds, done: int) -> dict:
    """TRACED_RUNS --trace 1 runs per side, alternating which side runs first, and each metric's median per side.

    done is the traced runs per side of the workloads measured before
    this one; the alternation goes on from there.
    """
    runs = {"parent": [], "change": []}
    for i in range(TRACED_RUNS):
        for side in ("parent", "change") if (done + i) % 2 == 0 else ("change", "parent"):
            runs[side].append(bench(trees[side], workload, seed, seconds, 1))
    medians = {
        side: {name: statistics.median(run["metrics"][name] for run in done) for name in done[0]["metrics"]}
        for side, done in runs.items()
    }
    return {"runs": runs, "medians": medians}


def summarise(entry: dict, spec: dict) -> None:
    """Add each side's output digests and the A/B and null A/B comparisons to entry."""
    digests = {}
    for pair in entry["ab"] + entry["null"]:
        for side, run in pair.items():
            if side != "first":
                digests.setdefault(side, set()).add(run["output_digest"])
    entry["output_digests"] = {side: sorted(found) for side, found in digests.items()}
    # with NULL_PAIRS 0 no null A/B ran, and there is nothing to compare
    entry["null_summary"] = compare(entry["null"], "parent", "parent_again", spec) if entry["null"] else None
    entry["summary"] = compare(entry["ab"], "parent", "change", spec, entry["null_summary"])


def report(name: str, summary: dict) -> None:
    print(name)
    for metric, s in summary.items():
        (a, sa), (b, sb) = [(k, v) for k, v in s.items() if isinstance(v, dict)]
        print(
            f"  {metric:12s} {a} {sa['median']:.4g} [IQR {sa['iqr']:.3g}]"
            f"  {b} {sb['median']:.4g} [IQR {sb['iqr']:.3g}]  {s['relative_change']:+.2%}"
            f"  {b} won {s[f'{b}_wins']}/{s['pairs']}: {s['verdict']}"
        )


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the parent")
    parser.add_argument("change", help="git ref of the change")
    parser.add_argument("runs", nargs="+", help="WORKLOAD:SEED:PAIRS[:NULL_PAIRS], one or more")
    parser.add_argument("--trace", action="store_true", help=f"add {TRACED_RUNS} --trace 1 runs per side and workload")
    parser.add_argument("--repo", type=Path, default=ROOT, help="the git repository holding both refs")
    parser.add_argument("--out", type=Path, required=True, help="JSON record to write")
    args = parser.parse_args(argv)
    runs = []
    for text in args.runs:
        # checked before any worktree is made: a spec of no pairs has nothing to summarise
        try:
            workload, seed, pairs, *null = text.split(":")
            run = (workload, int(seed), int(pairs), int(null[0]) if null else NULL_PAIRS)
        except ValueError:
            parser.error(f"run spec {text!r} is not WORKLOAD:SEED:PAIRS[:NULL_PAIRS]")
        if run[2] < 1 or run[3] < 0 or len(null) > 1:
            parser.error(f"run spec {text!r} needs PAIRS >= 1 and NULL_PAIRS >= 0")
        runs.append(run)

    refs = {"parent": args.parent, "change": args.change}
    commits = {side: git(args.repo, "rev-parse", f"{ref}^{{commit}}") for side, ref in refs.items()}
    record = {
        "machine": machine(),
        "refs": refs,
        "commits": commits,
        "workloads": {},
    }

    def save():
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change", "parent_again")}
        # SIGTERM's default action would end the process without the finally that removes the worktrees
        previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
        try:
            for side, tree in trees.items():
                commit = commits["change" if side == "change" else "parent"]
                git(args.repo, "worktree", "add", "--detach", str(tree), commit)
            benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
            spec = {m["name"]: m for m in benchmark["end_to_end"]}
            seconds = record["run_seconds"] = benchmark["run_seconds"]
            for workload, seed, pairs, null_pairs in runs:
                done = {kind: sum(len(e[kind]) for e in record["workloads"].values()) for kind in ("ab", "null")}
                entry = record["workloads"][f"{workload} seed {seed}"] = {"ab": [], "null": []}
                measure(entry, trees, workload, seed, pairs, null_pairs, seconds, save, done)
                summarise(entry, spec)
                if args.trace:
                    ran = sum(len(e["traced"]["runs"]["parent"]) for e in record["workloads"].values() if "traced" in e)
                    entry["traced"] = traced(trees, workload, seed, seconds, ran)
                save()
                report(f"{workload} seed {seed}: parent -> change", entry["summary"])
                if entry["null_summary"] is None:
                    print(f"{workload} seed {seed}: no null A/B ran")
                else:
                    report(f"{workload} seed {seed}: null A/B, parent -> parent", entry["null_summary"])
        finally:
            # nor may a second SIGTERM stop the clean-up between two removals
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            try:
                for tree in trees.values():
                    if tree.exists():
                        git(args.repo, "worktree", "remove", "--force", str(tree))
                git(args.repo, "worktree", "prune")
            finally:
                signal.signal(signal.SIGTERM, previous)
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
