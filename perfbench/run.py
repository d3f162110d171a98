"""paramsmc benchmark: one workload, measured end to end or traced by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sin-api --seed 1 --seconds 20 --trace 0
    python3 -m pytest perfbench/tests

Each pass is one in-process call of ``paramsmc.cli.main(["run", ...])``, the
code path of ``paramsmc run``: it reads a trajectory CSV generated from the
seed, runs the algorithm and writes the result CSV and summary JSON to a
temporary directory.  Passes run one at a time (a closed loop of one
caller, BLAS/OpenMP pinned to one thread) until --seconds have elapsed,
and every pass's outputs are checked (see workloads.check_run).

--trace 0 reports the end-to-end metrics.  The three timings are scaled
to a reference host speed: each timed call is bracketed by a fixed probe
loop, and its time is multiplied by the probe's reference time over the
probes' mean (see at_reference_speed).  The unscaled values are printed
and recorded too.

* setup_s: median time of fresh interpreters importing paramsmc.cli;
* steps_per_s: observation steps per second of a run call, from the median
  pass time (PMMH counts every step of every inner filter);
* iters_per_s: PMMH iterations per second; a filter run is one sweep of the
  stream, so on the filter workloads this is run calls per second;
* peak_rss_mb: peak resident memory of this process up to the end of the
  last pass, read before the output checks run.

--trace 1 alternates untraced and traced passes (see spans.py) and reports
the per-layer ``<module>.<function>.<stat>`` metrics, import times, a
tracemalloc pass and the tracing overhead.

Metric names and units are read from BENCHMARK.json.  The last stdout
line is the JSON result; the lines before it name every metric with its
unit.  param_error (accuracy against a reference computed
outside the timed region) and ops_failed (the share of run calls that
failed a check, the result's ``failed``) are printed but are not
BENCHMARK.json metrics: param_error moves with each seed's data far more
than any bound allows, and ops_failed is zero on a correct run.  The full
record (environment, input and output digests, reference, every pass)
goes to ``.bench_out/`` under the repository root.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# Array elements one probe_seconds() call works through.  Set-up is timed
# against the sum of the probes on 50- and 1000-element arrays, whose
# median was SETUP_PROBE_REFERENCE_S over 12 minutes on a 2-vCPU Intel Xeon
# host; of the probes tried, its scaled set-up times agreed best across
# workloads run minutes apart.
PROBE_ELEMENTS = 150_000
SETUP_PROBE_LENGTHS, SETUP_PROBE_REFERENCE_S = (50, 1000), 0.11
IMPORTTIME_REPEATS = 3
IMPORT_PREFIX = "setup.import_ms."


def load_metrics(kind: str) -> dict:
    """name -> unit of the "end_to_end" or "per_layer" metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# Environment and set-up.
# ---------------------------------------------------------------------------


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe_seconds(length: int) -> float:
    """Wall seconds of a fixed loop of NumPy calls on arrays of `length`, shaped like bootstrap filter steps.

    It shares no code with paramsmc, so a change to the program cannot
    move it; only the speed of the host can.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    tic = time.perf_counter()
    x = rng.standard_normal(length)
    for _ in range(PROBE_ELEMENTS // length):
        x = np.sin(0.7 * x) + rng.standard_normal(length)
        logw = -0.5 * (x - 0.3) ** 2
        w = np.exp(logw - logw.max())
        w /= w.sum()
        x = x[np.searchsorted(np.cumsum(w), rng.random(length) * 0.999999)]
    return time.perf_counter() - tic


def at_reference_speed(seconds: list[float], probes: list[float], reference_s: float) -> list[float]:
    """Scale each time by reference_s over the mean of the probes run either side of it.

    The shared 2-vCPU hosts this benchmark was built on switch between
    speeds for tens of seconds at a time (a pass of the same work took
    1.9 s and 3.4 s a minute apart).  The probe slows with them, so the
    scaled times follow the program, not the host.
    """
    return [s * 2.0 * reference_s / (a + b) for s, a, b in zip(seconds, probes, probes[1:])]


def setup_probe_seconds() -> float:
    return sum(probe_seconds(length) for length in SETUP_PROBE_LENGTHS)


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Wall seconds for a fresh interpreter to import paramsmc.cli and exit, and the probes around them."""
    times, probes = [], [setup_probe_seconds()]
    for _ in range(repeats):
        tic = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import paramsmc.cli"], env=child_env(), cwd=ROOT, check=True, timeout=120
        )
        times.append(time.perf_counter() - tic)
        probes.append(setup_probe_seconds())
    return times, probes


def import_times_ms(modules, repeats: int) -> dict:
    """Median cumulative import time per module, from ``python -X importtime``."""
    samples = {m: [] for m in modules}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import paramsmc.cli"],
            env=child_env(),
            cwd=ROOT,
            check=True,
            timeout=120,
            capture_output=True,
            text=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
            if match:
                seen[match.group(2).strip()] = int(match.group(1)) / 1e3
        for module in modules:
            samples[module].append(seen.get(module, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def environment(seed: int, workload, threads: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:  # no git program; source_sha256 still identifies the code
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "paramsmc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "threads": threads,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes(),
    }


# ---------------------------------------------------------------------------
# One pass: one `paramsmc run` call plus its output checks.
# ---------------------------------------------------------------------------


def run_argv(workload, data_csv: Path, out_prefix: Path, seed: int) -> list[str]:
    argv = ["run", "--model", workload.model, "--algorithm", workload.algorithm]
    argv += ["--data", str(data_csv), "--seed", str(seed), "--out", str(out_prefix)]
    if workload.algorithm == "pmmh":
        config = out_prefix.parent / "pmmh.json"
        config.write_text(
            json.dumps({"pmmh": {"inner_particles": workload.particles, "iterations": workload.iterations}})
        )
        return argv + ["--config", str(config)]
    argv += ["--particles", str(workload.particles), "--family", workload.family]
    argv += ["--scheme", "gauss_hermite", "--approx-samples", str(workload.approx_samples)]
    if workload.family == "mixture":
        argv += ["--mixtures", str(workload.mixtures)]
    return argv


def run_pass(argv: list[str], out_prefix: Path, wrapper=None) -> dict:
    """Time one cli.main call; its outputs stay at out_prefix for check_pass."""
    import paramsmc.cli

    error = None
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        if wrapper is not None:
            stack.enter_context(wrapper)
        tic = time.perf_counter()
        try:
            code = paramsmc.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark abort
            code, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - tic
    return {"seconds": seconds, "exit_code": code, "error": error}


def check_pass(workload, ref: dict, out_prefix: Path, timed: dict) -> dict:
    """Check one pass's outputs, then delete them; returns the pass record."""
    from workloads import check_run

    csv_path = out_prefix.with_suffix(".csv")
    json_path = out_prefix.with_suffix(".json")
    code = timed["exit_code"]
    summary = json.loads(json_path.read_text()) if code == 0 and json_path.exists() else None
    checked = check_run(workload, ref, code, csv_path, summary)
    if timed["error"]:
        checked["problems"].append(timed["error"])
    for path in (csv_path, json_path):
        path.unlink(missing_ok=True)
    return {**timed, **checked}


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_metrics(tracer, wall_s: float, names) -> dict:
    """The per-layer metrics of one traced pass (all but setup.*, mem.* and trace.speed_ratio)."""
    stats = tracer.stats()
    out = {}
    for name in names:
        if name.startswith((IMPORT_PREFIX, "mem.", "trace.")):
            continue
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "self_ms", "rows"):
            out[name] = stats.get(base, {}).get(stat, 0)
        elif stat == "bytes":
            out[name] = tracer.bytes_written.get(base.rpartition(".")[2], 0)
    out["approx.degenerate_rows"] = tracer.attempted_rows - tracer.ok_rows
    out["approx.useful_ratio"] = tracer.ok_rows / tracer.attempted_rows if tracer.attempted_rows else 1.0
    out["resampling.distinct_ancestors"] = (
        sum(tracer.distinct) / len(tracer.distinct) if tracer.distinct else 0.0
    )
    out["trace.coverage"] = float(tracer.self_times().sum()) / wall_s
    return out


def measure(workload, seed: int, seconds: float, trace: bool, record: dict, names) -> tuple[list, dict]:
    """Run passes until `seconds` elapse; return (passes, metrics).

    names lists the per-layer metrics a traced run reports.
    """
    from spans import MemorySampler, Tracer
    from workloads import make_stream, reference, write_stream_csv

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        states, observations = make_stream(workload, seed)
        data_csv = workdir / "data.csv"
        record["input_sha256"] = write_stream_csv(data_csv, states, observations)
        # The sin and lg references run before the first pass imports
        # paramsmc, whose import alone lifts the resident size above what
        # they allocate, so they do not move peak_rss_mb.
        ref = reference(workload, observations)
        record["reference"] = ref

        timed, traced, layer = [], [], []

        def run_one(kind, wrapper=None):
            prefix = workdir / f"pass{len(timed)}"
            timed.append((kind, prefix, run_pass(run_argv(workload, data_csv, prefix, seed), prefix, wrapper)))
            return timed[-1][2]

        probes = [] if trace else [probe_seconds(workload.probe_length)]
        deadline = time.perf_counter() + seconds
        while True:
            last = run_one(False)
            if not trace:
                probes.append(probe_seconds(workload.probe_length))
            else:
                tracer = Tracer()
                last = run_one(True, tracer)
                layer.append(layer_metrics(tracer, last["seconds"], names))
                traced.append(last["seconds"])
            # stop once a further pass would end more than half a pass late
            if time.perf_counter() + last["seconds"] / 2 >= deadline:
                break
        if trace:
            tracer.save(OUT / f"{workload.name}-seed{seed}-spans.npz")
            sampler = MemorySampler(capacity=4 * workload.filter_steps() + 16)
            run_one("memory", sampler)
        # read before the output checks, which allocate too
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = [{"traced": kind, **check_pass(workload, ref, prefix, t)} for kind, prefix, t in timed]

    untraced = [p["seconds"] for p in passes if p["traced"] is False]
    if not trace:
        record["probe_s"] = probes
        record.setdefault("unscaled", {}).update(
            steps_per_s=workload.filter_steps() / statistics.median(untraced),
            iters_per_s=workload.run_iterations() / statistics.median(untraced),
        )
        wall = statistics.median(at_reference_speed(untraced, probes, workload.probe_reference_s))
        return passes, {
            "steps_per_s": workload.filter_steps() / wall,
            "iters_per_s": workload.run_iterations() / wall,
            "peak_rss_mb": peak_rss_mb,
        }
    # counts repeat exactly across passes; times take the median
    metrics = {}
    for name, first in layer[0].items():
        values = [m[name] for m in layer]
        metrics[name] = statistics.median_low(values) if isinstance(first, int) else statistics.median(values)
    metrics["trace.speed_ratio"] = statistics.median(untraced) / statistics.median(traced)
    metrics["mem.traced_peak_mb"] = sampler.peak / 2**20
    metrics["mem.steady_growth_kb"] = sampler.steady_growth_kb()
    return passes, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paramsmc" / "cli.py").is_file():
        print(f"error: no paramsmc sources under {SRC}", file=sys.stderr)
        return 2
    # numpy reads the thread variables when it loads, so every module that
    # imports it (workloads, spans, paramsmc) is imported after this point.
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    units = load_metrics("per_layer" if args.trace else "end_to_end")
    record = {"environment": environment(args.seed, workload, threads), "trace": args.trace}

    metrics = {}
    if args.trace:
        modules = [n[len(IMPORT_PREFIX) :] for n in units if n.startswith(IMPORT_PREFIX)]
        metrics.update({IMPORT_PREFIX + m: v for m, v in import_times_ms(modules, IMPORTTIME_REPEATS).items()})
    else:
        setup, probes = measure_setup(SETUP_REPEATS)
        record["setup_s"], record["setup_probe_s"] = setup, probes
        record.setdefault("unscaled", {})["setup_s"] = statistics.median(setup)
        metrics["setup_s"] = statistics.median(at_reference_speed(setup, probes, SETUP_PROBE_REFERENCE_S))
    passes, measured = measure(workload, args.seed, args.seconds, bool(args.trace), record, units)
    metrics.update(measured)

    digests = {p["digest"] for p in passes}
    first = passes[0]["digest"]
    failed = sum(1 for p in passes if p["problems"] or p["digest"] != first)
    errors = [p["param_error"] for p in passes if p["param_error"] is not None]
    record.update(
        {
            "passes": passes,
            "output_digest": first,
            "digests_agree": len(digests) == 1,
            "param_error": errors[0] if errors else None,
            "ops_failed": failed / len(passes),
            "metrics": metrics,
        }
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"
    )

    for p in passes:
        for problem in p["problems"]:
            print(f"check failed ({'traced' if p['traced'] else 'untraced'} pass): {problem}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"output_digest {first}")
    print(f"input_sha256 {record['input_sha256']}")
    if record["param_error"] is not None:
        print(f"param_error {record['param_error']!r}")
    print(f"ops_failed {record['ops_failed']!r} ({failed} of {len(passes)} run calls)")
    for name, value in record.get("unscaled", {}).items():
        print(f"unscaled {name} {value!r}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
