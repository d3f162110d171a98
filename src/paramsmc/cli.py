"""Command-line experiment runner.

Verbs:

* ``simulate``: draw a trajectory from a named model and write it as CSV.
* ``run``: execute one algorithm on one dataset, emitting per-step result
  rows (CSV) and a JSON summary.
* ``sweep``: Cartesian product over particle counts, sample counts, and
  seeds, executed in a worker pool with a single deterministic writer.
* ``oracle``: compute the applicable exact/brute-force reference (exact
  SLAM forward pass, parameter grid posterior, Kalman filter).

Configuration comes from an optional JSON file plus flag overrides; flags
win.  Exit codes: 0 success, 2 configuration error, 3 numerical
degeneracy abort.
"""

import argparse
import functools
import hashlib
import itertools
import json
import numbers
import os
import sys
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import rng as streams
from .approx import MomentScheme
from .benchmarks import LinearGaussianModel, SlamModel, default_true_params, get_model
from .engine import (
    ALGORITHMS,
    FilterConfig,
    PmmhConfig,
    run_pmmh,
)
from .errors import ConfigError, EngineError, TotalDegeneracyError
from .io import (
    ResultRow,
    read_tables_csv,
    read_trajectory_csv,
    write_result_csv,
    write_summary_json,
    write_tables_csv,
    write_trajectory_csv,
)
from .model import simulate
from .oracles import grid_posterior, kalman_filter, kl_factorized, slam_exact_forward
from .resampling import RESAMPLERS
from .rng import substream


class Key(NamedTuple):
    """A config key: its type (see _typed), its default, and what alone reads it ("sweep", "filter", "pmmh")."""

    kind: object
    default: object = None
    only: tuple = ()


# Every key a config may give; each flag sets one of them.
SCHEMA = {
    "model": Key(str),
    "model_overrides": Key(dict, {}),
    "seed": Key(int, FilterConfig.seed),
    "out": Key(str),
    "data": Key(str),
    "data_seed": Key(int),
    "steps": Key(int),
    "true_params": Key([float]),
    "algorithm": Key(str, "api"),
    "n_particles": Key(int, 1000),
    "truth": Key([float]),
    "exact": Key(str),
    "approx_samples": Key(int, MomentScheme.m, ("filter",)),
    "scheme": Key(str, MomentScheme.kind, ("filter",)),
    "family": Key(str, FilterConfig.family, ("filter",)),
    "mixture_size": Key(int, FilterConfig.mixture_size, ("filter",)),
    "resample": Key(str, FilterConfig.resample, ("filter",)),
    "shrinkage": Key(float, FilterConfig.shrinkage, ("filter",)),
    # PmmhConfig holds the pmmh defaults, apart from inner_particles: n_particles.
    "pmmh": Key(
        {"inner_particles": Key(int), "iterations": Key(int), "proposal_sd": Key(float), "bounds": Key([float])},
        {},
        ("pmmh",),
    ),
    "particles": Key([int], only=("sweep",)),
    "approx_samples_list": Key([int], only=("sweep", "filter")),
    "seeds": Key([int], only=("sweep",)),
    "workers": Key(int, only=("sweep",)),
}
# The least value of each integer key (each item, for a list) that has one: seeds feed SeedSequence.
LEAST = {"seed": 0, "data_seed": 0, "seeds": 0, "workers": 1}
# The lists a sweep's cells range over, each with the key a cell sets from it.
SWEEP_AXES = {"particles": "n_particles", "approx_samples_list": "approx_samples", "seeds": "seed"}
NOUNS = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def _typed(key: str, value, kind):
    """value as kind, or a ConfigError naming key.

    kind is int, float, str, [int] or [float] (a list of them, returned
    as a tuple), dict (an object of any settings) or a dict of Keys (an
    object of those keys, each typed).  A bool or a string is not a
    number, and an int is integral: an integral float such as 2.0 is 2.
    """
    if isinstance(kind, list) and isinstance(value, (list, tuple)):
        return tuple(_typed(key, v, kind[0]) for v in value)
    if isinstance(kind, dict) and isinstance(value, dict):
        unknown = set(value) - set(kind)
        if unknown:
            raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
        # a config's own keys go by their names, nested ones by their paths
        return {k: _typed(k if kind is SCHEMA else f"{key}.{k}", v, kind[k].kind) for k, v in value.items()}
    if (kind is str or kind is dict) and isinstance(value, kind):
        return value
    if (kind is int or kind is float) and isinstance(value, numbers.Real) and not isinstance(value, bool):
        if kind is float or isinstance(value, numbers.Integral) or float(value).is_integer():
            return kind(value)
    if isinstance(kind, list):
        noun = f"a list of {NOUNS[kind[0]].split()[-1]}s"
    else:
        noun = NOUNS[dict if isinstance(kind, dict) else kind]
    raise ConfigError(f"{key} must be {noun}, got {value!r}")


def _flag_type(key: str, kind):
    """argparse's type= for a flag of kind; a list flag's text is split at commas."""
    item = kind[0] if isinstance(kind, list) else kind

    def parse(text: str):
        return _typed(key, [item(v) for v in text.split(",") if v] if isinstance(kind, list) else item(text), kind)

    parse.__name__ = item.__name__  # argparse names it in "invalid int value"
    return parse


def load_config(path: str | None) -> dict:
    """The config file's settings, each typed as SCHEMA types its key."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _typed("config", cfg, SCHEMA)


def merged_config(args) -> dict:
    """Defaults, then the config file, then every flag given: each flag's dest is its key.

    The file's values and the flags' are typed as they are read.  A
    sweep-only key under another verb is an error, and so, under run and
    sweep, is a key the chosen algorithm never reads.
    """
    given = load_config(args.config)
    given.update({k: v for k, v in vars(args).items() if k in SCHEMA and v is not None})
    sweep_only = {k for k in given if "sweep" in SCHEMA[k].only}
    if sweep_only and args.verb != "sweep":
        raise ConfigError(f"config keys {sorted(sweep_only)} are read by sweep only")
    cfg = {**{k: key.default for k, key in SCHEMA.items() if key.default is not None}, **given}
    if cfg.get("model") is None:
        raise ConfigError("a model name is required (--model or config file)")
    for key, least in LEAST.items():
        value = cfg.get(key)
        if value is None:
            continue
        for v in value if isinstance(value, tuple) else (value,):
            if v < least:
                raise ConfigError(f"{key} must be at least {least}, got {v}")
    if args.verb in ("run", "sweep"):
        other = "filter" if cfg["algorithm"] == "pmmh" else "pmmh"
        unread = {k for k in given if other in SCHEMA[k].only}
        if unread:
            raise ConfigError(f"config keys {sorted(unread)} are not read by algorithm {cfg['algorithm']!r}")
    for key in ("data", "exact"):
        if cfg.get(key) and not os.path.isfile(cfg[key]):
            raise ConfigError(f"{key} file {cfg[key]} not found")
    return cfg


def _run_id(cfg: dict) -> str:
    """Hash of the semantic config.

    Where the outputs go and how many workers run a sweep do not change a
    run, so out and workers are left out; the data and exact input files
    count by their sha256 digest, not by their path.
    """
    semantic = {k: v for k, v in cfg.items() if k not in ("out", "workers")}
    for key in ("data", "exact"):
        if semantic.get(key):
            semantic[key] = hashlib.sha256(Path(semantic[key]).read_bytes()).hexdigest()
    canon = json.dumps(semantic, sort_keys=True, default=str)
    return hashlib.sha1(canon.encode()).hexdigest()[:12]


def _build_model(cfg: dict):
    return get_model(cfg["model"], **cfg["model_overrides"])


def _simulate(cfg: dict, model, theta, seed_key: str) -> tuple[np.ndarray, np.ndarray]:
    """A trajectory from the DATA substream of cfg[seed_key].

    theta defaults to the model's generating parameters and steps to a
    SLAM model's action count.
    """
    theta = default_true_params(cfg["model"], model) if theta is None else np.asarray(theta, dtype=float)
    if theta.shape != (model.dims()[0],):
        raise ConfigError(f"generating parameters need {model.dims()[0]} values, got {theta.size}")
    steps = cfg.get("steps")
    if steps is None:
        if not isinstance(model, SlamModel):
            raise ConfigError("steps is required for this model")
        steps = model.n_steps()
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    rng = substream(cfg[seed_key], streams.DATA)
    return simulate(model, theta, steps, rng)


def _resolve_data(cfg: dict, model) -> np.ndarray:
    if cfg.get("data"):
        return read_trajectory_csv(cfg["data"])[1]
    if cfg.get("data_seed") is None:
        raise ConfigError("no dataset: give data (trajectory CSV) or data_seed")
    return _simulate(cfg, model, cfg.get("true_params"), "data_seed")[1]


def _rows(cfg, algorithm, sizes, estimates, spreads, ess=None, ms=None, first_step=0, mse=None, kl=None):
    """One result row per step, made as it is written; sizes is (n_particles, approx_samples, mixture_size).

    The last row carries mse and kl.  Reference posteriors reuse the
    run-row schema so files diff cleanly.
    """
    run_id = _run_id(cfg)
    last = len(estimates) - 1
    for t, (estimate, spread) in enumerate(zip(estimates, spreads)):
        yield ResultRow(
            run_id=run_id,
            seed=cfg["seed"],
            algorithm=algorithm,
            model=cfg["model"],
            n_particles=sizes[0],
            approx_samples=sizes[1],
            mixture_size=sizes[2],
            timestep=first_step + t,
            estimate=tuple(estimate),
            spread=tuple(spread),
            ess=None if ess is None else float(ess[t]),
            wall_clock_ms=0.0 if ms is None else float(ms[t]),
            mse=mse if t == last else None,
            kl=kl if t == last else None,
        )


def run_experiment(cfg: dict) -> tuple[tuple, dict]:
    """Execute one (algorithm, dataset, seed) cell; pure given the config.

    Returns the run's per-step arrays, as _rows takes them after cfg and
    the algorithm, and its summary.
    """
    model = _build_model(cfg)
    observations = _resolve_data(cfg, model)
    algorithm, seed, truth = cfg["algorithm"], cfg["seed"], cfg.get("truth")
    p = model.dims()[0]
    if truth is not None and len(truth) != p:
        raise ConfigError(f"truth has {len(truth)} values but the model has {p} parameters")

    if algorithm == "pmmh":
        pm = {"inner_particles": cfg["n_particles"], **cfg["pmmh"]}
        pconfig = PmmhConfig(seed=seed, **pm)
        result = run_pmmh(model, observations, pconfig)
        sizes = (pconfig.inner_particles, 0, 1)
        steps = (sizes, result.chain, np.zeros_like(result.chain), None, result.iter_ms)
        summary = {
            "acceptance_rate": result.acceptance_rate,
            "iterations": result.n_iterations,
            "rejected_nonfinite": result.rejected_nonfinite,
        }
        discrete = model.param_kind == "discrete"
        tables = result.posterior_tables(model.param_cardinalities) if discrete else None
    else:
        if algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algorithm!r}")
        try:
            scheme = MomentScheme(kind=cfg["scheme"], m=cfg["approx_samples"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        settings = {k: cfg[k] for k in ("n_particles", "family", "mixture_size", "resample", "shrinkage")}
        fconfig = FilterConfig(scheme=scheme, seed=seed, **settings)
        result = ALGORITHMS[algorithm](model, observations, fconfig)
        sizes = (result.n_particles, result.approx_samples, result.mixture_size)
        spreads = np.diagonal(result.param_cov, axis1=1, axis2=2)
        steps = (sizes, result.param_mean, spreads, result.ess, result.step_ms)
        summary = {"log_marginal_lik": result.log_marginal_lik, "notes": result.notes}
        fused = result.fused
        if fused.kind == "mixture":
            summary["fused"] = {
                "weights": fused.mixture_weights,
                "means": fused.mixture_means,
                "covs": fused.mixture_covs,
            }
        tables = fused.tables
        if tables is not None:
            summary["fused_tables"] = tables

    summary.update(
        run_id=_run_id(cfg),
        config=cfg,
        algorithm=algorithm,
        estimate=result.estimate,
        elapsed_s=result.elapsed_s,
    )
    if truth is not None:
        summary["squared_error"] = float(np.sum((result.estimate - np.asarray(truth)) ** 2))
    if cfg.get("exact") and tables is not None:
        summary["kl"] = kl_factorized(tables, read_tables_csv(cfg["exact"]))
    return steps, summary


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = merged_config(args)
    states, obs = _simulate(cfg, _build_model(cfg), args.theta, "seed")
    out = cfg.get("out") or "trajectory.csv"
    write_trajectory_csv(out, states, obs)
    print(f"wrote {states.shape[0]} rows to {out}")
    return 0


def _out_base(cfg: dict, default: str) -> str:
    out = cfg.get("out") or default
    return out[:-4] if out.endswith(".csv") else out


def _write_results(base: str, rows: Iterable[ResultRow], summary: dict) -> str:
    write_result_csv(base + ".csv", rows)
    write_summary_json(base + ".json", summary)
    return base + ".csv"


def _write_columns(path: str, header: str, *columns) -> None:
    """A CSV with one value of each column per row, as the repr of a Python int or float."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write(",".join(map(repr, row)) + "\n")


def cmd_run(args) -> int:
    cfg = merged_config(args)
    steps, summary = run_experiment(cfg)
    rows = _rows(cfg, cfg["algorithm"], *steps, mse=summary.get("squared_error"), kl=summary.get("kl"))
    csv_path = _write_results(_out_base(cfg, "result"), rows, summary)
    est = ", ".join(f"{v:.6g}" for v in np.atleast_1d(summary["estimate"]))
    print(f"{cfg['algorithm']} on {cfg['model']}: estimate [{est}] -> {csv_path}")
    return 0


def _sweep_cells(cfg: dict) -> list[dict]:
    cell = {k: v for k, v in cfg.items() if "sweep" not in SCHEMA[k].only}
    axes = [cfg.get(many) or [cfg[one]] for many, one in SWEEP_AXES.items()]
    return [{**cell, **dict(zip(SWEEP_AXES.values(), values))} for values in itertools.product(*axes)]


def cmd_sweep(args) -> int:
    cfg = merged_config(args)
    cells = _sweep_cells(cfg)
    workers = cfg.get("workers") or min(len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_heap_policy) as pool:
            results = list(pool.map(run_experiment, cells))
    else:
        results = [run_experiment(c) for c in cells]
    rows = itertools.chain.from_iterable(
        _rows(s["config"], s["algorithm"], *steps, mse=s.get("squared_error"), kl=s.get("kl")) for steps, s in results
    )
    summaries = [summary for _, summary in results]
    csv_path = _write_results(_out_base(cfg, "result"), rows, {"runs": summaries})
    print(f"sweep of {len(cells)} cells -> {csv_path}")
    return 0


# What each oracle kind needs of the model.
ORACLE_FITS = {
    "slam-exact": ("a SLAM model", lambda model: isinstance(model, SlamModel)),
    "grid": (
        "one continuous parameter",
        lambda model: model.param_kind == "continuous" and model.dims()[0] == 1,
    ),
    "kalman": ("the linear-Gaussian model", lambda model: isinstance(model, LinearGaussianModel)),
}


def cmd_oracle(args) -> int:
    cfg = merged_config(args)
    if args.grid_points < 1:
        raise ConfigError(f"--grid-points must be at least 1, got {args.grid_points}")
    for flag, value in (("--grid-lo", args.grid_lo), ("--grid-hi", args.grid_hi)):
        if not np.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number, got {value}")
    model = _build_model(cfg)
    kind = args.kind or ("slam-exact" if isinstance(model, SlamModel) else "grid")
    needs, fits = ORACLE_FITS[kind]
    if not fits(model):
        raise ConfigError(f"oracle kind {kind!r} needs {needs}; model {cfg['model']!r} is not one")
    if kind == "kalman" and model.theta_fixed is not None and args.theta is not None:
        raise ConfigError(f"the model fixes theta at {model.theta_fixed}; the kalman oracle takes no --theta")
    if kind == "kalman" and model.theta_fixed is None and len(args.theta or ()) != 1:
        raise ConfigError("kalman oracle needs --theta with one value")
    observations = _resolve_data(cfg, model)
    base = _out_base(cfg, "oracle")

    if kind == "kalman":
        res = kalman_filter(model, args.theta[0] if args.theta else None, observations)
        _write_columns(base + "_kalman.csv", "t,mean,variance", range(len(res.means)), res.means, res.variances)
        write_summary_json(base + ".json", {"kind": kind, "log_likelihood": res.log_likelihood})
        print(f"kalman filter loglik {res.log_likelihood:.4f} -> {base}_kalman.csv")
        return 0

    if kind == "slam-exact":
        post = slam_exact_forward(model, observations)
        write_tables_csv(base + "_tables.csv", post.map_marginals)
        values = np.arange(post.map_marginals.shape[1])
        est = post.map_marginals @ values
        spread = post.map_marginals @ (values * values) - est * est
        summary = {
            "kind": kind,
            "map_marginals": post.map_marginals,
            "location_marginal": post.location_marginal,
            "log_evidence": post.log_evidence,
        }
        message = f"exact posterior -> {base}_tables.csv"
    else:
        post = grid_posterior(model, observations, np.linspace(args.grid_lo, args.grid_hi, args.grid_points))
        _write_columns(base + "_grid.csv", "theta,mass", post.grid, post.masses)
        est, spread = [post.mean()], [post.variance()]
        summary = {"kind": kind, "mean": post.mean(), "variance": post.variance(), "mode": post.mode()}
        message = f"grid posterior (mean {post.mean():.4f}) -> {base}_grid.csv"
    rows = _rows(cfg, f"oracle-{kind}", (0, 0, 1), [est], [spread], first_step=observations.shape[0] - 1)
    _write_results(base, rows, summary)
    print(message)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paramsmc", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def flag(p, name, key=None, **kw):
        """A flag that sets config key (by default its name, as argparse derives a dest), typed as the key is."""
        key = key or name[2:].replace("-", "_")
        p.add_argument(name, dest=key, type=_flag_type(key, SCHEMA[key].kind), **kw)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        flag(p, "--model", help="model name (sin, sin-bimodal, lg, slam-small, slam-large)")
        flag(p, "--seed")
        flag(p, "--out", help="output path (prefix)")
        flag(p, "--steps", help="trajectory length (transitions)")

    sim = sub.add_parser("simulate", help="draw and store a trajectory")
    common(sim)
    theta = _flag_type("--theta", [float])
    sim.add_argument("--theta", type=theta, help="comma-separated generating parameters")
    sim.set_defaults(func=cmd_simulate)

    def algorithm_flags(p):
        """Flags shared by run and sweep."""
        common(p)
        flag(p, "--algorithm", choices=[*ALGORITHMS, "pmmh"])
        flag(p, "--particles", "n_particles", help="particle count N")
        flag(p, "--approx-samples", help="moment samples M")
        flag(p, "--mixtures", "mixture_size", help="mixture components L")
        flag(p, "--scheme", choices=["gauss_hermite", "monte_carlo", "unscented"])
        flag(p, "--family", choices=["auto", "gaussian", "mixture", "discrete"])
        flag(p, "--data", help="trajectory CSV")
        flag(p, "--truth", help="comma-separated generating parameters for the error column")
        flag(p, "--exact", help="exact-posterior tables CSV for the KL column")
        flag(p, "--shrinkage")
        flag(p, "--resample", choices=list(RESAMPLERS))

    run = sub.add_parser("run", help="run one algorithm on one dataset")
    algorithm_flags(run)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="grid over N, M, seeds")
    algorithm_flags(sweep)
    flag(sweep, "--particles-list", "particles", help="comma list of N values")
    flag(sweep, "--samples-list", "approx_samples_list", help="comma list of M values")
    flag(sweep, "--seeds", help="comma list of seeds")
    flag(sweep, "--workers")
    sweep.set_defaults(func=cmd_sweep)

    oracle = sub.add_parser("oracle", help="exact/brute-force reference posterior")
    common(oracle)
    oracle.add_argument("--kind", choices=["slam-exact", "grid", "kalman"])
    flag(oracle, "--data", help="trajectory CSV")
    oracle.add_argument("--theta", type=theta, help="fixed parameters (kalman oracle; none when the model fixes theta)")
    oracle.add_argument("--grid-lo", type=float, default=-3.0)
    oracle.add_argument("--grid-hi", type=float, default=3.0)
    oracle.add_argument("--grid-points", type=int, default=121)
    oracle.set_defaults(func=cmd_oracle)

    return parser


# glibc's mallopt parameters (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


@functools.cache
def _heap_policy() -> None:
    """Fix glibc's mmap and trim thresholds for this process; a no-op where libc has no mallopt.

    glibc's thresholds are dynamic by default: freeing a large block can
    raise them, and a free top of the heap past the trim threshold is
    handed back to the kernel.  A filter step frees the same few hundred
    KB to MB of temporaries it allocated, so, left dynamic, whether each
    step trims the heap and faults the memory back in depends on the
    process's history.  With the thresholds fixed (arrays up to
    4 MiB on the heap, the top kept up to 32 MiB free), every step reuses
    the last step's memory.  This is the CLI's policy: importing the
    package or calling the engine leaves the allocator alone.
    """
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ImportError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, 4 << 20)
    mallopt(M_TRIM_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    _heap_policy()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TotalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
