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
import hashlib
import itertools
import json
import numbers
import os
import sys
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

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

# The lists a sweep's cells range over, each with the key a cell sets from it.
SWEEP_AXES = {"particles": "n_particles", "approx_samples_list": "approx_samples", "seeds": "seed"}
# Keys only sweep reads: its lists and its worker count.
SWEEP_KEYS = {*SWEEP_AXES, "workers"}
# Keys only PMMH reads, and keys only the filters read.
PMMH_ONLY_KEYS = {"pmmh", "time_budget_s"}
FILTER_ONLY_KEYS = {
    "approx_samples", "approx_samples_list", "scheme", "family", "mixture_size", "resample", "shrinkage"
}
# Every key a config may give.
RUN_KEYS = {
    *("model", "model_overrides", "algorithm", "n_particles", "seed", "out"),
    *("data", "data_seed", "steps", "true_params", "truth", "exact"),
    *SWEEP_KEYS,
    *PMMH_ONLY_KEYS,
    *FILTER_ONLY_KEYS,
}

# The type of each pmmh key a config may give (see _number); PmmhConfig holds their defaults.
PMMH_KEYS = {"inner_particles": int, "iterations": int, "proposal_sd": float, "bounds": [float]}

_FILTER_DEFAULTS = FilterConfig(n_particles=1000)
DEFAULTS = {
    "algorithm": "api",
    "n_particles": _FILTER_DEFAULTS.n_particles,
    "approx_samples": _FILTER_DEFAULTS.scheme.m,
    "scheme": _FILTER_DEFAULTS.scheme.kind,
    "mixture_size": _FILTER_DEFAULTS.mixture_size,
    "family": _FILTER_DEFAULTS.family,
    "seed": _FILTER_DEFAULTS.seed,
    "resample": _FILTER_DEFAULTS.resample,
    "shrinkage": _FILTER_DEFAULTS.shrinkage,
    "model_overrides": {},
    "pmmh": {},
}


def load_config(path: str | None, verb: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    unknown = set(cfg) - RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sweep_only = set(cfg) & SWEEP_KEYS
    if sweep_only and verb != "sweep":
        raise ConfigError(f"config keys {sorted(sweep_only)} are read by sweep only")
    pmmh = cfg.get("pmmh", {})
    if not isinstance(pmmh, dict):
        raise ConfigError(f"pmmh must be an object of PMMH settings, got {pmmh!r}")
    bad = set(pmmh) - set(PMMH_KEYS)
    if bad:
        raise ConfigError(f"unknown pmmh keys: {sorted(bad)}")
    return cfg


def merged_config(args) -> dict:
    """Defaults, then the config file, then every flag given: each flag's dest is its key.

    Under run and sweep, a key the chosen algorithm never reads is an error.
    """
    given = load_config(args.config, args.verb)
    given.update({k: v for k, v in vars(args).items() if k in RUN_KEYS and v is not None})
    cfg = {**DEFAULTS, **given}
    if cfg.get("model") is None:
        raise ConfigError("a model name is required (--model or config file)")
    if args.verb in ("run", "sweep"):
        unread = set(given) & (FILTER_ONLY_KEYS if cfg["algorithm"] == "pmmh" else PMMH_ONLY_KEYS)
        if unread:
            raise ConfigError(f"config keys {sorted(unread)} are not read by algorithm {cfg['algorithm']!r}")
    for key in ("data", "exact"):
        if cfg.get(key) and not os.path.isfile(cfg[key]):
            raise ConfigError(f"{key} file {cfg[key]} not found")
    return cfg


def _number(key: str, value, kind):
    """value as kind, or a ConfigError naming key.

    kind is int, float, or [int] or [float] for a list of them, returned as
    a tuple.  A bool or a string is not a number, and an int is integral.
    """
    if isinstance(kind, list):
        if isinstance(value, (list, tuple)):
            return tuple(_number(key, v, kind[0]) for v in value)
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        if kind is float or isinstance(value, numbers.Integral) or float(value).is_integer():
            return kind(value)
    noun = "a list" if isinstance(kind, list) else "an integer" if kind is int else "a number"
    raise ConfigError(f"{key} must be {noun}, got {value!r}")


def _parse_vector(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


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
    overrides = cfg.get("model_overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError(f"model_overrides must be an object of model settings, got {overrides!r}")
    return get_model(cfg["model"], **overrides)


def _simulate(cfg: dict, model, theta, seed_key: str) -> tuple[np.ndarray, np.ndarray]:
    """A trajectory from the DATA substream of cfg[seed_key].

    theta defaults to the model's generating parameters and steps to a
    SLAM model's action count.
    """
    if theta is None:
        theta = default_true_params(cfg["model"], model)
    else:
        theta = np.asarray(_number("true_params", theta, [float]))
    if theta.shape != (model.dims()[0],):
        raise ConfigError(f"generating parameters need {model.dims()[0]} values, got {theta.size}")
    steps = cfg.get("steps")
    if steps is None:
        if not isinstance(model, SlamModel):
            raise ConfigError("steps is required for this model")
        steps = model.n_steps()
    steps = _number("steps", steps, int)
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    rng = substream(_number(seed_key, cfg[seed_key], int), streams.DATA)
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
    run_id, seed = _run_id(cfg), _number("seed", cfg["seed"], int)
    last = len(estimates) - 1
    for t, (estimate, spread) in enumerate(zip(estimates, spreads)):
        yield ResultRow(
            run_id=run_id,
            seed=seed,
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
    algorithm = cfg["algorithm"]
    seed = _number("seed", cfg["seed"], int)
    truth = None if cfg.get("truth") is None else _number("truth", cfg["truth"], [float])
    p = model.dims()[0]
    if truth is not None and len(truth) != p:
        raise ConfigError(f"truth has {len(truth)} values but the model has {p} parameters")

    if algorithm == "pmmh":
        budget = cfg.get("time_budget_s")
        pm = {"inner_particles": _number("n_particles", cfg["n_particles"], int), **cfg.get("pmmh", {})}
        pconfig = PmmhConfig(
            seed=seed,
            time_budget_s=None if budget is None else _number("time_budget_s", budget, float),
            **{key: _number(f"pmmh.{key}", value, PMMH_KEYS[key]) for key, value in pm.items()},
        )
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
            scheme = MomentScheme(kind=cfg["scheme"], m=_number("approx_samples", cfg["approx_samples"], int))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        fconfig = FilterConfig(
            n_particles=_number("n_particles", cfg["n_particles"], int),
            scheme=scheme,
            family=cfg["family"],
            mixture_size=_number("mixture_size", cfg["mixture_size"], int),
            seed=seed,
            resample=cfg["resample"],
            shrinkage=_number("shrinkage", cfg["shrinkage"], float),
        )
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
    cell = {k: v for k, v in cfg.items() if k not in SWEEP_KEYS}
    axes = [
        _number(many, cfg[many], [int]) if cfg.get(many) else [_number(one, cfg[one], int)]
        for many, one in SWEEP_AXES.items()
    ]
    return [{**cell, **dict(zip(SWEEP_AXES.values(), values))} for values in itertools.product(*axes)]


def cmd_sweep(args) -> int:
    cfg = merged_config(args)
    cells = _sweep_cells(cfg)
    workers = _number("workers", cfg.get("workers") or min(len(cells), os.cpu_count() or 1), int)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--model", help="model name (sin, sin-bimodal, lg, slam-small, slam-large)")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path (prefix)")
        p.add_argument("--steps", type=int, help="trajectory length (transitions)")

    sim = sub.add_parser("simulate", help="draw and store a trajectory")
    common(sim)
    sim.add_argument("--theta", type=_parse_vector, help="comma-separated generating parameters")
    sim.set_defaults(func=cmd_simulate)

    def algorithm_flags(p):
        """Flags shared by run and sweep."""
        common(p)
        p.add_argument("--algorithm", choices=[*ALGORITHMS, "pmmh"])
        p.add_argument("--particles", dest="n_particles", type=int, help="particle count N")
        p.add_argument("--approx-samples", dest="approx_samples", type=int, help="moment samples M")
        p.add_argument("--mixtures", dest="mixture_size", type=int, help="mixture components L")
        p.add_argument("--scheme", choices=["gauss_hermite", "monte_carlo", "unscented"])
        p.add_argument("--family", choices=["auto", "gaussian", "mixture", "discrete"])
        p.add_argument("--data", help="trajectory CSV")
        p.add_argument(
            "--truth", type=_parse_vector, help="comma-separated generating parameters for the error column"
        )
        p.add_argument("--exact", help="exact-posterior tables CSV for the KL column")
        p.add_argument("--shrinkage", type=float)
        p.add_argument("--resample", choices=list(RESAMPLERS))
        p.add_argument(
            "--budget", dest="time_budget_s", type=float, help="wall-clock budget in seconds (pmmh only)"
        )

    run = sub.add_parser("run", help="run one algorithm on one dataset")
    algorithm_flags(run)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="grid over N, M, seeds")
    algorithm_flags(sweep)
    sweep.add_argument("--particles-list", dest="particles", type=_parse_ints, help="comma list of N values")
    sweep.add_argument(
        "--samples-list", dest="approx_samples_list", type=_parse_ints, help="comma list of M values"
    )
    sweep.add_argument("--seeds", type=_parse_ints, help="comma list of seeds")
    sweep.add_argument("--workers", type=int)
    sweep.set_defaults(func=cmd_sweep)

    oracle = sub.add_parser("oracle", help="exact/brute-force reference posterior")
    common(oracle)
    oracle.add_argument("--kind", choices=["slam-exact", "grid", "kalman"])
    oracle.add_argument("--data", help="trajectory CSV")
    oracle.add_argument(
        "--theta", type=_parse_vector, help="fixed parameters (kalman oracle; none when the model fixes theta)"
    )
    oracle.add_argument("--grid-lo", type=float, default=-3.0)
    oracle.add_argument("--grid-hi", type=float, default=3.0)
    oracle.add_argument("--grid-points", type=int, default=121)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
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
