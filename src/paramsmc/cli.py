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
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import rng as streams
from .approx import MomentScheme
from .benchmarks import SlamModel, default_true_params, get_model
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

RUN_KEYS = {
    "model",
    "model_overrides",
    "algorithm",
    "n_particles",
    "approx_samples",
    "mixture_size",
    "scheme",
    "family",
    "seed",
    "seeds",
    "data",
    "data_seed",
    "steps",
    "true_params",
    "truth",
    "exact",
    "out",
    "resample",
    "shrinkage",
    "time_budget_s",
    "pmmh",
    "workers",
    "particles",
    "approx_samples_list",
}

# Converters for the pmmh keys a config may give; PmmhConfig holds their defaults.
PMMH_CASTS = {"iterations": int, "proposal_sd": float, "bounds": tuple}
PMMH_KEYS = {"inner_particles", *PMMH_CASTS}

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


def load_config(path: str | None) -> dict:
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
    if "pmmh" in cfg:
        bad = set(cfg["pmmh"]) - PMMH_KEYS
        if bad:
            raise ConfigError(f"unknown pmmh keys: {sorted(bad)}")
    return cfg


def merged_config(args, file_cfg: dict) -> dict:
    cfg = dict(DEFAULTS)
    cfg.update(file_cfg)
    overrides = {
        "model": args.model,
        "algorithm": getattr(args, "algorithm", None),
        "n_particles": getattr(args, "particles", None),
        "approx_samples": getattr(args, "approx_samples", None),
        "mixture_size": getattr(args, "mixtures", None),
        "scheme": getattr(args, "scheme", None),
        "family": getattr(args, "family", None),
        "seed": getattr(args, "seed", None),
        "data": getattr(args, "data", None),
        "steps": getattr(args, "steps", None),
        "out": getattr(args, "out", None),
        "truth": _parse_vector(getattr(args, "truth", None)),
        "exact": getattr(args, "exact", None),
        "shrinkage": getattr(args, "shrinkage", None),
        "time_budget_s": getattr(args, "budget", None),
        "resample": getattr(args, "resample", None),
    }
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    if "model" not in cfg or cfg.get("model") is None:
        raise ConfigError("a model name is required (--model or config file)")
    return cfg


def _parse_vector(text):
    if text is None:
        return None
    return [float(v) for v in str(text).split(",") if v != ""]


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_id(cfg: dict) -> str:
    """Hash of the semantic config.

    Where the outputs go and how many workers run a sweep do not change a
    run, so out and workers are left out; the data and exact input files
    count by their sha256 digest, not by their path.
    """
    semantic = {k: v for k, v in cfg.items() if k not in ("out", "workers")}
    for key in ("data", "exact"):
        if semantic.get(key):
            semantic[key] = _file_sha256(semantic[key])
    canon = json.dumps(semantic, sort_keys=True, default=str)
    return hashlib.sha1(canon.encode()).hexdigest()[:12]


def _build_model(cfg: dict):
    return get_model(cfg["model"], **cfg.get("model_overrides", {}))


def _resolve_data(cfg: dict, model) -> np.ndarray:
    if cfg.get("data"):
        _, obs = read_trajectory_csv(cfg["data"])
        return obs
    if cfg.get("data_seed") is not None:
        theta = cfg.get("true_params")
        theta = (
            np.asarray(theta, dtype=np.float64)
            if theta is not None
            else default_true_params(cfg["model"], model)
        )
        steps = cfg.get("steps")
        if steps is None:
            if isinstance(model, SlamModel):
                steps = model.n_steps()
            else:
                raise ConfigError("steps is required when simulating data in memory")
        rng = substream(int(cfg["data_seed"]), streams.DATA)
        _, obs = simulate(model, theta, int(steps), rng)
        return obs
    raise ConfigError("no dataset: give data (trajectory CSV) or data_seed")


def _scheme_from(cfg: dict) -> MomentScheme:
    try:
        return MomentScheme(kind=cfg["scheme"], m=int(cfg["approx_samples"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_experiment(cfg: dict) -> tuple[list[ResultRow], dict]:
    """Execute one (algorithm, dataset, seed) cell; pure given the config."""
    model = _build_model(cfg)
    observations = _resolve_data(cfg, model)
    algorithm = cfg["algorithm"]
    run_id = _run_id(cfg)
    seed = int(cfg["seed"])
    truth = cfg.get("truth")
    p = model.dims()[0]

    if algorithm == "pmmh":
        pm = cfg.get("pmmh", {})
        pconfig = PmmhConfig(
            inner_particles=int(pm.get("inner_particles", cfg["n_particles"])),
            seed=seed,
            time_budget_s=cfg.get("time_budget_s"),
            **{key: cast(pm[key]) for key, cast in PMMH_CASTS.items() if key in pm},
        )
        result = run_pmmh(model, observations, pconfig)
        rows = _pmmh_rows(cfg, run_id, p, pconfig.inner_particles, result)
        summary = {
            "run_id": run_id,
            "config": cfg,
            "algorithm": algorithm,
            "estimate": result.estimate,
            "acceptance_rate": result.acceptance_rate,
            "iterations": result.n_iterations,
            "elapsed_s": result.elapsed_s,
            "rejected_nonfinite": result.rejected_nonfinite,
        }
        if truth is not None:
            sq = float(np.sum((result.estimate - np.asarray(truth)) ** 2))
            rows[-1].mse = sq
            summary["squared_error"] = sq
        if cfg.get("exact") and model.param_kind == "discrete":
            exact_tables = read_tables_csv(cfg["exact"])
            kl = kl_factorized(result.posterior_tables(model.param_cardinalities), exact_tables)
            rows[-1].kl = kl
            summary["kl"] = kl
        return rows, summary

    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    fconfig = FilterConfig(
        n_particles=int(cfg["n_particles"]),
        scheme=_scheme_from(cfg),
        family=cfg["family"],
        mixture_size=int(cfg["mixture_size"]),
        seed=seed,
        resample=cfg["resample"],
        shrinkage=float(cfg["shrinkage"]),
    )
    result = ALGORITHMS[algorithm](model, observations, fconfig)

    rows = []
    for t in range(result.n_steps):
        rows.append(
            ResultRow(
                run_id=run_id,
                seed=seed,
                algorithm=algorithm,
                model=cfg["model"],
                n_particles=result.n_particles,
                approx_samples=result.approx_samples,
                mixture_size=result.mixture_size,
                timestep=t,
                estimate=tuple(result.param_mean[t]),
                spread=tuple(np.diag(result.param_cov[t])),
                ess=float(result.ess[t]),
                wall_clock_ms=float(result.step_ms[t]),
                mse=None,
                kl=None,
            )
        )
    summary = {
        "run_id": run_id,
        "config": cfg,
        "algorithm": algorithm,
        "estimate": result.estimate,
        "log_marginal_lik": result.log_marginal_lik,
        "elapsed_s": result.elapsed_s,
        "notes": result.notes,
    }
    if result.fused.kind == "mixture":
        summary["fused"] = {
            "weights": result.fused.mixture_weights,
            "means": result.fused.mixture_means,
            "covs": result.fused.mixture_covs,
        }
    elif result.fused.kind == "tables":
        summary["fused_tables"] = result.fused.tables
    if truth is not None and p > 0:
        sq = float(np.sum((result.estimate - np.asarray(truth)) ** 2))
        rows[-1].mse = sq
        summary["squared_error"] = sq
    if cfg.get("exact") and result.fused.kind == "tables":
        exact_tables = read_tables_csv(cfg["exact"])
        kl = kl_factorized(result.fused.tables, exact_tables)
        rows[-1].kl = kl
        summary["kl"] = kl
    return rows, summary


def _pmmh_rows(cfg, run_id, p, inner_particles, result) -> list[ResultRow]:
    per_iter_ms = result.elapsed_s * 1e3 / max(1, result.chain.shape[0])
    rows = []
    for t in range(result.chain.shape[0]):
        rows.append(
            ResultRow(
                run_id=run_id,
                seed=int(cfg["seed"]),
                algorithm="pmmh",
                model=cfg["model"],
                n_particles=inner_particles,
                approx_samples=0,
                mixture_size=1,
                timestep=t,
                estimate=tuple(result.chain[t]),
                spread=tuple(np.zeros(p)),
                ess=None,
                wall_clock_ms=per_iter_ms,
                mse=None,
                kl=None,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = merged_config(args, load_config(args.config))
    model = _build_model(cfg)
    theta = (
        np.asarray(_parse_vector(args.theta), dtype=np.float64)
        if args.theta
        else default_true_params(cfg["model"], model)
    )
    steps = cfg.get("steps")
    if steps is None:
        if isinstance(model, SlamModel):
            steps = model.n_steps()
        else:
            raise ConfigError("--steps is required for this model")
    rng = substream(int(cfg["seed"]), streams.DATA)
    states, obs = simulate(model, theta, int(steps), rng)
    out = cfg.get("out") or "trajectory.csv"
    write_trajectory_csv(out, states, obs)
    print(f"wrote {states.shape[0]} rows to {out}")
    return 0


def _out_paths(cfg: dict) -> tuple[str, str]:
    out = cfg.get("out") or "result"
    base = out[:-4] if out.endswith(".csv") else out
    return base + ".csv", base + ".json"


def cmd_run(args) -> int:
    cfg = merged_config(args, load_config(args.config))
    rows, summary = run_experiment(cfg)
    csv_path, json_path = _out_paths(cfg)
    write_result_csv(csv_path, rows)
    write_summary_json(json_path, summary)
    est = ", ".join(f"{v:.6g}" for v in np.atleast_1d(summary["estimate"]))
    print(f"{cfg['algorithm']} on {cfg['model']}: estimate [{est}] -> {csv_path}")
    return 0


def _sweep_cells(cfg: dict) -> list[dict]:
    particles = cfg.get("particles") or [cfg["n_particles"]]
    samples = cfg.get("approx_samples_list") or [cfg["approx_samples"]]
    seeds = cfg.get("seeds") or [cfg["seed"]]
    cells = []
    for n in particles:
        for m in samples:
            for s in seeds:
                cell = {k: v for k, v in cfg.items() if k not in ("particles", "approx_samples_list", "seeds", "workers")}
                cell["n_particles"] = int(n)
                cell["approx_samples"] = int(m)
                cell["seed"] = int(s)
                cells.append(cell)
    return cells


def cmd_sweep(args) -> int:
    file_cfg = load_config(args.config)
    cfg = merged_config(args, file_cfg)
    if args.particles_list:
        cfg["particles"] = [int(v) for v in args.particles_list.split(",")]
    if args.samples_list:
        cfg["approx_samples_list"] = [int(v) for v in args.samples_list.split(",")]
    if args.seeds:
        cfg["seeds"] = [int(v) for v in args.seeds.split(",")]
    cells = _sweep_cells(cfg)
    workers = int(args.workers or cfg.get("workers") or min(len(cells), os.cpu_count() or 1))
    results = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_experiment, cells))
    else:
        results = [run_experiment(c) for c in cells]
    all_rows = []
    summaries = []
    for rows, summary in results:
        all_rows.extend(rows)
        summaries.append(summary)
    csv_path, json_path = _out_paths(cfg)
    write_result_csv(csv_path, all_rows)
    write_summary_json(json_path, {"runs": summaries})
    print(f"sweep of {len(cells)} cells -> {csv_path}")
    return 0


def cmd_oracle(args) -> int:
    cfg = merged_config(args, load_config(args.config))
    model = _build_model(cfg)
    kind = args.kind
    if kind is None:
        kind = "slam-exact" if isinstance(model, SlamModel) else "grid"
    out = cfg.get("out") or "oracle"
    base = out[:-4] if out.endswith(".csv") else out

    if kind == "slam-exact":
        observations = _resolve_data(cfg, model)
        post = slam_exact_forward(model, observations)
        write_tables_csv(base + "_tables.csv", post.map_marginals)
        values = np.arange(post.map_marginals.shape[1])
        est = post.map_marginals @ values
        spread = post.map_marginals @ (values * values) - est * est
        write_result_csv(
            base + ".csv",
            [_oracle_row(cfg, model, kind, observations.shape[0] - 1, est, spread)],
        )
        write_summary_json(
            base + ".json",
            {
                "kind": kind,
                "map_marginals": post.map_marginals,
                "location_marginal": post.location_marginal,
                "log_evidence": post.log_evidence,
            },
        )
        print(f"exact posterior -> {base}_tables.csv")
        return 0

    if kind == "grid":
        observations = _resolve_data(cfg, model)
        grid = np.linspace(args.grid_lo, args.grid_hi, args.grid_points)
        likelihood = "exact" if cfg["model"] == "lg" else "pf"
        post = grid_posterior(
            model,
            observations,
            grid,
            likelihood=likelihood,
            n_particles=int(args.pf_particles),
            n_replications=int(args.pf_reps),
            seed=int(cfg["seed"]),
        )
        with open(base + "_grid.csv", "w") as fh:
            fh.write("theta,mass\n")
            for g, mass in zip(post.grid, post.masses):
                fh.write(f"{g!r},{mass!r}\n")
        write_result_csv(
            base + ".csv",
            [
                _oracle_row(
                    cfg,
                    model,
                    kind,
                    observations.shape[0] - 1,
                    np.array([post.mean()]),
                    np.array([post.variance()]),
                )
            ],
        )
        write_summary_json(
            base + ".json",
            {"kind": kind, "mean": post.mean(), "variance": post.variance(), "mode": post.mode()},
        )
        print(f"grid posterior (mean {post.mean():.4f}) -> {base}_grid.csv")
        return 0

    if kind == "kalman":
        observations = _resolve_data(cfg, model)
        theta = _parse_vector(args.theta)
        if theta is None:
            raise ConfigError("kalman oracle needs --theta")
        res = kalman_filter(model, theta[0], observations)
        with open(base + "_kalman.csv", "w") as fh:
            fh.write("t,mean,variance\n")
            for t in range(res.means.shape[0]):
                fh.write(f"{t},{res.means[t]!r},{res.variances[t]!r}\n")
        write_summary_json(base + ".json", {"kind": kind, "log_likelihood": res.log_likelihood})
        print(f"kalman filter loglik {res.log_likelihood:.4f} -> {base}_kalman.csv")
        return 0

    raise ConfigError(f"unknown oracle kind {kind!r}")


def _oracle_row(cfg, model, kind, timestep, estimate, spread) -> ResultRow:
    """Reference posteriors reuse the run-row schema so files diff cleanly."""
    return ResultRow(
        run_id=_run_id(cfg),
        seed=int(cfg["seed"]),
        algorithm=f"oracle-{kind}",
        model=cfg["model"],
        n_particles=0,
        approx_samples=0,
        mixture_size=1,
        timestep=int(timestep),
        estimate=tuple(np.atleast_1d(estimate)),
        spread=tuple(np.atleast_1d(spread)),
        ess=None,
        wall_clock_ms=0.0,
        mse=None,
        kl=None,
    )


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
    sim.add_argument("--theta", help="comma-separated generating parameters")
    sim.set_defaults(func=cmd_simulate)

    def algorithm_flags(p):
        """Flags shared by run and sweep."""
        common(p)
        p.add_argument("--algorithm", choices=[*ALGORITHMS, "pmmh"])
        p.add_argument("--particles", type=int, help="particle count N")
        p.add_argument("--approx-samples", dest="approx_samples", type=int, help="moment samples M")
        p.add_argument("--mixtures", type=int, help="mixture components L")
        p.add_argument("--scheme", choices=["gauss_hermite", "monte_carlo", "unscented"])
        p.add_argument("--family", choices=["auto", "gaussian", "mixture", "discrete"])
        p.add_argument("--data", help="trajectory CSV")
        p.add_argument("--truth", help="comma-separated generating parameters for the error column")
        p.add_argument("--exact", help="exact-posterior tables CSV for the KL column")
        p.add_argument("--shrinkage", type=float)
        p.add_argument("--resample", choices=list(RESAMPLERS))
        p.add_argument("--budget", type=float, help="wall-clock budget in seconds (pmmh only)")

    run = sub.add_parser("run", help="run one algorithm on one dataset")
    algorithm_flags(run)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="grid over N, M, seeds")
    algorithm_flags(sweep)
    sweep.add_argument("--particles-list", dest="particles_list", help="comma list of N values")
    sweep.add_argument("--samples-list", dest="samples_list", help="comma list of M values")
    sweep.add_argument("--seeds", help="comma list of seeds")
    sweep.add_argument("--workers", type=int)
    sweep.set_defaults(func=cmd_sweep)

    oracle = sub.add_parser("oracle", help="exact/brute-force reference posterior")
    common(oracle)
    oracle.add_argument("--kind", choices=["slam-exact", "grid", "kalman"])
    oracle.add_argument("--data", help="trajectory CSV")
    oracle.add_argument("--theta", help="fixed parameters (kalman oracle)")
    oracle.add_argument("--grid-lo", type=float, default=-3.0)
    oracle.add_argument("--grid-hi", type=float, default=3.0)
    oracle.add_argument("--grid-points", type=int, default=121)
    oracle.add_argument("--pf-particles", type=int, default=10_000)
    oracle.add_argument("--pf-reps", type=int, default=20)
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
