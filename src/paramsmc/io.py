"""File formats: trajectory CSV, result-row CSV, and summary JSON.

All emission is deterministic given the rows (full-precision repr floats,
fixed column order), so files regenerate bit-for-bit from (config, seed);
the wall-clock column is the one documented exception.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 2


@dataclass
class ResultRow:
    """One per-timestep record of one run; the CSV schema, fixed and versioned."""

    run_id: str
    seed: int
    algorithm: str
    model: str
    n_particles: int
    approx_samples: int
    mixture_size: int
    timestep: int
    estimate: tuple
    spread: tuple
    ess: float | None
    wall_clock_ms: float
    mse: float | None
    kl: float | None


def result_header(p: int) -> list[str]:
    cols = [
        "run_id",
        "seed",
        "algorithm",
        "model",
        "n_particles",
        "approx_samples",
        "mixture_size",
        "timestep",
    ]
    cols += [f"est_{i}" for i in range(p)]
    cols += [f"var_{i}" for i in range(p)]
    cols += ["ess", "wall_clock_ms", "mse", "kl"]
    return cols


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_result_csv(path, rows: list[ResultRow]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    p = len(rows[0].estimate)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result_header(p))
        for r in rows:
            record = [
                r.run_id,
                r.seed,
                r.algorithm,
                r.model,
                r.n_particles,
                r.approx_samples,
                r.mixture_size,
                r.timestep,
                *[_fmt(float(v)) for v in r.estimate],
                *[_fmt(float(v)) for v in r.spread],
                _fmt(r.ess),
                _fmt(r.wall_clock_ms),
                _fmt(r.mse),
                _fmt(r.kl),
            ]
            writer.writerow(record)


def read_result_csv(path) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        est_cols = [c for c in header if c.startswith("est_")]
        p = len(est_cols)
        for rec in reader:
            vals = dict(zip(header, rec))
            rows.append(
                ResultRow(
                    run_id=vals["run_id"],
                    seed=int(vals["seed"]),
                    algorithm=vals["algorithm"],
                    model=vals["model"],
                    n_particles=int(vals["n_particles"]),
                    approx_samples=int(vals["approx_samples"]),
                    mixture_size=int(vals["mixture_size"]),
                    timestep=int(vals["timestep"]),
                    estimate=tuple(float(vals[f"est_{i}"]) for i in range(p)),
                    spread=tuple(float(vals[f"var_{i}"]) for i in range(p)),
                    ess=float(vals["ess"]) if vals["ess"] else None,
                    wall_clock_ms=float(vals["wall_clock_ms"]),
                    mse=float(vals["mse"]) if vals["mse"] else None,
                    kl=float(vals["kl"]) if vals["kl"] else None,
                )
            )
    return rows


def write_trajectory_csv(path, states: np.ndarray, observations: np.ndarray) -> None:
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
    d = states.shape[1]
    m = observations.shape[1]
    header = ["t"] + [f"x{i}" for i in range(d)] + [f"y{i}" for i in range(m)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(states.shape[0]):
            writer.writerow(
                [t] + [repr(float(v)) for v in states[t]] + [repr(float(v)) for v in observations[t]]
            )


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = sum(1 for c in header if c.startswith("x"))
        m = sum(1 for c in header if c.startswith("y"))
        states, obs = [], []
        for rec in reader:
            states.append([float(v) for v in rec[1 : 1 + d]])
            obs.append([float(v) for v in rec[1 + d : 1 + d + m]])
    return np.asarray(states), np.asarray(obs)


def write_tables_csv(path, tables: np.ndarray) -> None:
    """Factorized marginal tables (p, C), one dimension per row."""
    tables = np.atleast_2d(np.asarray(tables, dtype=np.float64))
    header = ["dim"] + [f"p{v}" for v in range(tables.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(tables.shape[0]):
            writer.writerow([i] + [repr(float(v)) for v in tables[i]])


def read_tables_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [[float(v) for v in rec[1:]] for rec in reader]
    return np.asarray(rows)


def write_summary_json(path, summary: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(summary)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonify)
        fh.write("\n")


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")
