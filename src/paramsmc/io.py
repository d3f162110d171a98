"""File formats: trajectory CSV, result-row CSV, and summary JSON.

All emission is deterministic given the rows (full-precision repr floats,
fixed column order), so files regenerate bit-for-bit from (config, seed);
the wall-clock column is the one documented exception.
"""

import csv
import itertools
import json
import re
from collections.abc import Iterable
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


def write_result_csv(path, rows: Iterable[ResultRow]) -> None:
    """Write rows as they come: a generator's rows are never all held."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result_header(len(first.estimate)))
        for r in itertools.chain([first], rows):
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
    """Write summary and its schema_version as json.dump(indent=2, sort_keys=True) would, plus a newline.

    An array writes as its tolist() and a numpy scalar as its item().
    json writes the summary with a placeholder for each array, and each
    array's text is spliced in at its placeholder ARRAY_BLOCK elements at
    a time, so neither its nested lists nor its whole text is ever held.
    A value this cannot write raises TypeError, and a str that reads as
    a placeholder ValueError, before the file is opened.
    """
    arrays = []
    skeleton = _skeleton({"schema_version": SCHEMA_VERSION, **summary}, arrays)
    pieces = _PLACEHOLDER.split(json.dumps(skeleton, indent=2, sort_keys=True))
    if sorted(map(int, pieces[1::2])) != list(range(len(arrays))):
        raise ValueError("a string in the summary reads as an array placeholder")
    with open(path, "w") as fh:
        for before, index in zip(pieces[0::2], pieces[1::2]):
            line = before[before.rfind("\n") + 1 :]
            fh.write(before)
            fh.writelines(_array_chunks(arrays[int(index)], (len(line) - len(line.lstrip(" "))) // 2))
        fh.write(pieces[-1] + "\n")


# Array elements converted and formatted per write_summary_json chunk.
ARRAY_BLOCK = 1024
_INDENT = "  "
# An array's placeholder string, as json writes it.
_PLACEHOLDER = re.compile(r'"\\u0000ndarray (\d+)\\u0000"')


def _skeleton(obj, arrays: list):
    """obj with each array appended to arrays and replaced by its placeholder, and each numpy scalar by its item()."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "biuf":
            raise TypeError(f"cannot serialize an array of {obj.dtype}")
        arrays.append(obj)
        return f"\x00ndarray {len(arrays) - 1}\x00"
    if isinstance(obj, dict):
        return {key: _skeleton(value, arrays) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_skeleton(value, arrays) for value in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _array_chunks(a: np.ndarray, level: int):
    """The text of a.tolist() at this nesting level, a block of leading rows at a time."""
    if a.ndim == 0:
        yield _leaf_texts(a)[0]
        return
    if a.shape[0] == 0:
        yield "[]"
        return
    row_size = a.size // a.shape[0]
    inner = "\n" + _INDENT * (level + 1)
    if row_size > ARRAY_BLOCK:
        for i, row in enumerate(a):
            yield ("," if i else "[") + inner
            yield from _array_chunks(row, level + 1)
    else:
        row = _template(a.shape[1:], level + 1)
        step = ARRAY_BLOCK // max(row_size, 1)
        for start in range(0, a.shape[0], step):
            block = a[start : start + step]
            yield ("," if start else "[") + inner
            yield ("," + inner).join([row] * block.shape[0]) % tuple(_leaf_texts(block))
    yield "\n" + _INDENT * level + "]"


def _template(shape: tuple, level: int) -> str:
    """The text of an array of this shape at this level, with %s for each element."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    inner = "\n" + _INDENT * (level + 1)
    rows = ("," + inner).join([_template(shape[1:], level + 1)] * shape[0])
    return "[" + inner + rows + "\n" + _INDENT * level + "]"


def _leaf_texts(a: np.ndarray) -> list[str]:
    """The JSON text of each element of a, in C order."""
    if a.dtype.kind == "b":
        return ["true" if v else "false" for v in a.ravel().tolist()]
    if a.dtype.kind in "iu":
        return list(map(int.__repr__, a.ravel().tolist()))
    values = a.astype(np.float64, copy=False).ravel().tolist()
    if np.isfinite(a).all():
        return list(map(float.__repr__, values))
    return list(map(json.dumps, values))
