"""Outside-in tracing of a `paramsmc run` call.

The tracer replaces public functions of the layer modules with timing
wrappers, in every ``paramsmc`` module (and module-level dict, such as
``engine.ALGORITHMS``) that holds the same object, so a function imported
elsewhere is still measured.  ``ParticleStore`` methods are wrapped on the
class and the model's methods on the instance the run builds.  Spans
(name, start, end, parent) are kept in memory; a span's self time is its
duration minus the time its child spans cover.
"""

import functools
import inspect
import os
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

# Layer modules whose public functions are all wrapped, as spans <module>.<function>.
LAYER_MODULES = ("approx", "resampling", "oracles", "rng", "io")
# Single entry points wrapped by name: (module, function, span name).
ENTRY_POINTS = (
    ("cli", "main", "cli.main"),
    ("engine", "run_assumed_density_filter", "engine.run"),
    ("engine", "run_bootstrap_filter", "engine.run"),
    ("engine", "run_liu_west_filter", "engine.run"),
    ("engine", "run_pmmh", "engine.run"),
)
STORE_METHODS = ("push", "window", "resample", "gather_current")
MODEL_METHODS = ("obs_logdensity", "transition_logdensity", "transition_sample")
# Kernels whose last result is a per-row ok flag.
MATCH_KERNELS = ("batch_moment_match", "batch_mixture_match", "batch_discrete_match")


def _leading_rows(result) -> int:
    """Leading dimension of a call's (first) returned array; 0 for anything else."""
    if isinstance(result, tuple):
        result = result[0]
    shape = getattr(result, "shape", ())
    return int(shape[0]) if shape else 0


class Patches:
    """Attribute and dict-entry replacements that can all be undone."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key], True))
            owner[key] = value
            return
        own = key in vars(owner)
        self._undo.append((owner, key, vars(owner).get(key), own))
        setattr(owner, key, value)

    def replace_everywhere(self, fn, replacement) -> None:
        """Swap fn wherever a paramsmc module or module-level dict holds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("paramsmc"):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, key, replacement)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            self.set(value, dkey, replacement)

    def on_model_built(self, hook) -> None:
        """Call hook(model) on every model instance get_model returns."""
        get_model = sys.modules["paramsmc.benchmarks"].get_model

        @functools.wraps(get_model)
        def hooked(*args, **kwargs):
            model = get_model(*args, **kwargs)
            hook(model)
            return model

        self.replace_everywhere(get_model, hooked)

    def restore(self) -> None:
        while self._undo:
            owner, key, original, own = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            elif own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)


class Tracer:
    """Span recorder plus the patches that feed it; use as a context manager.

    A span's rows is the leading dimension of the call's (first) returned
    array, e.g. the B distributions a batch kernel updated.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rows = array("q")
        self._stack: list[int] = []
        self.patches = Patches()
        self.ok_rows = 0
        self.attempted_rows = 0
        self.distinct: list[int] = []
        self.bytes_written: dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        short = name.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.rows.append(0)
            self._stack.append(idx)
            self.start[idx] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()
            self.rows[idx] = _leading_rows(result)
            self._observe(short, idx, args, result)
            return result

        return traced

    def _observe(self, short, idx, args, result):
        """Counts taken at the layer boundary, outside the span's own time."""
        if short in MATCH_KERNELS:
            parent = self.parent[idx]
            if parent < 0 or self.names[self.name_id[parent]].rsplit(".", 1)[-1] not in MATCH_KERNELS:
                ok = result[-1]
                self.ok_rows += int(np.count_nonzero(ok))
                self.attempted_rows += int(ok.shape[0])
        elif short == "distinct_sorted":
            self.distinct.append(int(result[0].shape[0]))
        elif short.startswith("write_") and args:
            self.bytes_written[short] += os.path.getsize(args[0])

    # -- patching ----------------------------------------------------------

    def patch_function(self, fn, name: str) -> None:
        self.patches.replace_everywhere(fn, self.wrap(name, fn))

    def patch_instance(self, obj, prefix: str) -> None:
        for meth in MODEL_METHODS:
            self.patches.set(obj, meth, self.wrap(f"{prefix}.{meth}", getattr(obj, meth)))

    def install(self) -> None:
        import paramsmc.cli  # noqa: F401  (loads every module a run uses)

        for short in LAYER_MODULES:
            module = sys.modules[f"paramsmc.{short}"]
            for key, value in list(vars(module).items()):
                if inspect.isfunction(value) and not key.startswith("_") and value.__module__ == module.__name__:
                    self.patch_function(value, f"{short}.{key}")
        for mod_short, key, name in ENTRY_POINTS:
            self.patch_function(getattr(sys.modules[f"paramsmc.{mod_short}"], key), name)
        store = sys.modules["paramsmc.storage"].ParticleStore
        for meth in STORE_METHODS:
            self.patches.set(store, meth, self.wrap(f"storage.ParticleStore.{meth}", vars(store)[meth]))
        self.patches.on_model_built(lambda model: self.patch_instance(model, "benchmarks.model"))

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.patches.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.patches.restore()
        return False

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span self time in seconds: duration minus direct children's durations."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        return own

    def stats(self) -> dict:
        """name -> {calls, self_ms, rows} over every recorded span."""
        own = self.self_times()
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        rows = np.frombuffer(self.rows, dtype=np.int64)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_ms = np.bincount(ids, weights=own, minlength=k) * 1e3
        row_sum = np.bincount(ids, weights=rows, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_ms": float(self_ms[i]), "rows": int(row_sum[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


class MemorySampler:
    """tracemalloc current size, sampled at each model-layer call of a run.

    Samples go to a buffer allocated before tracing starts, so recording
    them does not itself show up as growth.  Calls beyond its capacity are
    not sampled.
    """

    def __init__(self, capacity: int):
        self.samples = np.zeros(capacity, dtype=np.int64)
        self.count = 0
        self.peak = 0
        self.patches = Patches()

    def _sampled(self, fn):
        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            if self.count < self.samples.size:
                self.samples[self.count] = tracemalloc.get_traced_memory()[0]
                self.count += 1
            return fn(*args, **kwargs)

        return sampled

    def _patch_model(self, model) -> None:
        for meth in MODEL_METHODS:
            self.patches.set(model, meth, self._sampled(getattr(model, meth)))

    def __enter__(self):
        import paramsmc.cli  # noqa: F401

        self.patches.on_model_built(self._patch_model)
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        self.patches.restore()
        return False

    def steady_growth_kb(self) -> float:
        """Mean traced size over the last tenth of samples minus the first tenth."""
        s = self.samples[: self.count].astype(np.float64)
        tenth = s.size // 10
        if tenth == 0:
            return 0.0
        return float((s[-tenth:].mean() - s[:tenth].mean()) / 1024.0)
