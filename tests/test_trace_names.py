"""The names perfbench's tracer wraps still exist.

perfbench/spans.py looks functions, store methods and model methods up
by name when it traces a run; a rename in the package would break
`perfbench/run.py --trace 1` without failing a test here.  The module is
loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from paramsmc import cli, engine
from paramsmc.benchmarks import MODEL_BUILDERS, get_model
from paramsmc.storage import ParticleStore

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_names", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_points_exist_and_cover_the_algorithms(spans):
    traced = set()
    for mod_short, key, _ in spans.ENTRY_POINTS:
        fn = getattr(importlib.import_module(f"paramsmc.{mod_short}"), key)
        assert callable(fn), (mod_short, key)
        traced.add(fn)
    # the cli runs every filter through engine.ALGORITHMS and PMMH by name
    assert set(engine.ALGORITHMS.values()) <= traced
    assert traced - set(engine.ALGORITHMS.values()) == {engine.run_pmmh, cli.main}


def test_store_methods_are_defined_on_the_class(spans):
    for name in spans.STORE_METHODS:
        assert callable(vars(ParticleStore).get(name)), name


@pytest.mark.parametrize("model_name", sorted(MODEL_BUILDERS))
def test_model_methods_exist_on_every_bundled_model(spans, model_name):
    model = get_model(model_name)
    for name in spans.MODEL_METHODS:
        assert callable(getattr(model, name, None)), (model_name, name)


def test_layer_modules_import(spans):
    for short in spans.LAYER_MODULES:
        importlib.import_module(f"paramsmc.{short}")
