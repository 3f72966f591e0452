"""The library names that the benchmark's tracer wraps and counts, and
the calls its workloads make.

``bench/tracer.py`` replaces library attributes by name while it traces a
run.  These tests read its tables, without editing the file, so that a
renamed or deleted library name fails here rather than in a traced
benchmark run.  Likewise, each call in ``bench/workloads.py`` is bound
against its function's signature, so that a signature edit that would
break a workload fails here first.
"""

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from pnormtest import critical_values, dominant_test, harness, sample_split, test_engine

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    patch = pytest.MonkeyPatch()
    patch.syspath_prepend(str(BENCH))
    patch.delitem(sys.modules, "tracer", raising=False)
    yield importlib.import_module("tracer")
    patch.undo()


def test_every_library_span_resolves(tracer):
    spans = [(mod, attr) for mod, attr, _ in tracer.SPANS if mod.startswith("pnormtest.")]
    assert spans
    for mod, attr in spans:
        assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod}.{attr}"


def test_every_counted_class_validates_its_array_field(tracer):
    for mod, cls_name, _, array in tracer.COUNTED_CLASSES:
        cls = getattr(importlib.import_module(mod), cls_name)
        assert callable(getattr(cls, "__post_init__", None)), cls_name
        assert array in {f.name for f in dataclasses.fields(cls)}, f"{cls_name}.{array}"


def test_run_experiment_accepts_threads():
    assert "threads" in inspect.signature(harness.run_experiment).parameters


def test_names_the_bench_imports_resolve():
    # bench/workloads.py imports SCHEMA_VERSION; bench/tests swaps harness.run_tests
    assert isinstance(critical_values.SCHEMA_VERSION, int)
    assert callable(harness.run_tests)


def test_reference_norms_binds_its_counted_arguments():
    # the tracer's hook binds these parameters by name to count draws
    params = inspect.signature(critical_values._reference_norms).parameters
    assert {"ps", "d", "reps"} <= set(params)


# The calls bench/workloads.py makes, argument for argument; the values
# stand in for its data, specs and configs.
_SPEC_FIELDS = {
    "d": 200,
    "alpha_total": 0.05,
    "alpha_2": 0.05 / 6,
    "alpha_I": 0.05 * 4 / 6,
    "alpha_inf": 0.05 / 6,
    "p_grid": (3.0, 4.0, 6.0, 8.0),
    "per_p_shares": (0.05 / 6,) * 4,
}
BENCH_CALLS = {
    "split_test": (
        sample_split.split_test,
        ("data", 12),
        {"selection": "greedy", "p": 2.0, "seed": 0, "spec": "spec"},
    ),
    "run_tests": (test_engine.run_tests, ("inp", "spec"), {}),
    "calibrate_spec": (dominant_test.calibrate_spec, ("spec",), {"aux_rows": 1000}),
    "calibrate_spec with reps": (
        dominant_test.calibrate_spec, ("spec",), {"reps": 20_000, "aux_rows": 1000}
    ),
    "default_spec": (dominant_test.default_spec, (200, 0.05), {}),
    "DominantTestSpec": (dominant_test.DominantTestSpec, (), _SPEC_FIELDS),
    "run_experiment": (harness.run_experiment, ("config",), {"threads": 2}),
}


@pytest.mark.parametrize("name", list(BENCH_CALLS))
def test_bench_call_binds_to_its_signature(name):
    func, args, kwargs = BENCH_CALLS[name]
    inspect.signature(func).bind(*args, **kwargs)

