"""The library names that the benchmark's tracer wraps and counts.

``bench/tracer.py`` replaces library attributes by name while it traces a
run.  These tests read its tables, without editing the file, so that a
renamed or deleted library name fails here rather than in a traced
benchmark run.
"""

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from pnormtest import critical_values, harness

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
