"""Span tracer that wraps library calls from outside the package.

While installed, the tracer replaces module attributes with wrappers in
every namespace where the library looks them up (for example both
``test_engine.run_tests`` and ``harness.run_tests``), so no file under
``src/`` changes.  Each wrapper records a span: name, thread, start, end
and self time, where self time is the span's duration minus the time its
child spans on the same thread cover.  Each thread keeps its own parent
stack, so replications on harness worker threads are root spans of their
thread.  ``__post_init__`` of the two validating dataclasses and the
numpy eigensolvers are counted, not timed, so their cost stays in the
self time of the layer that calls them.  Events stay in memory until the
caller reads them; ``uninstall`` restores every replaced attribute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

import numpy

# (module, attribute, span name).  The two private kernels are the only
# place where reference draws (L0) and reference p-norms (L1) separate.
SPANS = (
    ("pnormtest.critical_values", "_reference_norms", "critical_values.reference_norms"),
    ("pnormtest.critical_values", "_batch_pnorms", "critical_values.batch_pnorms"),
    ("pnormtest.critical_values", "calibrate_joint", "critical_values.calibrate_joint"),
    ("pnormtest.dominant_test", "calibrate_spec", "dominant_test.calibrate_spec"),
    ("pnormtest.dominant_test", "evaluate_psi", "dominant_test.evaluate_psi"),
    ("pnormtest.covariance", "difference_pairs", "covariance.difference_pairs"),
    ("pnormtest.covariance", "sample_cov", "covariance.sample_cov"),
    ("pnormtest.covariance", "truncated_cov", "covariance.truncated_cov"),
    ("pnormtest.covariance", "kurtosis_diagnostic", "covariance.kurtosis_diagnostic"),
    ("pnormtest.matrix_core", "pinv_sqrt", "matrix_core.pinv_sqrt"),
    ("pnormtest.test_engine", "standardize", "test_engine.standardize"),
    ("pnormtest.test_engine", "prepare_standardized", "test_engine.prepare_standardized"),
    ("pnormtest.test_engine", "run_tests", "test_engine.run_tests"),
    ("pnormtest.test_engine", "p_norm_stat", "test_engine.p_norm_stat"),
    ("pnormtest.sample_split", "select_greedy", "sample_split.select_greedy"),
    ("pnormtest.sample_split", "split_test", "sample_split.split_test"),
    ("pnormtest.dgp", "gen_iv", "dgp.gen_iv"),
    ("pnormtest.harness", "run_experiment", "harness.run_experiment"),
    # the benchmark's own report step for `simulate`, as the CLI builds it
    ("workloads", "simulation_report_json", "harness.report_json"),
)

# (module, class, count name, array field): constructions, and MB validated
# and copied into the array field
COUNTED_CLASSES = (
    ("pnormtest.covariance", "MomentSample", "covariance.MomentSample", "values"),
    ("pnormtest.matrix_core", "SymMatrix", "matrix_core.SymMatrix", "entries"),
)

COUNTED_EIG = ("eigh", "eigvalsh")

# figures of layer_metrics that are counts or sizes, not times or ratios
COUNTS = (
    "critical_values.normals_drawn",
    "critical_values.norm_matrix_mb",
    "dominant_test.calibrate_spec.calls",
    "test_engine.p_norm_stat.calls",
    "covariance.MomentSample.count",
    "covariance.MomentSample.mb",
    "matrix_core.SymMatrix.count",
    "matrix_core.SymMatrix.mb",
    "linalg.eig_calls_per_test",
)


class Tracer:
    """Records spans and counts while installed; use as a context manager."""

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "pnormtest" or name.startswith("pnormtest.") or name == "workloads"
        ]
        for modname, attr, span in SPANS:
            original = getattr(sys.modules[modname], attr)
            hook = self._reference_norm_counts(original) if attr == "_reference_norms" else None
            wrapper = self._span(original, span, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._swap(ns, key, wrapper)
        for modname, cls_name, name, array in COUNTED_CLASSES:
            cls = getattr(sys.modules[modname], cls_name)
            self._swap(cls, "__post_init__", self._counted_init(cls.__post_init__, name, array))
        for attr in COUNTED_EIG:
            self._swap(numpy.linalg, attr, self._counted_call(getattr(numpy.linalg, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _swap(self, owner, key: str, replacement) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, replacement)

    def _span(self, fn, name: str, hook=None):
        events, local = self.events, self._local
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            stack = local.__dict__.setdefault("stack", [])
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                events.append(("span", name, ident(), t0, t1, t1 - t0 - frame[0]))

        return wrapper

    def _reference_norm_counts(self, fn):
        signature, events = inspect.signature(fn), self.events

        def hook(args, kwargs):
            call = signature.bind(*args, **kwargs).arguments
            reps, d, n_ps = int(call["reps"]), int(call["d"]), len(call["ps"])
            events.append(("count", "critical_values.normals_drawn", reps * d))
            events.append(("count", "critical_values.norm_matrix_bytes", reps * n_ps * 8))

        return hook

    def _counted_init(self, original, name: str, array: str):
        events = self.events

        @functools.wraps(original)
        def __post_init__(obj):
            original(obj)
            events.append(("count", name, getattr(obj, array).nbytes))

        return __post_init__

    def _counted_call(self, fn):
        events, name = self.events, f"linalg.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            events.append(("count", name, 1))
            return fn(*args, **kwargs)

        return wrapper


def layer_metrics(events: list[tuple], threads: int) -> dict[str, float]:
    """Per-layer figures of one traced operation, from its events."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    sizes: dict[str, int] = {}
    largest: dict[str, int] = {}
    for ev in events:
        if ev[0] == "span":
            _, name, _, _, _, own = ev
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        else:
            _, name, value = ev
            counts[name] = counts.get(name, 0) + 1
            sizes[name] = sizes.get(name, 0) + value
            largest[name] = max(largest.get(name, 0), value)

    out = {f"{name}.self_s": self_s.get(name, 0.0) for _, _, name in SPANS}
    out["critical_values.normals_drawn"] = float(sizes.get("critical_values.normals_drawn", 0))
    out["critical_values.norm_matrix_mb"] = largest.get("critical_values.norm_matrix_bytes", 0) / 1e6
    out["dominant_test.calibrate_spec.calls"] = float(calls.get("dominant_test.calibrate_spec", 0))
    out["test_engine.p_norm_stat.calls"] = float(calls.get("test_engine.p_norm_stat", 0))
    for _, _, name, _ in COUNTED_CLASSES:
        out[f"{name}.count"] = float(counts.get(name, 0))
        out[f"{name}.mb"] = sizes.get(name, 0) / 1e6
    tests = calls.get("test_engine.run_tests", 0)
    eigs = sum(counts.get(f"linalg.{attr}", 0) for attr in COUNTED_EIG)
    out["linalg.eig_calls_per_test"] = eigs / tests if tests else 0.0
    out["harness.worker_busy_ratio"] = _worker_busy_ratio(events, threads)
    return out


def _worker_busy_ratio(events: list[tuple], threads: int) -> float:
    # Replication work (data draw plus run_tests, on any thread) divided by
    # threads x the replication loop's wall time, which runs from the end of
    # the experiment's calibration to the end of run_experiment.
    spans = [ev for ev in events if ev[0] == "span"]
    runs = [ev for ev in spans if ev[1] == "harness.run_experiment"]
    if not runs:
        return 0.0
    busy = window = 0.0
    for _, _, tid, t0, t1, _ in runs:
        calib_end = max(
            (ev[4] for ev in spans
             if ev[1] == "dominant_test.calibrate_spec" and ev[2] == tid and t0 <= ev[3] <= t1),
            default=t0,
        )
        window += t1 - calib_end
        busy += sum(
            ev[4] - ev[3] for ev in spans
            if ev[1] in ("dgp.gen_iv", "test_engine.run_tests") and calib_end <= ev[3] <= t1
        )
    return busy / (threads * window) if window > 0 else 0.0
