"""Tests of the benchmark itself.

    python3 -m pytest bench/tests

The end-to-end tests run the `split` workload for one second each way
(about 30 s in total, most of it the 100-operation minimum).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostprobe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pnormtest import (  # noqa: E402
    covariance,
    dominant_test,
    harness,
    matrix_core,
    sample_split,
    test_engine,
)

SPEC = run.load_spec()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = _bench("--workload", "split", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    if trace == "0":
        assert result["attempted"] >= workloads.Split.min_ops
    want = [(m["name"], m["unit"]) for m in SPEC[section]]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == want
    printed = [line.split(" = ")[0] for line in lines if " = " in line]
    assert printed == [name for name, _ in want] + ["fail_ratio"]
    assert lines[0].startswith("provenance ")


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "test", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _attributes() -> dict:
    owners = [m for name, m in sys.modules.items() if name.startswith("pnormtest")]
    owners += [workloads, numpy.linalg]
    snap = {(id(o), k): v for o in owners for k, v in list(vars(o).items())}
    for cls in (covariance.MomentSample, matrix_core.SymMatrix):
        snap[(id(cls), "__post_init__")] = cls.__post_init__
    return snap


def test_tracer_restores_every_attribute():
    before = _attributes()
    tr = tracer.Tracer()
    with tr:
        assert harness.run_tests is not before[(id(harness), "run_tests")]
        assert numpy.linalg.eigh is not before[(id(numpy.linalg), "eigh")]
        replaced = len(tr._saved)
    after = _attributes()
    assert replaced >= len(tracer.SPANS) + 4
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _small_outputs() -> dict[str, str]:
    rng = numpy.random.default_rng(5)
    spec = dominant_test.calibrate_spec(dominant_test.default_spec(6, 0.05), aux_rows=100)
    test = test_engine.run_tests(rng.standard_normal((200, 6)), spec)
    split = sample_split.split_test(
        rng.standard_normal((200, 60)), 6, selection="greedy", seed=2, spec=spec
    )
    config = workloads.iv_config(3, reps=40)
    config["dgp"].update(n=120, d=5, pi=[0.1] * 5)
    sim = json.loads(workloads.simulation_report_json(harness.run_experiment(config, threads=2)))
    return {
        "spec": spec.to_json(),
        "test": json.dumps(test.to_json_dict()),
        "split": json.dumps(split.to_json_dict()),
        "simulate": json.dumps(sim["results"]),
    }


def test_traced_outputs_equal_untraced_and_counts_repeat():
    plain = _small_outputs()
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr:
            assert _small_outputs() == plain
        layers = tracer.layer_metrics(tr.events, threads=2)
        counts.append({k: layers[k] for k in tracer.COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eig_calls_per_test"] == 2.0
    assert counts[0]["dominant_test.calibrate_spec.calls"] == 2.0
    assert counts[0]["critical_values.normals_drawn"] > 0


def test_every_per_layer_metric_is_computed():
    names = set(tracer.layer_metrics([], threads=1))
    names |= {"trace.overhead_ratio", "harness.thread_speedup"}
    assert {m["name"] for m in SPEC["per_layer"]} <= names


def test_every_per_layer_metric_names_what_it_should_move():
    targets = json.loads((BENCH / "targets.json").read_text())["per_layer"]
    assert list(targets) == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    for metric, moves in targets.items():
        assert moves or metric == "trace.overhead_ratio"
        assert all(m in e2e and w in names for m, w in moves)


def test_each_operation_is_rescaled_by_the_probe_blocks_around_it(monkeypatch):
    # blocks at 1.5x, 2.5x and 1x nominal: the first operation is scaled by
    # 1 / 2, the second by 1 / 1.75
    medians = iter([1.5, 2.5, 1.0])
    monkeypatch.setattr(hostprobe.HostProbe, "__init__", lambda self: None)
    monkeypatch.setattr(
        hostprobe.HostProbe, "block", lambda self: [next(medians) * hostprobe.NOMINAL_S]
    )
    monkeypatch.setattr(hostprobe, "EVERY_S", 0.0)
    adj = hostprobe.Adjuster()
    adj.before_operation()
    adj.add(0.4)
    adj.before_operation()
    adj.add(0.7)
    adj.finish()
    assert adj.adjusted == pytest.approx([0.2, 0.4])
    assert len(adj.probe_times) == 3


def test_end_to_end_metrics_use_the_adjusted_times():
    worker = {"durations": [1.0] * 3, "adjusted_durations": [0.1, 0.2, 0.3], "peak_rss_mb": 9.0}
    got = run.end_to_end([1.0, 3.0, 2.0], worker)
    assert got["op_ms_p50_adj"] == pytest.approx(200.0)
    assert got["ops_per_s_adj"] == pytest.approx(3 / 0.6)
    assert got["peak_rss_mb"] == 9.0 and got["setup_s"] == 2.0


def test_close_compares_floats_relatively_and_the_rest_exactly():
    assert workloads.close([1.0, True, "inf"], [1.0 + 1e-11, True, "inf"], 1e-10)
    assert not workloads.close([1.0], [1.0 + 1e-9], 1e-10)
    assert not workloads.close([1], [True], 1e-10)
    assert not workloads.close({"a": 1.0}, {"a": 1.0, "b": 2.0}, 1e-10)
