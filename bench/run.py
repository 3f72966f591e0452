"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh worker processes
(``worker.py``), one at a time: with ``--trace 0``, two that only set up and
one that sets up and measures, so that ``setup_s`` is the median of three
set-ups and ``peak_rss_mb`` belongs to the measuring process alone.  With
``--trace 1`` one worker reports the per-layer figures.  Prints the
provenance, the unadjusted timings, one line per metric with its unit,
and as its last line one JSON object with the keys correct, attempted,
failed and metrics.  The timing metrics are adjusted to the nominal host
speed by the probe in ``hostprobe.py``.
Workloads, metrics and bounds are defined in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
# every worker must have ended by then, so a run exits within 180 s
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def timings(ops: list[float]) -> dict[str, float]:
    """Median and p90 of operation times, and throughput."""
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[8] if len(ops) > 1 else ops[0]
    return {
        "op_ms_p50": statistics.median(ops) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "ops_per_s": len(ops) / sum(ops),
    }


def end_to_end(setups: list[float], worker: dict) -> dict[str, float]:
    """The end-to-end metrics of an untraced run: operation timings at the
    nominal host speed (see hostprobe.py), peak RSS and set-up time."""
    adjusted = timings(worker["adjusted_durations"])
    out = {f"{name}_adj": value for name, value in adjusted.items()}
    out["peak_rss_mb"] = worker["peak_rss_mb"]
    out["setup_s"] = statistics.median(setups)
    return out


def _run_worker(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        # on timeout, subprocess.run kills the worker and waits for it
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError("worker did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    spec = load_spec()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "pnormtest" / "__init__.py").is_file():
        print(f"error: no pnormtest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [
            _run_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_RUNS - 1)
        ]
        worker = _run_worker(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not worker["durations"]:
        print("error: no operation completed", file=sys.stderr)
        return 1

    if args.trace:
        wanted = spec["per_layer"]
        values = worker["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(setups + [worker["setup_s"]], worker)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print("provenance " + json.dumps(worker["provenance"]))
    if not args.trace:
        raw = dict(timings(worker["durations"]), probe_ms=worker["probe_s"] * 1e3,
                   ops=len(worker["durations"]))
        print("unadjusted " + json.dumps(raw))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {worker['failed'] / worker['attempted']:.6g} "
          f"({worker['failed']} of {worker['attempted']} operations)")
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
