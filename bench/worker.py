"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``.  Times set-up (import, data, setup calibration,
warm-up) from process start, then runs the workload's operation in a
closed loop: past the workload's minimum count of operations, it starts
no step that would likely end after ``--seconds``.  Untraced runs time the
host-speed probe (``hostprobe.py``) between operations.  Every output is
checked against the reference.  With ``--trace 1`` each loop step runs the
operation twice on the same input, untraced and then traced, and the
per-layer figures come from the traced copies only; a workload that runs
several harness threads also runs the input at one thread, for
``harness.thread_speedup``.  Prints one JSON object as its last line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# a run stops starting operations after this long, to end well inside 180 s
LOOP_BUDGET_S = 120.0

def provenance(root: Path, traced: bool, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "harness_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        # BLAS threading is left at its default; these are recorded as found
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "traced": traced,
    }


def _git_sha(root: Path):
    # read .git directly: the benchmark may run in a copy that is not a repository
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def write_trace(out_dir: Path, args, result: dict, traced_durations: list, spans: list) -> None:
    """Writes the kept spans and counts, one list per traced operation."""
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace_{args.workload}_seed{args.seed}.json.gz"
    doc = dict(result, traced_durations=traced_durations, events=spans)
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import hostprobe
    import workloads
    import tracer as tracing

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    threads = wl.threads
    # the minimum count serves the untraced statistics; a traced step may be long
    min_ops = 1 if args.trace else wl.min_ops
    durations, traced_durations, one_thread_durations, layers, spans = [], [], [], [], []
    steps = []  # wall time of each loop step
    attempted = failed = 0
    adjuster = None if args.trace else hostprobe.Adjuster()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        # past the minimum count, start no step that would likely end after --seconds
        if elapsed >= LOOP_BUDGET_S or (
            i >= min_ops and elapsed + statistics.median(steps) > args.seconds
        ):
            break
        if adjuster:
            adjuster.before_operation()
        key = wl.key(i)
        inp = wl.make_input(key)
        i += 1
        attempted += 1
        step_start = time.perf_counter()
        try:
            t = time.perf_counter()
            out = wl.run(inp)
            dt = time.perf_counter() - t
            ok = wl.check(key, out)
            if ok and args.trace and threads > 1:
                # the same input at one harness thread, for the thread speed-up
                attempted += 1
                t = time.perf_counter()
                single_out = wl.run(inp, threads=1)
                one_thread_durations.append(time.perf_counter() - t)
                ok = wl.check(key, single_out)
            if ok and args.trace:
                attempted += 1
                tr = tracing.Tracer()
                with tr:
                    t = time.perf_counter()
                    traced_out = wl.run(inp)
                    traced_dt = time.perf_counter() - t
                ok = wl.check(key, traced_out) and wl.checked(traced_out) == wl.checked(out)
                traced_durations.append(traced_dt)
                layers.append(tracing.layer_metrics(tr.events, threads))
                spans.append(tr.events)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            ok = False
        if ok:
            durations.append(dt)
            if adjuster:
                adjuster.add(dt)
        else:
            print(f"operation {i - 1} (entry {key}) failed its check", file=sys.stderr)
            failed += 1
        steps.append(time.perf_counter() - step_start)

    if adjuster:
        adjuster.finish()
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "durations": durations,
        "adjusted_durations": adjuster.adjusted if adjuster else None,
        "probe_s": statistics.median(adjuster.probe_times) if adjuster else None,
        "attempted": attempted,
        "failed": failed,
        "provenance": provenance(workloads.ROOT, bool(args.trace), threads),
    }
    if args.trace and layers:
        # counts repeat in every operation, so their median is exact; times
        # and ratios are averaged per operation
        per_layer = {
            name: (statistics.median if name in tracing.COUNTS else statistics.fmean)(
                [op[name] for op in layers]
            )
            for name in layers[0]
        }
        per_layer["trace.overhead_ratio"] = statistics.median(traced_durations) / statistics.median(
            durations
        )
        per_layer["harness.thread_speedup"] = (
            statistics.median(one_thread_durations) / statistics.median(durations)
            if one_thread_durations else 0.0
        )
        result["per_layer"] = per_layer
        write_trace(workloads.BENCH / "out", args, result, traced_durations, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
