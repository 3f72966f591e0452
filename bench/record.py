"""Records the reference outputs the benchmark checks against.

    python3 bench/record.py [WORKLOAD ...]

Runs every bank entry of the named workloads (default: all) through the
same operation the benchmark times and writes ``reference/<name>.json``.
Re-record only on purpose: the references pin the outputs of the commit
that introduced the benchmark, and a later change must reproduce them.
The simulate entries are recorded at one harness thread and at ``nproc``
threads, and recording stops unless both give identical results.
"""

from __future__ import annotations

import json
import sys

import workloads as w


def record_calibrate() -> dict:
    wl = w.Calibrate()
    wl.setup(0)
    return {"entries": [wl.checked(wl.run(None))]}


def record_test() -> dict:
    wl = w.Test()
    wl.setup(0)
    return {"entries": [wl.checked(wl.run(wl.make_input(k))) for k in range(wl.BANK)]}


def record_simulate() -> dict:
    wl = w.Simulate()
    entries = []
    for k in range(wl.BANK):
        texts = [wl.run(wl.make_input(k), threads=t) for t in (1, w.NPROC)]
        digests = [wl.checked(text) for text in texts]
        if digests[0] != digests[1]:
            raise SystemExit(f"simulate entry {k}: results differ between 1 and {w.NPROC} threads")
        rates = json.loads(texts[0])["results"]["rates"]
        entries.append({"seed": k, "results_sha256": digests[0], "rates": rates})
    return {"threads_compared": [1, w.NPROC], "entries": entries}


def record_split() -> dict:
    wl = w.Split()
    entries = []
    for data_key in range(wl.DATA_BANK):
        wl.setup(data_key)
        entries.append([wl.checked(wl.run(fold)) for fold in range(wl.FOLD_BANK)])
    return {"entries": entries}


RECORDERS = {
    "calibrate": record_calibrate,
    "test": record_test,
    "simulate": record_simulate,
    "split": record_split,
}


def main(argv: list[str]) -> int:
    names = argv or list(RECORDERS)
    w.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        doc = RECORDERS[name]()
        (w.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"recorded {name}: {len(doc['entries'])} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
