"""The benchmark's workloads.

Each workload builds its inputs from the run seed, outside the timed call;
times one public library call plus the JSON report that the matching CLI
subcommand writes; and checks every output against references recorded at
the commit that introduced the benchmark (see ``record.py``).  Inputs come
from a fixed bank of reference entries: the seed picks the bank entry and
the order in which entries are visited, so every seed maps onto outputs
that have a recorded reference.

Importing this module imports ``pnormtest`` from ``src/`` of this
checkout and from nowhere else.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_DIR = BENCH / "reference"

sys.path.insert(0, str(ROOT / "src"))
import pnormtest  # noqa: E402
from pnormtest import dominant_test, harness, sample_split, test_engine  # noqa: E402
from pnormtest.critical_values import SCHEMA_VERSION  # noqa: E402

if Path(pnormtest.__file__).resolve().parent != ROOT / "src" / "pnormtest":
    raise ImportError(f"pnormtest imported from {pnormtest.__file__}, not from {ROOT / 'src'}")

# harness threads: the cores this process may run on, as `nproc` reports
NPROC = len(os.sched_getaffinity(0))

# separate seed-sequence tags keep the banks' streams apart from each other
_TEST_TAG, _SPLIT_TAG, _WARMUP_TAG = 101, 102, 199


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def _cli_doc(kind: str, body: dict) -> str:
    # report text as `pnormtest test` / `split-test` emit it
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    doc.update(body)
    return json.dumps(doc, indent=2)


def simulation_report_json(report) -> str:
    """Report text as `pnormtest simulate` emits it."""
    return json.dumps(report.to_json_dict(), indent=2)


def _report_fields(report: dict) -> dict:
    # statistics and decisions of a test report; diagnostics are not compared
    return {
        "per_p": [[r["p"], r["statistic"], r["critical"], r["reject"]] for r in report["per_p"]],
        "dominant": [report["dominant"]["c_n"], report["dominant"]["max_ratio"],
                     report["dominant"]["reject"]],
    }


def close(got, want, rtol: float) -> bool:
    """Exact match for bools, ints, strings and structure; floats to rel rtol."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            close(got[k], want[k], rtol) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            close(g, w, rtol) for g, w in zip(got, want)
        )
    if isinstance(want, float) and type(got) in (int, float):
        return abs(got - want) <= rtol * max(abs(got), abs(want))
    return type(got) is type(want) and got == want


class Workload:
    """One set of inputs: ``setup`` once, then ``run`` on ``make_input(i)``."""

    name = ""
    # operations per run at least: a p90 needs 100; a median of long
    # operations needs a few, since each one varies with the host
    min_ops = 1
    threads = 1  # harness threads
    rtol = 0.0

    def __init__(self) -> None:
        self._reference = None

    def setup(self, seed: int) -> None:
        """Data, setup calibration and warm-up; timed as set-up."""

    def key(self, i: int):
        """Reference entry of operation i."""
        return 0

    def make_input(self, key):
        return None

    def run(self, inp) -> str:
        raise NotImplementedError

    def checked(self, text: str):
        """The part of an output that must match the reference."""
        raise NotImplementedError

    def reference(self, key):
        if self._reference is None:
            path = REFERENCE_DIR / f"{self.name}.json"
            self._reference = json.loads(path.read_text())
        return self._reference["entries"][key]

    def check(self, key, text: str) -> bool:
        return close(self.checked(text), self.reference(key), self.rtol)


class Calibrate(Workload):
    """calibrate_spec(default_spec(200, 0.05), aux_rows=1000), automatic reps."""

    name = "calibrate"
    min_ops = 2
    rtol = 1e-12

    def setup(self, seed: int) -> None:
        # The draw stream is fixed by the calibration seed (0, the CLI
        # default), so the run seed changes nothing here.
        self.spec = dominant_test.default_spec(200, 0.05)
        # warm-up at small d: the full spec needs 1.5M draws to resolve its shares
        dominant_test.calibrate_spec(dominant_test.default_spec(8, 0.05), aux_rows=1000).to_json()

    def run(self, inp) -> str:
        return dominant_test.calibrate_spec(self.spec, aux_rows=1000).to_json()

    def checked(self, text: str):
        table = json.loads(text)["table"]
        keep = ("d", "alpha_total", "c_n", "conservative", "mc_reps", "seed", "aux_rows", "entries")
        return {k: table[k] for k in keep}


def grid_spec(d: int, alpha: float) -> dominant_test.DominantTestSpec:
    """Grid 2,3,4,6,8,inf with equal shares, as `pnormtest calibrate --grid` builds it."""
    interior = (3.0, 4.0, 6.0, 8.0)
    share = alpha / (len(interior) + 2)
    return dominant_test.DominantTestSpec(
        d=d,
        alpha_total=alpha,
        alpha_2=share,
        alpha_I=share * len(interior),
        alpha_inf=share,
        p_grid=interior,
        per_p_shares=tuple(share for _ in interior),
    )


class Test(Workload):
    """run_tests on a fresh 2000 x 500 Gaussian sample per operation."""

    name = "test"
    min_ops = 100
    rtol = 1e-10
    BANK = 128
    SHAPE = (2000, 500)

    def setup(self, seed: int) -> None:
        self.order = np.random.default_rng(seed).permutation(self.BANK)
        spec = grid_spec(self.SHAPE[1], 0.05)
        self.spec = dominant_test.calibrate_spec(spec, reps=20_000, aux_rows=1000)
        for k in range(2):
            self.run(_rng(_WARMUP_TAG, _TEST_TAG, k).standard_normal(self.SHAPE))

    def key(self, i: int) -> int:
        return int(self.order[i % self.BANK])

    def make_input(self, key: int) -> np.ndarray:
        return _rng(_TEST_TAG, key).standard_normal(self.SHAPE)

    def run(self, inp) -> str:
        report = test_engine.run_tests(inp, self.spec)
        return _cli_doc("test_report", report.to_json_dict())

    def checked(self, text: str):
        return _report_fields(json.loads(text))


def iv_config(seed: int, reps: int = 2000) -> dict:
    """Weak-instrument IV design with t(8) errors and the truncated estimator."""
    return {
        "experiment": "iv_weak_t8",
        "reps": reps,
        "seed": seed,
        "dgp": {
            "kind": "iv",
            "n": 400,
            "d": 40,
            "beta_true": 1.0,
            "pi": [0.1] * 40,
            "endogeneity_rho": 0.5,
            "error_dist": "t",
            "t_dof": 8.0,
        },
        "test": {"alpha": 0.05, "estimator": "truncated", "aux_rows": "fold"},
    }


class Simulate(Workload):
    """run_experiment on the IV config at `nproc` harness threads."""

    name = "simulate"
    min_ops = 4
    BANK = 8
    threads = NPROC

    def setup(self, seed: int) -> None:
        self.order = np.random.default_rng(seed).permutation(self.BANK)
        self.run(iv_config(self.BANK, reps=20))

    def key(self, i: int) -> int:
        return int(self.order[i % self.BANK])

    def make_input(self, key: int) -> dict:
        return iv_config(key)

    def run(self, inp, threads: int | None = None) -> str:
        threads = self.threads if threads is None else threads
        return simulation_report_json(harness.run_experiment(inp, threads=threads))

    def checked(self, text: str):
        results = json.loads(text)["results"]
        return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()

    def reference(self, key):
        return super().reference(key)["results_sha256"]


class Split(Workload):
    """split_test at D=2000, d=12, greedy p=2; the fold seed varies per operation."""

    name = "split"
    min_ops = 100
    rtol = 1e-10
    DATA_BANK = 4
    FOLD_BANK = 32
    SHAPE = (2000, 2000)

    def setup(self, seed: int) -> None:
        self.data_key = seed % self.DATA_BANK
        self.order = np.random.default_rng(seed).permutation(self.FOLD_BANK)
        self.data = self.make_data(self.data_key)
        self.spec = dominant_test.calibrate_spec(dominant_test.default_spec(12, 0.05), aux_rows=500)
        for fold in range(2):
            self.run(self.FOLD_BANK + fold)

    def make_data(self, data_key: int) -> np.ndarray:
        return _rng(_SPLIT_TAG, data_key).standard_normal(self.SHAPE)

    def key(self, i: int) -> tuple[int, int]:
        return self.data_key, int(self.order[i % self.FOLD_BANK])

    def make_input(self, key) -> int:
        return key[1]

    def run(self, fold_seed) -> str:
        result = sample_split.split_test(
            self.data, 12, selection="greedy", p=2.0, seed=fold_seed, spec=self.spec
        )
        return _cli_doc("split_test_report", result.to_json_dict())

    def checked(self, text: str):
        doc = json.loads(text)
        return {"selected": doc["selected"], **_report_fields(doc["report"])}

    def reference(self, key):
        data_key, fold = key
        return super().reference(data_key)[fold]


WORKLOADS = {w.name: w for w in (Calibrate, Test, Simulate, Split)}
