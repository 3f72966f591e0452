import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from pnormtest import harness, test_engine
from pnormtest.dominant_test import calibrate_spec, default_spec
from pnormtest.harness import (
    DataError,
    SimulationReport,
    UsageError,
    read_sample_csv,
    run_experiment,
)
from pnormtest.test_engine import run_tests


class TestCsvRoundtrip:
    def test_write_then_read_is_exact(self, tmp_path):
        # %.17g round-trips every float64
        values = np.random.default_rng(0).standard_normal((17, 4)) * 1e3
        path = tmp_path / "sample.csv"
        np.savetxt(path, values, fmt="%.17g", delimiter=",", header="a,b,c,d", comments="")
        back = read_sample_csv(path)
        assert np.array_equal(back, values)

    def test_bad_cell_reported_with_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataError, match=r"line 3, column 2 \(b\).*'oops'"):
            read_sample_csv(path)

    def test_ragged_row_reported_with_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="line 3: expected 2 columns, got 1"):
            read_sample_csv(path)

    def test_empty_and_header_only_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_sample_csv(empty)
        header_only = tmp_path / "header.csv"
        header_only.write_text("a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            read_sample_csv(header_only)

    def test_nonfinite_values_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,b\n1.0,inf\n")
        with pytest.raises(DataError, match="finite"):
            read_sample_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("a,b\n1.0,2.0\n\n3.0,4.0\n")
        assert read_sample_csv(path).shape == (2, 2)


def gaussian_config(**overrides):
    config = {
        "experiment": "unit",
        "reps": 5,
        "seed": 3,
        "dgp": {"kind": "gaussian", "n": 60, "d": 3},
        "test": {"alpha": 0.05, "mc_reps": 50_000},
    }
    config.update(overrides)
    return config


IV_DGP = {"kind": "iv", "n": 80, "d": 3, "beta_true": 1.0, "pi": [0.5, 0.0, 0.0]}
RCT_DGP = {"kind": "rct", "n": 80, "d": 3, "pi_treat": 0.5, "effect": [0, 0, 0]}


class TestRunExperiment:
    def test_names_and_shapes(self):
        report = run_experiment(gaussian_config())
        assert report.test_names == ("2", "3", "4", "inf", "psi")
        assert report.flags.shape == (5, 5)
        assert report.reps == 5
        assert report.wall_clock > 0.0

    def test_results_deterministic_and_thread_count_invariant(self):
        cfg = gaussian_config(reps=8)
        serial = run_experiment(cfg, threads=1).to_json_dict()
        again = run_experiment(cfg, threads=1).to_json_dict()
        threaded = run_experiment(cfg, threads=3).to_json_dict()
        assert serial["results"] == again["results"]
        assert serial["results"] == threaded["results"]

    def test_results_invariant_to_threads_and_chunk_size(self, monkeypatch):
        # 8 reps in chunks of 1 and of 3 (8 is not a multiple of 3), and in
        # one chunk under the default budget, at 1, 2 and 3 threads
        cfg = gaussian_config(
            reps=8,
            dgp={"kind": "gaussian", "n": 61, "d": 3, "theta": [1.5, 0.0, -0.5]},
            test={"alpha": 0.05, "mc_reps": 50_000, "estimator": "truncated",
                  "trunc_mult": 1.2, "extra_ps": [2.5, 7]},
        )
        want = run_experiment(cfg).to_json_dict()["results"]
        for per_chunk in (1, 3):
            monkeypatch.setattr(test_engine, "_CHUNK_BYTES", per_chunk * 8 * 61 * 3)
            for threads in (1, 2, 3):
                got = run_experiment(cfg, threads=threads).to_json_dict()["results"]
                assert got == want, (per_chunk, threads)

    def test_flags_match_standalone_run_tests(self):
        # each row equals the decisions of run_tests on that replication's draw
        cfg = gaussian_config(
            reps=6, dgp={"kind": "gaussian", "n": 60, "d": 3, "theta": [2.0, 0.0, 0.0]}
        )
        cfg["test"]["extra_ps"] = [2.5]
        report = run_experiment(cfg)
        n, d, draw = harness._build_sampler(cfg["dgp"])
        spec = calibrate_spec(default_spec(d, 0.05), reps=50_000, aux_rows=n // 2)
        for rep in range(cfg["reps"]):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((3, rep))))
            alone = run_tests(draw(rng), spec, extra_ps=(2.5,))
            row = [rec.reject for rec in alone.per_p] + [alone.dominant.reject]
            assert report.flags[rep].tolist() == row
        assert report.test_names == ("2", "3", "4", "inf", "2.5", "psi")

    def test_one_aggregate_rank_warning(self):
        # m = n // 2 = 10 difference pairs < d = 15: every covariance is singular
        cfg = gaussian_config(
            reps=6,
            dgp={"kind": "gaussian", "n": 20, "d": 15},
            test={"alpha": 0.05, "mc_reps": 100_000},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg, threads=2)
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1
        assert messages[0].startswith("6 of 6 replications had a rank-deficient")

    def test_aggregates_recomputable_from_replication_records(self):
        doc = run_experiment(gaussian_config(reps=12)).to_json_dict()
        results = doc["results"]
        for name in results["tests"]:
            flags = [rec["rejects"][name] for rec in results["replications"]]
            rate = results["rates"][name]
            assert rate == sum(flags) / len(flags)
            assert results["mc_se"][name] == math.sqrt(rate * (1 - rate) / len(flags))

    def test_null_size_in_a_loose_band(self):
        cfg = gaussian_config(reps=400, dgp={"kind": "gaussian", "n": 40, "d": 3})
        rate = run_experiment(cfg).rates["psi"]
        assert 0.01 <= rate <= 0.12

    def test_large_shift_always_rejects(self):
        cfg = gaussian_config(
            reps=30, dgp={"kind": "gaussian", "n": 50, "d": 3, "theta": [8.0, 8.0, 8.0]}
        )
        report = run_experiment(cfg)
        assert report.rates["psi"] == 1.0
        assert report.rates["2"] == 1.0

    def test_iv_and_rct_kinds_run(self):
        iv = gaussian_config(
            reps=3,
            dgp={
                "kind": "iv",
                "n": 80,
                "d": 3,
                "beta_true": 1.0,
                "pi": [0.5, 0.0, 0.0],
                "endogeneity_rho": 0.3,
            },
        )
        assert run_experiment(iv).flags.shape[0] == 3
        rct = gaussian_config(
            reps=3,
            dgp={"kind": "rct", "n": 80, "d": 3, "pi_treat": 0.5, "effect": [0, 0, 0]},
        )
        assert run_experiment(rct).flags.shape[0] == 3

    def test_extra_ps_add_named_columns(self):
        cfg = gaussian_config()
        cfg["test"]["extra_ps"] = [2.5, "inf"]
        names = run_experiment(cfg).test_names
        assert "2.5" in names
        assert names.count("inf") == 1  # already on the grid, not duplicated

    def test_config_echo_preserved(self):
        cfg = gaussian_config()
        assert run_experiment(cfg).to_json_dict()["results"]["config"] == cfg

    def test_field_path_in_schema_errors(self):
        with pytest.raises(UsageError, match="reps: must be >= 1"):
            run_experiment(gaussian_config(reps=0))
        with pytest.raises(UsageError, match="bogus: unknown field"):
            run_experiment(gaussian_config(bogus=1))
        with pytest.raises(UsageError, match="test.alpha"):
            run_experiment(gaussian_config(test={"alpha": 1.5}))
        with pytest.raises(UsageError, match="test.shift: unknown"):
            run_experiment(gaussian_config(test={"shift": 1}))
        with pytest.raises(UsageError, match="dgp.kind"):
            run_experiment(gaussian_config(dgp={"kind": "bootstrap"}))
        with pytest.raises(UsageError, match="dgp.kind: missing"):
            run_experiment(gaussian_config(dgp={}))
        with pytest.raises(UsageError, match="dgp.theta"):
            run_experiment(
                gaussian_config(dgp={"kind": "gaussian", "n": 40, "d": 3, "theta": [1.0]})
            )
        with pytest.raises(UsageError, match="test.estimator: unknown estimator 'ledoit'"):
            run_experiment(gaussian_config(test={"estimator": "ledoit"}))
        with pytest.raises(UsageError, match="aux_rows"):
            run_experiment(gaussian_config(test={"aux_rows": "please"}))
        with pytest.raises(UsageError, match="threads"):
            run_experiment(gaussian_config(), threads=0)
        with pytest.raises(UsageError, match="schema_version"):
            run_experiment(gaussian_config(schema_version=99))
        with pytest.raises(UsageError, match="dgp: "):
            run_experiment(
                gaussian_config(dgp={"kind": "iv", "n": 80, "d": 3, "beta_true": 0.0,
                                     "pi": [0.0, 0.0, 0.0], "endogeneity_rho": 2.0})
            )

    @pytest.mark.parametrize(
        "field, override",
        [
            ("test.trunc_mult", {"test": {"estimator": "truncated", "trunc_mult": 0}}),
            ("test.extra_ps", {"test": {"extra_ps": [1.5]}}),
            ("dgp.theta", {"dgp": {"kind": "gaussian", "n": 40, "d": 3,
                                   "theta": ["up", 0, 0]}}),
            ("dgp.n", {"dgp": {"kind": "gaussian", "n": "many", "d": 3}}),
            ("test.mc_reps", {"test": {"mc_reps": [50_000]}}),
            ("dgp.thetta", {"dgp": {"kind": "gaussian", "n": 40, "d": 3,
                                    "thetta": [1.0, 0.0, 0.0]}}),
            ("dgp.endogenity_rho", {"dgp": {**IV_DGP, "endogenity_rho": 0.5}}),
            ("dgp.pi", {"dgp": {k: v for k, v in IV_DGP.items() if k != "pi"}}),
            ("dgp.n", {"dgp": {**IV_DGP, "n": "abc"}}),
            ("dgp.beta_star", {"dgp": {"kind": "rct", "n": 80, "d": 3, "pi_treat": 0.5,
                                       "effect": [0, 0, 0], "beta_star": "x"}}),
            ("schema_version", {"schema_version": "one"}),
            ("reps", {"reps": 2.7}),
            ("test.aux_rows", {"test": {"aux_rows": 21.9}}),
            ("dgp.n", {"dgp": {**IV_DGP, "n": 3}}),
            ("dgp.n", {"dgp": {**RCT_DGP, "n": 3}}),
            ("dgp.d", {"dgp": {"kind": "gaussian", "n": 40, "d": 0}}),
            ("dgp.theta", {"dgp": {"kind": "gaussian", "n": 40, "d": 3,
                                   "theta": [math.nan, 0, 0]}}),
            ("dgp.beta_star", {"dgp": {**IV_DGP, "beta_star": math.nan}}),
            ("dgp.beta_star", {"dgp": {**IV_DGP, "beta_star": math.inf}}),
            ("dgp.beta_true", {"dgp": {**IV_DGP, "beta_true": math.nan}}),
            ("dgp.beta_true", {"dgp": {**IV_DGP, "beta_true": -math.inf}}),
            ("dgp.beta_star", {"dgp": {**RCT_DGP, "beta_star": [math.nan, 0, 0]}}),
            ("dgp.t_dof", {"dgp": {**IV_DGP, "error_dist": "t", "t_dof": math.inf}}),
            ("test.aux_rows", {"test": {"aux_rows": 30}}),
            ("test.estimator", {"test": {"estimator": "trunc"}}),
        ],
    )
    def test_bad_field_rejected_before_calibration(self, monkeypatch, field, override):
        calls = []
        monkeypatch.setattr(harness, "calibrate_spec", lambda *a, **k: calls.append(1))
        with pytest.raises(UsageError, match=f"^{field}: "):
            run_experiment(gaussian_config(**override))
        assert calls == []

    @pytest.mark.parametrize(
        "field, override",
        [
            ("reps", {"reps": True}),
            ("reps", {"reps": "3"}),
            ("seed", {"seed": False}),
            ("dgp.n", {"dgp": {"kind": "gaussian", "n": "40", "d": 3}}),
            ("dgp.theta", {"dgp": {"kind": "gaussian", "n": 40, "d": 3,
                                   "theta": [True, 0, 0]}}),
            ("dgp.pi", {"dgp": {**IV_DGP, "pi": [0.5, "0", 0]}}),
            ("dgp.beta_true", {"dgp": {**IV_DGP, "beta_true": "1.0"}}),
            ("test.alpha", {"test": {"alpha": "0.05"}}),
            ("test.mc_reps", {"test": {"mc_reps": "50000"}}),
        ],
    )
    def test_json_booleans_and_strings_are_not_numbers(self, monkeypatch, field, override):
        calls = []
        monkeypatch.setattr(harness, "calibrate_spec", lambda *a, **k: calls.append(1))
        with pytest.raises(UsageError, match=f"^{field}: expected a number, got "):
            run_experiment(gaussian_config(**override))
        assert calls == []

    @pytest.mark.parametrize(
        "field, override, message",
        [
            ("experiment", {"experiment": None}, "expected a string, got None"),
            ("experiment", {"experiment": 5}, "expected a string, got 5"),
            ("dgp.error_dist", {"dgp": {**IV_DGP, "error_dist": None}},
             "expected a string, got None"),
            ("dgp.instrument_cov", {"dgp": {**IV_DGP, "instrument_cov": 1}},
             "expected a string, got 1"),
            ("dgp.outcome_dist", {"dgp": {**RCT_DGP, "outcome_dist": ["gaussian"]}},
             "expected a string, got "),
            ("test.extra_ps", {"test": {"extra_ps": ["3"]}}, "expected a number, got '3'"),
            ("test.extra_ps", {"test": {"extra_ps": [2.5, True]}},
             "expected a number, got True"),
            ("test.extra_ps", {"test": {"extra_ps": "34"}},
             "expected a list of exponents, got '34'"),
            ("test.extra_ps", {"test": {"extra_ps": 3}}, "expected a list of exponents, got 3"),
        ],
    )
    def test_strings_and_exponents_are_checked(self, monkeypatch, field, override, message):
        calls = []
        monkeypatch.setattr(harness, "calibrate_spec", lambda *a, **k: calls.append(1))
        with pytest.raises(UsageError, match=f"^{field}: {re.escape(message)}"):
            run_experiment(gaussian_config(**override))
        assert calls == []

    def test_readme_minimal_config_runs(self):
        # the config the README shows must pass the parser as written
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("A minimal experiment config:")[1]
        cfg = json.loads(block.split("```json\n")[1].split("```")[0])
        cfg["reps"] = 2
        report = run_experiment(cfg)
        assert report.reps == 2 and report.test_names[-1] == "psi"

    def test_report_invariants_enforced(self):
        flags = np.zeros((4, 2), dtype=bool)
        with pytest.raises(ValueError, match="test names"):
            SimulationReport("x", {}, 0, ("a",), flags, 0.1)
        with pytest.raises(ValueError, match="reps x T"):
            SimulationReport("x", {}, 0, ("a",), np.zeros((0, 1), bool), 0.1)


GOLDEN_RESULTS = Path(__file__).parent / "data" / "simulate_results.json"


@pytest.mark.parametrize("threads", [1, 3])
def test_results_match_golden_fixture(threads):
    # Recorded before the harness's thread pool was removed: the benchmark's
    # weak-IV design at 200 reps, and a Gaussian design whose every
    # covariance estimate is rank deficient.  Each entry's config is its own
    # echo; the results must come back byte for byte.
    text = GOLDEN_RESULTS.read_text()
    got = {}
    for name, want in json.loads(text).items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got[name] = run_experiment(want["config"], threads=threads).to_json_dict()["results"]
    assert json.dumps(got, indent=1, sort_keys=True) + "\n" == text
