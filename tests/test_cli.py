import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pnormtest import critical_values
from pnormtest.cli import _MAX_GRID_POINTS, _parse_grid_range, main
from pnormtest.critical_values import kappa_inf_exact, kappa_p_asymptotic
from pnormtest.dominant_test import DominantTestSpec, default_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_null_csv(path, n=60, d=3, seed=0, shift=None):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, d))
    if shift is not None:
        values[:, 0] += shift
    header = ",".join(f"m{j + 1}" for j in range(d))
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=header, comments="")
    return path


@pytest.fixture(scope="module")
def table3(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables") / "table3.json"
    code = main(
        ["calibrate", "--d", "3", "--alpha", "0.05", "--reps", "50000",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    return out


class TestTabulate:
    def test_moment_table_has_unit_lambda_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--p", "2", "--x", "0,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,x,lambda,sigma"
        p, x, lam, sig = lines[1].split(",")
        assert (p, x) == ("2", "0")
        assert float(lam) == 1.0
        assert float(sig) == pytest.approx(math.sqrt(2.0))
        assert float(lines[2].split(",")[2]) == pytest.approx(2.0)  # lambda_2(1) = 1 + 1

    def test_runs_as_a_module(self):
        paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        done = subprocess.run(
            [sys.executable, "-m", "pnormtest.cli", "tabulate", "--p", "2", "--x", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0
        assert done.stdout.splitlines()[0] == "p,x,lambda,sigma"

    def test_critical_value_table(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--p", "2,inf", "--d", "100", "--alpha", "0.05")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert float(rows[0][3]) == kappa_p_asymptotic(2, 100, 0.05)
        assert float(rows[1][3]) == kappa_inf_exact(100, 0.05)

    def test_exponents_labelled_exactly(self, capsys):
        # {p:g} would label 14.0000001 "14"; both tables use the exact label
        for mode in (("--x", "0"), ("--d", "100", "--alpha", "0.05")):
            code, out, _ = run_cli(capsys, "tabulate", "--p", "2.5,14.0000001", *mode)
            assert code == 0
            assert [line.split(",")[0] for line in out.splitlines()] == ["p", "2.5", "14.0000001"]

    def test_conflicting_modes_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "tabulate", "--p", "2", "--x", "0", "--d", "5", "--alpha", "0.05")
        assert code == 2 and "pick one" in err

    def test_inf_moment_table_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "tabulate", "--p", "inf", "--x", "0")
        assert code == 2 and "no moment table" in err

    def test_missing_mode_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "tabulate", "--p", "2")
        assert code == 2 and "--x" in err

    def test_bad_exponent_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "tabulate", "--p", "1.5", "--x", "0")
        assert code == 2 and "exponent" in err

    def test_bad_critical_value_parameters_exit_2(self, capsys):
        for argv, msg in (
            (("--p", "2", "--d", "10", "--alpha", "1.5"), "alpha"),
            (("--p", "2,inf", "--d", "0", "--alpha", "0.05"), "d must be"),
        ):
            code, out, err = run_cli(capsys, "tabulate", *argv)
            assert code == 2 and err.startswith("error:") and msg in err
            assert out == ""


class TestCalibrate:
    def test_writes_a_calibrated_spec(self, table3):
        spec = DominantTestSpec.from_json(table3.read_text())
        assert spec.calibrated
        assert spec.d == 3
        assert spec.table.mc_reps == 50_000

    def test_custom_grid_gets_equal_shares(self, tmp_path, capsys):
        out = tmp_path / "custom.json"
        code, _, _ = run_cli(
            capsys, "calibrate", "--d", "4", "--alpha", "0.06", "--grid", "2,4,inf",
            "--reps", "20000", "--out", str(out),
        )
        assert code == 0
        spec = DominantTestSpec.from_json(out.read_text())
        assert spec.exponents == (2.0, 4.0, math.inf)
        assert spec.alpha_2 == spec.alpha_inf == pytest.approx(0.02)
        assert spec.per_p_shares == (pytest.approx(0.02),)

    def test_bad_grid_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "calibrate", "--d", "4", "--alpha", "0.05", "--grid", ",",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2 and "--grid" in err


class TestTest:
    def test_null_data_report(self, tmp_path, table3, capsys):
        data = write_null_csv(tmp_path / "null.csv")
        code, out, _ = run_cli(capsys, "test", "--data", str(data), "--table", str(table3))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "test_report"
        assert doc["d"] == 3 and doc["n"] == 60
        assert {r["p"] for r in doc["per_p"]} == {2.0, 3.0, 4.0, "inf"}
        assert isinstance(doc["dominant"]["reject"], bool)

    def test_deterministic_output_file(self, tmp_path, table3, capsys):
        data = write_null_csv(tmp_path / "null.csv")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys, "test", "--data", str(data), "--table", str(table3), "--out", str(out)
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_shifted_data_rejects(self, tmp_path, capsys):
        table = tmp_path / "table8.json"
        assert main(
            ["calibrate", "--d", "3", "--alpha", "0.05", "--reps", "50000", "--seed", "1",
             "--extra-p", "8", "--out", str(table)]
        ) == 0
        data = write_null_csv(tmp_path / "shift.csv", n=100, shift=1.5)
        code, out, _ = run_cli(
            capsys, "test", "--data", str(data), "--table", str(table), "--estimator", "truncated"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dominant"]["reject"] is True
        assert doc["estimator"] == "truncated"
        kappa8 = json.loads(table.read_text())["table"]["extras"][0]["standalone_kappa"]
        assert doc["per_p"][-1] == {
            "p": 8.0, "statistic": doc["per_p"][-1]["statistic"], "critical": kappa8,
            "reject": doc["per_p"][-1]["statistic"] >= kappa8,
        }

    def test_dimension_mismatch_exit_3(self, tmp_path, table3, capsys):
        data = write_null_csv(tmp_path / "wide.csv", d=4)
        code, _, err = run_cli(capsys, "test", "--data", str(data), "--table", str(table3))
        assert code == 3 and "d=3" in err

    def test_uncalibrated_table_exit_3(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text(default_spec(3, 0.05).to_json())
        data = write_null_csv(tmp_path / "null.csv")
        code, _, err = run_cli(capsys, "test", "--data", str(data), "--table", str(bare))
        assert code == 3 and "calibrat" in err

    def test_malformed_cell_exit_3(self, tmp_path, table3, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("m1,m2,m3\n1,2,3\n4,x,6\n")
        code, _, err = run_cli(capsys, "test", "--data", str(bad), "--table", str(table3))
        assert code == 3 and "line 3, column 2" in err

    def test_table_drawn_for_other_pair_count_exit_3(self, tmp_path, capsys):
        table = tmp_path / "aux30.json"
        code = main(
            ["calibrate", "--d", "3", "--alpha", "0.05", "--reps", "50000",
             "--seed", "1", "--aux-rows", "30", "--out", str(table)]
        )
        assert code == 0
        matched = write_null_csv(tmp_path / "n60.csv", n=60)
        code, _, _ = run_cli(capsys, "test", "--data", str(matched), "--table", str(table))
        assert code == 0
        other = write_null_csv(tmp_path / "n100.csv", n=100)
        code, out, err = run_cli(capsys, "test", "--data", str(other), "--table", str(table))
        assert code == 3 and out == ""
        assert "aux_rows=30" in err and "has 50" in err

    @pytest.mark.parametrize("drop", [False, True])
    def test_table_without_standalone_kappas_exit_3(self, tmp_path, table3, capsys, drop):
        # "standalone_kappa": null, or no such key, in every entry
        doc = json.loads(table3.read_text())
        for entry in doc["table"]["entries"]:
            if drop:
                del entry["standalone_kappa"]
            else:
                entry["standalone_kappa"] = None
        table = tmp_path / "no_standalone.json"
        table.write_text(json.dumps(doc))
        data = write_null_csv(tmp_path / "null.csv")
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(table))
        assert code == 3 and out == ""
        assert err.startswith("error:") and "standalone kappa" in err

    @pytest.mark.parametrize(
        "field, value", [("d", 0), ("mc_reps", -5), ("seed", -3), ("aux_rows", -7)]
    )
    def test_table_field_out_of_range_exit_3(self, tmp_path, table3, capsys, field, value):
        doc = json.loads(table3.read_text())
        doc["table"][field] = value
        table = tmp_path / "out_of_range.json"
        table.write_text(json.dumps(doc))
        data = write_null_csv(tmp_path / "null.csv")
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(table))
        assert code == 3 and out == ""
        assert err.startswith("error:") and f"{field} must be" in err

    def test_table_at_other_shares_exit_3(self, tmp_path, table3, capsys):
        doc = json.loads(table3.read_text())
        doc["alpha_2"] += 0.01
        doc["alpha_inf"] -= 0.01
        table = tmp_path / "moved_shares.json"
        table.write_text(json.dumps(doc))
        data = write_null_csv(tmp_path / "null.csv")
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(table))
        assert code == 3 and out == ""
        assert "other alpha shares" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {**doc, "d": None},
            lambda doc: [doc],
            lambda doc: {**doc, "p_grid": None},
            lambda doc: {**doc, "table": {**doc["table"], "entries": [1.5]}},
            lambda doc: {**doc, "table": {**doc["table"], "mc_reps": math.inf}},
        ],
        ids=["null d", "top-level array", "null grid", "number entry", "infinite reps"],
    )
    def test_malformed_spec_exit_3(self, tmp_path, table3, capsys, edit):
        table = tmp_path / "malformed.json"
        table.write_text(json.dumps(edit(json.loads(table3.read_text()))))
        data = write_null_csv(tmp_path / "null.csv")
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(table))
        assert code == 3 and out == ""
        assert err.startswith("error:") and "not a calibrated test specification" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(d=doc["d"] + 0.9), "d: expected an integer, got 3.9"),
            (lambda doc: doc.update(d=str(doc["d"])), "d: expected a number, got '3'"),
            (lambda doc: doc["table"].update(conservative="no"),
             "table.conservative: expected true or false, got 'no'"),
            (lambda doc: doc["table"].update(seed=True), "table.seed: expected a number, got True"),
            (lambda doc: doc["table"].update(mc_reps=2.5),
             "table.mc_reps: expected an integer, got 2.5"),
            (lambda doc: doc["table"]["entries"][0].update(kappa=math.nan),
             "table.entries[0].kappa: must be finite"),
            (lambda doc: doc["table"]["entries"][1].update(kappa=math.inf),
             "table.entries[1].kappa: must be finite"),
            (lambda doc: doc.update(note="hand edited"), "note: unknown field"),
            (lambda doc: doc["table"]["entries"][0].update(sigma=1.0),
             "table.entries[0].sigma: unknown field"),
        ],
        ids=["fractional d", "string d", "string flag", "boolean seed", "fractional reps",
             "nan kappa", "infinite kappa", "unknown key", "unknown entry key"],
    )
    def test_lax_spec_field_exit_3(self, tmp_path, table3, capsys, edit, message):
        # each edit loaded, coerced or ignored, before the strict reader
        doc = json.loads(table3.read_text())
        edit(doc)
        table = tmp_path / "edited.json"
        table.write_text(json.dumps(doc))
        data = write_null_csv(tmp_path / "null.csv")
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(table))
        assert code == 3 and out == ""
        assert err == f"error: {table}: not a calibrated test specification: {message}\n"

    @pytest.mark.parametrize("where", ["spec", "table", "both"])
    def test_other_schema_version_exit_3(self, tmp_path, table3, capsys, where):
        doc = json.loads(table3.read_text())
        if where in ("spec", "both"):
            doc["schema_version"] = 7
        if where in ("table", "both"):
            doc["table"]["schema_version"] = 7
        table = tmp_path / "v7.json"
        table.write_text(json.dumps(doc))
        data = write_null_csv(tmp_path / "null.csv")
        code, out, err = run_cli(capsys, "test", "--data", str(data), "--table", str(table))
        assert code == 3 and out == ""
        assert "schema_version 7 is not 1" in err

    def test_missing_file_exit_3(self, tmp_path, table3, capsys):
        code, _, err = run_cli(
            capsys, "test", "--data", str(tmp_path / "nope.csv"), "--table", str(table3)
        )
        assert code == 3 and "nope.csv" in err


class TestInvert:
    @pytest.fixture()
    def iv_csv(self, tmp_path):
        rng = np.random.default_rng(7)
        n, pi, beta_true, rho = 300, np.array([1.2, 0.8, 0.5]), 2.0, 0.4
        z = rng.standard_normal((n, 3))
        e = rng.standard_normal((n, 2))
        u = e[:, 0]
        v = rho * e[:, 0] + math.sqrt(1 - rho * rho) * e[:, 1]
        endog = z @ pi + v
        y = beta_true * endog + u
        path = tmp_path / "iv.csv"
        np.savetxt(
            path, np.column_stack([y, endog, z]),
            fmt="%.17g", delimiter=",", header="y,Y,z1,z2,z3", comments="",
        )
        return path

    def test_retains_true_beta_and_drops_far_candidates(self, iv_csv, capsys):
        code, out, _ = run_cli(
            capsys, "invert", "--data", str(iv_csv), "--grid", "0:4:0.5",
            "--p", "2", "--alpha", "0.05", "--mc-reps", "20000",
        )
        assert code == 0
        retained = {float(line) for line in out.splitlines()}
        assert 2.0 in retained
        assert 0.0 not in retained and 4.0 not in retained

    def test_bad_grid_exit_2(self, iv_csv, capsys):
        for grid in ("1:2", "2:1:0.5", "1:2:0", "a:b:c"):
            code, _, err = run_cli(capsys, "invert", "--data", str(iv_csv), "--grid", grid)
            assert code == 2 and "--grid" in err

    def test_unknown_model_exit_2(self, iv_csv, capsys):
        # iv is the only model, so there is no --model flag, not even for iv
        for model in ("iv", "gmm"):
            code, _, err = run_cli(
                capsys, "invert", "--data", str(iv_csv), "--grid", "0:1:0.5", "--model", model
            )
            assert code == 2 and "unrecognized arguments: --model" in err

    @pytest.mark.parametrize("grid", ["0:1:1e-13", "0:1000000:1", "0:inf:1", "0:nan:1", "0:1:inf"])
    def test_oversized_grid_exit_2(self, tmp_path, capsys, grid):
        # rejected before the data file is read or any grid point allocated
        code, out, err = run_cli(
            capsys, "invert", "--data", str(tmp_path / "absent.csv"), "--grid", grid
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --grid:")

    def test_largest_grid_is_accepted(self):
        assert _parse_grid_range("0:999999:1").size == _MAX_GRID_POINTS == 10**6

    def test_bad_parameters_exit_2(self, iv_csv, capsys):
        for argv, msg in ((("--alpha", "2"), "alpha"), (("--mc-reps", "10"), "reps")):
            code, out, err = run_cli(
                capsys, "invert", "--data", str(iv_csv), "--grid", "0:1:0.5", *argv
            )
            assert code == 2 and err.startswith("error:") and msg in err
            assert out == ""

    def test_too_few_columns_exit_3(self, tmp_path, capsys):
        narrow = write_null_csv(tmp_path / "narrow.csv", d=2)
        code, _, err = run_cli(capsys, "invert", "--data", str(narrow), "--grid", "0:1:0.5")
        assert code == 3 and "y, Y, z1" in err

    def test_too_few_rows_exit_3(self, tmp_path, capsys):
        short = write_null_csv(tmp_path / "short.csv", n=3, d=3)
        code, out, err = run_cli(capsys, "invert", "--data", str(short), "--grid", "0:1:0.5")
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "difference pairs need n >= 4 rows, got 3" in err


class TestSimulate:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            json.dumps(
                {
                    "experiment": "cli-null",
                    "reps": 6,
                    "seed": 2,
                    "dgp": {"kind": "gaussian", "n": 40, "d": 3},
                    "test": {"alpha": 0.05, "mc_reps": 50000},
                }
            )
        )
        return path

    def test_runs_and_reports(self, config_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--out", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "simulation_report"
        assert doc["results"]["reps"] == 6
        assert "psi" in doc["results"]["rates"]
        assert doc["runtime"]["wall_clock_s"] > 0

    def test_results_section_deterministic(self, config_path, capsys):
        code1, out1, _ = run_cli(capsys, "simulate", "--config", str(config_path))
        code2, out2, _ = run_cli(capsys, "simulate", "--config", str(config_path))
        assert code1 == code2 == 0
        assert json.loads(out1)["results"] == json.loads(out2)["results"]

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"reps": 0, "dgp": {"kind": "gaussian", "n": 40, "d": 3}}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2 and "reps" in err

    @pytest.mark.parametrize(
        "field, value", [("experiment", None), ("test", {"extra_ps": ["3"]})]
    )
    def test_non_string_and_string_exponent_exit_2(self, tmp_path, capsys, field, value):
        path = tmp_path / "bad.json"
        config = {"reps": 1, "dgp": {"kind": "gaussian", "n": 40, "d": 3}, field: value}
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2 and field in err

    @pytest.mark.parametrize(
        "field, value", [("estimator", "trunc"), ("aux_rows", 30)]
    )
    def test_removed_test_field_forms_exit_2(self, tmp_path, capsys, field, value):
        path = tmp_path / "bad.json"
        config = {"reps": 1, "dgp": {"kind": "gaussian", "n": 40, "d": 3},
                  "test": {field: value}}
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: test.{field}: ")

    def test_malformed_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 3 and "invalid JSON" in err


class TestSplitTest:
    def test_selects_planted_column(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((200, 8))
        values[:, 5] += 0.9
        path = tmp_path / "wide.csv"
        np.savetxt(
            path, values, fmt="%.17g", delimiter=",",
            header=",".join(f"m{j}" for j in range(1, 9)), comments="",
        )
        out = tmp_path / "split.json"
        code, _, _ = run_cli(
            capsys, "split-test", "--data", str(path), "--d", "2",
            "--reps", "20000", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "split_test_report"
        assert 5 in doc["selected"]
        assert doc["n1"] == doc["n2"] == 100
        assert doc["report"]["dominant"]["reject"] is True

    def test_bad_d_exit_2(self, tmp_path, capsys):
        data = write_null_csv(tmp_path / "null.csv")
        code, _, err = run_cli(capsys, "split-test", "--data", str(data), "--d", "9")
        assert code == 2 and "1 <= d" in err

    @pytest.mark.parametrize("n, sizes", [(6, "3 and 3"), (3, "2 and 1")])
    def test_too_few_rows_to_split_exit_3(self, tmp_path, capsys, n, sizes):
        # unusable data, as for test and invert; d > D above stays a usage error
        data = write_null_csv(tmp_path / "short.csv", n=n)
        code, out, err = run_cli(capsys, "split-test", "--data", str(data), "--d", "2")
        assert code == 3 and out == ""
        assert err.startswith("error: difference pairs need n >= 4 rows")
        assert f"folds of sizes {sizes} are too small" in err and len(err.splitlines()) == 1


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0 and "subcommand" in out or "usage" in out

    def test_missing_required_flag_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--d", "3")
        assert code == 2 and "required" in err


@pytest.mark.parametrize(
    "command, required",
    [
        ("test", ("--table", "spec.json")),
        ("invert", ("--grid", "0:1:1")),
        ("split-test", ("--d", "2")),
    ],
)
def test_estimator_takes_full_names_only(tmp_path, capsys, command, required):
    code, out, err = run_cli(
        capsys, command, "--data", str(tmp_path / "absent.csv"), *required,
        "--estimator", "trunc",
    )
    assert code == 2 and out == ""
    assert "invalid choice: 'trunc'" in err


@pytest.mark.parametrize("estimator", ["sample", "truncated"])
@pytest.mark.parametrize("trunc_mult", ["3", "2", "0"])
def test_trunc_mult_flag_is_gone(tmp_path, table3, capsys, estimator, trunc_mult):
    # the truncated estimator has one level, so the old flag is unknown for
    # either estimator and every value, the default level included
    data = write_null_csv(tmp_path / "s.csv")
    code, out, err = run_cli(
        capsys, "test", "--data", str(data), "--table", str(table3),
        "--estimator", estimator, "--trunc-mult", trunc_mult,
    )
    assert code == 2 and out == ""
    assert f"unrecognized arguments: --trunc-mult {trunc_mult}" in err


def test_bad_extra_p_exits_2_before_any_draw(tmp_path, capsys, monkeypatch):
    def draws(*args):
        raise AssertionError("reference draws began before --extra-p was checked")

    monkeypatch.setattr(critical_values, "_reference_norms", draws)
    out = tmp_path / "spec.json"
    code, stdout, err = run_cli(
        capsys, "calibrate", "--d", "3", "--alpha", "0.05", "--extra-p", "3,1.5",
        "--out", str(out),
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: bad exponent '1.5': exponent must satisfy p >= 2")


def test_extra_p_is_a_calibrate_flag_only(tmp_path, table3, capsys):
    # the table holds every exponent a report covers, so test takes none
    data = write_null_csv(tmp_path / "s.csv")
    code, out, err = run_cli(
        capsys, "test", "--data", str(data), "--table", str(table3), "--extra-p", "8"
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments: --extra-p 8" in err


def test_calibrated_extras_are_in_the_table_and_the_report(tmp_path, table3, capsys):
    out = tmp_path / "extras.json"
    code, _, _ = run_cli(
        capsys, "calibrate", "--d", "3", "--alpha", "0.05", "--reps", "50000", "--seed", "1",
        "--extra-p", "16,2.5,inf,2.5", "--out", str(out),
    )
    assert code == 0
    with_extras, plain = (json.loads(path.read_text())["table"] for path in (out, table3))
    # grid and inf are already calibrated; the rest follow the grid, sorted
    assert [e["p"] for e in with_extras.pop("extras")] == [2.5, 16.0]
    assert with_extras == plain
    data = write_null_csv(tmp_path / "s.csv")
    code, report, _ = run_cli(capsys, "test", "--data", str(data), "--table", str(out))
    assert code == 0
    assert [r["p"] for r in json.loads(report)["per_p"]] == [2.0, 3.0, 4.0, "inf", 2.5, 16.0]
