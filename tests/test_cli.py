import json
import math

import numpy as np
import pytest

from pnormtest.cli import main
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

    def test_critical_value_table(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--p", "2,inf", "--d", "100", "--alpha", "0.05")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert float(rows[0][3]) == kappa_p_asymptotic(2, 100, 0.05)
        assert float(rows[1][3]) == kappa_inf_exact(100, 0.05)

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
        assert [e.value for e in spec.exponents] == [2.0, 4.0, math.inf]
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

    def test_shifted_data_rejects(self, tmp_path, table3, capsys):
        data = write_null_csv(tmp_path / "shift.csv", n=100, shift=1.5)
        code, out, _ = run_cli(
            capsys, "test", "--data", str(data), "--table", str(table3),
            "--estimator", "trunc", "--extra-p", "8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dominant"]["reject"] is True
        assert doc["estimator"] == "truncated"
        assert any(r["p"] == 8.0 and r["source"] == "formula" for r in doc["per_p"])

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
        code, _, err = run_cli(
            capsys, "invert", "--data", str(iv_csv), "--grid", "0:1:0.5", "--model", "gmm"
        )
        assert code == 2 and "--model" in err

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
            capsys, "simulate", "--config", str(config_path), "--out", str(out), "--threads", "2"
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


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0 and "subcommand" in out or "usage" in out

    def test_missing_required_flag_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--d", "3")
        assert code == 2 and "required" in err
