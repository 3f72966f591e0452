"""Tests for the core pipeline: statistics, whitening, decisions, inversion."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import pinvh

from pnormtest.covariance import MomentSample, difference_pairs, sample_cov
from pnormtest.critical_values import kappa_p_asymptotic, mc_pnorm_quantile
from pnormtest.dominant_test import DominantTestSpec, calibrate_spec, default_spec
from pnormtest.gaussian_moments import INF, as_exponent
from pnormtest.matrix_core import SymMatrix
from pnormtest.sample_split import split_test
from pnormtest import test_engine
from pnormtest.test_engine import (
    _whiten_stack,
    invert_confidence_set,
    p_norm_stat,
    prepare_standardized,
    run_tests,
    standardize,
    theta_oracle,
)


def gaussian_sample(n, d, seed, shift=None):
    rows = np.random.default_rng(seed).standard_normal((n, d))
    if shift is not None:
        rows = rows + np.asarray(shift)
    return rows


class TestStandardize:
    def test_diagonal(self):
        x, w, rank = standardize(np.array([2.0, 3.0]), np.diag([4.0, 9.0]))
        assert np.allclose(x, [1.0, 1.0])
        assert (w[0], w[-1]) == pytest.approx((4.0, 9.0))
        assert rank == 2

    def test_identity_passthrough(self):
        h = np.array([0.3, -1.2, 4.0])
        x, _, _ = standardize(h, np.eye(3))
        assert np.allclose(x, h)

    def test_singular_direction_projected(self):
        with pytest.warns(RuntimeWarning, match="rank 1"):
            x, _, rank = standardize(np.array([1.0, 1.0]), np.diag([1.0, 0.0]))
        assert np.allclose(x, [1.0, 0.0])
        assert rank == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            standardize(np.ones(3), np.eye(2))


class TestPNormStat:
    def test_worked_examples(self):
        assert p_norm_stat([3.0, 4.0], 2) == pytest.approx(5.0, abs=1e-12)
        assert p_norm_stat([3.0, 4.0], INF) == pytest.approx(4.0, abs=1e-15)
        assert p_norm_stat([1.0, 1.0, 1.0, 1.0], 4) == pytest.approx(
            4.0**0.25, abs=1e-12
        )

    def test_zero_vector(self):
        assert p_norm_stat(np.zeros(7), 3) == 0.0
        assert p_norm_stat(np.zeros(7), INF) == 0.0

    def test_no_overflow_for_huge_entries(self):
        v = np.full(100, 1e300)
        got = p_norm_stat(v, 40)
        assert np.isfinite(got)
        assert got == pytest.approx(1e300 * 100 ** (1.0 / 40.0), rel=1e-12)

    def test_squared_two_norm_identity(self):
        # S_2^2 = H' pinv(Sigma) H via an independent scipy route
        rng = np.random.default_rng(5)
        for d in (3, 10, 25):
            mat = rng.standard_normal((d + 4, d))
            sigma = SymMatrix(mat.T @ mat / (d + 4))
            h = rng.standard_normal(d)
            s2 = p_norm_stat(standardize(h, sigma)[0], 2)
            quad = float(h @ pinvh(sigma.entries) @ h)
            assert s2**2 == pytest.approx(quad, rel=1e-9)

    @given(
        v=hnp.arrays(
            np.float64,
            st.integers(1, 30),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        p=st.floats(2.0, 40.0),
        q_extra=st.floats(0.1, 20.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_norm_chain(self, v, p, q_extra):
        q = p + q_extra
        tol = 1e-9 * (1.0 + np.max(np.abs(v)))
        s2, sp, sq, si = (p_norm_stat(v, t) for t in (2.0, p, q, INF))
        assert si <= sq + tol
        assert sq <= sp + tol
        assert sp <= s2 + tol


class TestThetaOracle:
    def test_null_is_zero(self):
        out = theta_oracle(np.zeros(4), np.eye(4), 50)
        assert isinstance(out, np.ndarray) and out.shape == (4,)
        assert np.all(out == 0.0)

    def test_identity_scaling(self):
        out = theta_oracle(np.array([1.0, 0.0]), np.eye(2), 100)
        assert np.allclose(out, [10.0, 0.0])

    def test_diagonal_scaling(self):
        out = theta_oracle(np.array([1.0, 1.0]), np.diag([4.0, 1.0]), 4)
        assert np.allclose(out, [1.0, 2.0])

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(ValueError):
            theta_oracle(np.ones(2), np.diag([1.0, -1.0]), 4)

    def test_rejects_nan_n(self):
        with pytest.raises(ValueError, match="n must be >= 1, got nan"):
            theta_oracle(np.ones(2), np.eye(2), math.nan)

    def test_rejects_infinite_n(self):
        with pytest.raises(ValueError, match="theta entries must be finite"):
            theta_oracle(np.ones(2), np.eye(2), math.inf)


class TestPrepareStandardized:
    def test_debias_factor_applied(self):
        s = gaussian_sample(12, 2, seed=0)
        _, _, _, sigma, pairs = prepare_standardized(s)
        aux = difference_pairs(s)
        m, d = aux.shape
        raw = sample_cov(aux)
        assert np.allclose(sigma, raw.entries * (m / (m - d - 1)))
        assert pairs.shape[0] == 6

    def test_no_debias_when_m_too_small(self):
        # m = 3 rows, d = 2 -> m < d + 2, the raw estimate is kept
        s = gaussian_sample(6, 2, seed=1)
        sigma = prepare_standardized(s)[3]
        assert np.allclose(sigma, sample_cov(difference_pairs(s)).entries)

    def test_truncation_plumbs_through(self):
        rows = np.random.default_rng(2).standard_normal((40, 3))
        rows[0] *= 50.0
        plain = prepare_standardized(rows, estimator="sample")[3]
        trunc = prepare_standardized(
            rows, estimator="truncated", trunc_mult=1.0
        )[3]
        assert not np.allclose(plain, trunc)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError, match="estimator"):
            prepare_standardized(gaussian_sample(12, 2, seed=0), estimator="ledoit")


class TestRankWarning:
    """A rank-deficient covariance estimate warns at the caller's line."""

    @pytest.mark.parametrize(
        "entry", ["run_tests", "split_test", "prepare_standardized", "standardize"]
    )
    def test_warning_names_the_caller(self, entry):
        rows = np.random.default_rng(4).standard_normal((400, 4))
        rows[:, 1] = rows[:, 0]  # rank 3
        spec = calibrate_spec(default_spec(4, 0.05), reps=20_000, seed=2)
        calls = {
            "run_tests": lambda: run_tests(rows, spec),
            "split_test": lambda: split_test(rows, 4, selection="top", spec=spec),
            "prepare_standardized": lambda: prepare_standardized(rows),
            "standardize": lambda: standardize(np.ones(4), np.cov(rows.T)),
        }
        with pytest.warns(RuntimeWarning, match="numerical rank 3") as rec:
            calls[entry]()
        assert [w.filename for w in rec if "numerical rank" in str(w.message)] == [__file__]


class TestWhitenStack:
    """The stacked kernel: each stacked sample is whitened as if alone."""

    @pytest.mark.parametrize("estimator", ["sample", "truncated"])
    @pytest.mark.parametrize("shape", [(5, 61, 7), (3, 10, 8), (1, 40, 3), (4, 2, 30, 4)])
    def test_stack_rows_equal_single_calls_bitwise(self, estimator, shape):
        # t(3) rows so truncation bites; (3, 10, 8) has m = 5 < d (rank 5)
        values = np.random.default_rng(sum(shape)).standard_t(3.0, size=shape)
        stacked = _whiten_stack(values, estimator, 1.5)
        for idx in np.ndindex(shape[:-2]):
            alone = _whiten_stack(values[idx][None], estimator, 1.5)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[idx], want[0])
        expected_rank = min(shape[-2] // 2, shape[-1])
        assert np.all(stacked[2] == expected_rank)

    def test_matches_prepare_standardized(self):
        values = np.random.default_rng(3).standard_normal((2, 50, 6))
        x, w, rank, sigma, aux = _whiten_stack(values, "sample", 3.0)
        got = prepare_standardized(values[1])
        for array, want in zip(got, (x[1], w[1], rank[1], sigma[1], aux[1])):
            assert np.array_equal(array, want)

    def test_indefinite_member_rejected(self):
        # a covariance matrix is never indefinite, so whiten one directly
        sigma = np.stack([np.eye(2), np.diag([1.0, -0.5])])
        with pytest.raises(ValueError, match="not positive semidefinite"):
            test_engine._whiten(np.ones((2, 2)), sigma)


@pytest.fixture(scope="module")
def spec20():
    return calibrate_spec(default_spec(20, 0.05), reps=200_000, seed=1)


class TestRunTests:
    def test_report_structure(self, spec20):
        report = run_tests(gaussian_sample(400, 20, seed=7), spec20)
        assert report.d == 20 and report.n == 400
        assert tuple(r.p for r in report.per_p) == spec20.exponents
        for rec in report.per_p:
            assert rec.source == "calibrated"
            assert rec.reject == (rec.statistic >= rec.critical)
        assert report.dominant.c_n == spec20.table.c_n
        assert isinstance(report.kurtosis, float) and report.kurtosis > 0
        assert report.rank == 20

    def test_big_shift_rejects_sup_and_psi(self, spec20):
        shift = np.zeros(20)
        shift[0] = 10.0 / math.sqrt(400)  # ten standard errors on coordinate 1
        report = run_tests(gaussian_sample(400, 20, seed=7, shift=shift), spec20)
        assert report.record(INF).reject
        assert report.dominant.reject

    def test_dimension_mismatch(self, spec20):
        with pytest.raises(ValueError, match="d=5"):
            run_tests(gaussian_sample(100, 5, seed=0), spec20)

    def test_uncalibrated_spec(self):
        with pytest.raises(ValueError, match="calibrat"):
            run_tests(gaussian_sample(100, 5, seed=0), default_spec(5, 0.05))

    def test_one_dimensional_norms_coincide(self):
        spec = calibrate_spec(
            DominantTestSpec(
                d=1,
                alpha_total=0.05,
                alpha_2=0.025,
                alpha_I=0.0,
                alpha_inf=0.025,
                p_grid=(),
                per_p_shares=(),
            ),
            reps=20_000,
            seed=2,
        )
        report = run_tests(gaussian_sample(60, 1, seed=3), spec)
        stats = [r.statistic for r in report.per_p]
        assert stats[0] == pytest.approx(stats[1], rel=1e-12)

    def test_scale_invariance(self, spec20):
        base = gaussian_sample(400, 20, seed=11)
        scaled = base * 37.5
        a = run_tests(base, spec20)
        b = run_tests(scaled, spec20)
        for ra, rb in zip(a.per_p, b.per_p):
            assert rb.statistic == pytest.approx(ra.statistic, rel=1e-8)
            assert ra.reject == rb.reject
        assert a.dominant.reject == b.dominant.reject

    def test_dominance_mechanics(self, spec20):
        # c_n <= 1, so any grid exponent at or above its share kappa
        # must force the combined rejection
        hits = 0
        for seed in range(60):
            shift = np.zeros(20)
            shift[0] = 0.18  # borderline shift, mixes rejections and not
            report = run_tests(gaussian_sample(400, 20, seed=seed, shift=shift), spec20)
            exceeds = any(
                report.record(p).statistic >= spec20.table.kappa(p)
                for p in spec20.exponents
            )
            if exceeds:
                hits += 1
                assert report.dominant.reject
        assert hits > 5  # the implication premise actually fired

    def test_extra_exponents_use_formula(self, spec20):
        report = run_tests(
            gaussian_sample(400, 20, seed=7),
            spec20,
            extra_ps=(6.5, 2),  # 2 is already in the grid and is not duplicated
        )
        extras = [r for r in report.per_p if r.source == "formula"]
        assert [r.p for r in extras] == [as_exponent(6.5)]
        assert extras[0].critical == pytest.approx(
            kappa_p_asymptotic(6.5, 20, 0.05), abs=1e-12
        )
        assert sum(1 for r in report.per_p if r.p == as_exponent(2)) == 1

    def test_mismatched_table_aux_rows_warns(self):
        # table drawn for m=150 difference pairs, sample of n=400 has 200
        spec = calibrate_spec(default_spec(20, 0.05), reps=200_000, seed=1, aux_rows=150)
        with pytest.warns(RuntimeWarning, match=r"aux_rows=150 .* has 200") as rec:
            run_tests(gaussian_sample(400, 20, seed=7), spec)
        assert rec[0].filename == __file__

    def test_matched_table_aux_rows_is_silent(self):
        spec = calibrate_spec(default_spec(20, 0.05), reps=200_000, seed=1, aux_rows=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_tests(gaussian_sample(400, 20, seed=7), spec)
            run_tests(gaussian_sample(401, 20, seed=7), spec)

    def test_one_eigh_and_no_eigvalsh(self, spec20, monkeypatch):
        calls = {"eigh": 0, "eigvalsh": 0}

        def counted(name):
            original = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        for estimator in ("sample", "truncated"):
            run_tests(gaussian_sample(400, 20, seed=7), spec20, estimator=estimator)
        assert calls == {"eigh": 2, "eigvalsh": 0}

    def test_trunc_alias(self, spec20):
        s = gaussian_sample(400, 20, seed=7)
        message = r"unknown estimator 'trunc'; expected one of \['sample', 'truncated'\]"
        with pytest.raises(ValueError, match=message):
            run_tests(s, spec20, estimator="trunc")
        assert run_tests(s, spec20, estimator="truncated").estimator == "truncated"

    def test_json_dict(self, spec20):
        doc = run_tests(gaussian_sample(400, 20, seed=7), spec20).to_json_dict()
        assert doc["per_p"][-1]["p"] == "inf"
        assert set(doc["dominant"]) == {"c_n", "max_ratio", "reject"}
        assert doc["diagnostics"]["rank"] == 20


class TestInvertConfidenceSet:
    @staticmethod
    def location_model(data):
        return lambda beta: data - beta

    def test_grid_separation(self):
        data = np.random.default_rng(4).standard_normal((200, 3))
        cs = invert_confidence_set(
            self.location_model(data), [-1.0, -0.5, 0.0, 0.5, 1.0], 2, 0.05,
            mc_reps=50_000,
        )
        assert 0.0 in cs.retained
        assert -1.0 not in cs.retained and 1.0 not in cs.retained

    def test_critical_override_bounds(self):
        data = np.random.default_rng(4).standard_normal((40, 2))
        model = self.location_model(data)
        everything = invert_confidence_set(model, [0.0, 5.0], 2, 0.05, critical=1e9)
        assert everything.retained == (0.0, 5.0)
        nothing = invert_confidence_set(model, [0.0, 5.0], 2, 0.05, critical=1e-12)
        assert nothing.retained == ()

    @pytest.mark.parametrize("critical", [math.nan, -1.0, 0.0, math.inf])
    def test_critical_must_be_finite_and_positive(self, critical):
        # nan, -1 and 0 used to retain no candidate, inf every candidate
        model = self.location_model(np.random.default_rng(4).standard_normal((40, 2)))
        with pytest.raises(ValueError, match="critical must be finite and positive"):
            invert_confidence_set(model, [0.0, 0.1], 2, 0.05, critical=critical)

    def test_fewer_than_four_rows_rejected(self):
        # a 3 x 2 sample has one difference pair: no candidate can be tested
        data = np.random.default_rng(4).standard_normal((3, 2))
        with pytest.raises(ValueError, match="n >= 4"):
            invert_confidence_set(self.location_model(data), [0.0, 50.0, 1e6], 2, 0.05)

    def test_undetermined_candidate_retained(self):
        data = np.random.default_rng(4).standard_normal((40, 2))

        def model(beta):
            if beta == 99.0:
                bad = data.copy()
                bad[0, 0] = np.nan
                return bad
            return data - beta

        with pytest.warns(RuntimeWarning, match="undetermined"):
            cs = invert_confidence_set(model, [0.0, 99.0], 2, 0.05, critical=3.0)
        rec = cs.entries[1]
        assert rec.undetermined and rec.retained and math.isnan(rec.statistic)

    def test_inconsistent_model_is_usage_error(self):
        data = np.random.default_rng(4).standard_normal((40, 2))

        def model(beta):
            return data[:, :1] if beta == 1.0 else data

        with pytest.raises(ValueError, match="expected 40 x 2"):
            invert_confidence_set(model, [0.0, 1.0], 2, 0.05, critical=3.0)

    def test_moment_sample_output_rejected(self):
        # the model returns an array; a MomentSample is not read through
        data = np.random.default_rng(4).standard_normal((40, 2))
        with pytest.raises(TypeError, match="not 'MomentSample'"):
            invert_confidence_set(
                lambda beta: MomentSample(data - beta), [0.0], 2, 0.05, critical=3.0
            )

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="nonempty"):
            invert_confidence_set(lambda b: None, [], 2, 0.05)

    def test_alpha_checked_with_critical_given(self):
        data = np.random.default_rng(4).standard_normal((40, 2))
        with pytest.raises(ValueError, match="alpha"):
            invert_confidence_set(self.location_model(data), [0.0], 2, 1.5, critical=3.0)

    @staticmethod
    def spoiled_model(data, bad):
        # candidates in ``bad`` map to the spoiling function of their sample
        def model(beta):
            values = data - beta
            return bad[beta](values) if beta in bad else values

        return model

    def test_undetermined_first_candidate(self):
        data = np.random.default_rng(4).standard_normal((40, 2))

        def nan_at(values):
            values[0, 0] = np.nan
            return values

        model = self.spoiled_model(data, {99.0: nan_at})
        with pytest.warns(RuntimeWarning, match="undetermined"):
            cs = invert_confidence_set(model, [99.0, 0.0], 2, 0.05, critical=3.0)
        first, second = cs.entries
        assert first.undetermined and first.retained and math.isnan(first.statistic)
        assert not second.undetermined and math.isfinite(second.statistic)

    def test_later_candidate_of_other_rank_is_usage_error(self):
        data = np.random.default_rng(4).standard_normal((40, 2))
        model = self.spoiled_model(data, {1.0: lambda values: values[..., None]})
        with pytest.raises(ValueError, match="expected 40 x 2"):
            invert_confidence_set(model, [0.0, 1.0], 2, 0.05, critical=3.0)

    def test_overflowing_candidate_spares_its_chunk(self):
        # finite entries whose second moment overflows: the candidate is
        # undetermined, and its chunk neighbours keep their standalone bits
        data = np.random.default_rng(4).standard_normal((40, 2))
        model = self.spoiled_model(data, {0.5: lambda values: values * 1e200})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cs = invert_confidence_set(model, [0.0, 0.5, 1.0], 2, 0.05, critical=3.0)
        assert [str(w.message) for w in caught if "overflow" in str(w.message)] == []
        assert [e.undetermined for e in cs.entries] == [False, True, False]
        for i in (0, 2):
            alone = invert_confidence_set(model, [cs.entries[i].beta], 2, 0.05, critical=3.0)
            assert cs.entries[i].statistic == alone.entries[0].statistic

    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_statistics_invariant_to_chunk_size(self, monkeypatch, per_chunk):
        # 7 candidates, the one at 0.5 undetermined: in the middle of the
        # second chunk of 3, and in one chunk under the default budget
        data = np.random.default_rng(4).standard_t(5.0, size=(40, 2))
        model = self.spoiled_model(data, {0.5: lambda values: values * np.inf})
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]

        def stats():
            with pytest.warns(RuntimeWarning, match="undetermined"):
                cs = invert_confidence_set(
                    model, grid, 3, 0.05, estimator="truncated", critical=3.0
                )
            return np.array([e.statistic for e in cs.entries])

        want = stats()
        monkeypatch.setattr(test_engine, "_CHUNK_BYTES", per_chunk * 8 * 40 * 2)
        got = stats()
        np.testing.assert_array_equal(got, want)
        assert np.isnan(got).tolist() == [False] * 3 + [True] + [False] * 3

    def test_one_warning_per_inversion(self):
        data = np.random.default_rng(4).standard_normal((40, 2))
        model = self.spoiled_model(
            data, {1.0: lambda values: values * np.nan, 2.0: lambda values: values * np.inf}
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            invert_confidence_set(model, [0.0, 1.0, 2.0, 3.0], 2, 0.05, critical=3.0)
        assert len(caught) == 1 and caught[0].category is RuntimeWarning
        assert "2 of 4 candidates undetermined" in str(caught[0].message)

    def test_rank_deficient_candidates_counted(self):
        # 8 rows give 4 difference pairs for d = 6
        data = np.random.default_rng(4).standard_normal((8, 6))
        with pytest.warns(RuntimeWarning, match="0 of 3 .* 3 with a rank-deficient"):
            invert_confidence_set(self.location_model(data), [0.0, 1.0, 2.0], 2, 0.05,
                                  critical=3.0)

    def test_single_point_coverage(self):
        # size experiment at the true location: retain rate ~ 1 - alpha
        crit = mc_pnorm_quantile(2, 3, 0.05, reps=50_000, seed=9, aux_rows=40)
        kept = 0
        reps = 400
        for seed in range(reps):
            data = np.random.default_rng((21, seed)).standard_normal((80, 3))
            cs = invert_confidence_set(
                self.location_model(data), [0.0], 2, 0.05, critical=crit
            )
            kept += bool(cs.retained)
        assert kept / reps == pytest.approx(0.95, abs=0.04)


GOLDEN_REPORTS = Path(__file__).parent / "data" / "run_tests_400x40.json"


def test_reports_match_golden_fixture():
    # Recorded before the stacked whitening kernel replaced the per-sample
    # path (eigvalsh + eigh + full inverse root, one p_norm_stat per
    # exponent).  Statistics agree to rel 1e-10, decisions exactly.
    rng = np.random.default_rng(20241)
    values = rng.standard_t(4.0, size=(400, 40))
    values[:, :3] += 0.2
    spec = calibrate_spec(
        DominantTestSpec(
            d=40,
            alpha_total=0.05,
            alpha_2=0.01,
            alpha_I=0.03,
            alpha_inf=0.01,
            p_grid=(3.0, 4.0, 6.0),
            per_p_shares=(0.01, 0.01, 0.01),
        ),
        reps=20_000,
        seed=5,
        aux_rows=200,
    )
    golden = json.loads(GOLDEN_REPORTS.read_text())
    for estimator, want in golden.items():
        got = run_tests(
            values, spec, estimator=estimator, trunc_mult=1.2, extra_ps=(2.5, 8.0, INF)
        ).to_json_dict()
        assert [r["p"] for r in got["per_p"]] == [r["p"] for r in want["per_p"]]
        for g, w in zip(got["per_p"], want["per_p"]):
            assert g["statistic"] == pytest.approx(w["statistic"], rel=1e-10)
            assert g["critical"] == w["critical"]
            assert (g["reject"], g["source"]) == (w["reject"], w["source"])
        assert got["dominant"]["max_ratio"] == pytest.approx(
            want["dominant"]["max_ratio"], rel=1e-10
        )
        assert got["dominant"]["c_n"] == want["dominant"]["c_n"]
        assert got["dominant"]["reject"] == want["dominant"]["reject"]
        for key in ("min_eig", "max_eig", "kurtosis"):
            assert got["diagnostics"][key] == pytest.approx(
                want["diagnostics"][key], rel=1e-10
            )
        assert got["diagnostics"]["rank"] == want["diagnostics"]["rank"]
        assert (got["d"], got["n"], got["estimator"]) == (40, 400, estimator)
    # the fixture exercises both decisions and an active truncation
    rejects = [r["reject"] for r in golden["truncated"]["per_p"]]
    assert any(rejects) and not all(rejects)
    assert golden["truncated"]["diagnostics"] != golden["sample"]["diagnostics"]
