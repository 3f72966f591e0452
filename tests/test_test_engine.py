"""Tests for the core pipeline: statistics, whitening, decisions, inversion."""

import json
import math
import re
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import pinvh

from pnormtest.covariance import (
    MomentSample,
    difference_pairs,
    kurtosis_diagnostic,
    sample_cov,
)
from pnormtest.critical_values import (
    CriticalValueTable,
    _RadialLaw,
    _batch_pnorms,
    kappa_p_asymptotic,
    mc_pnorm_quantile,
)
from pnormtest.dominant_test import DominantTestSpec, calibrate_spec, default_spec
from pnormtest.matrix_core import SymMatrix
from pnormtest.sample_split import split_test
from pnormtest import covariance, test_engine
from pnormtest.test_engine import (
    invert_confidence_set,
    p_norm_stat,
    prepare_standardized,
    run_tests,
    standardize,
    theta_oracle,
)


def whiten_stack(values, estimator):
    """The kernel on a stack of samples (..., n, d): whitened vectors,
    extreme eigenvalues, ranks, covariance estimates and pair rows."""
    *lead, _, d = values.shape
    h, sigma = np.empty((*lead, d)), np.empty((*lead, d, d))
    aux = test_engine._moments(values, estimator, h, sigma)
    x, w, rank, _ = test_engine._whiten(h, sigma)
    return x, w, rank, sigma, aux


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
        with pytest.raises(ValueError, match=r"^h: expected a d-vector \(d = 2\), got shape"):
            standardize(np.ones(3), np.eye(2))


class TestPNormStat:
    def test_worked_examples(self):
        assert p_norm_stat([3.0, 4.0], 2) == pytest.approx(5.0, abs=1e-12)
        assert p_norm_stat([3.0, 4.0], math.inf) == pytest.approx(4.0, abs=1e-15)
        assert p_norm_stat([1.0, 1.0, 1.0, 1.0], 4) == pytest.approx(
            4.0**0.25, abs=1e-12
        )

    def test_zero_vector(self):
        assert p_norm_stat(np.zeros(7), 3) == 0.0
        assert p_norm_stat(np.zeros(7), math.inf) == 0.0

    def test_rejects_an_empty_vector(self):
        with pytest.raises(ValueError, match=r"^v: expected a non-empty vector, got shape \(0,\)$"):
            p_norm_stat([], 2)

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
        s2, sp, sq, si = (p_norm_stat(v, t) for t in (2.0, p, q, math.inf))
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

    @pytest.mark.parametrize("n", ["4", True])
    def test_rejects_a_non_real_n(self, n):
        with pytest.raises(TypeError, match=f"^n must be a real number, got {re.escape(repr(n))}$"):
            theta_oracle(np.ones(2), np.eye(2), n)

    def test_rejects_infinite_n(self):
        with pytest.raises(ValueError, match="theta entries must be finite"):
            theta_oracle(np.ones(2), np.eye(2), math.inf)


def law_at(m, d, seed):
    """For a 2m x d sample: its matched law's row count, whether a table
    accepts aux_rows=m, and the kernel's covariance estimate with the raw
    second moment of the sample's m difference pairs."""
    s = gaussian_sample(2 * m, d, seed=seed)
    table = dict(
        d=d, alpha_total=0.05, entries={2.0: (0.05, 3.0)}, c_n=1.0,
        conservative=False, mc_reps=20_000, seed=0, standalone={2.0: 3.0},
    )
    try:
        accepted = CriticalValueTable(**table, aux_rows=m).aux_rows == m
    except ValueError:
        accepted = False
    sigma, pairs = whiten_stack(s[None], "sample")[3:]
    assert pairs.shape == (1, m, d)
    raw = sample_cov(difference_pairs(s)).entries
    return _RadialLaw.matched_rows(2 * m, d), accepted, sigma[0], raw


class TestPrepareStandardized:
    # the matched law, the table's aux_rows check and the kernel's debias
    # follow one rule: m = d + 2 difference pairs name the law, m = d + 1 do not
    @pytest.mark.parametrize("d", [1, 9, 40])
    def test_debias_factor_applied(self, d):
        m = d + 2
        rows, accepted, sigma, raw = law_at(m, d, seed=0)
        assert rows == m and accepted
        assert np.allclose(sigma, raw * (m / (m - d - 1)))

    @pytest.mark.parametrize("d", [1, 9, 40])
    def test_no_debias_when_m_too_small(self, d):
        rows, accepted, sigma, raw = law_at(d + 1, d, seed=1)
        assert rows is None and not accepted
        assert np.array_equal(sigma, raw)

    def test_truncation_plumbs_through(self, monkeypatch):
        monkeypatch.setattr(covariance, "_TRUNC_MULT", 1.0)
        rows = np.random.default_rng(2).standard_normal((40, 3))
        rows[0] *= 50.0
        plain = prepare_standardized(rows, estimator="sample")[3]
        trunc = prepare_standardized(rows, estimator="truncated")[3]
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
    def test_stack_rows_equal_single_calls_bitwise(self, monkeypatch, estimator, shape):
        # t(3) rows so truncation bites; (3, 10, 8) has m = 5 < d (rank 5)
        monkeypatch.setattr(covariance, "_TRUNC_MULT", 1.5)
        values = np.random.default_rng(sum(shape)).standard_t(3.0, size=shape)
        stacked = whiten_stack(values, estimator)
        for idx in np.ndindex(shape[:-2]):
            alone = whiten_stack(values[idx][None], estimator)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[idx], want[0])
        expected_rank = min(shape[-2] // 2, shape[-1])
        assert np.all(stacked[2] == expected_rank)

    def test_matches_prepare_standardized(self):
        values = np.random.default_rng(3).standard_normal((2, 50, 6))
        x, w, rank, sigma, aux = whiten_stack(values, "sample")
        got = prepare_standardized(values[1])
        for array, want in zip(got, (x[1], w[1], rank[1], sigma[1], aux[1])):
            assert np.array_equal(array, want)

    @pytest.mark.parametrize("estimator", ["sample", "truncated"])
    @pytest.mark.parametrize("shape", [(11, 41, 5), (7, 10, 8), (7, 64, 30)])
    @pytest.mark.parametrize("switch_interval", [None, 1e-6])
    def test_replay_equals_stacked_kernel_for_any_lanes_and_spans(
        self, monkeypatch, estimator, shape, switch_interval
    ):
        # 2 samples a lane chunk on 1, 2, 3 and 8 lanes; spans of one chunk,
        # of 5 samples (eigh sub-stacks of 3) and under the default budget
        count, n, d = shape
        monkeypatch.setattr(covariance, "_TRUNC_MULT", 1.2)
        values = np.random.default_rng(count).standard_t(4.0, size=shape)
        x, _, rank, _, _ = whiten_stack(values, estimator)
        interval = sys.getswitchinterval()
        if switch_interval is not None:
            sys.setswitchinterval(switch_interval)
        try:
            self.check_replay(monkeypatch, values, estimator, x, rank)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def check_replay(monkeypatch, values, estimator, x, rank):
        count, n, d = values.shape
        for lanes in (1, 2, 3, 8):
            monkeypatch.setattr(test_engine, "_CHUNK_BYTES", lanes * 2 * 8 * n * d)
            for span, eigh in ((2, 2), (5, 3), (None, None)):
                filled = []

                def fill(i, out):
                    filled.append(i)
                    out[...] = values[i]

                with monkeypatch.context() as budgets:
                    if span is not None:
                        budgets.setattr(test_engine, "_SPAN_BYTES", span * 8 * (d * (d + 1) // 2))
                        budgets.setattr(test_engine, "_EIGH_BYTES", eigh * 8 * d * d)
                    got = list(test_engine._replay(count, n, d, fill, estimator, lanes))
                assert sorted(filled) == list(range(count))
                assert [lo for lo, *_ in got] == [0] + [hi for _, hi, *_ in got[:-1]]
                assert got[-1][1] == count
                assert np.array_equal(np.concatenate([g[2] for g in got]), x)
                assert np.array_equal(np.concatenate([g[3] for g in got]), rank)

    @pytest.mark.parametrize("d", [1, 20, 26, 40])
    def test_whiten_reads_only_lower_triangles(self, d):
        # the replay's spans hold lower triangles only; from d = 26 eigh
        # takes LAPACK's divide-and-conquer path
        values = np.random.default_rng(d).standard_normal((3, 2 * d + 6, d))
        h, sigma = np.empty((3, d)), np.empty((3, d, d))
        test_engine._moments(values, "sample", h, sigma)
        poisoned = sigma.copy()
        upper = np.triu_indices(d, 1)
        poisoned[:, upper[0], upper[1]] = np.nan
        for got, want in zip(test_engine._whiten(h, poisoned), test_engine._whiten(h, sigma)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_one_eigh_phase_per_packed_span(self, monkeypatch, lanes):
        count, n, d = 2000, 4, 40
        events = []
        whiten = test_engine._whiten

        def fill(i, out):
            events.append("fill")
            out[...] = 0.0

        def counted(h, sigma):
            events.append("eigh")
            return whiten(h, sigma)

        monkeypatch.setattr(test_engine, "_whiten", counted)
        for _ in test_engine._replay(count, n, d, fill, "sample", lanes):
            pass
        # an eigh phase ends at an eigh call not followed by another
        phases = sum(a == "eigh" != b for a, b in zip(events, events[1:] + ["end"]))
        per_span = test_engine._SPAN_BYTES // (8 * (d * (d + 1) // 2))
        assert events.count("fill") == count
        assert phases == math.ceil(count / per_span)

    def test_indefinite_member_rejected(self):
        # a covariance matrix is never indefinite, so whiten one directly
        sigma = np.stack([np.eye(2), np.diag([1.0, -0.5])])
        with pytest.raises(ValueError, match="not positive semidefinite"):
            test_engine._whiten(np.ones((2, 2)), sigma)


LANCZOS_D = test_engine._LANCZOS_MIN_D


def eigh_whiten(monkeypatch, h, sigma):
    # the eigh path's answer for the same stack of one
    with monkeypatch.context() as patch:
        patch.setattr(test_engine, "_LANCZOS_MIN_D", math.inf)
        return test_engine._whiten(h, sigma)


def moments_of(n, d, estimator, seed):
    values = np.random.default_rng([n, d, seed]).standard_t(6.0, size=(n, d))
    values[:, :3] += 0.1
    h, sigma = np.empty((1, d)), np.empty((1, d, d))
    test_engine._moments(values[None], estimator, h, sigma)
    return h, sigma


@pytest.fixture(scope="module")
def spec_lanczos():
    share = 0.05 / 6  # the grid 2, 3, 4, 6, 8, inf with equal shares
    spec = DominantTestSpec(
        d=LANCZOS_D,
        alpha_total=0.05,
        alpha_2=share,
        alpha_I=4 * share,
        alpha_inf=share,
        p_grid=(3.0, 4.0, 6.0, 8.0),
        per_p_shares=(share,) * 4,
    )
    return calibrate_spec(spec, reps=20_000, seed=2)


class TestLanczosWhitening:
    """A stack of one matrix with d >= _LANCZOS_MIN_D is whitened by Lanczos,
    certified by one Cholesky, and falls back to eigh when it cannot be."""

    PS = [2.0, 3.0, 4.0, 6.0, 8.0, math.inf]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("estimator", ["sample", "truncated"])
    @pytest.mark.parametrize("ratio", [2, 4, pytest.param(1.2, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("d", [LANCZOS_D, 300, pytest.param(1000, marks=pytest.mark.slow)])
    def test_agrees_with_eigh(self, monkeypatch, d, ratio, estimator, seed):
        h, sigma = moments_of(int(2 * ratio * d), d, estimator, seed)
        x, extremes, rank, whitening = test_engine._whiten(h, sigma)
        want_x, want_extremes, want_rank, _ = eigh_whiten(monkeypatch, h, sigma)
        if ratio == 1.2 and d < 1000:  # condition about 430: the bail-out fires
            assert whitening == ("eigh", "cap")
        elif d < 1000:
            assert whitening == ("lanczos", None)
        # at d = 1000 the Krylov space of H can miss the bottom eigenvector
        # (sample seed 0, m/d = 4): the certificate fails, eigh answers
        stats, want = _batch_pnorms(x, self.PS), _batch_pnorms(want_x, self.PS)
        np.testing.assert_allclose(stats, want, rtol=1e-12)
        np.testing.assert_allclose(extremes, want_extremes, rtol=1e-12)
        assert rank[0] == want_rank[0] == d

    def test_report_names_the_path(self, spec_lanczos, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        values = gaussian_sample(4 * LANCZOS_D, LANCZOS_D, seed=3)
        report = run_tests(values, spec_lanczos)
        doc = report.to_json_dict()
        assert doc["diagnostics"]["whitening"] == {"path": "lanczos", "fallback": None}
        assert report.rank == LANCZOS_D
        # only the small tridiagonal problems: no d x d eigenvectors
        assert shapes and all(shape[-1] < LANCZOS_D for shape in shapes)
        monkeypatch.setattr(test_engine, "_LANCZOS_MIN_D", math.inf)
        want = run_tests(values, spec_lanczos).to_json_dict()
        assert want["diagnostics"]["whitening"] == {"path": "eigh", "fallback": None}
        assert [r["reject"] for r in doc["per_p"]] == [r["reject"] for r in want["per_p"]]
        assert doc["dominant"]["reject"] == want["dominant"]["reject"]

    def test_ill_conditioned_sample_falls_back_on_cap(self, spec_lanczos):
        values = gaussian_sample(int(2.4 * LANCZOS_D), LANCZOS_D, seed=4)
        doc = run_tests(values, spec_lanczos).to_json_dict()
        assert doc["diagnostics"]["whitening"] == {"path": "eigh", "fallback": "cap"}
        assert doc["diagnostics"]["rank"] == LANCZOS_D

    @pytest.mark.parametrize("column, fallback", [("duplicated", "rank"), ("constant", "cap")])
    def test_rank_deficient_sample_falls_back_and_warns(self, spec_lanczos, column, fallback):
        # a duplicated column's null direction is outside the Krylov space of
        # H, so only the certificate sees it; a constant column's is inside,
        # and theta_min falls towards 0 past the bail-out
        values = gaussian_sample(4 * LANCZOS_D, LANCZOS_D, seed=5)
        values[:, 1] = values[:, 0] if column == "duplicated" else 0.5
        with pytest.warns(RuntimeWarning, match=f"numerical rank {LANCZOS_D - 1} "):
            report = run_tests(values, spec_lanczos)
        assert report.whitening == ("eigh", fallback)
        assert report.rank == LANCZOS_D - 1

    @pytest.mark.parametrize("seen", [True, False])
    def test_indefinite_matrix_raises_the_eigh_error(self, monkeypatch, seen):
        # seen: h has a component on the negative direction, so a Ritz value
        # goes negative; unseen: only the certificate can fail
        d = LANCZOS_D
        sigma = np.diag(np.r_[-0.5, np.linspace(1.0, 2.0, d - 1)])
        mu = np.random.default_rng(6).standard_normal(d)
        mu[0] = 1.0 if seen else 0.0
        assert test_engine._lanczos(mu, sigma) == ("indefinite" if seen else "rank")
        with monkeypatch.context() as patch:
            patch.setattr(test_engine, "_LANCZOS_MIN_D", math.inf)
            with pytest.raises(ValueError, match="not positive semidefinite") as want:
                theta_oracle(mu, sigma, 10)
        with pytest.raises(ValueError) as got:
            theta_oracle(mu, sigma, 10)
        assert str(got.value) == str(want.value)

    def test_standardize_and_theta_oracle_accept_psd(self, monkeypatch):
        d = LANCZOS_D
        rng = np.random.default_rng(7)
        factor = rng.standard_normal((d, 4 * d))
        sigma = factor @ factor.T / (4 * d)
        mu = rng.standard_normal(d)
        want_x, want_extremes, _, _ = eigh_whiten(monkeypatch, mu[None], sigma[None])
        x, extremes, rank = standardize(mu, sigma)
        np.testing.assert_allclose(x, want_x[0], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(extremes, want_extremes[0], rtol=1e-12)
        assert rank == d
        theta = theta_oracle(mu, sigma, 9)
        np.testing.assert_allclose(theta, 3.0 * want_x[0], rtol=1e-12, atol=1e-12)
        # singular but PSD: falls back to eigh and its rank rule
        singular = factor[:, : d - 1] @ factor[:, : d - 1].T / d
        with pytest.warns(RuntimeWarning, match=f"numerical rank {d - 1} "):
            assert standardize(mu, singular)[2] == d - 1
        assert np.all(np.isfinite(theta_oracle(mu, singular, 9)))

    def test_replay_whitens_a_large_sample_as_alone(self):
        # the replay unpacks lower triangles: the Lanczos path needs both
        count, n, d = 2, 2 * LANCZOS_D, LANCZOS_D
        values = np.random.default_rng(8).standard_normal((count, n, d))

        def fill(i, out):
            out[...] = values[i]

        got = list(test_engine._replay(count, n, d, fill, "sample", lanes=1))
        assert [(lo, hi) for lo, hi, *_ in got] == [(0, 1), (1, 2)]
        for i, (_, _, x, rank) in enumerate(got):
            alone = whiten_stack(values[i][None], "sample")
            assert np.array_equal(x, alone[0]) and np.array_equal(rank, alone[2])


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
        assert report.record(math.inf).reject
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
        assert [r.p for r in extras] == [6.5]
        assert extras[0].critical == pytest.approx(
            kappa_p_asymptotic(6.5, 20, 0.05), abs=1e-12
        )
        assert sum(1 for r in report.per_p if r.p == 2.0) == 1

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

    @pytest.mark.parametrize("estimator", ["sample", "truncated"])
    def test_pair_rows_freed_before_eigh(self, spec20, monkeypatch, estimator):
        # eigh's copy, workspace and eigenvectors reuse the pair rows' memory
        # only if nothing holds the rows, or a view of them, when it runs
        pair_rows, alive = [], []
        moments, whiten = test_engine._moments, test_engine._whiten

        def kept(*args):
            rows = moments(*args)
            pair_rows.append(weakref.ref(rows))
            return rows

        def checked(h, sigma):
            alive.append(pair_rows[-1]() is not None)
            return whiten(h, sigma)

        monkeypatch.setattr(test_engine, "_moments", kept)
        monkeypatch.setattr(test_engine, "_whiten", checked)
        run_tests(gaussian_sample(400, 20, seed=7), spec20, estimator=estimator)
        assert len(pair_rows) == 1 and alive == [False]

    def test_trunc_alias(self, spec20):
        s = gaussian_sample(400, 20, seed=7)
        message = r"unknown estimator 'trunc'; expected one of \['sample', 'truncated'\]"
        with pytest.raises(ValueError, match=message):
            run_tests(s, spec20, estimator="trunc")
        assert run_tests(s, spec20, estimator="truncated").estimator == "truncated"

    def test_bad_extra_p_refused_before_any_work(self, monkeypatch, spec20):
        def reached(*args):
            raise AssertionError("moments were formed before extra_ps was checked")

        monkeypatch.setattr(test_engine, "_moments", reached)
        with pytest.raises(ValueError, match="exponent must satisfy p >= 2, got 1"):
            run_tests(gaussian_sample(400, 20, seed=7), spec20, extra_ps=(1.0,))

    def test_json_dict(self, spec20):
        doc = run_tests(gaussian_sample(400, 20, seed=7), spec20).to_json_dict()
        assert doc["per_p"][-1]["p"] == "inf"
        assert set(doc["dominant"]) == {"c_n", "max_ratio", "reject"}
        assert set(doc["diagnostics"]) == {"min_eig", "max_eig", "rank", "kurtosis", "whitening"}
        assert doc["diagnostics"]["rank"] == 20
        # below _LANCZOS_MIN_D the path is eigh, and not a fallback
        assert doc["diagnostics"]["whitening"] == {"path": "eigh", "fallback": None}


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

    @pytest.mark.parametrize("critical", [True, "3"])
    def test_critical_must_be_a_real_number(self, critical):
        # True used to be read as 1.0, "3" to fail in math.isfinite unnamed
        model = self.location_model(np.random.default_rng(4).standard_normal((40, 2)))
        message = re.escape(f"critical must be a real number, got {critical!r}")
        with pytest.raises(TypeError, match=message):
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

    def test_model_runs_on_the_calling_thread(self, monkeypatch):
        # one lane: the model need not be thread-safe
        data = np.random.default_rng(4).standard_normal((40, 2))
        callers = []

        def model(beta):
            callers.append(threading.get_ident())
            return data - beta

        monkeypatch.setattr(test_engine, "_CHUNK_BYTES", 2 * 8 * 40 * 2)
        invert_confidence_set(model, [-1.0, -0.5, 0.0, 0.5, 1.0], 2, 0.05, critical=3.0)
        assert callers == [threading.get_ident()] * 5

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


@pytest.fixture(scope="module")
def spec40():
    return calibrate_spec(
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


@pytest.mark.parametrize("estimator", ["sample", "truncated"])
def test_report_equals_its_pieces_bit_for_bit(monkeypatch, spec40, estimator):
    # the golden fixture allows rel 1e-10; against the kernel's own pieces
    # on the same sample every reported number is the same bits
    monkeypatch.setattr(covariance, "_TRUNC_MULT", 1.2)
    values = np.random.default_rng(20242).standard_t(4.0, size=(400, 40))
    values[:, :3] += 0.2
    report = run_tests(values, spec40, estimator=estimator, extra_ps=(2.5,))
    x, w, rank, _, _ = prepare_standardized(values, estimator)
    ps, crits = test_engine._test_columns(spec40, (2.5,))
    _, reject, max_ratio, psi = test_engine._decide(x[None], spec40, ps, crits)
    assert [r.p for r in report.per_p] == ps and 2.5 in ps
    assert [r.statistic for r in report.per_p] == _batch_pnorms(x[None], ps)[0].tolist()
    assert [r.reject for r in report.per_p] == reject[0].tolist()
    assert (report.dominant.max_ratio, report.dominant.reject) == (max_ratio[0], psi[0])
    assert report.eigen_diag == (w[0], w[-1]) and report.rank == rank
    assert report.kurtosis == kurtosis_diagnostic(difference_pairs(values))


def test_reports_match_golden_fixture(monkeypatch, spec40):
    # Recorded before the stacked whitening kernel replaced the per-sample
    # path (eigvalsh + eigh + full inverse root, one p_norm_stat per
    # exponent), with truncation at 1.2 median row norms.  Statistics agree
    # to rel 1e-10, decisions exactly.
    monkeypatch.setattr(covariance, "_TRUNC_MULT", 1.2)
    rng = np.random.default_rng(20241)
    values = rng.standard_t(4.0, size=(400, 40))
    values[:, :3] += 0.2
    golden = json.loads(GOLDEN_REPORTS.read_text())
    for estimator, want in golden.items():
        got = run_tests(
            values, spec40, estimator=estimator, extra_ps=(2.5, 8.0, math.inf)
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
