import numpy as np
import pytest
from numpy.testing import assert_allclose

from pnormtest.covariance import (
    MomentSample,
    difference_pairs,
    kurtosis_diagnostic,
    sample_cov,
    truncated_cov,
)

SQ2 = np.sqrt(2.0)


class TestMomentSample:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MomentSample(np.array([[1.0, np.inf]]))

    def test_single_row_accepted(self):
        s = MomentSample(np.array([3.0]))
        assert (s.n, s.d) == (1, 1)

    def test_values_read_only(self):
        s = MomentSample(np.ones((4, 2)))
        with pytest.raises(ValueError):
            s.values[0, 0] = 2.0


class TestDifferencePairs:
    def test_worked_example(self):
        s = MomentSample([[1, 0], [3, 2], [5, 5], [5, 1]])
        out = difference_pairs(s)
        assert_allclose(out.values, [[SQ2, SQ2], [0.0, -2 * SQ2]], atol=1e-14)

    def test_constant_sample_gives_zero_rows(self):
        s = MomentSample(np.tile([2.0, -1.0], (6, 1)))
        assert_allclose(difference_pairs(s).values, np.zeros((3, 2)))

    def test_odd_trailing_row_dropped(self):
        s = MomentSample(np.arange(10.0).reshape(5, 2))
        assert difference_pairs(s).n == 2

    def test_n_below_four_rejected(self):
        with pytest.raises(ValueError):
            difference_pairs(MomentSample(np.ones((3, 2))))

    def test_mean_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        s = MomentSample(rng.standard_normal((20_000, 5)))
        aux = difference_pairs(s)
        maxdiag = sample_cov(aux).entries.diagonal().max()
        bound = 5 * np.sqrt(maxdiag / aux.n)
        assert np.max(np.abs(aux.values.mean(axis=0))) <= bound


class TestSampleCov:
    def test_single_row(self):
        out = sample_cov(MomentSample([[2.0, 0.0]]))
        assert_allclose(out.entries, [[4.0, 0.0], [0.0, 0.0]])

    def test_two_rows(self):
        out = sample_cov(MomentSample([[1.0, 1.0], [-1.0, -1.0]]))
        assert_allclose(out.entries, [[1.0, 1.0], [1.0, 1.0]])

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(1)
        out = sample_cov(MomentSample(rng.standard_normal((100_000, 3))))
        assert np.max(np.abs(out.entries - np.eye(3))) <= 0.05

    def test_psd(self):
        rng = np.random.default_rng(2)
        out = sample_cov(MomentSample(rng.standard_normal((30, 8))))
        w = np.linalg.eigvalsh(out.entries)
        assert w[0] >= -1e-10 * max(w[-1], 1.0)


class TestTruncatedCov:
    def test_inactive_for_large_multiplier(self):
        rng = np.random.default_rng(3)
        s = MomentSample(rng.standard_normal((500, 6)))
        assert_allclose(
            truncated_cov(s, 10.0).entries, sample_cov(s).entries, atol=1e-12
        )

    def test_outlier_row_is_controlled(self):
        rng = np.random.default_rng(4)
        clean = rng.standard_normal((1000, 5))
        dirty = clean.copy()
        dirty[137] *= 1e6
        clean_norm = np.linalg.norm(truncated_cov(MomentSample(clean)).entries, 2)
        dirty_norm = np.linalg.norm(truncated_cov(MomentSample(dirty)).entries, 2)
        assert dirty_norm <= 10 * clean_norm

    def test_identical_rows_rank_one_psd(self):
        s = MomentSample(np.tile([1.0, 2.0], (8, 1)))
        out = truncated_cov(s, 0.5)
        w = np.linalg.eigvalsh(out.entries)
        assert w[0] >= -1e-12
        assert np.linalg.matrix_rank(out.entries) == 1

    def test_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            truncated_cov(MomentSample(np.ones((4, 2))), 0.0)

    def test_desk_scale_consistency_both_estimators(self):
        # i.i.d. N(0, Sigma0) rows, d=10, n=20000: within 0.15 ||Sigma0||
        rng = np.random.default_rng(5)
        root = rng.standard_normal((10, 10)) / np.sqrt(10)
        sigma0 = root @ root.T + 0.5 * np.eye(10)
        rows = rng.standard_normal((20_000, 10)) @ np.linalg.cholesky(sigma0).T
        s = MomentSample(rows)
        aux = difference_pairs(s)
        bound = 0.15 * np.linalg.norm(sigma0, 2)
        for est in (sample_cov, truncated_cov):
            err = np.linalg.norm(est(aux).entries - sigma0, 2)
            assert err <= bound, est.__name__


class TestKurtosisDiagnostic:
    def test_gaussian_value(self):
        rng = np.random.default_rng(6)
        s = MomentSample(rng.standard_normal((50_000, 5)))
        assert kurtosis_diagnostic(s, directions=64, seed=0) == pytest.approx(
            3.0**0.25, abs=0.1
        )

    def test_constant_sample_errors(self):
        with pytest.raises(ValueError, match="zero variance"):
            kurtosis_diagnostic(MomentSample(np.ones((10, 3))))

    def test_heavy_tails_exceed_gaussian(self):
        rng = np.random.default_rng(7)
        s = MomentSample(rng.standard_t(5, size=(10_000, 4)))
        assert kurtosis_diagnostic(s, directions=64, seed=1) > 3.0**0.25
