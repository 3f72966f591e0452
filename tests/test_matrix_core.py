import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pnormtest.matrix_core import SymMatrix, pinv_sqrt


def random_spd(d, seed):
    m = np.random.default_rng(seed).standard_normal((d, d))
    return m.T @ m + 0.1 * np.eye(d)


class TestSymMatrix:
    def test_symmetrizes_small_asymmetry(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
        s = SymMatrix(a)
        assert_allclose(s.entries, s.entries.T)

    def test_rejects_material_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix(np.array([[1.0, 2.0], [2.5, 1.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_entries_read_only(self):
        s = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            s.entries[0, 0] = 5.0


class TestPinvSqrt:
    def test_identity(self):
        assert_allclose(pinv_sqrt(np.eye(3)).entries, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        out = pinv_sqrt(np.diag([4.0, 9.0]))
        assert_allclose(out.entries, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_moore_penrose_zeroes_null_space(self):
        out = pinv_sqrt(np.diag([4.0, 0.0]))
        assert_allclose(out.entries, np.diag([0.5, 0.0]), atol=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            pinv_sqrt(np.diag([1.0, -0.5]))

    def test_square_matches_independent_inverse(self):
        # ||pinv_sqrt(A)^2 - A^{-1}|| <= 1e-8 ||A^{-1}|| with A^{-1} from a solve
        for d, seed in ((5, 0), (20, 1), (50, 2)):
            a = random_spd(d, seed)
            b = pinv_sqrt(a).entries
            inv = np.linalg.solve(a, np.eye(d))
            err = np.linalg.norm(b @ b - inv, 2)
            assert err <= 1e-8 * np.linalg.norm(inv, 2)

    def test_b_a_b_is_range_projection(self):
        a = np.diag([3.0, 1.0, 0.0])
        b = pinv_sqrt(a).entries
        assert_allclose(b @ a @ b, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_output_symmetric_psd(self):
        b = pinv_sqrt(random_spd(12, 3))
        w = np.linalg.eigvalsh(b.entries)
        assert np.all(w >= -1e-12)
        assert_allclose(b.entries, b.entries.T)

    @given(c=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, c, seed):
        a = random_spd(6, seed)
        left = pinv_sqrt(c * a).entries
        right = pinv_sqrt(a).entries / np.sqrt(c)
        assert_allclose(left, right, rtol=1e-9, atol=1e-12)

