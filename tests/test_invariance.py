"""Invariance of the statistics under transformations of the moment columns.

The whitened vector x = Sigma_hat^{-1/2} H moves with the columns: a
signed permutation Q of the columns maps x to Q x, and an orthogonal
rotation maps it to an orthogonal rotation of x.  So every p-norm, and
the combined rule's max ratio, is unchanged by a signed permutation, and
the 2-norm by any rotation.  Both estimators keep this: truncation reads
only the row norms, which both transformations preserve.  The kurtosis
diagnostic projects onto fixed random directions, so it is not invariant
and is not compared.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnormtest.dominant_test import calibrate_spec, default_spec
from pnormtest.test_engine import run_tests

N, D = 400, 40
REL = 1e-10


@pytest.fixture(scope="module")
def spec():
    return calibrate_spec(default_spec(D, 0.05), seed=5, aux_rows=N // 2)


def _t5_rows(rng):
    # t(5) rows with a mean shift, so the statistics are not all small
    return rng.standard_t(5.0, size=(N, D)) + rng.normal(0.0, 0.1, size=D)


def _stats(report):
    return np.array([r.statistic for r in report.per_p] + [report.dominant.max_ratio])


@pytest.mark.parametrize("estimator", ["sample", "truncated"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_signed_permutation_keeps_every_statistic(spec, estimator, seed):
    rng = np.random.default_rng(seed)
    rows = _t5_rows(rng)
    signs = rng.choice([-1.0, 1.0], size=D)
    moved = rows[:, rng.permutation(D)] * signs
    want = _stats(run_tests(rows, spec, estimator=estimator))
    got = _stats(run_tests(moved, spec, estimator=estimator))
    np.testing.assert_allclose(got, want, rtol=REL, atol=0)


@pytest.mark.parametrize("estimator", ["sample", "truncated"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_rotation_keeps_the_two_norm(spec, estimator, seed):
    rng = np.random.default_rng(seed)
    rows = _t5_rows(rng)
    q, r = np.linalg.qr(rng.standard_normal((D, D)))
    q *= np.sign(np.diag(r))  # a Haar-distributed rotation
    want = run_tests(rows, spec, estimator=estimator).record(2.0).statistic
    got = run_tests(rows @ q, spec, estimator=estimator).record(2.0).statistic
    assert got == pytest.approx(want, rel=REL, abs=0)
