import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import norm

from pnormtest.critical_values import calibrate_joint, kappa_p_asymptotic, mc_pnorm_quantile
from pnormtest.dominant_test import calibrate_spec, default_spec, power_loss_bound
from pnormtest.gaussian_moments import (
    _check_p,
    g_p,
    lambda_p,
    mills_odds,
    normal_cdf,
    normal_quantile,
    sigma_p,
)
from pnormtest.sample_split import split_test
from pnormtest.test_engine import invert_confidence_set, p_norm_stat, run_tests

from _oracles import lambda_quadrature

# Closed-form oracles, derived independently of the implementation:
#   lambda_2(x) = 1 + x^2
#   lambda_p(0) = 2^(p/2) Gamma((p+1)/2) / sqrt(pi)
#   E|Z|^3 = sqrt(8/pi), E|Z|^6 = 15, E Z^4 = 3, E Z^8 = 105
LAMBDA3_AT_0 = math.sqrt(8.0 / math.pi)  # 1.5957691216057308
SIGMA3 = math.sqrt(15.0 - 8.0 / math.pi)
SIGMA4 = math.sqrt(105.0 - 9.0)


@pytest.fixture(scope="module")
def mc_draws():
    return np.random.default_rng(20240817).standard_normal(1_000_000)


class TestCheckP:
    @pytest.mark.parametrize(
        "p, want",
        [(2, 2.0), (2.5, 2.5), (np.int64(3), 3.0), (np.float64(4.5), 4.5), (math.inf, math.inf)],
        ids=str,
    )
    def test_returns_a_float(self, p, want):
        got = _check_p(p)
        assert got == want and type(got) is float

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError, match="^exponent must satisfy p >= 2, got 1.9$"):
            _check_p(1.9)
        with pytest.raises(ValueError, match="p >= 2"):
            _check_p(-math.inf)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="^exponent must not be NaN$"):
            _check_p(float("nan"))

    @pytest.mark.parametrize("p", [True, "3", None, 3 + 0j], ids=repr)
    def test_rejects_non_real_values(self, p):
        with pytest.raises(TypeError, match="^exponent must be a real number"):
            _check_p(p)


@pytest.fixture(scope="module")
def spec4():
    return calibrate_spec(default_spec(4, 0.05), reps=20_000, seed=2)


SAMPLE = np.random.default_rng(5).standard_normal((80, 6))

# every public function that computes with an exponent, called with exponent p
EXPONENT_ENTRY_POINTS = {
    "lambda_p": lambda p, spec: lambda_p(p, 0.0),
    "sigma_p": lambda p, spec: sigma_p(p),
    "g_p": lambda p, spec: g_p(p, 1.0),
    "p_norm_stat": lambda p, spec: p_norm_stat(SAMPLE[0], p),
    "kappa_p_asymptotic": lambda p, spec: kappa_p_asymptotic(p, 10, 0.05),
    "power_loss_bound": lambda p, spec: power_loss_bound(p, 0.05, 0.01),
    "mc_pnorm_quantile": lambda p, spec: mc_pnorm_quantile(p, 4, 0.05, reps=2000),
    "calibrate_joint": lambda p, spec: calibrate_joint({2: 0.025, p: 0.025}, 4, 0.05, 4000),
    "invert_confidence_set": lambda p, spec: invert_confidence_set(
        lambda beta: SAMPLE, [0.0], p, 0.05, mc_reps=2000
    ),
    "greedy split_test": lambda p, spec: split_test(
        SAMPLE, 4, selection="greedy", p=p, spec=spec, seed=1
    ),
    "calibrate_joint extra_ps": lambda p, spec: calibrate_joint(
        {2: 0.05}, 4, 0.05, 4000, extra_ps=[p]
    ),
    "calibrate_spec extra_ps": lambda p, spec: calibrate_spec(
        default_spec(4, 0.05), reps=20_000, extra_ps=[p]
    ),
    "TestReport.record": lambda p, spec: run_tests(SAMPLE[:, :4], spec).record(p),
}


class TestExponentBoundary:
    @pytest.mark.parametrize("bad", [True, math.nan, 1.9, "3"], ids=repr)
    @pytest.mark.parametrize("entry", EXPONENT_ENTRY_POINTS, ids=str)
    def test_rejects_as_check_p_does(self, entry, bad, spec4):
        with pytest.raises((TypeError, ValueError)) as want:
            _check_p(bad)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            EXPONENT_ENTRY_POINTS[entry](bad, spec4)


class TestLambdaP:
    def test_spec_values(self):
        assert lambda_p(2, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert lambda_p(2, 1.5) == pytest.approx(3.25, abs=1e-10)
        assert lambda_p(4, 0.0) == pytest.approx(3.0, abs=1e-10)
        assert lambda_p(3, 0.0) == pytest.approx(LAMBDA3_AT_0, abs=1e-12)

    def test_lambda2_exact_on_dense_grid(self):
        # |lambda_2(x) - (1 + x^2)| <= 1e-10 for x in [-10, 10]
        for x in np.linspace(-10.0, 10.0, 401):
            assert abs(lambda_p(2, x) - (1.0 + x * x)) <= 1e-10

    def test_lambda3_at_zero_against_monte_carlo(self):
        z = np.random.default_rng(7).standard_normal(10_000_000)
        vals = np.abs(z) ** 3
        mc, se = vals.mean(), vals.std() / math.sqrt(vals.size)
        assert abs(lambda_p(3, 0.0) - mc) <= 4 * se

    def test_quadrature_against_monte_carlo_oracle(self, mc_draws):
        for p in (2, 2.5, 3, 4, 6, 8):
            for x in (0.0, 0.5, 1.0, 2.0, 4.0):
                vals = np.abs(mc_draws + x) ** p
                mc, se = vals.mean(), vals.std() / math.sqrt(vals.size)
                assert abs(lambda_p(p, x) - mc) <= 4 * se, (p, x)

    def test_agrees_with_quadrature_route(self):
        # Gauss-Hermite is exact for even integer p (polynomial integrand)
        # and ~1e-5 otherwise because of the kink of |t+x|^p
        for p in (2, 4, 6, 8):
            for x in (0.3, 1.0, 5.0, 20.0):
                assert lambda_p(p, x) == pytest.approx(
                    lambda_quadrature(float(p), x), rel=1e-11
                )
        for p in (2.5, 3.0, 5.0):
            for x in (0.3, 1.0, 5.0, 20.0):
                assert lambda_p(p, x) == pytest.approx(
                    lambda_quadrature(float(p), x), rel=1e-4
                )

    def test_tail_branch_continuity(self):
        # the log-domain tail expansion takes over at |x| = 1e8, where its
        # relative error is ~1e-28; the handoff must be seamless
        for p in (2, 2.5, 3, 8):
            assert lambda_p(p, 1.0001e8) == pytest.approx(
                1.0001e8**p * (1.0 + p * (p - 1) / (2.0 * 1.0001e8**2)), rel=1e-12
            )
            assert lambda_p(p, 1.0001e8) >= lambda_p(p, 0.9999e8)

    def test_tail_branch_overflow_saturates(self):
        assert lambda_p(3, 1e200) == math.inf
        assert lambda_p(2, 1e150) == pytest.approx(1e300, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambda_p(1.5, 0.0)
        with pytest.raises(ValueError):
            lambda_p(math.inf, 0.0)
        with pytest.raises(ValueError):
            lambda_p(2, math.inf)

    @given(
        p=st.floats(min_value=2.0, max_value=12.0),
        x=st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, p, x):
        assert lambda_p(p, x) == pytest.approx(lambda_p(p, -x), rel=1e-12, abs=1e-12)

    @given(
        p=st.floats(min_value=2.0, max_value=12.0),
        a=st.floats(min_value=0.0, max_value=19.0),
        b=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_abs_x(self, p, a, b):
        lo, hi = a, a + b
        assert lambda_p(p, hi) >= lambda_p(p, lo) - 1e-9
        assert lambda_p(p, a) >= lambda_p(p, 0.0) - 1e-12

    def test_sandwich_ratio_bounded(self):
        # (lambda_p(x) - lambda_p(0)) / g_p(x) stays in a fixed positive window
        for p in (2, 3, 4, 6, 8):
            for x in np.logspace(-3, 3, 60):
                ratio = (lambda_p(p, x) - lambda_p(p, 0.0)) / g_p(p, x)
                assert 1e-4 < ratio < 1e4, (p, x, ratio)


class TestSigmaP:
    def test_spec_values(self):
        assert sigma_p(2) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert sigma_p(4) == pytest.approx(SIGMA4, abs=1e-9)
        assert sigma_p(3) == pytest.approx(SIGMA3, abs=1e-9)

    def test_two_code_paths_agree(self):
        # gamma closed form versus raw quadrature; quadrature is exact for
        # even p (both p and 2p polynomial) and kink-limited otherwise
        for p in (2.0, 4.0, 6.0, 8.0):
            quad_var = lambda_quadrature(2 * p, 0.0) - lambda_quadrature(p, 0.0) ** 2
            assert sigma_p(p) == pytest.approx(math.sqrt(quad_var), rel=1e-9)
        for p in (2.5, 3.0, 5.0):
            quad_var = lambda_quadrature(2 * p, 0.0) - lambda_quadrature(p, 0.0) ** 2
            assert sigma_p(p) == pytest.approx(math.sqrt(quad_var), rel=1e-4)


class TestGP:
    def test_spec_values(self):
        assert g_p(4, 0.5) == pytest.approx(0.25)
        assert g_p(4, 2.0) == pytest.approx(16.0)
        assert g_p(2, -3.0) == pytest.approx(9.0)

    def test_vectorized(self):
        out = g_p(4, np.array([0.5, 2.0]))
        assert_allclose(out, [0.25, 16.0])

    @given(
        x=st.floats(min_value=-50, max_value=50),
        p=st.floats(min_value=2.0, max_value=10.0),
        q=st.floats(min_value=0.0, max_value=6.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_p(self, x, p, q):
        # g_p <= g_q for p <= q, the driver of the dominance ordering
        assert g_p(p, x) <= g_p(p + q, x) + 1e-12


class TestNormalFunctions:
    def test_cdf_quantile(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        for x in np.linspace(-8, 8, 33):
            assert abs(normal_cdf(x) - norm.cdf(x)) <= 1e-12

    def test_quantile_roundtrip(self):
        for u in (1e-6, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6):
            assert normal_cdf(normal_quantile(u)) == pytest.approx(u, rel=1e-9)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(bad)

    @pytest.mark.parametrize("bad", [math.nan, np.array([0.5, math.nan])])
    def test_quantile_rejects_nan(self, bad):
        with pytest.raises(ValueError, match="strictly in"):
            normal_quantile(bad)

    def test_mills_odds(self):
        assert mills_odds(0.0) == pytest.approx(1.0, abs=1e-14)
        for x in np.linspace(-8, 8, 33):
            oracle = norm.sf(x) / norm.cdf(x)
            assert mills_odds(x) == pytest.approx(oracle, rel=1e-11)
        # decreasing
        grid = np.linspace(-30, 30, 121)
        vals = mills_odds(grid)
        assert np.all(np.diff(vals) < 0)
        # deep tails saturate to the correctly rounded limits
        assert mills_odds(-45.0) == math.inf
        assert mills_odds(45.0) == 0.0
        assert mills_odds(35.0) > 0.0
