import math

import numpy as np
import pytest
from scipy.linalg import toeplitz

from pnormtest.covariance import kurtosis_diagnostic, sample_cov
from pnormtest.dgp import IvConfig, RctConfig, gen_iv, gen_rct


def iv_cfg(**kw):
    base = dict(n=1000, d=5, beta_true=1.0, pi=np.zeros(5))
    base.update(kw)
    return IvConfig(**base)


def rct_cfg(**kw):
    base = dict(n=1000, d=4, pi_treat=0.5, effect=np.zeros(4))
    base.update(kw)
    return RctConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            iv_cfg(endogeneity_rho=1.0)

    def test_rejects_low_t_dof(self):
        # four finite moments are required of the error law
        with pytest.raises(ValueError, match="dof > 4"):
            iv_cfg(error_dist="t", t_dof=4.0)
        with pytest.raises(ValueError, match="dof > 4"):
            rct_cfg(outcome_dist="t", t_dof=3.0)

    def test_rejects_bad_toeplitz_parameter(self):
        with pytest.raises(ValueError, match="toeplitz"):
            iv_cfg(instrument_cov="toeplitz", toeplitz_r=1.0)

    def test_rejects_unknown_kind_and_dist(self):
        with pytest.raises(ValueError, match="covariance kind"):
            iv_cfg(instrument_cov="wishart")
        with pytest.raises(ValueError, match="distribution"):
            rct_cfg(outcome_dist="cauchy")

    def test_rejects_shape_and_domain_errors(self):
        with pytest.raises(ValueError, match="d-vector"):
            iv_cfg(pi=np.zeros(4))
        with pytest.raises(ValueError, match="d-vector"):
            rct_cfg(effect=np.zeros(5))
        with pytest.raises(ValueError, match="pi_treat"):
            rct_cfg(pi_treat=0.0)
        with pytest.raises(ValueError, match="n >= 1"):
            iv_cfg(n=0)
        with pytest.raises(ValueError, match="finite"):
            iv_cfg(pi=np.array([np.inf, 0, 0, 0, 0]))

    def test_config_arrays_are_read_only(self):
        cfg = iv_cfg()
        with pytest.raises(ValueError):
            cfg.pi[0] = 1.0


class TestGenIv:
    def test_deterministic_in_seed(self):
        cfg = iv_cfg(pi=np.full(5, 0.3), endogeneity_rho=0.5, error_dist="t", t_dof=5.0)
        a = gen_iv(cfg, 0.7, seed=11)
        b = gen_iv(cfg, 0.7, seed=11)
        c = gen_iv(cfg, 0.7, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_returns_moment_sample_with_config_shape(self):
        s = gen_iv(iv_cfg(n=37, d=5), 0.0, seed=0)
        assert isinstance(s, np.ndarray) and s.dtype == np.float64
        assert s.shape == (37, 5)

    def test_irrelevant_instruments_keep_null_at_every_beta(self):
        # pi = 0 makes the moment mean zero no matter the candidate value
        cfg = iv_cfg(n=100_000, endogeneity_rho=0.6)
        for beta_star in (-3.0, 0.0, 1.0, 7.5):
            s = gen_iv(cfg, beta_star, seed=5)
            delta = cfg.beta_true - beta_star
            # Var[(u + delta v) z_j] = 1 + delta^2 + 2 rho delta
            maxvar = 1.0 + delta * delta + 2.0 * cfg.endogeneity_rho * delta
            bound = 5.0 * math.sqrt(maxvar / cfg.n)
            assert np.max(np.abs(s.mean(axis=0))) <= bound

    def test_single_instrument_population_moment(self):
        # pi = a e_1, identity instruments: E h = (a (beta_true - beta*), 0, ...)
        a, beta_star = 0.8, -0.5
        cfg = iv_cfg(n=100_000, pi=np.array([a, 0, 0, 0, 0]), beta_true=1.0)
        s = gen_iv(cfg, beta_star, seed=3)
        target = np.zeros(5)
        target[0] = a * (cfg.beta_true - beta_star)
        delta = cfg.beta_true - beta_star
        maxvar = (1.0 + delta * delta) * (1.0 + 3.0 * (a * delta) ** 2)
        assert np.max(np.abs(s.mean(axis=0) - target)) <= 5.0 * math.sqrt(
            maxvar / cfg.n
        )

    def test_null_rows_have_unit_variance_scaled_means(self):
        # sqrt(n) * mean should have variance diag(Sigma_z) = 1 under the null
        cfg = iv_cfg(n=200, endogeneity_rho=0.5)
        h = np.array(
            [
                math.sqrt(cfg.n) * gen_iv(cfg, cfg.beta_true, seed=r).mean(axis=0)
                for r in range(400)
            ]
        )
        assert np.allclose(h.var(axis=0), 1.0, atol=0.3)

    def test_toeplitz_instruments_show_in_row_covariance(self):
        # with pi = 0 and beta* = beta_true the rows are u z, whose
        # covariance is E[u^2] Sigma_z = toeplitz(r)
        cfg = iv_cfg(
            n=200_000, d=4, pi=np.zeros(4), instrument_cov="toeplitz", toeplitz_r=0.6
        )
        s = gen_iv(cfg, cfg.beta_true, seed=2)
        assert np.allclose(
            sample_cov(s).entries, toeplitz(0.6 ** np.arange(4)), atol=0.05
        )

    def test_t_errors_have_unit_variance_and_excess_kurtosis(self):
        cfg_g = iv_cfg(n=50_000)
        cfg_t = iv_cfg(n=50_000, error_dist="t", t_dof=5.0)
        rows_g = gen_iv(cfg_g, cfg_g.beta_true, seed=8)
        rows_t = gen_iv(cfg_t, cfg_t.beta_true, seed=8)
        assert np.allclose(rows_t.var(axis=0), 1.0, atol=0.1)
        assert kurtosis_diagnostic(rows_t) > kurtosis_diagnostic(rows_g)


class TestGenRct:
    def test_deterministic_in_seed(self):
        cfg = rct_cfg(effect=np.array([0.1, 0.0, 0.0, 0.2]), outcome_dist="t", t_dof=6.0)
        b = np.zeros(4)
        assert np.array_equal(gen_rct(cfg, b, 4), gen_rct(cfg, b, 4))
        assert not np.array_equal(gen_rct(cfg, b, 4), gen_rct(cfg, b, 5))

    def test_zero_effect_null_and_exact_gaussian_scale(self):
        # with pi_treat = 1/2 the rows are 2 s Y, s = +-1, so the row law is
        # N(0, 4 Sigma) exactly under a zero effect
        cfg = rct_cfg(n=50_000)
        s = gen_rct(cfg, np.zeros(4), seed=1)
        assert np.max(np.abs(s.mean(axis=0))) <= 5.0 * math.sqrt(4.0 / cfg.n)
        assert np.allclose(s.var(axis=0), 4.0, atol=0.15)

    def test_true_effect_cancels_exactly_in_population(self):
        effect = np.array([0.3, -0.2, 0.0, 1.0])
        cfg = rct_cfg(n=100_000, effect=effect, pi_treat=0.4)
        s = gen_rct(cfg, effect, seed=6)
        # variances are bounded by E[Y^2/pi^2] with the shifted outcome
        bound = 5.0 * math.sqrt((1.0 + np.max(effect**2)) / (0.4**2) / cfg.n)
        assert np.max(np.abs(s.mean(axis=0))) <= bound

    def test_single_coordinate_effect_shows_up_in_that_moment(self):
        delta = 0.25
        effect = np.array([0.0, 0.0, delta, 0.0])
        cfg = rct_cfg(n=200_000, effect=effect)
        mean = gen_rct(cfg, np.zeros(4), seed=9).mean(axis=0)
        assert abs(mean[2] - delta) <= 5.0 * math.sqrt(5.0 / cfg.n)
        assert np.max(np.abs(np.delete(mean, 2))) <= 5.0 * math.sqrt(4.0 / cfg.n)

    def test_rejects_wrong_beta_star_shape(self):
        with pytest.raises(ValueError, match="d-vector"):
            gen_rct(rct_cfg(), np.zeros(3), seed=0)
