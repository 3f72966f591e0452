"""Data-generating processes for the simulation harness.

Two generators, both deterministic given (config, seed), each returning
the n x d float array of its moment rows:

* linear IV with one endogenous regressor and d (possibly weak or
  irrelevant) instruments; moment rows (y_i - Y_i b*) z_i;
* a randomized trial with d outcomes and known treatment probability;
  moment rows D Y / pi - (1 - D) Y / (1 - pi) - b*.

Error laws are standard normal or multivariate t with dof > 4 (four
moments are what the covariance estimation theory needs), the t scaled
by sqrt((dof-2)/dof) so coordinates keep unit variance.  Instrument and
outcome covariances are identity or Toeplitz r^|i-j|; the Toeplitz
option makes the whitened noncentrality vector non-sparse even when the
first stage loads on a single instrument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IvConfig",
    "RctConfig",
    "gen_iv",
    "gen_rct",
]

_COV_KINDS = ("identity", "toeplitz")
_DISTS = ("gaussian", "t")


def _check_cov_dist(cov: str, r: float, dist: str, dof: float) -> None:
    if cov not in _COV_KINDS:
        raise ValueError(f"covariance kind must be one of {_COV_KINDS}, got {cov!r}")
    if cov == "toeplitz" and not -1.0 < r < 1.0:
        raise ValueError(f"toeplitz parameter must lie in (-1, 1), got {r}")
    if dist not in _DISTS:
        raise ValueError(f"error distribution must be one of {_DISTS}, got {dist!r}")
    if dist == "t" and not dof > 4.0:
        raise ValueError(f"t errors need dof > 4, got {dof}")


def _cov_root(kind: str, r: float, d: int) -> np.ndarray | None:
    """Lower Cholesky factor of the covariance, or None for identity."""
    if kind == "identity":
        return None
    # imported here so identity designs never load scipy
    from scipy.linalg import cholesky, toeplitz

    return cholesky(toeplitz(r ** np.arange(d)), lower=True)


def _unit_t_scale(rng: np.random.Generator, dof: float, n: int) -> np.ndarray:
    # sqrt(dof / chi2_dof), rescaled so the resulting t has unit variance
    return np.sqrt(dof / rng.chisquare(dof, size=n)) * math.sqrt((dof - 2.0) / dof)


@dataclass(frozen=True)
class IvConfig:
    """Linear IV design: y = Y b_true + u, Y = pi'z + v, corr(u, v) = rho."""

    n: int
    d: int
    beta_true: float
    pi: np.ndarray
    endogeneity_rho: float = 0.0
    instrument_cov: str = "identity"
    toeplitz_r: float = 0.5
    error_dist: str = "gaussian"
    t_dof: float = 8.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (self.d,):
            raise ValueError(f"pi must be a d-vector, got shape {pi.shape}")
        if not np.all(np.isfinite(pi)):
            raise ValueError("pi entries must be finite")
        if not -1.0 < self.endogeneity_rho < 1.0:
            raise ValueError(f"|rho| < 1 required, got {self.endogeneity_rho}")
        _check_cov_dist(self.instrument_cov, self.toeplitz_r, self.error_dist, self.t_dof)
        pi = pi.copy()
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)


@dataclass(frozen=True)
class RctConfig:
    """Randomized trial: d outcomes, known assignment probability."""

    n: int
    d: int
    pi_treat: float
    effect: np.ndarray
    outcome_cov: str = "identity"
    toeplitz_r: float = 0.5
    outcome_dist: str = "gaussian"
    t_dof: float = 8.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if not 0.0 < self.pi_treat < 1.0:
            raise ValueError(f"pi_treat must lie in (0, 1), got {self.pi_treat}")
        eff = np.asarray(self.effect, dtype=float)
        if eff.shape != (self.d,):
            raise ValueError(f"effect must be a d-vector, got shape {eff.shape}")
        if not np.all(np.isfinite(eff)):
            raise ValueError("effect entries must be finite")
        _check_cov_dist(self.outcome_cov, self.toeplitz_r, self.outcome_dist, self.t_dof)
        eff = eff.copy()
        eff.flags.writeable = False
        object.__setattr__(self, "effect", eff)


def gen_iv(cfg: IvConfig, beta_star: float, seed) -> np.ndarray:
    """Moment rows (y_i - Y_i beta_star) z_i.

    Population moments are zero whenever beta_star = beta_true, and also
    for every beta_star when pi = 0 (the unidentified design keeps the
    null true at all candidate values).
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((cfg.n, cfg.d))
    root = _cov_root(cfg.instrument_cov, cfg.toeplitz_r, cfg.d)
    if root is not None:
        z = z @ root.T
    e = rng.standard_normal((cfg.n, 2))
    rho = cfg.endogeneity_rho
    u = e[:, 0]
    v = rho * e[:, 0] + math.sqrt(1.0 - rho * rho) * e[:, 1]
    if cfg.error_dist == "t":
        w = _unit_t_scale(rng, cfg.t_dof, cfg.n)
        u, v = u * w, v * w
    endog = z @ cfg.pi + v
    y = endog * cfg.beta_true + u
    return (y - endog * float(beta_star))[:, None] * z


def gen_rct(cfg: RctConfig, beta_star, seed) -> np.ndarray:
    """Moment rows D Y / pi - (1 - D) Y / (1 - pi) - beta_star.

    Population mean is the true effect vector minus beta_star.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    if beta_star.shape != (cfg.d,):
        raise ValueError(f"beta_star must be a d-vector, got shape {beta_star.shape}")
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal((cfg.n, cfg.d))
    root = _cov_root(cfg.outcome_cov, cfg.toeplitz_r, cfg.d)
    if root is not None:
        y0 = y0 @ root.T
    if cfg.outcome_dist == "t":
        y0 = y0 * _unit_t_scale(rng, cfg.t_dof, cfg.n)[:, None]
    treated = rng.random(cfg.n) < cfg.pi_treat
    observed = np.where(treated[:, None], y0 + cfg.effect, y0)
    weight = np.where(treated, 1.0 / cfg.pi_treat, -1.0 / (1.0 - cfg.pi_treat))
    return observed * weight[:, None] - beta_star
