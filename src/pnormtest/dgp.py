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
first stage loads on a single instrument.  Its Cholesky factor is formed
once per (d, r), not once per draw.

Each generator draws through a private row generator (``_iv_rows``,
``_rct_rows``) that writes into a given n x d array, so the simulation
harness draws straight into its chunk buffers.  A config stores the ints
``_check_d`` makes of its ``n`` and ``d``, and a read-only copy of the
d-vector ``_check_vector`` makes of ``pi`` or ``effect``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .critical_values import _check_alpha, _check_d, _check_vector

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


@functools.lru_cache(maxsize=8)
def _toeplitz_factor(d: int, r: float) -> np.ndarray:
    """L' for the lower Cholesky factor L of the d x d Toeplitz matrix r^|i-j|,
    read-only and computed once per (d, r)."""
    # imported here so identity designs never load scipy
    from scipy.linalg import cholesky, toeplitz

    factor = cholesky(toeplitz(r ** np.arange(d)), lower=True).T
    factor.flags.writeable = False
    return factor


def _correlated_normals(rng: np.random.Generator, kind: str, r: float, out: np.ndarray):
    """Standard normal rows with covariance ``kind``, written into ``out``:
    the draws themselves for identity, else the draws times L'."""
    if kind == "identity":
        return rng.standard_normal(out=out)
    return np.matmul(rng.standard_normal(out.shape), _toeplitz_factor(out.shape[1], r), out=out)


def _check_design(cfg, vector: str) -> None:
    # n and d as ints, and a read-only copy of the d-vector field ``vector``
    for name in ("n", "d"):
        object.__setattr__(cfg, name, _check_d(getattr(cfg, name), name=name))
    v = _check_vector(getattr(cfg, vector), vector, cfg.d).copy()
    v.flags.writeable = False
    object.__setattr__(cfg, vector, v)


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
        _check_design(self, "pi")
        if not -1.0 < self.endogeneity_rho < 1.0:
            raise ValueError(f"|rho| < 1 required, got {self.endogeneity_rho}")
        _check_cov_dist(self.instrument_cov, self.toeplitz_r, self.error_dist, self.t_dof)


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
        _check_design(self, "effect")
        _check_alpha(self.pi_treat, "pi_treat")
        _check_cov_dist(self.outcome_cov, self.toeplitz_r, self.outcome_dist, self.t_dof)


def gen_iv(cfg: IvConfig, beta_star: float, seed) -> np.ndarray:
    """Moment rows (y_i - Y_i beta_star) z_i.

    Population moments are zero whenever beta_star = beta_true, and also
    for every beta_star when pi = 0 (the unidentified design keeps the
    null true at all candidate values).
    """
    return _iv_rows(cfg, beta_star, np.random.default_rng(seed), np.empty((cfg.n, cfg.d)))


def _iv_rows(cfg: IvConfig, beta_star: float, rng: np.random.Generator, out: np.ndarray):
    # gen_iv's rows drawn from ``rng`` straight into the n x d array ``out``
    z = _correlated_normals(rng, cfg.instrument_cov, cfg.toeplitz_r, out)
    e = rng.standard_normal((cfg.n, 2))
    rho = cfg.endogeneity_rho
    u = e[:, 0]
    v = rho * e[:, 0] + math.sqrt(1.0 - rho * rho) * e[:, 1]
    if cfg.error_dist == "t":
        w = _unit_t_scale(rng, cfg.t_dof, cfg.n)
        u, v = u * w, v * w
    endog = z @ cfg.pi + v
    y = endog * cfg.beta_true + u
    z *= (y - endog * float(beta_star))[:, None]
    return z


def gen_rct(cfg: RctConfig, beta_star, seed) -> np.ndarray:
    """Moment rows D Y / pi - (1 - D) Y / (1 - pi) - beta_star.

    Population mean is the true effect vector minus beta_star.
    """
    beta_star = _check_vector(beta_star, "beta_star", cfg.d)
    return _rct_rows(cfg, beta_star, np.random.default_rng(seed), np.empty((cfg.n, cfg.d)))


def _rct_rows(cfg: RctConfig, beta_star: np.ndarray, rng: np.random.Generator, out: np.ndarray):
    # gen_rct's rows drawn from ``rng`` straight into the n x d array ``out``,
    # for a checked d-vector ``beta_star``
    y = _correlated_normals(rng, cfg.outcome_cov, cfg.toeplitz_r, out)
    if cfg.outcome_dist == "t":
        y *= _unit_t_scale(rng, cfg.t_dof, cfg.n)[:, None]
    treated = rng.random(cfg.n) < cfg.pi_treat
    np.add(y, cfg.effect, out=y, where=treated[:, None])
    y *= np.where(treated, 1.0 / cfg.pi_treat, -1.0 / (1.0 - cfg.pi_treat))[:, None]
    y -= beta_star
    return y
