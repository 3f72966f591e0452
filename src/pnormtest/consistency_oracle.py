"""Consistency criteria and asymptotic power formulas on theta profiles,
the d-vectors of noncentralities, taken and returned as plain arrays.

Each p-norm test is consistent against a drifting sequence of
alternatives iff its criterion diverges along the sequence:

* finite p: d^{-1/2} sum_i g_p(theta_i), the envelope criterion;
* the equivalent form d^{-1/2} sum_i (lambda_p(theta_i) - lambda_p(0));
* sup norm: sum_i MillsOdds(c_d - |theta_i|) with the threshold
  c_d = sqrt(2 ln d) - ln ln d / (2 sqrt(2 ln d)) and c_1 := 0.

``make_alternative`` builds the three canonical families used to
demonstrate the ordering of the tests:

* sparse: a single spike of size sqrt(3 ln d) (only the sup test is
  consistent against it);
* dense: every coordinate 1/sqrt(ln d) (every finite p is, the sup
  criterion stays bounded);
* semi_sparse: k = ceil(sqrt(d) / (ln d)^2) spikes of size
  sqrt(2 t ln d), default t = 0.08, sized so the finite-p criterion
  k (2t ln d)^{p/2} / sqrt(d) ~ (0.16 ln d)^{p/2} / (ln d)^2 diverges
  iff p > 4 while the spike contribution to the sup criterion decays
  like d^{1/2 - (1 - sqrt(t))^2 - o(1)} -> 0 (the spike is
  sqrt(t) sqrt(2 ln d); the exponent is -0.014 at t = 0.08).

The finite-p form above needs the spike to be at least 1, i.e.
2t ln d >= 1, or d >= e^{1/(2t)} (about 518 at t = 0.08).  Below that,
g_p(x) = x^2 at the spike, so every finite-p criterion equals the p = 2
one.  Past it, the ceiling in k makes the finite-p criterion sawtooth in
d at desk scales even when its smooth envelope is monotone; comparisons
across a d grid should look at endpoints past e^{1/(2t)}, not
consecutive steps.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian_moments import g_p, lambda_p, mills_odds, normal_cdf, normal_quantile, sigma_p

__all__ = [
    "sup_threshold",
    "finite_p_criterion",
    "lambda_criterion",
    "sup_criterion",
    "local_power",
    "make_alternative",
    "ALTERNATIVE_KINDS",
]

ALTERNATIVE_KINDS = ("sparse", "dense", "semi_sparse")


def _as_theta(theta) -> np.ndarray:
    # the one check of a theta argument
    t = np.asarray(theta, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"expected a vector, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("theta entries must be finite")
    return t


def sup_threshold(d: int) -> float:
    """The sup-norm consistency threshold c_d; c_1 is defined as 0."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d == 1:
        return 0.0
    root = math.sqrt(2.0 * math.log(d))
    # ln ln d < 0 for d = 2 is accepted; the formula stays real
    return root - math.log(math.log(d)) / (2.0 * root)


def finite_p_criterion(theta, p) -> float:
    """d^{-1/2} sum_i g_p(theta_i); diverges iff the p-norm test is consistent."""
    t = _as_theta(theta)
    return float(np.sum(g_p(p, t))) / math.sqrt(t.size)


def lambda_criterion(theta, p) -> float:
    """d^{-1/2} sum_i (lambda_p(theta_i) - lambda_p(0)); same divergence."""
    t = _as_theta(theta)
    # profiles are typically few-valued; evaluate lambda_p once per value
    vals, counts = np.unique(np.abs(t), return_counts=True)
    base = lambda_p(p, 0.0)
    total = sum(c * (lambda_p(p, v) - base) for v, c in zip(vals, counts))
    return float(total) / math.sqrt(t.size)


def sup_criterion(theta) -> float:
    """sum_i MillsOdds(c_d - |theta_i|); strictly positive even at theta = 0."""
    t = _as_theta(theta)
    vals, counts = np.unique(np.abs(t), return_counts=True)
    odds = mills_odds(sup_threshold(t.size) - vals)
    return float(np.dot(counts, odds))


def local_power(p, alpha: float, c: float) -> float:
    """Asymptotic power 1 - Phi(Phi^{-1}(1-alpha) - c / sigma_p) at drift c."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not c >= 0.0:
        raise ValueError(f"drift c must be >= 0, got {c}")
    return 1.0 - normal_cdf(normal_quantile(1.0 - alpha) - c / sigma_p(p))


def make_alternative(kind: str, d: int, t: float = 0.08, scale: float = 1.0) -> np.ndarray:
    """Canonical alternative families; see the module docstring.

    ``scale`` multiplies every nonzero coordinate (used to sweep a family
    through a power range); ``t`` only affects the semi-sparse family.
    """
    if kind not in ALTERNATIVE_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {ALTERNATIVE_KINDS}")
    if d < 2:
        raise ValueError(f"alternative families need d >= 2, got {d}")
    if not scale > 0.0:  # NaN fails it
        raise ValueError(f"scale must be positive, got {scale}")
    theta = np.zeros(d)
    if kind == "sparse":
        theta[0] = scale * math.sqrt(3.0 * math.log(d))
    elif kind == "dense":
        theta[:] = scale / math.sqrt(math.log(d))
    else:
        if not t > 0.0:
            raise ValueError(f"semi-sparse needs t > 0, got t={t}")
        k = math.ceil(math.sqrt(d) / math.log(d) ** 2)
        if k > d:
            raise ValueError(f"d={d} too small for the semi-sparse family (k={k} > d)")
        theta[:k] = scale * math.sqrt(2.0 * t * math.log(d))
    return _as_theta(theta)  # an infinite scale or t, or an overflow, fails it
