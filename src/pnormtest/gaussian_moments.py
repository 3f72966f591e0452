"""Scalar special functions of the standard normal distribution.

This module collects the handful of scalar functions that everything else
is built from:

* ``lambda_p(p, x)`` -- the absolute moment E|Z + x|**p of a shifted
  standard normal variable,
* ``sigma_p(p)`` -- the standard deviation of |Z|**p,
* ``g_p(p, x)`` -- the envelope max(x**2, |x|**p) that characterises
  consistency of the p-norm tests,
* ``normal_cdf`` / ``normal_quantile`` / ``mills_odds`` -- standard normal
  cdf, quantile and the odds ratio (1 - Phi(x)) / Phi(x).

``lambda_p`` is evaluated through the exact confluent hypergeometric
identity

    E|Z + x|**p = lambda_p(0) * 1F1(-p/2; 1/2; -x**2 / 2),

with lambda_p(0) = 2**(p/2) * Gamma((p+1)/2) / sqrt(pi).  The identity is
machine accurate uniformly in x (Gauss-Hermite quadrature, the
independent oracle in ``tests/_oracles.py``, loses ~1e-5 near the kink
of |t + x|**p for odd p, enough to break monotonicity in |x| at small
shifts).  Beyond |x| = 1e8 a two-term tail expansion in the log domain
takes over; at that point its relative error is below 1e-28 and it
degrades gracefully to ``inf`` once |x|**p leaves the float64 range.

scipy.special is imported inside the functions that call it, so importing
this module, and the Monte-Carlo paths that use only ``_check_p``, load no
scipy.

Exponents are plain floats in [2, inf], with ``math.inf`` for the sup norm
(``"inf"`` in JSON documents and on the command line).  ``_check_p`` is the
one check of that range; every public function that computes with an
exponent runs it.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "lambda_p",
    "sigma_p",
    "g_p",
    "normal_cdf",
    "normal_quantile",
    "mills_odds",
]

_ASYMPTOTIC_CUTOFF = 1e8


def _check_p(p) -> float:
    """The exponent p as a float: a real number, not a bool, p >= 2 or inf."""
    if not isinstance(p, numbers.Real) or isinstance(p, bool):
        raise TypeError(f"exponent must be a real number, got {p!r}")
    p = float(p)
    if math.isnan(p):
        raise ValueError("exponent must not be NaN")
    if p < 2.0:
        raise ValueError(f"exponent must satisfy p >= 2, got {p:g}")
    return p


def _finite_exponent(p) -> float:
    p = _check_p(p)
    if math.isinf(p):
        raise ValueError("this operation requires a finite exponent")
    return p


def _lambda_closed_form_zero(p: float) -> float:
    # E|Z|^p = 2^(p/2) Gamma((p+1)/2) / sqrt(pi); at even integers this is
    # the double factorial (p-1)!!, which stays exact in floating point
    if p == int(p) and int(p) % 2 == 0:
        return float(math.prod(range(1, int(p), 2)))
    from scipy.special import gammaln

    return math.exp(
        0.5 * p * math.log(2.0) + gammaln(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi)
    )


def lambda_p(p, x: float) -> float:
    """E|Z + x|**p for standard normal Z and finite exponent p >= 2.

    Parameters
    ----------
    p : float
        Finite exponent, p >= 2.
    x : float
        Shift; must be finite.

    Returns
    -------
    float
        The absolute moment, always >= lambda_p(p, 0) > 0.
    """
    pv = _finite_exponent(p)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"shift x must be finite, got {x}")
    if x == 0.0:
        return _lambda_closed_form_zero(pv)
    ax = abs(x)
    if ax > _ASYMPTOTIC_CUTOFF:
        logv = pv * math.log(ax) + math.log1p(pv * (pv - 1.0) / (2.0 * x * x))
        return math.inf if logv > 709.7 else math.exp(logv)
    from scipy.special import hyp1f1

    return _lambda_closed_form_zero(pv) * float(hyp1f1(-0.5 * pv, 0.5, -0.5 * x * x))


def sigma_p(p) -> float:
    """Standard deviation of |Z|**p: sqrt(lambda_{2p}(0) - lambda_p(0)**2)."""
    pv = _finite_exponent(p)
    second = lambda_p(2.0 * pv, 0.0)
    first = lambda_p(pv, 0.0)
    var = second - first * first
    if var <= 0.0:
        raise ValueError(f"variance of |Z|^p is not positive at p={pv}")
    return math.sqrt(var)


def g_p(p, x):
    """max(x**2, |x|**p); accepts scalar or array x."""
    pv = _finite_exponent(p)
    x = np.asarray(x, dtype=float)
    out = np.maximum(x * x, np.abs(x) ** pv)
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    """Standard normal cdf Phi(x)."""
    from scipy.special import ndtr

    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def normal_quantile(u):
    """Standard normal quantile Phi^{-1}(u) for u in (0, 1)."""
    from scipy.special import ndtri

    arr = np.asarray(u, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    out = ndtri(arr)
    return float(out) if np.ndim(u) == 0 else out


def mills_odds(x):
    """Mills odds (1 - Phi(x)) / Phi(x), computed in the log domain.

    The log-domain form stays accurate far into both tails.  For x below
    about -38 the true value exceeds the float64 range and the function
    returns ``inf``; far in the right tail it underflows to 0.  Both are
    the correctly rounded limits.
    """
    from scipy.special import log_ndtr

    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(log_ndtr(-arr) - log_ndtr(arr))
    return float(out) if np.ndim(x) == 0 else out
