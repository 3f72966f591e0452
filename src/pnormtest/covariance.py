"""Covariance estimation from a sample of evaluated moment functions.

The estimators operate on the auxiliary difference-pair sample: rows
(h_2 - h_1)/sqrt(2), (h_4 - h_3)/sqrt(2), ... which are mean zero by
construction and share the covariance of the original rows.  Because of
that, both estimators use the uncentered second-moment form.

``truncated_cov`` is a practical heavy-tail-robust variant that shrinks
each auxiliary row onto the ball of radius ``_TRUNC_MULT`` (3) times the
median row norm before forming the second-moment matrix.  The theoretically
optimal robust estimators this stands in for are not practical to
implement.  The test engine selects its estimator by one of two names,
``"sample"`` or ``"truncated"``; other estimators are not pluggable, and
every entry point truncates at the one level ``_TRUNC_MULT``.  Samples
are n x d arrays, checked once by ``_checked`` and never copied;
difference pairs need n >= 4 rows, the rule of ``_check_rows``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matrix_core import SymMatrix

__all__ = [
    "difference_pairs",
    "sample_cov",
    "truncated_cov",
    "kurtosis_diagnostic",
]


# Kept only because bench/tracer.py counts its __post_init__ (COUNTED_CLASSES),
# which tests/test_bench_contract.py pins; no library function builds or takes one.
@dataclass(frozen=True)
class MomentSample:
    """A validated, read-only copy of an n x d sample."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = _checked(self.values).copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _checked(s) -> np.ndarray:
    """The n x d sample ``s``, validated: the one check of a sample.

    Read as a C-ordered float array, without a copy when it already is one,
    and never marked read-only; a 1-D input is one row.
    """
    # asarray, not ascontiguousarray, so a 0-d input stays 0-d and is rejected
    v = np.asarray(s, dtype=float, order="C")
    if v.ndim == 1:
        v = v.reshape(1, -1)
    if v.ndim != 2:
        raise ValueError(f"expected an n x d array, got shape {v.shape}")
    if v.shape[0] < 1 or v.shape[1] < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got shape {v.shape}")
    # a NaN or infinite entry makes the sum non-finite, so a finite sum
    # proves every entry finite without an n x d boolean; only a sum that
    # overflowed or met a non-finite entry is checked entry by entry
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(v, axis=None)
    if not np.isfinite(total) and not np.all(np.isfinite(v)):
        raise ValueError("moment sample entries must be finite")
    return v


def _check_rows(n: int, hint: str = "") -> int:
    """The row count n of a sample whose difference pairs are formed: n >= 4."""
    if n < 4:
        raise ValueError(f"difference pairs need n >= 4 rows, got {n}{hint}")
    return n


def _pair_rows(values: np.ndarray) -> np.ndarray:
    # (..., n, d) -> (..., n // 2, d) difference-pair rows of each stacked sample
    m = _check_rows(values.shape[-2]) // 2
    rows = values[..., 1 : 2 * m : 2, :] - values[..., 0 : 2 * m : 2, :]
    rows /= np.sqrt(2.0)
    return rows


def _second_moment(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # (..., m, d) -> (..., d, d) uncentered second moments (1/m) sum_i r_i r_i',
    # written into ``out`` when given
    out = np.matmul(np.swapaxes(rows, -1, -2), rows, out=out)
    out /= rows.shape[-2]
    return out


# the truncation radius of the truncated estimator, in median row norms;
# read when rows are truncated, so a study can patch it
_TRUNC_MULT = 3.0


def _truncate_rows(rows: np.ndarray) -> np.ndarray:
    # shrink each row onto the ball of radius _TRUNC_MULT times its own
    # sample's median row norm; one median per stacked sample.  The norms
    # and the median are np.linalg.norm's and np.median's, bit for bit: the
    # median is the mean of the two middle order statistics (one, twice,
    # when m is odd), and the squared rows hold the result.
    sq = rows * rows
    norms = np.sqrt(sq.sum(axis=-1))
    m = norms.shape[-1]
    mid = np.partition(norms, [(m - 1) // 2, m // 2], axis=-1)
    tau = _TRUNC_MULT * ((mid[..., (m - 1) // 2] + mid[..., m // 2]) / 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        shrink = np.where(norms > 0, np.minimum(1.0, tau[..., None] / norms), 1.0)
    return np.multiply(rows, shrink[..., None], out=sq)


def difference_pairs(s) -> np.ndarray:
    """Auxiliary sample of scaled successive differences.

    Rows (h_2 - h_1)/sqrt(2), (h_4 - h_3)/sqrt(2), ...; an odd trailing row
    is dropped.  Each output row has population mean zero and the same
    covariance as the input rows.
    """
    return _pair_rows(_checked(s))


def sample_cov(aux) -> SymMatrix:
    """Uncentered second-moment matrix (1/m) sum_i r_i r_i'."""
    return SymMatrix(_second_moment(_checked(aux)))


def truncated_cov(aux) -> SymMatrix:
    """Norm-truncated second-moment matrix.

    Each row r_i is shrunk to r_i * min(1, tau / ||r_i||_2) with
    tau = 3 median_j ||r_j||_2 (``_TRUNC_MULT``), then ``sample_cov`` is applied.
    """
    rows = _truncate_rows(_checked(aux))
    return SymMatrix(_second_moment(rows))


def kurtosis_diagnostic(s) -> float:
    """Empirical directional-kurtosis diagnostic.

    Max over 64 random unit directions t (seed 0) of
    (E_hat <h - mu_hat, t>^4)^(1/4) / (E_hat <h - mu_hat, t>^2)^(1/2),
    an empirical lower bound on the fourth-to-second moment-ratio constant;
    Gaussian data yields about 3^(1/4) ~ 1.316.  Reported, not enforced.
    """
    return _kurtosis(_checked(s))


@functools.lru_cache(maxsize=8)
def _directions(d: int, directions: int, seed: int) -> np.ndarray:
    """The d x ``directions`` unit columns of ``_kurtosis``, read-only and
    drawn once per (d, directions, seed)."""
    t = np.random.default_rng(seed).standard_normal((d, directions))
    t /= np.linalg.norm(t, axis=0)
    t.flags.writeable = False
    return t


def _kurtosis(values: np.ndarray, directions: int = 64, seed: int = 0) -> float:
    # kurtosis_diagnostic on an n x d array the caller has already validated
    centered = values - values.mean(axis=0)
    proj = centered @ _directions(values.shape[1], directions, seed)
    # products, not proj**4: numpy's power is far slower for negative bases
    sq = proj * proj
    second = np.mean(sq, axis=0)
    fourth = np.mean(sq * sq, axis=0)
    usable = second > 1e-14
    if not np.any(usable):
        raise ValueError("all projections degenerate: zero variance sample")
    ratios = fourth[usable] ** 0.25 / np.sqrt(second[usable])
    return float(np.max(ratios))
