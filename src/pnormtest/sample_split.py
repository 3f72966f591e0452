"""Two-fold protocol for testing many moments through a selected few.

The sample is split once: fold 1 picks d promising coordinates out of D,
fold 2 runs the ordinary testing pipeline on those d columns only.  The
folds are disjoint sets of row indices, so the second-stage statistics
never see the rows that drove selection, and the second stage is an
honest size-alpha test no matter how the selection behaved.  Fold 1 is
read once, block by block, into its column means, its difference-pair
rows and their column mean squares, and is never copied whole; only
fold 2's chosen columns are gathered.

Two built-in selectors:

* ``select_top_scaled``: the d largest per-coordinate studentized means;
* ``select_greedy``: forward selection, each step adding the coordinate
  that maximizes the joint studentized p-norm statistic on the enlarged
  set (Schur-complement recursion at p = 2; otherwise one stacked
  eigendecomposition per step, whitening every candidate's enlarged set
  through the test engine's kernel).

``split_test`` selects by name, "top" or "greedy".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import _check_rows, _checked
from .critical_values import _RadialLaw, _batch_pnorms, _check_alpha, _check_d
from .dominant_test import DominantTestSpec, calibrate_spec, default_spec
from .gaussian_moments import _check_p
from .test_engine import (
    TestReport,
    _check_estimator,
    _check_table_rows,
    _run_tests,
    _warn_rank,
    _whiten,
)

__all__ = [
    "split",
    "select_top_scaled",
    "select_greedy",
    "SplitResult",
    "split_test",
]

# bytes of the one row buffer through which fold 1 is summed block by block
_BLOCK_BYTES = 1 << 19

# candidates whose residual variance falls below this fraction of their own
# raw variance are linearly dependent on the current set up to roundoff
_DEGENERACY_RTOL = 1e-12


def split(n: int, frac1: float = 0.5, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random partition of range(n) into folds of sizes ceil(frac1*n) and
    the rest, each returned sorted.  Both folds must end up with at least
    4 rows (difference pairs need that many)."""
    n, seed = _check_d(n, name="n"), _check_d(seed, 0, name="seed")
    n1 = math.ceil(_check_alpha(frac1, "frac1") * n)
    _check_rows(min(n1, n - n1), f"; folds of sizes {n1} and {n - n1} are too small")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n1]), np.sort(perm[n1:])


def _block_rows(n: int, width: int) -> int:
    # rows per block of a running sum over n rows: an even number (so no
    # difference pair straddles two blocks), at least 2, or all n.  numpy
    # sums a single column pairwise, not row by row, so one column is read
    # in one block.
    if width == 1:
        return n
    return min(n, max(2, _BLOCK_BYTES // (16 * width) * 2))


def _add_rows(buf: np.ndarray, start: int, k: int) -> None:
    # buf[0] += the k rows in buf[1 : k + 1], where the first block (the
    # only one of a single column) starts the sum.  numpy reduces two or
    # more columns over axis 0 row by row, starting from 0, so the sum
    # carried in buf[0] equals one reduction over all rows bit for bit.
    buf[0] = np.add.reduce(buf[int(start == 0) : k + 1], axis=0)


def _fold_moments(
    values: np.ndarray, idx: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What both selectors read of fold 1, rows ``idx`` (sorted; all rows
    when None) of an array the caller has already validated:
    H = sqrt(n1) * column means, the difference-pair rows r, and their
    column mean squares (the pair variances).

    Fold 1 is read once and never copied whole: its rows are gathered block
    by block into one buffer of about ``_BLOCK_BYTES``, which carries the
    column sums and from which each block's pairs go straight into the
    returned rows; a half-size buffer carries the sums of the squared
    pairs.  The results equal ``sqrt(n1) * values[idx].mean(axis=0)``,
    ``_pair_rows(values[idx])`` and ``np.mean(r * r, axis=0)`` bit for bit.
    """
    if idx is None:
        idx = np.arange(values.shape[0])
    n1, width = _check_rows(idx.size), values.shape[1]
    rows = _block_rows(n1, width)
    buf = np.empty((rows + 1, width))
    squares = np.empty((rows // 2 + 1, width))
    r = np.empty((n1 // 2, width))
    for start in range(0, n1, rows):
        k = min(rows, n1 - start)
        block = buf[1 : k + 1]
        # idx comes from ``split`` or arange, so clipping never acts; unlike
        # "raise" it lets take write into ``out`` without a buffer
        np.take(values, idx[start : start + k], axis=0, out=block, mode="clip")
        pairs = r[start // 2 : (start + k) // 2]
        np.subtract(block[1 : 2 * len(pairs) : 2], block[0 : 2 * len(pairs) : 2], out=pairs)
        pairs /= np.sqrt(2.0)
        _add_rows(buf, start, k)
        np.multiply(pairs, pairs, out=squares[1 : len(pairs) + 1])
        _add_rows(squares, start, len(pairs))
    return math.sqrt(n1) * (buf[0] / n1), r, squares[0] / r.shape[0]


def _studentized_scores(h: np.ndarray, pair_var: np.ndarray) -> np.ndarray:
    scores = np.zeros(h.size)
    live = pair_var > 0.0
    scores[live] = np.abs(h[live]) / np.sqrt(pair_var[live])
    return scores


def select_top_scaled(fold1, d: int) -> np.ndarray:
    """Indices of the d largest per-coordinate studentized statistics
    sqrt(n1)|mean_j|/sigma_j, ties going to the lower index.  Coordinates
    with zero pair variance score 0 and are picked only if d forces it."""
    return _select(*_fold_moments(_checked(fold1)), _check_d(d), "top")


def _pick(step: int, scores: np.ndarray, bad: np.ndarray, selected: list[int]) -> int:
    # best admissible candidate of a greedy step; ``bad`` flags degenerate
    # candidates, and the selected ones are excluded too
    bad[selected] = True
    n_skipped = int(np.count_nonzero(bad)) - len(selected)
    if n_skipped > 0:
        warnings.warn(
            f"greedy step {step}: skipped {n_skipped} degenerate candidate(s)",
            RuntimeWarning,
            stacklevel=5,  # _pick <- _greedy_* <- _select <- entry point <- its caller
        )
    scores = np.where(bad, -np.inf, scores)
    if not np.isfinite(scores.max()):
        raise RuntimeError(f"greedy step {step}: no admissible candidate left")
    return int(np.argmax(scores))


def _greedy_p2(h: np.ndarray, r: np.ndarray, diag: np.ndarray, d: int) -> list[int]:
    # Schur recursion: with W = L^{-1} Sigma_{S,.} and a = L^{-1} H_S for
    # the Cholesky factor L of Sigma_SS, adding j changes the squared
    # statistic by (H_j - W_j'a)^2 / (Sigma_jj - |W_j|^2).  Both residual
    # arrays are updated in place as the set grows: appending j* adds the
    # row w = (Sigma_{j*,.} - W_{j*}'W) / l, l = sqrt(den_{j*}), so each
    # step costs one m x D matvec instead of refactoring from scratch.
    m = r.shape[0]
    floor = _DEGENERACY_RTOL * np.maximum(diag, np.finfo(float).tiny)
    w = np.empty((d, r.shape[1]))
    num_root = h.copy()
    den = diag.copy()
    selected: list[int] = []
    for step in range(d):
        bad = den <= floor
        gains = num_root * num_root
        np.divide(gains, den, out=gains, where=~bad)
        j = _pick(step, gains, bad, selected)
        selected.append(j)
        if step + 1 == d:
            break
        scale = math.sqrt(den[j])
        gram_j = r[:, j] @ r / m
        row = (gram_j - w[:step, j] @ w[:step]) / scale if step else gram_j / scale
        w[step] = row
        num_root -= (num_root[j] / scale) * row
        den -= row * row
    return selected


def _greedy_general(h: np.ndarray, r: np.ndarray, diag: np.ndarray, d: int, p) -> list[int]:
    # Column j's candidate covariance is the selected block bordered by
    # column j of one cross-product (set x all columns); every candidate
    # of a step is whitened in one stacked call and scored by its p-norm.
    m, big_d = r.shape
    ps = [p]
    selected: list[int] = []
    for step in range(d):
        cross = r[:, selected].T @ r / m
        sigma = np.empty((big_d, step + 1, step + 1))
        sigma[:, :step, :step] = cross[:, selected]
        sigma[:, :step, step] = sigma[:, step, :step] = cross.T
        sigma[:, step, step] = diag
        hs = np.empty((big_d, step + 1))
        hs[:, :step] = h[selected]
        hs[:, step] = h
        x, eig, _ = _whiten(hs, sigma)
        bad = eig[:, 0] <= _DEGENERACY_RTOL * eig[:, -1]
        selected.append(_pick(step, _batch_pnorms(x, ps)[:, 0], bad, selected))
    return selected


def select_greedy(fold1, d: int, p=2.0) -> np.ndarray:
    """Forward selection maximizing the studentized p-norm statistic on
    the growing set; plug-in pair covariance restricted to the candidate
    columns, ties to the lower index.  Candidates that are linearly
    dependent on the current set are skipped with a warning."""
    return _select(*_fold_moments(_checked(fold1)), _check_d(d), "greedy", p)


def _select(
    h: np.ndarray, r: np.ndarray, diag: np.ndarray, d: int, selection: str, p=2.0
) -> np.ndarray:
    # both selectors on the moments ``_fold_moments`` reads off fold 1, for a checked d
    if d > h.size:
        raise ValueError(f"need 1 <= d <= {h.size}, got d={d}")
    if selection == "top":
        return np.sort(np.argsort(-_studentized_scores(h, diag), kind="stable")[:d])
    if selection != "greedy":
        raise ValueError(f"selection must be 'top' or 'greedy', got {selection!r}")
    p = _check_p(p)
    selected = _greedy_p2(h, r, diag, d) if p == 2.0 else _greedy_general(h, r, diag, d, p)
    return np.sort(np.asarray(selected, dtype=int))


@dataclass(frozen=True)
class SplitResult:
    """Outcome of the two-fold protocol: which columns fold 1 picked and
    the fold-2 test report over those columns."""

    selected: tuple[int, ...]
    n1: int
    n2: int
    report: TestReport

    def to_json_dict(self) -> dict:
        return {
            "selected": list(self.selected),
            "n1": self.n1,
            "n2": self.n2,
            "report": self.report.to_json_dict(),
        }


def split_test(
    s,
    d: int,
    *,
    selection: str = "top",
    p=2.0,
    frac1: float = 0.5,
    seed: int = 0,
    spec: DominantTestSpec | None = None,
    alpha: float = 0.05,
    reps: int | None = None,
    mc_seed: int = 0,
    estimator: str = "sample",
) -> SplitResult:
    """Select d of the D moment columns on fold 1, test them on fold 2.

    ``selection`` is "top" or "greedy" (using exponent ``p``).  When no
    calibrated ``spec`` is passed, the default exponent grid at level
    ``alpha`` is calibrated at dimension d against the fold-2 reference
    law.  Critical values are therefore those of a d-dimensional test at
    sample size n2.
    """
    d, values, mc_seed = _check_d(d), _checked(s), _check_d(mc_seed, 0, name="mc_seed")
    estimator = _check_estimator(estimator)
    reps = None if reps is None else _check_d(reps, name="reps")
    idx1, idx2 = split(values.shape[0], frac1, seed)
    chosen = _select(*_fold_moments(values, idx1), d, selection, p)
    n2 = idx2.size
    if d > n2**0.4:
        warnings.warn(
            f"d={d} exceeds the n2^(2/5) = {n2 ** 0.4:.1f} guidance for fold size {n2}; "
            "the second-stage normal approximation may be poor",
            UserWarning,
            stacklevel=2,
        )
    if spec is None:
        aux = _RadialLaw.matched_rows(n2, d)
        spec = calibrate_spec(default_spec(d, alpha), reps=reps, seed=mc_seed, aux_rows=aux)
    report = _run_tests(values[np.ix_(idx2, chosen)], spec, estimator)
    _warn_rank(report.rank, d)
    _check_table_rows(spec, n2 // 2)
    return SplitResult(tuple(int(i) for i in chosen), idx1.size, n2, report)
