"""Two-fold protocol for testing many moments through a selected few.

The sample is split once: fold 1 picks d promising coordinates out of D,
fold 2 runs the ordinary testing pipeline on those d columns only.  The
folds are physically separate arrays, so the second-stage statistics
never see the rows that drove selection, and the second stage is an
honest size-alpha test no matter how the selection behaved.

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

from .covariance import _checked, _pair_rows
from .critical_values import _batch_pnorms
from .dominant_test import DominantTestSpec, calibrate_spec, default_spec
from .gaussian_moments import as_exponent
from .test_engine import (
    TestReport,
    _check_table_rows,
    _matched_aux_rows,
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

_MIN_FOLD = 4

# candidates whose residual variance falls below this fraction of their own
# raw variance are linearly dependent on the current set up to roundoff
_DEGENERACY_RTOL = 1e-12


def split(n: int, frac1: float = 0.5, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Random partition of range(n) into folds of sizes ceil(frac1*n) and
    the rest, each returned sorted.  Both folds must end up with at least
    4 rows (difference pairs need that many)."""
    if not 0.0 < frac1 < 1.0:
        raise ValueError(f"frac1 must lie in (0, 1), got {frac1}")
    n1 = math.ceil(frac1 * n)
    if min(n1, n - n1) < _MIN_FOLD:
        raise ValueError(
            f"folds of sizes {n1} and {n - n1} are too small; both need >= {_MIN_FOLD}"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n1]), np.sort(perm[n1:])


def _fold_moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # what both selectors read of fold-1 rows the caller has already
    # validated: H = sqrt(n1) * column means, and the difference-pair rows
    return math.sqrt(values.shape[0]) * values.mean(axis=0), _pair_rows(values)


def _studentized_scores(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    pair_var = np.mean(r**2, axis=0)
    scores = np.zeros(h.size)
    live = pair_var > 0.0
    scores[live] = np.abs(h[live]) / np.sqrt(pair_var[live])
    return scores


def select_top_scaled(fold1, d: int) -> np.ndarray:
    """Indices of the d largest per-coordinate studentized statistics
    sqrt(n1)|mean_j|/sigma_j, ties going to the lower index.  Coordinates
    with zero pair variance score 0 and are picked only if d forces it."""
    return _select(*_fold_moments(_checked(fold1)), d, "top")


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


def _greedy_p2(h: np.ndarray, r: np.ndarray, d: int) -> list[int]:
    # Schur recursion: with W = L^{-1} Sigma_{S,.} and a = L^{-1} H_S for
    # the Cholesky factor L of Sigma_SS, adding j changes the squared
    # statistic by (H_j - W_j'a)^2 / (Sigma_jj - |W_j|^2).  Both residual
    # arrays are updated in place as the set grows: appending j* adds the
    # row w = (Sigma_{j*,.} - W_{j*}'W) / l, l = sqrt(den_{j*}), so each
    # step costs one m x D matvec instead of refactoring from scratch.
    m = r.shape[0]
    diag = np.mean(r * r, axis=0)
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


def _greedy_general(h: np.ndarray, r: np.ndarray, d: int, p) -> list[int]:
    # Column j's candidate covariance is the selected block bordered by
    # column j of one cross-product (set x all columns); every candidate
    # of a step is whitened in one stacked call and scored by its p-norm.
    m, big_d = r.shape
    diag = np.mean(r * r, axis=0)
    ps = [as_exponent(p)]
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
    return _select(*_fold_moments(_checked(fold1)), d, "greedy", p)


def _select(h: np.ndarray, r: np.ndarray, d: int, selection: str, p=2.0) -> np.ndarray:
    # both selectors on the moments ``_fold_moments`` reads off fold 1
    if not 1 <= d <= h.size:
        raise ValueError(f"need 1 <= d <= {h.size}, got d={d}")
    if selection == "top":
        return np.sort(np.argsort(-_studentized_scores(h, r), kind="stable")[:d])
    if selection != "greedy":
        raise ValueError(f"selection must be 'top' or 'greedy', got {selection!r}")
    pv = float(p)
    if not (pv >= 2.0 or math.isinf(pv)):
        raise ValueError(f"exponent must lie in [2, inf], got {p}")
    selected = _greedy_p2(h, r, d) if pv == 2.0 else _greedy_general(h, r, d, pv)
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
    seed=0,
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
    values = _checked(s)
    idx1, idx2 = split(values.shape[0], frac1, seed)
    # fold 1's rows are freed once its moments are read
    chosen = _select(*_fold_moments(values[idx1]), d, selection, p)
    n2 = idx2.size
    if d > n2**0.4:
        warnings.warn(
            f"d={d} exceeds the n2^(2/5) = {n2 ** 0.4:.1f} guidance for fold size {n2}; "
            "the second-stage normal approximation may be poor",
            UserWarning,
            stacklevel=2,
        )
    if spec is None:
        aux = _matched_aux_rows(n2, d)
        spec = calibrate_spec(default_spec(d, alpha), reps=reps, seed=mc_seed, aux_rows=aux)
    report = _run_tests(values[np.ix_(idx2, chosen)], spec, estimator)
    _warn_rank(report.rank, d)
    _check_table_rows(spec, n2 // 2)
    return SplitResult(tuple(int(i) for i in chosen), idx1.size, n2, report)
