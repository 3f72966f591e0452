"""Core test pipeline: whitening, p-norm statistics, decisions, the
noncentrality oracle, and confidence-set inversion.

The pipeline for a sample of evaluated moment functions is

    rows -> H = sqrt(n) * column means
    rows -> difference pairs -> covariance estimate Sigma_hat
    Sigma_hat = V diag(w) V'              (one eigendecomposition)
    x   = V (w^{-1/2} * (V' H))           (= pinv_sqrt(Sigma_hat) H)
    S_p = || x ||_p  for each exponent p.

One private kernel, ``_whiten_stack``, runs this pipeline on a stack of
samples of shape (..., n, d): every step acts on the trailing two axes,
with one median per sample for the truncated estimator and one ``eigh``
per covariance matrix.  The public entry points (``standardize``,
``prepare_standardized``, ``run_tests``) run it on a stack of one.  Many
samples, the simulation harness's replications and the candidates of
``invert_confidence_set``, go through ``_whiten_chunks``: the kernel on
chunks of about ``_CHUNK_BYTES`` of sample values, filled one sample at a
time into one reused buffer.  The statistics of a stacked sample are the
same bits as when that sample is whitened alone, so the chunk size never
changes a result.  Each input has one form: the estimator is named
``"sample"`` or ``"truncated"``, and the model of ``invert_confidence_set``
returns each candidate's sample as an n x d array.

Covariance degrees of freedom.  The inverse of a second-moment matrix
built from m difference rows overshoots the true inverse by a factor of
roughly m/(m-d-1) (exactly, in expectation, for Wishart draws).  To keep
the standardized coordinates on the unit-variance scale that every
critical value in this package assumes, the kernel multiplies the
estimate by m/(m-d-1) whenever m >= d + 2.  The matching finite-sample
reference law for critical values is available through the ``aux_rows``
argument of the calibration functions.

Rank deficiency is handled by the Moore-Penrose convention: eigenvalues
at or below 1e-10 times the largest get w^{-1/2} := 0, so singular
directions are projected out; the public entry points warn with the
numerical rank, naming their caller, and critical values keep using the
nominal d.  A materially negative eigenvalue is an error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .covariance import (
    _TRUNC_MULT,
    _checked,
    _kurtosis,
    _pair_rows,
    _second_moment,
    _truncate_rows,
)
from .critical_values import (
    _batch_pnorms,
    _check_alpha,
    _exponent_key,
    _formula_kappa,
    mc_pnorm_quantile,
)
from .dominant_test import DominantTestSpec, _max_ratio
from .gaussian_moments import Exponent, as_exponent
from .matrix_core import SymMatrix, _inverse_roots

__all__ = [
    "TestReport",
    "PerExponentRecord",
    "DominantRecord",
    "standardize",
    "p_norm_stat",
    "theta_oracle",
    "prepare_standardized",
    "run_tests",
    "invert_confidence_set",
    "ConfidenceSet",
    "CandidateRecord",
]

# covariance estimators by name
_ESTIMATORS = ("sample", "truncated")


def _check_estimator(name: str) -> str:
    if name not in _ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}; expected one of {list(_ESTIMATORS)}")
    return name


def _whiten(h: np.ndarray, sigma: np.ndarray):
    """x = V (w^{-1/2} * (V' h)) for stacks h (..., d) and sigma (..., d, d).

    One ``eigh`` per matrix, Moore-Penrose rank rule of ``_inverse_roots``.
    Returns x (..., d), the ascending eigenvalues w (..., d) and the
    numerical ranks (...).
    """
    w, v = np.linalg.eigh(sigma)
    inv_roots, rank = _inverse_roots(w)
    coef = inv_roots * (h[..., None, :] @ v)[..., 0, :]
    x = (v @ coef[..., None])[..., 0]
    if not np.all(np.isfinite(x)):
        raise ValueError("standardized statistic must be finite")
    return x, w, rank


def _whiten_stack(values: np.ndarray, estimator: str, trunc_mult: float):
    """Whitening kernel for a stack of samples ``values`` of shape (..., n, d).

    Difference pairs, the sample or truncated second moment (one median
    per sample), the m/(m-d-1) debias when m >= d + 2, then ``_whiten``.
    ``estimator`` is a checked name.  Returns (x, w, rank, sigma, aux):
    whitened vectors (..., d), eigenvalues (..., d), ranks (...), debiased
    covariance estimates (..., d, d) and difference-pair rows (..., m, d).
    """
    n, d = values.shape[-2:]
    aux = _pair_rows(values)
    rows = _truncate_rows(aux, trunc_mult) if estimator == "truncated" else aux
    sigma = _second_moment(rows)
    m = aux.shape[-2]
    if m >= d + 2:
        # unbias the inverse: E[(c W)^-1] = Sigma^-1 at c = m/(m-d-1)
        sigma *= m / (m - d - 1.0)
    h = math.sqrt(n) * values.mean(axis=-2)
    x, w, rank = _whiten(h, sigma)
    return x, w, rank, sigma, aux


# Samples per kernel call in ``_whiten_chunks``: about 1 MiB of sample
# values, at least one.  Like the calibration block size it is fixed, not
# tuned per call; results do not depend on it.
_CHUNK_BYTES = 1 << 20


def _whiten_chunks(count: int, n: int, d: int, fill, estimator: str, trunc_mult: float):
    """Kernel over ``count`` n x d samples, one reused chunk buffer at a time:
    ``fill(i, out)`` writes sample i into ``out``; yields (lo, hi, x, rank)."""
    per_chunk = max(1, _CHUNK_BYTES // (8 * n * d))
    values = np.empty((per_chunk, n, d))
    for lo in range(0, count, per_chunk):
        hi = min(lo + per_chunk, count)
        for i in range(lo, hi):
            fill(i, values[i - lo])
        x, _, rank, _, _ = _whiten_stack(values[: hi - lo], estimator, trunc_mult)
        yield lo, hi, x, rank


def _warn_rank(rank: int, d: int) -> None:
    # called by the public entry points themselves, so the warning names
    # the line that called them
    if rank < d:
        warnings.warn(
            f"covariance estimate has numerical rank {rank} < d = {d}; "
            "singular directions are projected out",
            RuntimeWarning,
            stacklevel=3,
        )


def standardize(h: np.ndarray, sigma_hat) -> tuple[np.ndarray, np.ndarray, int]:
    """Whiten H by the Moore-Penrose inverse square root of Sigma_hat.

    Returns the whitened vector, the ascending eigenvalues of Sigma_hat and
    its numerical rank.  Warns when Sigma_hat is numerically rank
    deficient; singular directions are projected out of the statistic.
    """
    sigma = sigma_hat if isinstance(sigma_hat, SymMatrix) else SymMatrix(sigma_hat)
    h = np.asarray(h, dtype=float)
    if h.shape != (sigma.dim,):
        raise ValueError(
            f"dimension mismatch: H has shape {h.shape}, Sigma is {sigma.dim} x {sigma.dim}"
        )
    x, w, rank = _whiten(h[None], sigma.entries[None])
    _warn_rank(int(rank[0]), sigma.dim)
    return x[0], w[0], int(rank[0])


def p_norm_stat(v, p) -> float:
    """S_p = ||v||_p, overflow-safe via max-factoring; 0 for the zero vector.

    The stack-of-one case of the batched p-norms behind every statistic of
    the package.
    """
    vec = np.asarray(v, dtype=float)
    return float(_batch_pnorms(vec.reshape(1, -1), [as_exponent(p)])[0, 0])


def theta_oracle(mu: np.ndarray, sigma, n: int) -> np.ndarray:
    """Population noncentrality profile theta = sqrt(n) pinv_sqrt(Sigma) mu,
    a d-vector."""
    if not n >= 1:  # NaN fails it
        raise ValueError(f"n must be >= 1, got {n}")
    sigma = sigma if isinstance(sigma, SymMatrix) else SymMatrix(sigma)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (sigma.dim,):
        raise ValueError(f"mu has shape {mu.shape}, Sigma is {sigma.dim} x {sigma.dim}")
    x, _, _ = _whiten(mu[None], sigma.entries[None])
    theta = math.sqrt(n) * x[0]
    if not np.all(np.isfinite(theta)):  # n = inf, or an overflow
        raise ValueError("theta entries must be finite")
    return theta


def prepare_standardized(s, estimator: str = "sample", trunc_mult: float = _TRUNC_MULT):
    """Full whitening pipeline: difference pairs, covariance, debias, whiten.

    Returns the kernel's arrays for this one sample: the whitened vector
    (d,), the ascending eigenvalues (d,), the numerical rank, the debiased
    covariance estimate (d, d) and the difference-pair rows (n // 2, d).
    """
    values = _checked(s)
    out = _whiten_stack(values[None], _check_estimator(estimator), trunc_mult)
    x, w, rank, sigma, aux = (a[0] for a in out)
    _warn_rank(int(rank), values.shape[1])
    return x, w, int(rank), sigma, aux


def _matched_aux_rows(n: int, d: int) -> int | None:
    """The finite-sample reference law's row count for an n x d sample: its
    n // 2 difference pairs when they can estimate a d x d covariance, else
    None (the Gaussian limit law)."""
    return n // 2 if n // 2 >= d + 2 else None


def _table_rows_mismatch(spec: DominantTestSpec, m: int) -> str | None:
    """Why the spec's table does not fit m difference pairs, or None if it does."""
    table_rows = spec.table.aux_rows
    if table_rows is None or table_rows == m:
        return None
    return (
        f"calibration table was drawn for aux_rows={table_rows} difference pairs "
        f"but the sample has {m}; its finite-sample reference law "
        "does not match this sample"
    )


def _check_table_rows(spec: DominantTestSpec, m: int) -> None:
    mismatch = _table_rows_mismatch(spec, m)
    if mismatch is not None:
        warnings.warn(mismatch, RuntimeWarning, stacklevel=3)


def _test_columns(spec: DominantTestSpec, extra_ps: Iterable):
    """The exponents a report covers and their standalone critical values.

    Grid exponents first (calibrated ``standalone_kappa`` at alpha_total),
    then the exponents of ``extra_ps`` outside the grid in increasing
    order (asymptotic formulas at alpha_total).
    """
    grid = list(spec.exponents)
    extras = sorted({as_exponent(p) for p in extra_ps} - set(grid))
    alpha = spec.alpha_total
    crits = [spec.table.standalone_kappa(p) for p in grid] + [
        _formula_kappa(p, spec.d, alpha) for p in extras
    ]
    return grid + extras, np.asarray(crits)


def _decide(x: np.ndarray, spec: DominantTestSpec, ps: list, crits: np.ndarray):
    """Statistics and decisions for whitened vectors x of shape (B, d).

    Returns S_p (B, len(ps)) for the exponents of ``_test_columns``, the
    standalone rejections S_p >= crit, and the combined rule's
    max_p S_p / kappa_p over the grid with its rejection (>= c_n).
    """
    stats = _batch_pnorms(x, ps)
    max_ratio, psi = _max_ratio(stats[:, : len(spec.exponents)], spec)
    return stats, stats >= crits, max_ratio, psi


@dataclass(frozen=True)
class PerExponentRecord:
    """A standalone test of one exponent at the full level."""

    p: Exponent
    statistic: float
    critical: float
    reject: bool
    source: str  # "calibrated" (from the spec's table) or "formula"

    def __post_init__(self) -> None:
        if self.reject != (self.statistic >= self.critical):
            raise ValueError("reject flag inconsistent with statistic and critical value")


@dataclass(frozen=True)
class DominantRecord:
    c_n: float
    max_ratio: float
    reject: bool

    def __post_init__(self) -> None:
        if self.reject != (self.max_ratio >= self.c_n):
            raise ValueError("dominant reject flag inconsistent with max ratio")


@dataclass(frozen=True)
class TestReport:
    d: int
    n: int
    estimator: str
    per_p: tuple[PerExponentRecord, ...]
    dominant: DominantRecord
    eigen_diag: tuple[float, float]
    rank: int
    kurtosis: float

    def record(self, p) -> PerExponentRecord:
        pv = as_exponent(p)
        for rec in self.per_p:
            if rec.p == pv:
                return rec
        raise KeyError(f"no record for exponent {pv}")

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "estimator": self.estimator,
            "per_p": [
                {
                    "p": _exponent_key(r.p),
                    "statistic": r.statistic,
                    "critical": r.critical,
                    "reject": r.reject,
                    "source": r.source,
                }
                for r in self.per_p
            ],
            "dominant": {
                "c_n": self.dominant.c_n,
                "max_ratio": self.dominant.max_ratio,
                "reject": self.dominant.reject,
            },
            "diagnostics": {
                "min_eig": self.eigen_diag[0],
                "max_eig": self.eigen_diag[1],
                "rank": self.rank,
                "kurtosis": self.kurtosis,
            },
        }


def run_tests(
    s,
    spec: DominantTestSpec,
    estimator: str = "sample",
    trunc_mult: float = _TRUNC_MULT,
    extra_ps: Iterable = (),
) -> TestReport:
    """Evaluate every p-norm test in the spec's grid plus the combined test.

    Per-exponent records are standalone tests at the full level
    alpha_total (critical values from the spec's calibrated table);
    exponents in ``extra_ps`` outside the grid fall back to the
    asymptotic formulas.  The dominant record applies the combined rule
    max_p S_p / kappa_p >= c_n over the grid exponents only.  The
    directional kurtosis of the difference pairs is always reported.
    Warns when the covariance estimate is rank deficient, and when the
    spec's table was drawn from the finite-sample law for another
    difference-pair count than this sample's n // 2.
    """
    report = _run_tests(_checked(s), spec, estimator, trunc_mult, extra_ps)
    _warn_rank(report.rank, report.d)
    _check_table_rows(spec, report.n // 2)
    return report


def _run_tests(
    values: np.ndarray,
    spec: DominantTestSpec,
    estimator: str,
    trunc_mult: float = _TRUNC_MULT,
    extra_ps: Iterable = (),
) -> TestReport:
    # run_tests on an n x d array the caller has already validated; the
    # caller warns, so the warnings name its caller
    n, d = values.shape
    if spec.table is None:
        raise ValueError("spec is not calibrated; run calibrate_spec first")
    if d != spec.d:
        raise ValueError(f"sample has d={d} but spec was built for d={spec.d}")
    estimator = _check_estimator(estimator)
    x, w, rank, _, aux = _whiten_stack(values[None], estimator, trunc_mult)
    ps, crits = _test_columns(spec, extra_ps)
    stats, reject, max_ratio, psi = _decide(x, spec, ps, crits)
    n_grid = len(spec.exponents)
    records = tuple(
        PerExponentRecord(
            p=p,
            statistic=float(stats[0, j]),
            critical=float(crits[j]),
            reject=bool(reject[0, j]),
            source="calibrated" if j < n_grid else "formula",
        )
        for j, p in enumerate(ps)
    )
    return TestReport(
        d=d,
        n=n,
        estimator=estimator,
        per_p=records,
        dominant=DominantRecord(
            c_n=spec.table.c_n, max_ratio=float(max_ratio[0]), reject=bool(psi[0])
        ),
        eigen_diag=(float(w[0, 0]), float(w[0, -1])),
        rank=int(rank[0]),
        kurtosis=_kurtosis(aux[0]),
    )


@dataclass(frozen=True)
class CandidateRecord:
    beta: float
    statistic: float  # nan when undetermined
    retained: bool
    undetermined: bool = False


@dataclass(frozen=True)
class ConfidenceSet:
    p: Exponent
    alpha: float
    critical: float
    entries: tuple[CandidateRecord, ...]

    @property
    def retained(self) -> tuple[float, ...]:
        return tuple(e.beta for e in self.entries if e.retained)


def invert_confidence_set(
    model: Callable[[float], object],
    grid: Sequence[float],
    p,
    alpha: float,
    estimator: str = "sample",
    critical: float | None = None,
    mc_reps: int | None = None,
    mc_seed: int = 0,
) -> ConfidenceSet:
    """Grid inversion: retain candidates whose statistic stays below kappa.

    ``model(beta)`` must return the n x d array of moment functions
    evaluated at the candidate; n and d are read off ``grid[0]``, and a
    candidate of any other shape is a usage error.  The
    critical value defaults to a Monte-Carlo quantile under the
    finite-sample reference matched to the sample's difference-pair count;
    pass a finite positive ``critical`` to override.  A sample of fewer than
    4 rows is rejected.  A candidate is undetermined when its output has a
    non-finite entry or a second moment that overflows: it is retained
    conservatively with a nan statistic.  All candidates are whitened in chunks by the
    stacked kernel, and one ``RuntimeWarning`` counts the undetermined
    candidates and those with a rank-deficient covariance estimate.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("candidate grid must be nonempty")
    alpha = _check_alpha(alpha)
    if critical is not None and not (math.isfinite(critical) and critical > 0):
        raise ValueError(f"critical must be finite and positive, got {critical}")
    pv = as_exponent(p)
    estimator = _check_estimator(estimator)

    def values(beta) -> np.ndarray:
        return np.asarray(model(beta), dtype=float)

    first = values(grid[0])
    if first.ndim != 2 or first.shape[0] < 4 or first.shape[1] < 1:
        raise ValueError(f"candidates need n x d samples, n >= 4, d >= 1; got {first.shape}")
    n, d = first.shape
    if critical is None:
        critical = mc_pnorm_quantile(
            pv, d, alpha, reps=mc_reps, seed=mc_seed, aux_rows=_matched_aux_rows(n, d)
        )

    finite = np.zeros(len(grid), dtype=bool)  # False marks an undetermined candidate

    def fill(i: int, out: np.ndarray) -> None:
        v = first if i == 0 else values(grid[i])
        if v.shape != (n, d):
            # inconsistent model output is a usage error, not a numerical one
            raise ValueError(f"candidate {grid[i]} produced shape {v.shape}, expected {n} x {d}")
        # nan, inf or an overflowing second moment: zeros keep the chunk finite
        finite[i] = np.isfinite(np.vdot(v, v))
        out[...] = v if finite[i] else 0.0

    stats = np.empty(len(grid))
    deficient = 0
    for lo, hi, x, rank in _whiten_chunks(len(grid), n, d, fill, estimator, _TRUNC_MULT):
        stats[lo:hi] = _batch_pnorms(x, [pv])[:, 0]
        deficient += int(np.count_nonzero(rank[finite[lo:hi]] < d))
    stats[~finite] = math.nan
    if not finite.all() or deficient:
        warnings.warn(
            f"{np.count_nonzero(~finite)} of {len(grid)} candidates undetermined (non-finite "
            f"output or second moment) and retained; {deficient} with a rank-deficient "
            f"covariance estimate (rank < d = {d})",
            RuntimeWarning,
            stacklevel=2,
        )
    entries = tuple(
        CandidateRecord(float(beta), float(stat), bool(not ok or stat <= critical), not ok)
        for beta, stat, ok in zip(grid, stats, finite)
    )
    return ConfidenceSet(p=pv, alpha=alpha, critical=float(critical), entries=entries)
