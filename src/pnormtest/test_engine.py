"""Core test pipeline: central statistic, whitening, p-norm statistics,
decisions, the noncentrality oracle, and confidence-set inversion.

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
``prepare_standardized``, ``run_tests``) run it on a stack of one; the
simulation harness runs it on chunks of replications.  The statistics of
a stacked sample are the same bits as when that sample is whitened alone.

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
directions are projected out; a warning reports the numerical rank, and
critical values keep using the nominal d.  A materially negative
eigenvalue is an error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .covariance import (
    MomentSample,
    _as_sample,
    _kurtosis,
    _pair_rows,
    _second_moment,
    _truncate_rows,
)
from .critical_values import (
    _batch_pnorms,
    kappa_inf_exact,
    kappa_p_asymptotic,
    mc_pnorm_quantile,
)
from .dominant_test import DominantTestSpec, _max_ratio
from .gaussian_moments import Exponent, as_exponent
from .matrix_core import SymMatrix, _inverse_roots

__all__ = [
    "StandardizedStat",
    "ThetaProfile",
    "TestReport",
    "PerExponentRecord",
    "DominantRecord",
    "PreparedStats",
    "central_statistic",
    "standardize",
    "p_norm_stat",
    "theta_oracle",
    "prepare_standardized",
    "run_tests",
    "invert_confidence_set",
    "ConfidenceSet",
    "CandidateRecord",
]

# covariance estimators by accepted name; "trunc" is short for "truncated"
_ESTIMATORS = {"sample": "sample", "truncated": "truncated", "trunc": "truncated"}


def _estimator_name(name: str) -> str:
    """Canonical estimator name: the one place the "trunc" alias is resolved."""
    if name not in _ESTIMATORS:
        raise ValueError(
            f"unknown estimator {name!r}; expected one of {sorted(_ESTIMATORS)}"
        )
    return _ESTIMATORS[name]


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
    ``estimator`` is a canonical name.  Returns (x, w, rank, sigma, aux):
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


def _warn_rank(rank: int, d: int) -> None:
    warnings.warn(
        f"covariance estimate has numerical rank {rank} < d = {d}; "
        "singular directions are projected out",
        RuntimeWarning,
        stacklevel=3,
    )


def _whiten_one(s: MomentSample, estimator: str, trunc_mult: float):
    # the stack-of-one case behind the public entry points, which warn
    x, w, rank, sigma, aux = _whiten_stack(s.values[None], estimator, trunc_mult)
    if rank[0] < s.d:
        _warn_rank(int(rank[0]), s.d)
    return x, w, rank, sigma, aux


@dataclass(frozen=True)
class StandardizedStat:
    """The whitened vector pinv_sqrt(Sigma_hat) H with diagnostics."""

    vector: np.ndarray
    eigen_diag: tuple[float, float]
    rank: int

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"expected a vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("standardized statistic must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)

    @property
    def d(self) -> int:
        return self.vector.shape[0]

    @classmethod
    def _first(cls, x, w, rank) -> "StandardizedStat":
        # the first sample of a kernel result
        return cls(
            vector=x[0], eigen_diag=(float(w[0, 0]), float(w[0, -1])), rank=int(rank[0])
        )


@dataclass(frozen=True)
class ThetaProfile:
    """Noncentrality vector theta = sqrt(n) pinv_sqrt(Sigma) mu."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.theta, dtype=float)
        if t.ndim != 1:
            raise ValueError(f"expected a vector, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("theta entries must be finite")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "theta", t)

    @property
    def d(self) -> int:
        return self.theta.shape[0]


def central_statistic(s) -> np.ndarray:
    """H = n^{-1/2} sum_i h(X_i) = sqrt(n) times the column means."""
    s = _as_sample(s)
    return math.sqrt(s.n) * s.values.mean(axis=0)


def standardize(h: np.ndarray, sigma_hat) -> StandardizedStat:
    """Whiten H by the Moore-Penrose inverse square root of Sigma_hat.

    Warns when the covariance estimate is numerically rank deficient;
    singular directions are projected out of the statistic.
    """
    sigma = sigma_hat if isinstance(sigma_hat, SymMatrix) else SymMatrix(sigma_hat)
    h = np.asarray(h, dtype=float)
    if h.shape != (sigma.dim,):
        raise ValueError(
            f"dimension mismatch: H has shape {h.shape}, Sigma is {sigma.dim} x {sigma.dim}"
        )
    x, w, rank = _whiten(h[None], sigma.entries[None])
    if rank[0] < sigma.dim:
        _warn_rank(int(rank[0]), sigma.dim)
    return StandardizedStat._first(x, w, rank)


def p_norm_stat(v, p) -> float:
    """S_p = ||v||_p, overflow-safe via max-factoring; 0 for the zero vector.

    Accepts a StandardizedStat or a plain vector: the stack-of-one case of
    the batched p-norms behind every statistic of the package.
    """
    vec = v.vector if isinstance(v, StandardizedStat) else np.asarray(v, dtype=float)
    return float(_batch_pnorms(vec.reshape(1, -1), [as_exponent(p)])[0, 0])


def theta_oracle(mu: np.ndarray, sigma, n: int) -> ThetaProfile:
    """Population noncentrality profile theta = sqrt(n) pinv_sqrt(Sigma) mu."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sigma = sigma if isinstance(sigma, SymMatrix) else SymMatrix(sigma)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (sigma.dim,):
        raise ValueError(f"mu has shape {mu.shape}, Sigma is {sigma.dim} x {sigma.dim}")
    x, _, _ = _whiten(mu[None], sigma.entries[None])
    return ThetaProfile(math.sqrt(n) * x[0])


@dataclass(frozen=True)
class PreparedStats:
    """Standardized statistic plus the covariance matrix that produced it."""

    stat: StandardizedStat
    sigma: SymMatrix
    aux: MomentSample

    @property
    def aux_rows(self) -> int:
        return self.aux.n


def prepare_standardized(
    s, estimator: str = "sample", trunc_mult: float = 3.0
) -> PreparedStats:
    """Full whitening pipeline: difference pairs, covariance, debias, whiten."""
    s = _as_sample(s)
    x, w, rank, sigma, aux = _whiten_one(s, _estimator_name(estimator), trunc_mult)
    return PreparedStats(
        stat=StandardizedStat._first(x, w, rank),
        sigma=SymMatrix(sigma[0]),
        aux=MomentSample(aux[0]),
    )


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
        kappa_inf_exact(spec.d, alpha) if p.is_inf else kappa_p_asymptotic(p, spec.d, alpha)
        for p in extras
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
    kurtosis: float | None = field(default=None)

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
                    "p": "inf" if r.p.is_inf else r.p.value,
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
    trunc_mult: float = 3.0,
    extra_ps: Iterable = (),
    kurtosis_directions: int = 64,
) -> TestReport:
    """Evaluate every p-norm test in the spec's grid plus the combined test.

    Per-exponent records are standalone tests at the full level
    alpha_total (critical values from the spec's calibrated table);
    exponents in ``extra_ps`` outside the grid fall back to the
    asymptotic formulas.  The dominant record applies the combined rule
    max_p S_p / kappa_p >= c_n over the grid exponents only.  Warns when
    the spec's table was drawn from the finite-sample law for another
    difference-pair count than this sample's n // 2.
    """
    s = _as_sample(s)
    if spec.table is None:
        raise ValueError("spec is not calibrated; run calibrate_spec first")
    if s.d != spec.d:
        raise ValueError(f"sample has d={s.d} but spec was built for d={spec.d}")
    estimator = _estimator_name(estimator)
    x, w, rank, _, aux = _whiten_one(s, estimator, trunc_mult)
    _check_table_rows(spec, aux.shape[-2])
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
    kurt = None
    if kurtosis_directions > 0:
        kurt = _kurtosis(aux[0], kurtosis_directions)
    return TestReport(
        d=s.d,
        n=s.n,
        estimator=estimator,
        per_p=records,
        dominant=DominantRecord(
            c_n=spec.table.c_n, max_ratio=float(max_ratio[0]), reject=bool(psi[0])
        ),
        eigen_diag=(float(w[0, 0]), float(w[0, -1])),
        rank=int(rank[0]),
        kurtosis=kurt,
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
    trunc_mult: float = 3.0,
    critical: float | None = None,
    mc_reps: int = 200_000,
    mc_seed: int = 0,
) -> ConfidenceSet:
    """Grid inversion: retain candidates whose statistic stays below kappa.

    ``model(beta)`` must return the n x d array of moment functions
    evaluated at the candidate.  The critical value defaults to a
    Monte-Carlo quantile under the finite-sample reference matched to the
    sample's difference-pair count; pass ``critical`` to override.  A
    candidate whose covariance step fails numerically is retained
    conservatively and marked undetermined.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("candidate grid must be nonempty")
    pv = as_exponent(p)
    estimator = _estimator_name(estimator)

    first = _as_sample(model(grid[0]))
    d, n = first.d, first.n
    if critical is None:
        m = n // 2
        aux_rows = m if m >= d + 2 else None
        critical = mc_pnorm_quantile(
            pv, d, alpha, reps=mc_reps, seed=mc_seed, aux_rows=aux_rows
        )

    entries = []
    for i, beta in enumerate(grid):
        shape = None
        try:
            sample = first if i == 0 else _as_sample(model(beta))
            shape = (sample.n, sample.d)
            stat = None
            if shape == (n, d):
                x = _whiten_one(sample, estimator, trunc_mult)[0]
                stat = float(_batch_pnorms(x, [pv])[0, 0])
        except (ValueError, np.linalg.LinAlgError) as err:
            warnings.warn(
                f"candidate beta={beta} undetermined ({err}); retained conservatively",
                RuntimeWarning,
                stacklevel=2,
            )
            entries.append(
                CandidateRecord(
                    beta=float(beta), statistic=math.nan, retained=True, undetermined=True
                )
            )
            continue
        if shape != (n, d):
            # inconsistent model output is a usage error, not a numerical one
            raise ValueError(
                f"candidate {beta} produced a {shape[0]} x {shape[1]} sample, "
                f"expected {n} x {d}"
            )
        entries.append(
            CandidateRecord(beta=float(beta), statistic=stat, retained=stat <= critical)
        )
    return ConfidenceSet(p=pv, alpha=alpha, critical=float(critical), entries=tuple(entries))
