"""Core test pipeline: central statistic, whitening, p-norm statistics,
decisions, the noncentrality oracle, and confidence-set inversion.

The pipeline for a sample of evaluated moment functions is

    rows -> H = sqrt(n) * column means
    rows -> difference pairs -> covariance estimate -> whitening matrix
    S_p  = || pinv_sqrt(Sigma_hat) H ||_p  for each exponent p.

Covariance degrees of freedom.  The inverse of a second-moment matrix
built from m difference rows overshoots the true inverse by a factor of
roughly m/(m-d-1) (exactly, in expectation, for Wishart draws).  To keep
the standardized coordinates on the unit-variance scale that every
critical value in this package assumes, ``prepare_standardized``
multiplies the estimate by m/(m-d-1) whenever m >= d + 2.  The matching
finite-sample reference law for critical values is available through the
``aux_rows`` argument of the calibration functions.

Rank deficiency is handled by the Moore-Penrose convention: singular
directions are projected out, a warning reports the numerical rank, and
critical values keep using the nominal d.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .covariance import (
    MomentSample,
    difference_pairs,
    kurtosis_diagnostic,
    sample_cov,
    truncated_cov,
)
from .critical_values import kappa_inf_exact, kappa_p_asymptotic, mc_pnorm_quantile
from .dominant_test import DominantTestSpec, evaluate_psi
from .gaussian_moments import Exponent, as_exponent
from .matrix_core import SymMatrix, pinv_sqrt

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

_ESTIMATORS = {"sample": sample_cov, "truncated": truncated_cov}


def _as_sample(s) -> MomentSample:
    return s if isinstance(s, MomentSample) else MomentSample(s)


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
    w = np.linalg.eigvalsh(sigma.entries)
    rank = int(np.sum(w > 1e-10 * max(w[-1], 0.0)))
    if rank < sigma.dim:
        warnings.warn(
            f"covariance estimate has numerical rank {rank} < d = {sigma.dim}; "
            "singular directions are projected out",
            RuntimeWarning,
            stacklevel=2,
        )
    root = pinv_sqrt(sigma)
    return StandardizedStat(
        vector=root.entries @ h,
        eigen_diag=(float(w[0]), float(w[-1])),
        rank=rank,
    )


def p_norm_stat(v, p) -> float:
    """S_p = ||v||_p, overflow-safe via max-factoring.

    Accepts a StandardizedStat or a plain vector.  Finite p uses
    m * (sum (|v_i|/m)^p)^(1/p) with m = max |v_i|; INF returns m.
    """
    vec = v.vector if isinstance(v, StandardizedStat) else np.asarray(v, dtype=float)
    pv = as_exponent(p)
    a = np.abs(vec)
    m = float(a.max()) if a.size else 0.0
    if m == 0.0 or pv.is_inf:
        return m
    return m * float(np.sum((a / m) ** pv.value)) ** (1.0 / pv.value)


def theta_oracle(mu: np.ndarray, sigma, n: int) -> ThetaProfile:
    """Population noncentrality profile theta = sqrt(n) pinv_sqrt(Sigma) mu."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sigma = sigma if isinstance(sigma, SymMatrix) else SymMatrix(sigma)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (sigma.dim,):
        raise ValueError(f"mu has shape {mu.shape}, Sigma is {sigma.dim} x {sigma.dim}")
    return ThetaProfile(math.sqrt(n) * (pinv_sqrt(sigma).entries @ mu))


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
    if estimator not in _ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; expected one of {sorted(_ESTIMATORS)}"
        )
    aux = difference_pairs(s)
    if estimator == "truncated":
        sigma = truncated_cov(aux, trunc_mult)
    else:
        sigma = sample_cov(aux)
    m, d = aux.n, aux.d
    if m >= d + 2:
        # unbias the inverse: E[(c W)^-1] = Sigma^-1 at c = m/(m-d-1)
        sigma = SymMatrix(sigma.entries * (m / (m - d - 1.0)))
    h = central_statistic(s)
    return PreparedStats(stat=standardize(h, sigma), sigma=sigma, aux=aux)


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
    prep = prepare_standardized(s, estimator=estimator, trunc_mult=trunc_mult)
    table_rows = spec.table.aux_rows
    if table_rows is not None and table_rows != prep.aux_rows:
        warnings.warn(
            f"calibration table was drawn for aux_rows={table_rows} difference pairs "
            f"but the sample has {prep.aux_rows}; its finite-sample reference law "
            "does not match this sample",
            RuntimeWarning,
            stacklevel=2,
        )

    grid = spec.exponents
    extras = []
    for p in extra_ps:
        pv = as_exponent(p)
        if pv not in grid and pv not in extras:
            extras.append(pv)
    stats = {p: p_norm_stat(prep.stat, p) for p in (*grid, *extras)}

    records = []
    for p in grid:
        crit = spec.table.standalone_kappa(p)
        records.append(
            PerExponentRecord(
                p=p,
                statistic=stats[p],
                critical=crit,
                reject=stats[p] >= crit,
                source="calibrated",
            )
        )
    alpha = spec.alpha_total
    for p in sorted(extras):
        crit = (
            kappa_inf_exact(spec.d, alpha)
            if p.is_inf
            else kappa_p_asymptotic(p, spec.d, alpha)
        )
        records.append(
            PerExponentRecord(
                p=p,
                statistic=stats[p],
                critical=crit,
                reject=stats[p] >= crit,
                source="formula",
            )
        )

    max_ratio = max(stats[p] / spec.table.kappa(p) for p in grid)
    psi = evaluate_psi({p: stats[p] for p in grid}, spec)
    dominant = DominantRecord(c_n=spec.table.c_n, max_ratio=max_ratio, reject=psi)

    kurt = None
    if kurtosis_directions > 0:
        kurt = kurtosis_diagnostic(prep.aux, directions=kurtosis_directions)
    return TestReport(
        d=s.d,
        n=s.n,
        estimator=estimator,
        per_p=tuple(records),
        dominant=dominant,
        eigen_diag=prep.stat.eigen_diag,
        rank=prep.stat.rank,
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
                stat = p_norm_stat(
                    prepare_standardized(sample, estimator, trunc_mult).stat, pv
                )
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
