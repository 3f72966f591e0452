"""Core test pipeline: whitening, p-norm statistics, decisions, the
noncentrality oracle, and confidence-set inversion.

The pipeline for a sample of evaluated moment functions is

    rows -> H = sqrt(n) * column means
    rows -> difference pairs -> covariance estimate Sigma_hat
    x   = Sigma_hat^{-1/2} H              (= pinv_sqrt(Sigma_hat) H)
    S_p = || x ||_p  for each exponent p.

One private kernel runs this pipeline on a stack of samples of shape
(..., n, d): ``_moments`` forms H and the debiased covariance estimate of
each sample (every step acts on the trailing two axes, with one median per
sample for the truncated estimator), and ``_whiten`` forms x: by Lanczos
from H, certified full rank by one Cholesky factor, for one matrix with
d >= ``_LANCZOS_MIN_D`` (256), else by one ``eigh`` per matrix,
x = V (w^{-1/2} * (V' H)).  The public entry points pass a stack of one, so
at d >= 256 a stack of several samples differs from them in the last bits.
``run_tests`` frees the n // 2 x d pair rows after their last reader, the
kurtosis diagnostic, so whitening can reuse their memory.  Many samples
(the harness's replications, the candidates of ``invert_confidence_set``)
go through the phased replay ``_replay``, in spans whose covariance
estimates fit ``_SPAN_BYTES`` (4.5 MiB) as packed lower triangles, the only
part ``eigh`` reads.  First W lanes, the calling thread and W - 1 pool
threads, fill their own chunk buffers (about ``_CHUNK_BYTES`` / W of sample
values each), reduce each chunk with ``_moments`` and pack its lower
triangles into the span.  Then the calling thread alone unpacks the span
into ``_whiten`` calls of ``_EIGH_BYTES`` (256 KiB: 20 matrices at d=40,
one from d=129, with both triangles from d=256), while no lane runs: after
each ``eigh`` of a matrix larger than 25 x 25 OpenBLAS's threads spin for
about 0.1 s and stall a Python thread beside them.  The harness runs one
lane per usable core, the confidence set one, on the calling thread, since
its model need not be thread-safe.  The estimator is named ``"sample"`` or
``"truncated"``, and the model of ``invert_confidence_set`` returns each
candidate's sample as an n x d array.

Covariance degrees of freedom.  The inverse of a second-moment matrix
built from m difference rows overshoots the true inverse by a factor of
roughly m/(m-d-1) (exactly, in expectation, for Wishart draws).  To keep
the standardized coordinates on the unit-variance scale that every
critical value in this package assumes, the kernel multiplies the
estimate by m/(m-d-1) whenever its m pairs have the finite-sample reference
law.  The ``critical_values`` docstring states that law and when m pairs
have it; the ``aux_rows`` argument of calibration draws from it.

Rank deficiency is handled by the Moore-Penrose convention of the eigh
path: eigenvalues at or below 1e-10 times the largest get w^{-1/2} := 0,
so singular directions are projected out; the public entry points warn
with the numerical rank, naming their caller, and critical values keep
using the nominal d.  A materially negative eigenvalue is an error.
"""

from __future__ import annotations

import math
import numbers
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .covariance import (
    _check_rows,
    _checked,
    _kurtosis,
    _pair_rows,
    _second_moment,
    _truncate_rows,
)
from .critical_values import (
    _RadialLaw,
    _batch_pnorms,
    _check_alpha,
    _check_d,
    _check_vector,
    _exponent_key,
    _formula_kappa,
    mc_pnorm_quantile,
)
from .dominant_test import DominantTestSpec, _max_ratio
from .gaussian_moments import _check_p
from .matrix_core import _RANK_RTOL, SymMatrix, _inverse_roots

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


# the smallest d whitened by Lanczos: below it eigh is as fast (measured at m/d = 2)
_LANCZOS_MIN_D = 256


def _lanczos(h: np.ndarray, a: np.ndarray):
    """Lanczos from h, fully reorthogonalised, on one d x d matrix ``a``
    (Higham, *Functions of Matrices*, ch. 13): x = a^{-1/2} h, [[min_eig,
    max_eig]] and rank d as stacks of one, or why ``eigh`` must answer.
    Ritz values are checked every 8 steps from 16, x once they predict a
    stop.  "cap": over 2d/5 steps (where eigh is cheaper) done or predicted;
    "indefinite": theta_min < -floor; "rank": theta_min near the floor
    ``_RANK_RTOL`` trace(a), a closed Krylov space, or no Cholesky factor L
    of a - 0.99 theta_min I (h's Krylov space can miss a direction).  L
    certifies rank d and drives inverse iteration to min_eig.  numpy only:
    scipy.linalg would add about 22 MB resident."""
    d, cap, norm = len(h), 2 * len(h) // 5, math.sqrt(h @ h)
    if not norm > 0:
        return "rank"
    floor, x, top = _RANK_RTOL * np.trace(a), 0.0, math.inf
    q, t = np.zeros((cap + 1, d)), np.zeros((cap + 1, cap + 1))  # t: lower triangle
    np.divide(h, norm, out=q[0])
    for k in range(cap):
        w = a @ q[k] - t[k, k - 1] * q[k - 1]  # t[0, -1] = 0
        t[k, k] = q[k] @ w
        w -= t[k, k] * q[k]
        w -= q[: k + 1].T @ (q[: k + 1] @ w)
        t[k + 1, k] = beta = math.sqrt(w @ w)
        if not beta > abs(floor):
            return "rank"
        np.divide(w, beta, out=q[k + 1])
        if k < 15 or (k + 1) % 8:
            continue
        theta = np.linalg.eigvalsh(t[: k + 1, : k + 1])
        if 0.99 * theta[0] <= floor:
            return "indefinite" if theta[0] < -floor else "rank"
        if 225 * theta[-1] > cap * cap * theta[0]:
            return "cap"
        if 144 * theta[-1] > (k + 1) ** 2 * theta[0]:  # x is far from the stop
            continue
        theta, s = np.linalg.eigh(t[: k + 1, : k + 1])
        new = norm * (q[: k + 1].T @ (s @ (s[0] / np.sqrt(theta))))
        # stop once x and max_eig have settled
        if max(np.linalg.norm(new - x) / np.linalg.norm(new), abs(theta[-1] / top - 1)) < 1e-13:
            break
        x, top = new, theta[-1]
    else:
        return "cap"
    shifted, shift = a.copy(), 0.99 * theta[0]
    shifted.flat[:: d + 1] -= shift
    try:
        low_l = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return "rank"
    # inverse iteration; (L L')^{-1} v by substitution with L's inverted 64 x 64 diagonal blocks
    blocks = [slice(i, i + 64) for i in range(0, d, 64)]
    inverses = [np.linalg.inv(low_l[b, b]) for b in blocks]
    v, low, z = q[: k + 1].T @ s[:, 0], theta[0], np.empty(d)
    for _ in range(64):
        for b, inv in zip(blocks, inverses):
            z[b] = inv @ (v[b] - low_l[b, : b.start] @ z[: b.start])
        for b, inv in zip(blocks[::-1], inverses[::-1]):
            z[b] = inv.T @ (z[b] - low_l[b.stop :, b].T @ z[b.stop :])
        zz, last = z @ z, low
        low, v = shift + (z @ v) / zz, z / math.sqrt(zz)
        if last - low <= 1e-15 * low:
            break
    return new[None], np.array([[low, theta[-1]]]), np.array([d])


def _whiten(h: np.ndarray, sigma: np.ndarray):
    """Sigma^{-1/2} h for stacks h (..., d) and sigma (..., d, d): x (..., d),
    the extreme eigenvalues (..., 2), the ranks (...) and the path with the
    reason ``_lanczos`` fell back, if it did.  ``_lanczos`` takes a stack of
    one matrix with d >= ``_LANCZOS_MIN_D``, else one ``eigh`` per matrix
    (lower triangles) and the Moore-Penrose rule of ``_inverse_roots``.
    """
    one = sigma.shape[:-2] == (1,) and sigma.shape[-1] >= _LANCZOS_MIN_D
    out = _lanczos(h[0], sigma[0]) if one else None
    if isinstance(out, tuple):
        x, extremes, rank = out
    else:
        w, v = np.linalg.eigh(sigma)
        inv_roots, rank = _inverse_roots(w)
        coef = inv_roots * (h[..., None, :] @ v)[..., 0, :]
        x, extremes = (v @ coef[..., None])[..., 0], w[..., [0, -1]]
    if not np.all(np.isfinite(x)):
        raise ValueError("standardized statistic must be finite")
    return x, extremes, rank, ("lanczos", None) if isinstance(out, tuple) else ("eigh", out)


def _moments(values: np.ndarray, estimator: str, h, sigma) -> np.ndarray:
    """H and the covariance estimate of each sample in the stack ``values``
    (..., n, d), written into ``h`` (..., d) and ``sigma`` (..., d, d).

    Difference pairs, the sample or truncated second moment (one median
    per sample), and the debias of the matched reference law if any.
    ``estimator`` is a checked name.
    Returns the difference-pair rows (..., m, d).
    """
    n, d = values.shape[-2:]
    aux = _pair_rows(values)
    rows = _truncate_rows(aux) if estimator == "truncated" else aux
    _second_moment(rows, out=sigma)
    m = _RadialLaw.matched_rows(n, d)
    if m is not None:
        # unbias the inverse: E[(c W)^-1] = Sigma^-1 at c = m/(m-d-1)
        sigma *= _RadialLaw(d, m).debias
    np.multiply(math.sqrt(n), values.mean(axis=-2), out=h)
    return aux


# Byte budgets of the phased replay; like the calibration block size they
# are fixed, not tuned per call, and results do not depend on them.
# Sample values held at once, over all lanes (at least one sample a lane):
_CHUNK_BYTES = 1 << 20
# Packed lower triangles of one span's covariance estimates (at least one sample):
_SPAN_BYTES = 9 << 19
# Unpacked matrices of one ``eigh`` call (at least one matrix):
_EIGH_BYTES = 1 << 18


def _replay(count: int, n: int, d: int, fill, estimator: str, lanes: int):
    """The phased replay of the module docstring over ``count`` n x d samples,
    on ``lanes`` lanes; yields (lo, hi, x, rank) per ``eigh`` sub-stack.

    ``fill(i, out)`` writes sample i into ``out``, on any lane.  Every
    sample keeps its own slots of H and of the packed span, so the lanes
    and budgets never change a result.  An exception in a lane re-raises
    here.
    """
    # a span holds lower triangles, all eigh reads; Lanczos reads both
    lower = np.ravel_multi_index(np.tril_indices(d), (d, d))
    mirror = np.ravel_multi_index(np.tril_indices(d)[::-1], (d, d))
    per_chunk = max(1, _CHUNK_BYTES // lanes // (8 * n * d))
    per_span = min(count, max(1, _SPAN_BYTES // (8 * len(lower))))
    per_eigh = max(1, _EIGH_BYTES // (8 * d * d))
    # allocated on the calling thread, as in critical_values._reference_norms
    chunks = [(np.empty((per_chunk, n, d)), np.empty((per_chunk, d, d))) for _ in range(lanes)]
    h, packed = np.empty((per_span, d)), np.empty((per_span, len(lower)))
    sigma = np.empty((per_eigh, d, d))

    def lane(j: int, lo: int, hi: int) -> None:
        # chunks j, j + lanes, j + 2 lanes, ... of the span [lo, hi)
        values, full = chunks[j]
        for start in range(lo + j * per_chunk, hi, lanes * per_chunk):
            stop = min(start + per_chunk, hi)
            for i in range(start, stop):
                fill(i, values[i - start])
            span, k = slice(start - lo, stop - lo), stop - start
            _moments(values[:k], estimator, h[span], full[:k])
            np.take(full[:k].reshape(k, d * d), lower, axis=1, out=packed[span], mode="clip")

    # pool threads start on the first submit, so one lane starts none
    with ThreadPoolExecutor(max_workers=max(1, lanes - 1)) as pool:
        for lo in range(0, count, per_span):
            hi = min(lo + per_span, count)
            others = [pool.submit(lane, j, lo, hi) for j in range(1, lanes)]
            try:
                lane(0, lo, hi)
            finally:
                for future in others:
                    future.result()
            # no lane runs while eigh does: OpenBLAS's threads spin after
            # each call and stall a Python thread working beside them
            for a in range(lo, hi, per_eigh):
                b = min(a + per_eigh, hi)
                sigma.reshape(per_eigh, d * d)[: b - a, lower] = packed[a - lo : b - lo]
                if d >= _LANCZOS_MIN_D:
                    sigma.reshape(per_eigh, d * d)[: b - a, mirror] = packed[a - lo : b - lo]
                x, _, rank, _ = _whiten(h[a - lo : b - lo], sigma[: b - a])
                yield a, b, x, rank


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

    Returns the whitened vector, the extreme eigenvalues (min, max) of
    Sigma_hat and its numerical rank.  Warns when Sigma_hat is numerically
    rank deficient; singular directions are projected out of the statistic.
    """
    sigma = sigma_hat if isinstance(sigma_hat, SymMatrix) else SymMatrix(sigma_hat)
    h = _check_vector(h, "h", sigma.dim)
    x, w, rank, _ = _whiten(h[None], sigma.entries[None])
    _warn_rank(int(rank[0]), sigma.dim)
    return x[0], w[0], int(rank[0])


def p_norm_stat(v, p) -> float:
    """S_p = ||v||_p, overflow-safe via max-factoring; 0 for the zero vector.

    The stack-of-one case of the batched p-norms behind every statistic of
    the package.
    """
    vec = _check_vector(v, "v")
    return float(_batch_pnorms(vec[None], [_check_p(p)])[0, 0])


def theta_oracle(mu: np.ndarray, sigma, n: int) -> np.ndarray:
    """Population noncentrality profile theta = sqrt(n) pinv_sqrt(Sigma) mu,
    a d-vector.  ``n`` is a real number >= 1."""
    if not isinstance(n, numbers.Real) or isinstance(n, bool):
        raise TypeError(f"n must be a real number, got {n!r}")
    if not n >= 1:  # NaN fails it
        raise ValueError(f"n must be >= 1, got {n}")
    sigma = sigma if isinstance(sigma, SymMatrix) else SymMatrix(sigma)
    mu = _check_vector(mu, "mu", sigma.dim)
    x = _whiten(mu[None], sigma.entries[None])[0]
    return _check_vector(math.sqrt(n) * x[0], "theta")  # n = inf, or an overflow, fails it


def prepare_standardized(s, estimator: str = "sample"):
    """Full whitening pipeline: difference pairs, covariance, debias, whiten.

    Returns the kernel's arrays for this one sample: the whitened vector
    (d,), the extreme eigenvalues (2,), the numerical rank, the debiased
    covariance estimate (d, d) and the difference-pair rows (n // 2, d).
    """
    values = _checked(s)
    estimator, d = _check_estimator(estimator), values.shape[1]
    h, sigma = np.empty((1, d)), np.empty((1, d, d))
    aux = _moments(values[None], estimator, h, sigma)
    x, w, rank, _ = _whiten(h, sigma)
    _warn_rank(int(rank[0]), d)
    return x[0], w[0], int(rank[0]), sigma[0], aux[0]


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
    extras = sorted({_check_p(p) for p in extra_ps} - set(grid))
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

    p: float
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
    whitening: tuple[str, str | None]  # path, and why the Lanczos path fell back

    def record(self, p) -> PerExponentRecord:
        p = _check_p(p)
        for rec in self.per_p:
            if rec.p == p:
                return rec
        raise KeyError(f"no record for exponent {p:g}")

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
                "whitening": {"path": self.whitening[0], "fallback": self.whitening[1]},
            },
        }


def run_tests(
    s,
    spec: DominantTestSpec,
    estimator: str = "sample",
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
    values = _checked(s)
    report = _run_tests(values, spec, _check_estimator(estimator), extra_ps)
    _warn_rank(report.rank, report.d)
    _check_table_rows(spec, report.n // 2)
    return report


def _run_tests(
    values: np.ndarray, spec: DominantTestSpec, estimator: str, extra_ps: Iterable = ()
) -> TestReport:
    # run_tests on an n x d array and an estimator the caller has already
    # checked; the caller warns, so the warnings name its caller
    n, d = values.shape
    if spec.table is None:
        raise ValueError("spec is not calibrated; run calibrate_spec first")
    if d != spec.d:
        raise ValueError(f"sample has d={d} but spec was built for d={spec.d}")
    ps, crits = _test_columns(spec, extra_ps)  # a bad exponent fails before any work
    h, sigma = np.empty((1, d)), np.empty((1, d, d))
    # the pair rows live only through this statement, so they are freed before whitening
    kurtosis = _kurtosis(_moments(values[None], estimator, h, sigma)[0])
    x, w, rank, whitening = _whiten(h, sigma)
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
        kurtosis=kurtosis,
        whitening=whitening,
    )


@dataclass(frozen=True)
class CandidateRecord:
    beta: float
    statistic: float  # nan when undetermined
    retained: bool
    undetermined: bool = False


@dataclass(frozen=True)
class ConfidenceSet:
    p: float
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
    if critical is not None:
        if not isinstance(critical, numbers.Real) or isinstance(critical, bool):
            raise TypeError(f"critical must be a real number, got {critical!r}")
        if not (math.isfinite(critical) and critical > 0):
            raise ValueError(f"critical must be finite and positive, got {critical}")
    p = _check_p(p)
    estimator = _check_estimator(estimator)
    mc_reps = None if mc_reps is None else _check_d(mc_reps, name="mc_reps")
    mc_seed = _check_d(mc_seed, 0, name="mc_seed")

    def values(beta) -> np.ndarray:
        return np.asarray(model(beta), dtype=float)

    first = values(grid[0])
    if first.ndim != 2 or first.shape[1] < 1:
        raise ValueError(f"candidates need n x d samples, d >= 1; got shape {first.shape}")
    n, d = _check_rows(first.shape[0]), first.shape[1]
    if critical is None:
        critical = mc_pnorm_quantile(
            p, d, alpha, reps=mc_reps, seed=mc_seed, aux_rows=_RadialLaw.matched_rows(n, d)
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
    # one lane, on the calling thread: the model need not be thread-safe
    for lo, hi, x, rank in _replay(len(grid), n, d, fill, estimator, lanes=1):
        stats[lo:hi] = _batch_pnorms(x, [p])[:, 0]
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
    return ConfidenceSet(p=p, alpha=alpha, critical=float(critical), entries=entries)
