"""Critical values for the p-norm test family.

Three sources are implemented:

* asymptotic formulas: ``kappa_p_asymptotic`` for finite p and
  ``kappa_inf_asymptotic`` for the sup norm, both with the o(1) terms of
  the limit theory set to 0;
* the exact Gaussian sup-norm quantile ``kappa_inf_exact``, the root of
  (2 Phi(t) - 1)^d = 1 - alpha, used as the oracle for the asymptotic
  formula;
* Monte-Carlo quantiles: ``mc_pnorm_quantile`` for a single exponent and
  ``calibrate_joint`` for a whole exponent grid.  Joint calibration uses
  ONE shared set of reference draws for every exponent, because the scale
  factor c_n is defined through the joint law of all norms of the same
  reference vector.

Reference laws.  The asymptotic reference is the standard Gaussian vector
Z_d.  When the covariance is estimated from m auxiliary difference-pair
rows and debiased by m/(m-d-1), the standardized vector under Gaussian
data is exactly elliptical:

    Y  =d  sqrt( (m-d-1) d / (m-d+1) * F )  *  Z / ||Z||_2,

with F an F(d, m-d+1) variable independent of Z.  Passing ``aux_rows=m``
draws the reference from this finite-sample law instead, which makes the
Monte-Carlo critical values exact at any (d, m) rather than only in the
limit m -> infinity (where the two laws coincide).  Requires m >= d + 2.

Monte-Carlo draws are organised in fixed-size blocks, each fed by its own
counter-based Philox stream keyed (seed, block index), so results are
bit-identical regardless of how blocks are scheduled across threads.
Blocks run on a thread pool of W = min(number of blocks, cores this
process may run on) workers; worker w computes blocks w, w + W, w + 2W, ...
and writes each block's rows into its own slice of the result, so every
table and quantile is the same for any W.  numpy releases the GIL while
it fills normals and runs the ufunc loops that dominate a block.

Empirical quantiles use the order statistic at the 1-based index
ceil((1 - alpha) * reps), the conservative direction for test size.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .gaussian_moments import INF, Exponent, as_exponent, lambda_p, normal_quantile, sigma_p

__all__ = [
    "CriticalValueTable",
    "kappa_p_asymptotic",
    "kappa_inf_asymptotic",
    "kappa_inf_exact",
    "mc_pnorm_quantile",
    "calibrate_joint",
]

SCHEMA_VERSION = 1

# Fixed Monte-Carlo block size; part of the definition of the draw stream,
# so it must never be tuned per call.
_BLOCK = 1024


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def kappa_p_asymptotic(p, d: int, alpha: float) -> float:
    """Asymptotic critical value for a finite exponent.

    kappa = [ Phi^{-1}(1-alpha) sqrt(d) sigma_p + d lambda_p(0) ]^(1/p).
    """
    pv = as_exponent(p)
    if pv.is_inf:
        raise ValueError("use kappa_inf_asymptotic for the sup norm")
    alpha = _check_alpha(alpha)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    bracket = normal_quantile(1.0 - alpha) * math.sqrt(d) * sigma_p(pv) + d * lambda_p(
        pv, 0.0
    )
    if bracket <= 0.0:
        raise ValueError(f"asymptotic formula invalid at this (d, alpha)=({d}, {alpha})")
    return bracket ** (1.0 / pv.value)


def kappa_inf_asymptotic(d: int, alpha: float) -> float:
    """Asymptotic sup-norm critical value.

    sqrt(2 ln d) - (ln ln d + ln 4 pi) / (2 sqrt(2 ln d))
                 - ln(-ln(1-alpha)/2) / sqrt(2 ln d).
    """
    alpha = _check_alpha(alpha)
    if d < 3:
        raise ValueError("kappa_inf_asymptotic needs d >= 3; use kappa_inf_exact")
    root = math.sqrt(2.0 * math.log(d))
    val = (
        root
        - (math.log(math.log(d)) + math.log(4.0 * math.pi)) / (2.0 * root)
        - math.log(-math.log1p(-alpha) / 2.0) / root
    )
    if val <= 0.0:
        raise ValueError(f"asymptotic sup-norm formula nonpositive at (d, alpha)=({d}, {alpha})")
    return val


def kappa_inf_exact(d: int, alpha: float) -> float:
    """Exact quantile of max_i |Z_i| over d independent standard normals.

    Solves (2 Phi(t) - 1)^d = 1 - alpha.  The tail probability
    (1 - (1-alpha)^(1/d)) / 2 is formed with expm1/log1p so the root is
    accurate to full precision even at very large d.
    """
    alpha = _check_alpha(alpha)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    tail = -math.expm1(math.log1p(-alpha) / d) / 2.0
    return -normal_quantile(tail)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))


def _batch_pnorms(
    z: np.ndarray, ps: list[Exponent], scratch: np.ndarray | None = None
) -> np.ndarray:
    """p-norms of each row of z for every exponent, with max-factoring.

    Row maxima are factored out before powers are taken, so exponents up
    to the worked range cannot overflow.  Integer exponents are computed
    by repeated multiplication in ascending order, keeping just one power
    array alive.  The two arrays of z's size that this takes are
    ``scratch[0]`` and ``scratch[1]`` (their first ``len(z)`` rows) when
    ``scratch`` is given, and new arrays otherwise; z is not modified.
    """
    rows = z.shape[0]
    if scratch is None:
        scratch = np.empty((2, *z.shape))
    an = np.abs(z, out=scratch[0, :rows])
    mx = an.max(axis=1)
    safe = np.where(mx > 0.0, mx, 1.0)
    an /= safe[:, None]
    power = scratch[1, :rows]
    out = np.empty((rows, len(ps)))

    int_targets = sorted(
        {int(p.value) for p in ps if not p.is_inf and float(p.value).is_integer()}
    )
    int_sums: dict[int, np.ndarray] = {}
    k = 0
    for target in int_targets:
        if k == 0:
            np.multiply(an, an, out=power)
            k = 2
        while k < target:
            power *= an
            k += 1
        int_sums[target] = power.sum(axis=1)

    for j, p in enumerate(ps):
        if p.is_inf:
            out[:, j] = mx
        elif float(p.value).is_integer():
            out[:, j] = safe * int_sums[int(p.value)] ** (1.0 / p.value)
        else:
            np.power(an, p.value, out=power)
            out[:, j] = safe * power.sum(axis=1) ** (1.0 / p.value)
    return out


def _worker_count(blocks: int) -> int:
    """Threads for ``blocks`` reference blocks: one per usable core, at most one per block."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    return max(1, min(blocks, cores))


def _reference_norms(
    ps: list[Exponent], d: int, reps: int, seed: int, aux_rows: int | None
) -> np.ndarray:
    """(reps, len(ps)) matrix of reference norms from the shared draw stream."""
    radius_scale = None
    if aux_rows is not None:
        m = int(aux_rows)
        if m < d + 2:
            raise ValueError(
                f"finite-sample reference needs aux_rows >= d + 2, got m={m}, d={d}"
            )
        # squared radius = (m-d-1) d / (m-d+1) * F(d, m-d+1)
        radius_scale = (m - d - 1.0) * d / (m - d + 1.0)
    out = np.empty((reps, len(ps)))
    blocks = (reps + _BLOCK - 1) // _BLOCK
    workers = _worker_count(blocks)
    # Each worker's block-sized arrays (normals plus two temporaries) are
    # allocated here, on the calling thread: memory that a worker thread
    # allocates and frees stays in its malloc arena, and would keep the
    # process's resident size up long after calibration returns.
    scratch = [np.empty((3, _BLOCK, d)) for _ in range(workers)]

    def fill(first: int) -> None:
        # static strided share of the blocks: first, first + W, first + 2W, ...
        buf = scratch[first]
        for block in range(first, blocks, workers):
            lo = block * _BLOCK
            b = min(_BLOCK, reps - lo)
            rng = _block_rng(seed, block)
            z = rng.standard_normal(out=buf[0, :b])
            norms = _batch_pnorms(z, ps, buf[1:])
            if radius_scale is not None:
                f = rng.f(d, m - d + 1, size=b)
                radius = np.sqrt(radius_scale * f)
                # ||z||_2 exactly as np.linalg.norm(z, axis=1) forms it
                z_norm = np.sqrt(np.multiply(z, z, out=buf[1, :b]).sum(axis=1))
                norms *= (radius / z_norm)[:, None]
            out[lo : lo + b] = norms

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # consuming the results re-raises any worker's exception here
        list(pool.map(fill, range(workers)))
    return out


def _order_index(alpha: float, size: int) -> int:
    # 0-based index of the order statistic at 1-based ceil((1 - alpha) * size)
    k = math.ceil((1.0 - alpha) * size)
    return min(max(k, 1), size) - 1


def _order_stat_quantile(values: np.ndarray, alpha: float) -> float:
    k = _order_index(alpha, values.size)
    return float(np.partition(values, k)[k])


def mc_pnorm_quantile(
    p,
    d: int,
    alpha: float,
    reps: int = 200_000,
    seed: int = 0,
    aux_rows: int | None = None,
) -> float:
    """Empirical (1-alpha)-quantile of the reference norm ||Z_d||_p.

    Deterministic given (p, d, alpha, reps, seed, aux_rows).  With
    ``aux_rows`` set, draws come from the finite-sample elliptical law
    described in the module docstring instead of the Gaussian limit.
    """
    alpha = _check_alpha(alpha)
    seed = _check_seed(seed)
    if reps < 1000:
        raise ValueError(f"reps must be >= 1000, got {reps}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    col = _reference_norms([as_exponent(p)], d, reps, seed, aux_rows)[:, 0]
    return _order_stat_quantile(col, alpha)


@dataclass(frozen=True)
class CriticalValueTable:
    """Jointly calibrated critical values for an exponent grid.

    ``entries`` maps each exponent to its (alpha share, kappa at that
    share); ``standalone`` holds the (1 - alpha_total)-quantile of each
    norm, i.e. the critical value the exponent would use as a standalone
    test at the full level.  ``c_n`` is the scale factor of the combined
    test; it is clipped at 1 and ``conservative`` records whether clipping
    was applied.
    """

    d: int
    alpha_total: float
    entries: dict[Exponent, tuple[float, float]]
    c_n: float
    conservative: bool
    mc_reps: int
    seed: int
    aux_rows: int | None = None
    standalone: dict[Exponent, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("table needs at least one exponent entry")
        total = 0.0
        for p, (share, kappa) in self.entries.items():
            if not isinstance(p, Exponent):
                raise TypeError("entry keys must be Exponent instances")
            if kappa <= 0.0:
                raise ValueError(f"kappa must be positive, got {kappa} at p={p}")
            if not 0.0 < share < 1.0:
                raise ValueError(f"alpha share must lie in (0,1), got {share} at p={p}")
            total += share
        if abs(total - self.alpha_total) > 1e-12:
            raise ValueError(
                f"alpha shares sum to {total}, expected alpha_total={self.alpha_total}"
            )
        if not 0.0 < self.c_n <= 1.0:
            raise ValueError(f"c_n must lie in (0, 1], got {self.c_n}")

    @property
    def exponents(self) -> tuple[Exponent, ...]:
        return tuple(self.entries)

    def share(self, p) -> float:
        return self.entries[as_exponent(p)][0]

    def kappa(self, p) -> float:
        return self.entries[as_exponent(p)][1]

    def standalone_kappa(self, p) -> float:
        return self.standalone[as_exponent(p)]

    def to_json_dict(self) -> dict:
        def key(p: Exponent):
            return "inf" if p.is_inf else p.value

        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "critical_value_table",
            "d": self.d,
            "alpha_total": self.alpha_total,
            "c_n": self.c_n,
            "conservative": self.conservative,
            "mc_reps": self.mc_reps,
            "seed": self.seed,
            "aux_rows": self.aux_rows,
            "entries": [
                {
                    "p": key(p),
                    "share": share,
                    "kappa": kappa,
                    "standalone_kappa": self.standalone.get(p),
                }
                for p, (share, kappa) in self.entries.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CriticalValueTable":
        if doc.get("kind") != "critical_value_table":
            raise ValueError("document is not a critical_value_table")
        entries: dict[Exponent, tuple[float, float]] = {}
        standalone: dict[Exponent, float] = {}
        for row in doc["entries"]:
            p = INF if row["p"] == "inf" else as_exponent(float(row["p"]))
            entries[p] = (float(row["share"]), float(row["kappa"]))
            if row.get("standalone_kappa") is not None:
                standalone[p] = float(row["standalone_kappa"])
        return cls(
            d=int(doc["d"]),
            alpha_total=float(doc["alpha_total"]),
            entries=entries,
            c_n=float(doc["c_n"]),
            conservative=bool(doc["conservative"]),
            mc_reps=int(doc["mc_reps"]),
            seed=int(doc["seed"]),
            aux_rows=None if doc.get("aux_rows") is None else int(doc["aux_rows"]),
            standalone=standalone,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CriticalValueTable":
        return cls.from_json_dict(json.loads(text))


def calibrate_joint(
    shares: Mapping | Iterable[tuple],
    d: int,
    alpha_total: float,
    reps: int = 200_000,
    seed: int = 0,
    aux_rows: int | None = None,
) -> CriticalValueTable:
    """Jointly calibrate kappa for every exponent and the scale factor c_n.

    ``shares`` maps exponents to positive alpha shares summing to
    ``alpha_total`` (a mapping or an iterable of (exponent, share) pairs).
    All kappas come from one shared set of reference
    draws; c_n is the (1 - alpha_total)-quantile of
    max_p ||Z||_p / kappa_p over the same draws, clipped at 1 (with the
    conservative flag set) if the empirical value exceeds 1.
    """
    alpha_total = _check_alpha(alpha_total)
    seed = _check_seed(seed)
    items = list(shares.items()) if hasattr(shares, "items") else list(shares)
    if not items:
        raise ValueError("need at least one exponent share")
    ps: list[Exponent] = []
    vals: list[float] = []
    for p, share in items:
        ps.append(as_exponent(p))
        vals.append(float(share))
    order = np.argsort([pv.value for pv in ps], kind="stable")
    ps = [ps[i] for i in order]
    vals = [vals[i] for i in order]
    if len(set(ps)) != len(ps):
        raise ValueError("duplicate exponents in the share map")
    for p, share in zip(ps, vals):
        if share <= 0.0:
            raise ValueError(f"alpha share must be positive, got {share} at p={p}")
    if abs(sum(vals) - alpha_total) > 1e-12:
        raise ValueError(
            f"alpha shares sum to {sum(vals)}, expected alpha_total={alpha_total}"
        )
    min_share = min(vals)
    if min_share * reps < 100:
        raise ValueError(
            f"reps={reps} too small to resolve the smallest share {min_share:g}; "
            f"need at least {math.ceil(100 / min_share)}"
        )

    norms = _reference_norms(ps, d, reps, seed, aux_rows)
    # one partition per column yields both its share kappa and its standalone kappa
    k_alpha = _order_index(alpha_total, reps)
    kappas = np.empty(len(ps))
    standalone = {}
    for j, (p, share) in enumerate(zip(ps, vals)):
        ks = [_order_index(share, reps), k_alpha]
        kappas[j], alone = np.partition(norms[:, j], ks)[ks]
        standalone[p] = float(alone)
    # running max over columns: no second reps x |grid| matrix
    ratios = norms[:, 0] / kappas[0]
    for j in range(1, len(ps)):
        np.maximum(ratios, norms[:, j] / kappas[j], out=ratios)
    c_raw = _order_stat_quantile(ratios, alpha_total)
    conservative = c_raw > 1.0
    return CriticalValueTable(
        d=d,
        alpha_total=alpha_total,
        entries={p: (share, float(k)) for p, share, k in zip(ps, vals, kappas)},
        c_n=min(c_raw, 1.0),
        conservative=conservative,
        mc_reps=reps,
        seed=seed,
        aux_rows=aux_rows,
        standalone=standalone,
    )
