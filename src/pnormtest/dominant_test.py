"""Construction of the combined (dominant) test over an exponent grid.

The combined test runs the p-norm statistic for every exponent in a grid
{2} | p_grid | {inf}, splits the level alpha across the grid, and rejects
when max_p S_p / kappa_p >= c_n with jointly calibrated critical values.
This module owns the grid construction (:func:`default_spec`), the
rejection rule (:func:`evaluate_psi`), and the analytic bound on the
power given up at any single exponent by running at its share instead of
the full level (:func:`power_loss_bound`).

Default allocation: equal thirds of alpha to p = 2, to the interior grid,
and to p = inf.  The interior grid uses integer exponents p_j = 2 + j,
j = 1..m with m = min(ceil(log2 d), 12), and geometric shares
alpha_I 2^{-j} / (1 - 2^{-m}).  The cap at 12 is a compute bound; the
asymptotic theory wants the grid to keep growing with d.  Nothing
downstream depends on these conventions: any spec satisfying the
invariants can be calibrated and evaluated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .critical_values import SCHEMA_VERSION, CriticalValueTable, calibrate_joint
from .gaussian_moments import INF, Exponent, as_exponent, normal_quantile

__all__ = [
    "DominantTestSpec",
    "default_spec",
    "calibrate_spec",
    "evaluate_psi",
    "power_loss_bound",
]


@dataclass(frozen=True)
class DominantTestSpec:
    """Exponent grid and size allocation for the combined test.

    ``p_grid`` holds the interior exponents (strictly increasing, all in
    the open interval (2, inf)); ``per_p_shares`` their alpha shares,
    summing to ``alpha_I``.  ``alpha_2`` and ``alpha_inf`` may be zero,
    in which case the corresponding endpoint is simply not part of the
    test.  ``table`` is attached by :func:`calibrate_spec`.
    """

    d: int
    alpha_total: float
    alpha_2: float
    alpha_I: float
    alpha_inf: float
    p_grid: tuple[float, ...]
    per_p_shares: tuple[float, ...]
    table: CriticalValueTable | None = field(default=None)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if not 0.0 < self.alpha_total < 1.0:
            raise ValueError(f"alpha_total must lie in (0, 1), got {self.alpha_total}")
        for name in ("alpha_2", "alpha_I", "alpha_inf"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        parts = self.alpha_2 + self.alpha_I + self.alpha_inf
        if abs(parts - self.alpha_total) > 1e-12:
            raise ValueError(
                f"alpha_2 + alpha_I + alpha_inf = {parts}, "
                f"expected alpha_total = {self.alpha_total}"
            )
        if len(self.p_grid) != len(self.per_p_shares):
            raise ValueError("p_grid and per_p_shares must have equal length")
        for p in self.p_grid:
            if not 2.0 < p < math.inf:
                raise ValueError(f"interior exponents must lie in (2, inf), got {p}")
        if any(b <= a for a, b in zip(self.p_grid, self.p_grid[1:])):
            raise ValueError("p_grid must be strictly increasing")
        if any(s <= 0.0 for s in self.per_p_shares):
            raise ValueError("every interior share must be positive")
        if abs(sum(self.per_p_shares) - self.alpha_I) > 1e-12:
            raise ValueError(
                f"interior shares sum to {sum(self.per_p_shares)}, "
                f"expected alpha_I = {self.alpha_I}"
            )
        if not self.share_map():
            raise ValueError("spec allocates no positive share to any exponent")
        if self.table is not None:
            t = self.table
            if t.d != self.d or abs(t.alpha_total - self.alpha_total) > 1e-12:
                raise ValueError("calibration table does not match the spec")
            if t.exponents != self.exponents:
                raise ValueError("calibration table covers a different exponent grid")

    @property
    def exponents(self) -> tuple[Exponent, ...]:
        """Full grid in increasing order, endpoints included when active."""
        return tuple(self.share_map())

    @property
    def calibrated(self) -> bool:
        return self.table is not None

    def share_map(self) -> dict[Exponent, float]:
        out: dict[Exponent, float] = {}
        if self.alpha_2 > 0.0:
            out[as_exponent(2.0)] = self.alpha_2
        for p, s in zip(self.p_grid, self.per_p_shares):
            out[as_exponent(p)] = s
        if self.alpha_inf > 0.0:
            out[INF] = self.alpha_inf
        return out

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "dominant_test_spec",
            "d": self.d,
            "alpha_total": self.alpha_total,
            "alpha_2": self.alpha_2,
            "alpha_I": self.alpha_I,
            "alpha_inf": self.alpha_inf,
            "p_grid": list(self.p_grid),
            "per_p_shares": list(self.per_p_shares),
            "table": None if self.table is None else self.table.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DominantTestSpec":
        if doc.get("kind") != "dominant_test_spec":
            raise ValueError("document is not a dominant_test_spec")
        table = doc.get("table")
        return cls(
            d=int(doc["d"]),
            alpha_total=float(doc["alpha_total"]),
            alpha_2=float(doc["alpha_2"]),
            alpha_I=float(doc["alpha_I"]),
            alpha_inf=float(doc["alpha_inf"]),
            p_grid=tuple(float(p) for p in doc["p_grid"]),
            per_p_shares=tuple(float(s) for s in doc["per_p_shares"]),
            table=None if table is None else CriticalValueTable.from_json_dict(table),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DominantTestSpec":
        return cls.from_json_dict(json.loads(text))


def default_spec(d: int, alpha: float) -> DominantTestSpec:
    """Default (uncalibrated) combined-test spec for dimension d.

    Equal thirds of alpha to p = 2, the interior grid, and p = inf;
    interior exponents 2 + j for j = 1..min(ceil(log2 d), 12) with
    geometric shares 2^{-j}, normalised to sum to alpha/3.
    """
    if d < 2:
        raise ValueError(f"default_spec needs d >= 2, got {d}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    third = alpha / 3.0
    # ceil(log2 d) in integer arithmetic, immune to float rounding
    m = min((d - 1).bit_length(), 12)
    weights = [2.0**-j for j in range(1, m + 1)]
    norm = sum(weights)  # = 1 - 2^{-m}
    shares = tuple(third * w / norm for w in weights)
    return DominantTestSpec(
        d=d,
        alpha_total=alpha,
        alpha_2=third,
        alpha_I=third,
        alpha_inf=third,
        p_grid=tuple(float(2 + j) for j in range(1, m + 1)),
        per_p_shares=shares,
    )


def _auto_reps(min_share: float) -> int:
    # default draw count: at least 200k, and enough that the smallest
    # share is resolved by >= 100 exceedances
    return max(200_000, math.ceil(100.0 / min_share))


def calibrate_spec(
    spec: DominantTestSpec,
    reps: int | None = None,
    seed: int = 0,
    aux_rows: int | None = None,
) -> DominantTestSpec:
    """Attach a jointly calibrated CriticalValueTable to the spec.

    With ``reps=None`` the draw count is chosen automatically so that
    even the smallest share is estimated from at least 100 tail draws.
    """
    shares = spec.share_map()
    if reps is None:
        reps = _auto_reps(min(shares.values()))
    table = calibrate_joint(
        shares, spec.d, spec.alpha_total, reps=reps, seed=seed, aux_rows=aux_rows
    )
    return replace(spec, table=table)


def _max_ratio(stats: np.ndarray, spec: DominantTestSpec):
    """The combined rule for statistics of shape (B, len(grid)) in grid order.

    Returns max_p S_p / kappa_p per row and its rejection (>= c_n).
    """
    kappas = np.asarray([spec.table.kappa(p) for p in spec.exponents])
    ratio = (stats / kappas).max(axis=1)
    return ratio, ratio >= spec.table.c_n


def evaluate_psi(stats: Mapping, spec: DominantTestSpec) -> bool:
    """Rejection rule of the combined test: max_p S_p / kappa_p >= c_n.

    ``stats`` maps each exponent of the spec's grid to its statistic
    value.  The boundary counts as a rejection.
    """
    if spec.table is None:
        raise ValueError("spec is not calibrated; run calibrate_spec first")
    lookup = {as_exponent(p): float(v) for p, v in stats.items()}
    for p in spec.exponents:
        if p not in lookup:
            raise ValueError(f"missing statistic for exponent {p}")
    row = np.asarray([[lookup[p] for p in spec.exponents]])
    return bool(_max_ratio(row, spec)[1][0])


def power_loss_bound(p, alpha_total: float, alpha_p: float) -> float:
    """Upper bound on local power lost by testing at share alpha_p.

    Running a single exponent at its share alpha_p instead of the full
    level alpha can cost at most this much power against any local
    alternative: (Phi^{-1}(1-alpha_p) - Phi^{-1}(1-alpha)) / sqrt(2 pi)
    for finite p, and f(alpha) - f(alpha_p) with
    f(x) = ln(-ln(1-x)/2) for the sup norm.
    """
    if not 0.0 < alpha_p <= alpha_total:
        raise ValueError(
            f"need 0 < alpha_p <= alpha_total, got alpha_p={alpha_p}, "
            f"alpha_total={alpha_total}"
        )
    if not alpha_total < 1.0:
        raise ValueError(f"alpha_total must lie in (0, 1), got {alpha_total}")
    pv = as_exponent(p)
    if pv.is_inf:
        def f(x: float) -> float:
            return math.log(-math.log1p(-x) / 2.0)

        return f(alpha_total) - f(alpha_p)
    gap = normal_quantile(1.0 - alpha_p) - normal_quantile(1.0 - alpha_total)
    return gap / math.sqrt(2.0 * math.pi)
