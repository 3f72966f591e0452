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

import math
from dataclasses import MISSING, dataclass, field, replace
from typing import Mapping

import numpy as np

from .critical_values import (
    _SHARE_TOL,
    CriticalValueTable,
    _check_alpha,
    _check_d,
    _check_shares,
    _document,
    _integer,
    _JsonDocument,
    _list_of,
    _object,
    _optional,
    _read_document,
    _read_table,
    _real,
    calibrate_joint,
)
from .gaussian_moments import _check_p, normal_quantile

__all__ = [
    "DominantTestSpec",
    "default_spec",
    "calibrate_spec",
    "evaluate_psi",
    "power_loss_bound",
]


@dataclass(frozen=True)
class DominantTestSpec(_JsonDocument):
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
        object.__setattr__(self, "d", _check_d(self.d))
        if len(self.p_grid) != len(self.per_p_shares):
            raise ValueError("p_grid and per_p_shares must have equal length")
        for p in self.p_grid:
            if _check_p(p) in (2.0, math.inf):
                raise ValueError(f"interior exponents must lie in (2, inf), got {p}")
        if any(b <= a for a, b in zip(self.p_grid, self.p_grid[1:])):
            raise ValueError("p_grid must be strictly increasing")
        # alpha_I totals the interior shares; a nonzero endpoint is in the share map
        if self.p_grid or self.alpha_I != 0.0:
            _check_shares(dict(zip(self.p_grid, self.per_p_shares)), self.alpha_I, "alpha_I")
        _check_shares(self.share_map(), self.alpha_total)
        # stored as checked, so that the spec is hashable and writes plain JSON
        for name in ("alpha_total", "alpha_2", "alpha_I", "alpha_inf"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "p_grid", tuple(map(float, self.p_grid)))
        object.__setattr__(self, "per_p_shares", tuple(map(float, self.per_p_shares)))
        if self.table is not None:
            t = self.table
            if t.d != self.d or abs(t.alpha_total - self.alpha_total) > _SHARE_TOL:
                raise ValueError("calibration table does not match the spec")
            if t.exponents != self.exponents:
                raise ValueError("calibration table covers a different exponent grid")
            if any(abs(t.share(p) - share) > _SHARE_TOL for p, share in self.share_map().items()):
                raise ValueError("calibration table was drawn at other alpha shares")

    @property
    def exponents(self) -> tuple[float, ...]:
        """Full grid in increasing order, endpoints included when active."""
        return tuple(self.share_map())

    @property
    def calibrated(self) -> bool:
        return self.table is not None

    def share_map(self) -> dict[float, float]:
        out: dict[float, float] = {}
        if self.alpha_2 != 0.0:
            out[2.0] = self.alpha_2
        out.update(zip(self.p_grid, self.per_p_shares))
        if self.alpha_inf != 0.0:
            out[math.inf] = self.alpha_inf
        return out

    def to_json_dict(self) -> dict:
        return _document("dominant_test_spec", {
            "d": self.d,
            "alpha_total": self.alpha_total,
            "alpha_2": self.alpha_2,
            "alpha_I": self.alpha_I,
            "alpha_inf": self.alpha_inf,
            "p_grid": list(self.p_grid),
            "per_p_shares": list(self.per_p_shares),
            "table": None if self.table is None else self.table.to_json_dict(),
        })

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DominantTestSpec":
        fields = _read_document(doc, "dominant_test_spec", _SPEC_FIELDS, "")
        if fields["table"] is not None:
            fields["table"] = _read_table(fields["table"], "table")
        return cls(**fields)


_SPEC_FIELDS = {
    "d": (_integer, MISSING),
    "alpha_total": (_real, MISSING),
    "alpha_2": (_real, MISSING),
    "alpha_I": (_real, MISSING),
    "alpha_inf": (_real, MISSING),
    "p_grid": (_list_of(_real, "numbers"), MISSING),
    "per_p_shares": (_list_of(_real, "numbers"), MISSING),
    "table": (_optional(_object), None),
}


def default_spec(d: int, alpha: float) -> DominantTestSpec:
    """Default (uncalibrated) combined-test spec for dimension d.

    Equal thirds of alpha to p = 2, the interior grid, and p = inf;
    interior exponents 2 + j for j = 1..min(ceil(log2 d), 12) with
    geometric shares 2^{-j}, normalised to sum to alpha/3.
    """
    d = _check_d(d, 2, "; the default grid needs d >= 2")
    alpha = _check_alpha(alpha)
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


def calibrate_spec(
    spec: DominantTestSpec,
    reps: int | None = None,
    seed: int = 0,
    aux_rows: int | None = None,
) -> DominantTestSpec:
    """Attach a jointly calibrated CriticalValueTable to the spec.

    ``reps`` (None: automatic) is checked and chosen by
    :func:`calibrate_joint`, the one owner of the draw-count rule.
    """
    table = calibrate_joint(spec.share_map(), spec.d, spec.alpha_total, reps, seed, aux_rows)
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
    for p in spec.exponents:
        if p not in stats:
            raise ValueError(f"missing statistic for exponent {p:g}")
    row = np.asarray([[float(stats[p]) for p in spec.exponents]])
    return bool(_max_ratio(row, spec)[1][0])


def power_loss_bound(p, alpha_total: float, alpha_p: float) -> float:
    """Upper bound on local power lost by testing at share alpha_p.

    Running a single exponent at its share alpha_p instead of the full
    level alpha can cost at most this much power against any local
    alternative: (Phi^{-1}(1-alpha_p) - Phi^{-1}(1-alpha)) / sqrt(2 pi)
    for finite p, and f(alpha) - f(alpha_p) with
    f(x) = ln(-ln(1-x)/2) for the sup norm.
    """
    alpha_total = _check_alpha(alpha_total, "alpha_total")
    alpha_p = _check_alpha(alpha_p, "alpha_p")
    if alpha_p > alpha_total:
        raise ValueError(f"need alpha_p <= alpha_total, got {alpha_p} > {alpha_total}")
    if math.isinf(_check_p(p)):
        def f(x: float) -> float:
            return math.log(-math.log1p(-x) / 2.0)

        return f(alpha_total) - f(alpha_p)
    gap = normal_quantile(1.0 - alpha_p) - normal_quantile(1.0 - alpha_total)
    return gap / math.sqrt(2.0 * math.pi)
