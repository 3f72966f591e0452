"""Critical values for the p-norm test family.

Three sources are implemented:

* asymptotic formulas: ``kappa_p_asymptotic`` for finite p and
  ``kappa_inf_asymptotic`` for the sup norm, both with the o(1) terms of
  the limit theory set to 0;
* the exact Gaussian sup-norm quantile ``kappa_inf_exact``, the root of
  (2 Phi(t) - 1)^d = 1 - alpha, used as the oracle for the asymptotic
  formula;
* Monte-Carlo quantiles from ``calibrate_joint``, the one Monte-Carlo
  path: it uses ONE shared set of reference draws for every exponent of
  a grid, because the scale factor c_n is defined through the joint law
  of all norms of the same reference vector.  ``mc_pnorm_quantile`` is
  its one-exponent case.

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
numpy releases the GIL while it fills normals and runs the ufunc loops
that dominate a block.

Empirical quantiles use the order statistic at the 1-based index
ceil((1 - alpha) * reps), the conservative direction for test size.  Every
order statistic calibration reads lies among the top reps - k of its
column (or of the ratios behind c_n), k being the smallest 0-based index
read, so the reps x |grid| matrix of norms is never stored.  The workers
offer each block's rows to one shared candidate buffer that keeps only
the rows that can hold such a value (``_TopRows``, which states why none
is lost), and the order statistics are read from the kept rows with an
index offset.  Which rows are kept depends on thread timing; the values
read do not, so every table and quantile is the same for any W.  About
10% of the rows are kept at alpha 0.05.

JSON documents.  ``_document`` writes every document's ``schema_version``
and ``kind``.  Every document read, a spec, a table or an experiment
config, goes through the one field-table reader ``_parse``, which names the
field path of each error, such as ``table.entries[0].kappa``.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field
from typing import Mapping

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


class UsageError(ValueError):
    """Bad flags, or a config, spec or table document that cannot be read."""


class _JsonDocument:
    """``to_json`` and ``from_json`` over a class's ``to_json_dict`` and ``from_json_dict``."""

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(json.loads(text))


def _document(kind: str, body: dict) -> dict:
    """A JSON document of this schema: version and kind, then ``body``'s fields."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **body}


def _parse(obj, fields: dict, path: str) -> dict:
    """The fields of JSON object ``obj``, each converted by its table entry.

    ``fields`` maps name -> (convert, default); a MISSING default makes the
    field required.  Fields are read in table order, then unknown keys are
    rejected.  Every error is a ``UsageError`` naming the field path.
    """
    prefix = f"{path}." if path else ""
    if not isinstance(obj, dict):
        raise UsageError(f"{path or 'document'}: expected a JSON object")
    out = {}
    for name, (convert, default) in fields.items():
        if name in obj:
            try:
                out[name] = convert(obj[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise UsageError(f"{prefix}{name}: {exc}") from None
        elif default is MISSING:
            raise UsageError(f"{prefix}{name}: missing required field")
        else:
            out[name] = default
    for key in obj:
        if key not in fields:
            raise UsageError(f"{prefix}{key}: unknown field")
    return out


def _read_document(doc, kind: str, fields: dict, path: str) -> dict:
    """``_parse`` for a ``kind`` document of this schema version, less those two fields."""

    def check_kind(value):
        if value != kind:
            raise ValueError(f"expected {kind!r}, got {value!r}")

    envelope = {"kind": (check_kind, MISSING), "schema_version": (_version, MISSING)}
    body = _parse(doc, {**envelope, **fields}, path)
    del body["kind"], body["schema_version"]
    return body


# Converters for field tables.  JSON booleans and strings are not numbers
# (int() and float() would read true as 1 and "3" as 3), and no value is
# cast to a string or a flag (str() would read null as "None").


def _numeric(value):
    if isinstance(value, list):
        for item in value:
            _numeric(item)
    elif value is None or isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return value


def _integer(value) -> int:
    value = _numeric(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _vector(value) -> np.ndarray:
    value = np.asarray(_numeric(value), dtype=float)
    if not np.isfinite(value).all():
        raise ValueError("must be finite")
    return value


def _real(value) -> float:
    return float(_vector(float(_numeric(value))))


def _instance(cls: type, what: str):
    def read(value):
        if not isinstance(value, cls):
            raise ValueError(f"expected {what}, got {value!r}")
        return value

    return read


_boolean = _instance(bool, "true or false")
_string = _instance(str, "a string")
_object = _instance(dict, "a JSON object")


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _list_of(convert, what: str):
    def read(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a list of {what}, got {value!r}")
        return tuple(convert(item) for item in value)

    return read


def _version(value) -> int:
    version = _integer(value)
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema_version {version!r} is not {SCHEMA_VERSION}")
    return version


def _exponent(value) -> Exponent:
    """An exponent from its JSON form: a number, or "inf" for the sup norm."""
    return INF if value == "inf" else as_exponent(_numeric(value))


def _exponent_key(p: Exponent):
    """The JSON form of an exponent, read back by ``_exponent``."""
    return "inf" if p.is_inf else p.value


# Fixed Monte-Carlo block size; part of the definition of the draw stream,
# so it must never be tuned per call.
_BLOCK = 1024


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _check_d(d, least: int = 1, hint: str = "") -> int:
    # NaN, infinite and fractional dimensions fail it
    if not (math.isfinite(d) and d == math.floor(d) and d >= least):
        raise ValueError(f"d must be >= {least} and a finite integer, got {d}{hint}")
    return int(d)


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
    d = _check_d(d)
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
    d = _check_d(d, 3, "; the asymptotic formula needs d >= 3, use kappa_inf_exact")
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
    d = _check_d(d)
    tail = -math.expm1(math.log1p(-alpha) / d) / 2.0
    return -normal_quantile(tail)


def _formula_kappa(p, d: int, alpha: float) -> float:
    """The formula critical value of exponent ``p``: exact at p = inf, asymptotic below."""
    p = as_exponent(p)
    return kappa_inf_exact(d, alpha) if p.is_inf else kappa_p_asymptotic(p, d, alpha)


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


class _TopRows:
    """The rows of a stream of norm rows that can hold a column's ``top`` largest values.

    Rows arrive from several threads through :meth:`add` and are stored
    column by column in one buffer.  When the buffer passes ``limit`` rows
    it is pruned in place: each column's cut becomes the ``top``-th largest
    value the buffer holds, and a row stays while any of its values is at
    or above its column's cut.  Later rows below every cut are dropped on
    arrival.

    Nothing needed is lost.  Let s_j be the ``top``-th largest value of
    column j over the whole stream.  A cut is the ``top``-th largest value
    of some of the rows, so it is at most s_j, and a row is dropped only
    when every value lies below its cut.  So every row with a value at or
    above s_j in some column j is kept, and each column's ``top`` largest
    values are among the kept rows.  So are the ``top`` largest values of
    the ratio r = max_j fl(x_j / k_j), for any positive k_j, using only that
    rounded division is monotone.  Let c be r's ``top``-th largest value.
    As r >= fl(x_j / k_j) row by row, c >= fl(s_j / k_j) for every j.  If
    c = fl(s_j / k_j) for some j, the ``top`` or more kept rows with
    x_j >= s_j all have r >= c.  Otherwise a row with r >= c has
    fl(x_j / k_j) > fl(s_j / k_j) in its argmax column j, so x_j > s_j and
    the row is kept.  Either way ``top`` kept rows have r >= c.

    The limit starts at 4 ``top``: a pruned buffer of the default grids
    holds about 2 ``top`` rows, so each prune frees about half of it.  A
    prune that frees less than a quarter doubles the limit, so the pruning
    work stays proportional to the rows added.
    """

    def __init__(self, columns: int, top: int, reps: int):
        self.top, self.reps = top, reps
        self.limit = 4 * top
        self.cols = np.empty((columns, min(reps, self.limit + _BLOCK)))
        self.n = 0
        self.cut = np.full(columns, -np.inf)
        self.lock = threading.Lock()

    def add(self, norms: np.ndarray) -> None:
        """Offer a (rows, columns) block; at most ``_BLOCK`` rows per call."""
        # every cut ever set is at most s_j, so one read while another thread prunes is safe
        new = norms[(norms >= self.cut).any(axis=1)]
        with self.lock:
            end = self.n + len(new)
            self.cols[:, self.n : end] = new.T
            self.n = end
            if end > self.limit:
                self._prune()

    def _prune(self) -> None:
        cols = self.cols[:, : self.n]
        cut = np.array([np.partition(col, -self.top)[-self.top] for col in cols])
        keep = np.zeros(self.n, dtype=bool)
        for col, c in zip(cols, cut):
            keep |= col >= c
        n = int(np.count_nonzero(keep))
        for col in cols:
            col[:n] = col[keep]
        self.n, self.cut = n, cut
        if n > 3 * self.limit // 4:
            self.limit *= 2
            grown = np.empty((len(cols), min(self.reps, self.limit + _BLOCK)))
            grown[:, :n] = cols[:, :n]
            self.cols = grown

    def kept(self) -> np.ndarray:
        return self.cols[:, : self.n]


# A block is drawn and normed in passes of at most about this many
# entries: a pass's three arrays stay in cache, and a worker's scratch
# stays small at any d.
_PASS_ENTRIES = 1 << 15


def _reference_norms(
    ps: list[Exponent], d: int, reps: int, seed: int, aux_rows: int | None, top: int
) -> np.ndarray:
    """Reference norms of every draw that can hold a column's ``top`` largest value.

    Returns an array of shape (len(ps), kept): column j of the reps x
    len(ps) matrix of reference norms from the shared draw stream,
    restricted to the same kept rows for every j (see :class:`_TopRows`).
    With ``top = reps`` every row is kept.
    """
    radius_scale = None
    if aux_rows is not None:
        m = int(aux_rows)
        if m < d + 2:
            raise ValueError(
                f"finite-sample reference needs aux_rows >= d + 2, got m={m}, d={d}"
            )
        # squared radius = (m-d-1) d / (m-d+1) * F(d, m-d+1)
        radius_scale = (m - d - 1.0) * d / (m - d + 1.0)
    blocks = (reps + _BLOCK - 1) // _BLOCK
    workers = _worker_count(blocks)
    rows = math.ceil(_BLOCK / math.ceil(_BLOCK * d / _PASS_ENTRIES))
    # The candidate buffer and each worker's pass-sized arrays (normals plus
    # two temporaries) are allocated here, on the calling thread: memory
    # that a worker thread allocates and frees stays in its malloc arena,
    # and would keep the process's resident size up long after
    # calibration returns.
    candidates = _TopRows(len(ps), top, reps)
    scratch = [np.empty((3, rows, d)) for _ in range(workers)]

    def fill(first: int) -> None:
        # static strided share of the blocks: first, first + W, first + 2W, ...
        buf = scratch[first]
        for block in range(first, blocks, workers):
            b = min(_BLOCK, reps - block * _BLOCK)
            rng = _block_rng(seed, block)
            norms = np.empty((b, len(ps)))
            z_norm = np.empty(b)
            # successive draws continue the block's stream: the same normals
            # as one draw of b rows
            for lo in range(0, b, rows):
                z = rng.standard_normal(out=buf[0, : min(rows, b - lo)])
                norms[lo : lo + len(z)] = _batch_pnorms(z, ps, buf[1:])
                if radius_scale is not None:
                    # ||z||_2 exactly as np.linalg.norm(z, axis=1) forms it
                    sq = np.multiply(z, z, out=buf[1, : len(z)])
                    z_norm[lo : lo + len(z)] = np.sqrt(sq.sum(axis=1))
            if radius_scale is not None:
                f = rng.f(d, m - d + 1, size=b)
                radius = np.sqrt(radius_scale * f)
                norms *= (radius / z_norm)[:, None]
            candidates.add(norms)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # consuming the results re-raises any worker's exception here
        list(pool.map(fill, range(workers)))
    return candidates.kept()


def _order_index(alpha: float, size: int) -> int:
    # 0-based index of the order statistic at 1-based ceil((1 - alpha) * size)
    k = math.ceil((1.0 - alpha) * size)
    return min(max(k, 1), size) - 1


def mc_pnorm_quantile(
    p,
    d: int,
    alpha: float,
    reps: int | None = None,
    seed: int = 0,
    aux_rows: int | None = None,
) -> float:
    """Empirical (1-alpha)-quantile of the reference norm ||Z_d||_p.

    The one-exponent case of :func:`calibrate_joint`: same draws, same
    order statistic, same draw-count rule.
    """
    return calibrate_joint({p: alpha}, d, alpha, reps, seed, aux_rows).standalone_kappa(p)


@dataclass(frozen=True)
class CriticalValueTable(_JsonDocument):
    """Jointly calibrated critical values for an exponent grid.

    ``entries`` maps each exponent to its (alpha share, kappa at that
    share); ``standalone`` holds, for every exponent, the
    (1 - alpha_total)-quantile of its norm, i.e. the critical value the
    exponent would use as a standalone test at the full level.  ``c_n`` is the scale factor of the combined
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
        # every check is written so that NaN fails it
        if not self.d >= 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if not self.mc_reps >= 1:
            raise ValueError(f"mc_reps must be >= 1, got {self.mc_reps}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not (self.aux_rows is None or self.aux_rows >= self.d + 2):
            raise ValueError(f"aux_rows must be null or >= d + 2, got {self.aux_rows}")
        if not self.entries:
            raise ValueError("table needs at least one exponent entry")
        total = 0.0
        for p, (share, kappa) in self.entries.items():
            if not isinstance(p, Exponent):
                raise TypeError("entry keys must be Exponent instances")
            if not 0.0 < kappa < math.inf:
                raise ValueError(f"kappa must be positive and finite, got {kappa} at p={p}")
            if not 0.0 < share < 1.0:
                raise ValueError(f"alpha share must lie in (0,1), got {share} at p={p}")
            total += share
        if not abs(total - self.alpha_total) <= 1e-12:
            raise ValueError(
                f"alpha shares sum to {total}, expected alpha_total={self.alpha_total}"
            )
        if not 0.0 < self.c_n <= 1.0:
            raise ValueError(f"c_n must lie in (0, 1], got {self.c_n}")
        for p in self.entries:
            if not 0.0 < self.standalone.get(p, 0.0) < math.inf:
                raise ValueError(f"standalone kappa at p={p} must be present, positive and finite")

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
        return _document("critical_value_table", {
            "d": self.d,
            "alpha_total": self.alpha_total,
            "c_n": self.c_n,
            "conservative": self.conservative,
            "mc_reps": self.mc_reps,
            "seed": self.seed,
            "aux_rows": self.aux_rows,
            "entries": [
                {
                    "p": _exponent_key(p),
                    "share": share,
                    "kappa": kappa,
                    "standalone_kappa": self.standalone[p],
                }
                for p, (share, kappa) in self.entries.items()
            ],
        })

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CriticalValueTable":
        return _read_table(doc, "")


_TABLE_FIELDS = {
    "d": (_integer, MISSING),
    "alpha_total": (_real, MISSING),
    "c_n": (_real, MISSING),
    "conservative": (_boolean, MISSING),
    "mc_reps": (_integer, MISSING),
    "seed": (_integer, MISSING),
    "aux_rows": (_optional(_integer), None),
    "entries": (_list_of(_object, "objects"), MISSING),
}
_ENTRY_FIELDS = {
    "p": (_exponent, MISSING),
    "share": (_real, MISSING),
    "kappa": (_real, MISSING),
    # absent or null reads as NaN, which __post_init__ rejects by name
    "standalone_kappa": (lambda v: math.nan if v is None else _real(v), math.nan),
}


def _read_table(doc, path: str) -> CriticalValueTable:
    """A table document read at field path ``path`` ("" for a whole document)."""
    fields = _read_document(doc, "critical_value_table", _TABLE_FIELDS, path)
    prefix = f"{path}." if path else ""
    entries, standalone = {}, {}
    for i, row in enumerate(fields.pop("entries")):
        row = _parse(row, _ENTRY_FIELDS, f"{prefix}entries[{i}]")
        entries[row["p"]] = (row["share"], row["kappa"])
        standalone[row["p"]] = row["standalone_kappa"]
    return CriticalValueTable(**fields, entries=entries, standalone=standalone)


def _auto_reps(min_share: float, reps: int | None = None) -> int:
    # every share's quantile needs >= 100 draws beyond it; draw >= 200k by default
    need = math.ceil(100.0 / min_share)
    if reps is None:
        return max(200_000, need)
    if reps < need:
        raise ValueError(
            f"reps={reps} too small to resolve the smallest share {min_share:g}; "
            f"need at least {need}"
        )
    return reps


def calibrate_joint(
    shares: Mapping,
    d: int,
    alpha_total: float,
    reps: int | None = None,
    seed: int = 0,
    aux_rows: int | None = None,
) -> CriticalValueTable:
    """Jointly calibrate kappa for every exponent and the scale factor c_n.

    ``shares`` maps exponents to positive alpha shares summing to
    ``alpha_total``.  All kappas come from one shared set of reference
    draws; c_n is the (1 - alpha_total)-quantile of
    max_p ||Z||_p / kappa_p over the same draws, clipped at 1 (with the
    conservative flag set) if the empirical value exceeds 1.  With
    ``reps=None`` the draw count is chosen by :func:`_auto_reps`.
    """
    alpha_total = _check_alpha(alpha_total)
    seed = _check_seed(seed)
    d = _check_d(d)
    if not shares:
        raise ValueError("need at least one exponent share")
    ps, vals = zip(*sorted((as_exponent(p), float(s)) for p, s in shares.items()))
    if len(set(ps)) != len(ps):
        raise ValueError("duplicate exponents in the share map")
    for p, share in zip(ps, vals):
        if not share > 0.0:
            raise ValueError(f"alpha share must be positive, got {share} at p={p}")
    if abs(sum(vals) - alpha_total) > 1e-12:
        raise ValueError(
            f"alpha shares sum to {sum(vals)}, expected alpha_total={alpha_total}"
        )
    reps = _auto_reps(min(vals), reps)

    ks = [_order_index(a, reps) for a in (alpha_total, *vals)]
    # every order statistic read below is among the top reps - min(ks)
    # values of its column or of the ratios, so only rows that can hold
    # one are kept: full-sample index k is kept-row index k - skip
    norms = _reference_norms(ps, d, reps, seed, aux_rows, reps - min(ks))
    skip = reps - norms.shape[1]
    k_alpha, *k_shares = (k - skip for k in ks)
    # one partition per column yields both its share kappa and its standalone kappa
    kappas = np.empty(len(ps))
    standalone = {}
    for j, (p, k_share) in enumerate(zip(ps, k_shares)):
        pair = [k_share, k_alpha]
        kappas[j], alone = np.partition(norms[j], pair)[pair]
        standalone[p] = float(alone)
    # running max over columns: one vector of ratios
    ratios = norms[0] / kappas[0]
    for j in range(1, len(ps)):
        np.maximum(ratios, norms[j] / kappas[j], out=ratios)
    c_raw = float(np.partition(ratios, k_alpha)[k_alpha])
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
