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
rows and debiased by m/(m-d-1), the finite-sample reference is

    Y  =d  sqrt( (m-d-1) d / (m-d+1) * F )  *  Z / ||Z||_2,

with F an F(d, m-d+1) variable independent of Z.  Under Gaussian data the
standardized vector's 2-norm has the law of ||Y||_2 for every covariance,
but the vector has the law of Y only for a covariance proportional to I:
otherwise its direction is not uniform.  So ``aux_rows=m``, which draws
the reference from this law, makes the Monte-Carlo critical values exact
at any (d, m) at p = 2, and at every p for a covariance proportional to I;
the two laws coincide as m -> infinity.  ``_RadialLaw`` owns the law, its
debias, its radius draw and its one rule for m, an integer >= d + 2.

Monte-Carlo draws are organised in fixed-size blocks, each fed by its own
counter-based Philox stream keyed (seed, block index).  Blocks run on a
thread pool of W = min(number of blocks, cores this process may run on)
workers; numpy releases the GIL while it fills normals and runs the ufunc
loops that dominate a block.  A worker only draws a block and forms its
norms; the calling thread takes the blocks' norms in block order, so
everything built from them is bit-identical for any W.

Empirical quantiles use the order statistic at the 1-based index
ceil((1 - alpha) * reps), the conservative direction for test size.  Every
order statistic calibration reads lies among the top reps - k of its
column (or of the ratios behind c_n), k being the smallest 0-based index
read, so the reps x |grid| matrix of norms is never stored.  The calling
thread offers each block's rows to a candidate buffer that keeps only the
rows that can hold such a value (``_TopRows``, which states why none is
lost), and the order statistics are read from the kept rows with an index
offset.  The buffer sees the same rows in the same order for any W, so
the kept rows, not only the tables and quantiles, are the same on any
core count.  About 10% of the rows are kept at alpha 0.05.

JSON documents.  ``_document`` writes every document's ``schema_version``
and ``kind``.  Every document read, a spec, a table or an experiment
config, goes through the one field-table reader ``_parse``, which names the
field path of each error, such as ``table.entries[0].kappa``.  A level, a
share map, a count and a finite vector each have one check, run by
documents and library calls alike: ``_check_alpha``, ``_check_shares``,
``_check_d`` and ``_check_vector``.  Every integer input is a count:
``reps``, ``mc_reps``, each ``seed`` and ``mc_seed``, ``aux_rows`` and
``threads`` go through ``_check_d`` with their own name and least value.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field
from typing import Mapping

import numpy as np

from .gaussian_moments import _check_p, lambda_p, normal_quantile, sigma_p

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


def _boolean(value) -> bool:
    # a numpy bool too, stored as a plain bool so that to_json can write it
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"expected true or false, got {value!r}")
    return bool(value)


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


def _exponent(value) -> float:
    """An exponent from its JSON form: a number, or "inf" for the sup norm."""
    return math.inf if value == "inf" else _check_p(_numeric(value))


def _exponent_key(p: float):
    """The JSON form of an exponent, read back by ``_exponent``."""
    return "inf" if math.isinf(p) else p


# Fixed Monte-Carlo block size; part of the definition of the draw stream,
# so it must never be tuned per call.
_BLOCK = 1024


# shares sum to their total, and a table's match its spec's, within this
_SHARE_TOL = 1e-12


def _check_alpha(alpha, name: str = "alpha") -> float:
    """A level, share or probability as a float: a real number, not a bool, in (0, 1)."""
    if not isinstance(alpha, numbers.Real) or isinstance(alpha, bool):
        raise TypeError(f"{name} must be a real number, got {alpha!r}")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:  # NaN fails it
        raise ValueError(f"{name} must lie in (0, 1), got {alpha}")
    return alpha


def _check_shares(shares: Mapping, alpha_total, name: str = "alpha_total") -> dict:
    """The map as floats: exponents distinct as floats, shares in (0, 1) summing to the total."""
    out = {}
    for p, share in shares.items():
        p = _check_p(p)
        if p in out:
            raise ValueError("duplicate exponents in the share map")
        out[p] = _check_alpha(share, f"alpha share at p={p:g}")
    if not out:
        raise ValueError("the share map allocates no positive share to any exponent")
    alpha_total = _check_alpha(alpha_total, name)
    total = sum(out.values())
    if not abs(total - alpha_total) <= _SHARE_TOL:  # NaN fails it
        raise ValueError(f"alpha shares sum to {total}, expected {name}={alpha_total}")
    return out


def _check_d(d, least: int = 1, hint: str = "", name: str = "d") -> int:
    """A count as an int: a real number, not a bool, a finite integer >= least."""
    if not isinstance(d, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {d!r}")
    if isinstance(d, bool) or not (math.isfinite(d) and d == math.floor(d) and d >= least):
        raise ValueError(f"{name} must be >= {least} and a finite integer, got {d}{hint}")
    return int(d)


def _check_vector(value, name: str, d: int | None = None) -> np.ndarray:
    """``value`` as a non-empty float vector of finite entries, of length d when d is given."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from None
    if v.ndim != 1 or d is not None and v.size != d:
        what = "a vector" if d is None else f"a d-vector (d = {d})"
        raise ValueError(f"{name}: expected {what}, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name}: expected a non-empty vector, got shape (0,)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} entries must be finite")
    return v


def kappa_p_asymptotic(p, d: int, alpha: float) -> float:
    """Asymptotic critical value for a finite exponent.

    kappa = [ Phi^{-1}(1-alpha) sqrt(d) sigma_p + d lambda_p(0) ]^(1/p).
    """
    p = _check_p(p)
    if math.isinf(p):
        raise ValueError("use kappa_inf_asymptotic for the sup norm")
    alpha = _check_alpha(alpha)
    d = _check_d(d)
    bracket = normal_quantile(1.0 - alpha) * math.sqrt(d) * sigma_p(p) + d * lambda_p(p, 0.0)
    if bracket <= 0.0:
        raise ValueError(f"asymptotic formula invalid at this (d, alpha)=({d}, {alpha})")
    return bracket ** (1.0 / p)


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
    return kappa_inf_exact(d, alpha) if math.isinf(p) else kappa_p_asymptotic(p, d, alpha)


class _RadialLaw:
    """The finite-sample reference law at m pairs in dimension d; None marks the Gaussian limit."""

    def __init__(self, d: int, m: int) -> None:
        m = _check_d(m, d + 2, name="aux_rows")  # m >= d + 2 pairs: the rule's one statement
        self.d, self.m = d, m
        # the covariance debias, and the squared radius (m-d-1) d / (m-d+1) * F(d, m-d+1)
        self.debias, self.radius_scale = m / (m - d - 1.0), (m - d - 1.0) * d / (m - d + 1.0)

    @classmethod
    def matched_rows(cls, n: int, d: int) -> int | None:
        """The n // 2 difference pairs of an n-row sample if they name the law, else None."""
        try:
            return cls(d, n // 2).m
        except ValueError:
            return None

    def radii(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.sqrt(self.radius_scale * rng.f(self.d, self.m - self.d + 1, size=size))


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))


def _batch_pnorms(
    z: np.ndarray, ps: list[float], scratch: np.ndarray | None = None
) -> np.ndarray:
    """p-norms of each row of z for every exponent, with max-factoring.

    Row maxima are factored out before powers are taken, so exponents up
    to the worked range cannot overflow.  Integer exponents are computed
    by repeated multiplication in ascending order, keeping just one power
    array alive.  The two arrays of z's size that this takes are
    ``scratch[0]`` and ``scratch[1]`` (their first ``len(z)`` rows) when
    ``scratch`` is given, and new arrays otherwise.  |z| / max is formed
    in ``scratch[0]``, so z is overwritten when it is ``scratch[0]``'s
    first rows, and left unchanged otherwise; the norms are the same bits
    either way.
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

    int_targets = sorted({int(p) for p in ps if p.is_integer()})
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
        if math.isinf(p):
            out[:, j] = mx
        elif p.is_integer():
            out[:, j] = safe * int_sums[int(p)] ** (1.0 / p)
        else:
            np.power(an, p, out=power)
            out[:, j] = safe * power.sum(axis=1) ** (1.0 / p)
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

    Rows arrive in stream order through :meth:`add`, on one thread, and are
    stored row by row in one buffer.  When the buffer passes ``limit`` rows
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

    The resident size follows the rows held, not the capacity.  The
    buffer is row-major, so only the prefix written so far is in memory:
    numpy asks for transparent huge pages on large arrays, and in a
    column-major buffer the first row written would bring in a 2 MB page
    for every column.  The first prune comes past 2 ``top`` rows, and each
    prune sets the limit to the rows it keeps plus a fixed slack of
    ``top // 2`` rows (at least one block).  Every prune therefore admits
    at least the slack, so the pruning work stays proportional to the rows
    added, and a prune never starts with more than the slack and one
    block beyond the rows the last prune kept.  The capacity grows only
    when the limit and one block no longer fit.  Compaction moves the kept
    rows forward one block at a time, so its temporary is one block.
    """

    def __init__(self, columns: int, top: int, reps: int):
        self.top, self.reps = top, reps
        self.slack = max(top // 2, _BLOCK)
        self.limit = 2 * top
        self.rows = np.empty((min(reps, 4 * top + _BLOCK), columns))
        self.n = 0
        self.cut = np.full(columns, -np.inf)

    def add(self, norms: np.ndarray) -> None:
        """Offer a (rows, columns) block; at most ``_BLOCK`` rows per call."""
        new = norms[(norms >= self.cut).any(axis=1)]
        self.rows[self.n : self.n + len(new)] = new
        self.n += len(new)
        if self.n > self.limit:
            self._prune()

    def _prune(self) -> None:
        held = self.rows[: self.n]
        cut = np.array([np.partition(col, -self.top)[-self.top] for col in held.T])
        keep = np.zeros(self.n, dtype=bool)
        for col, c in zip(held.T, cut):
            keep |= col >= c
        # a block's kept rows land at or before the block, so no rows are
        # overwritten before they are read
        n = 0
        for lo in range(0, self.n, _BLOCK):
            block = held[lo : lo + _BLOCK][keep[lo : lo + _BLOCK]]
            held[n : n + len(block)] = block
            n += len(block)
        self.n, self.cut = n, cut
        self.limit = n + self.slack
        capacity = min(self.reps, self.limit + _BLOCK)
        if capacity > len(self.rows):
            grown = np.empty((capacity, held.shape[1]))
            grown[:n] = held[:n]
            self.rows = grown

    def kept(self) -> np.ndarray:
        """The kept rows as a (columns, kept) view."""
        return self.rows[: self.n].T


# A block is drawn and normed in the fewest passes of at most about this
# many entries: a d <= 64 block is one pass, a d = 200 block four.  A
# worker's scratch is two arrays of a pass's size, at most about 1 MiB
# (2^16 x 2 x 8 bytes) at any d, so that they stay in a core's L2 cache
# (2 MiB on the host measured, where 2^17 entries, two passes at d = 200,
# made calibration slower).  The pass size changes no draw and no norm.
_PASS_ENTRIES = 1 << 16
# Blocks a worker may have submitted ahead of the calling thread.
_AHEAD = 4


def _reference_norms(
    ps: list[float], d: int, reps: int, seed: int, law: _RadialLaw | None, top: int
) -> np.ndarray:
    """Reference norms of every draw that can hold a column's ``top`` largest value.

    Returns an array of shape (len(ps), kept): column j of the reps x
    len(ps) matrix of reference norms under ``law`` (None: Gaussian),
    restricted to the same kept rows for every j (see :class:`_TopRows`).
    With ``top = reps`` every row is kept.
    """
    blocks = (reps + _BLOCK - 1) // _BLOCK
    workers = _worker_count(blocks)
    rows = math.ceil(_BLOCK / math.ceil(_BLOCK * d / _PASS_ENTRIES))
    # The candidate buffer and the W pass-sized scratch arrays (the normals,
    # normed in place, and one temporary) are allocated here, on the
    # calling thread: memory that a worker thread allocates and frees stays
    # in its malloc arena, and would keep the process's resident size up
    # long after calibration returns.  A running block borrows one of the W
    # arrays, so one is always free when a worker starts a block.
    candidates = _TopRows(len(ps), top, reps)
    scratch = deque(np.empty((2, rows, d)) for _ in range(workers))

    def block_norms(block: int) -> np.ndarray:
        b = min(_BLOCK, reps - block * _BLOCK)
        rng = _block_rng(seed, block)
        norms = np.empty((b, len(ps)))
        z_norm = np.empty(b)
        buf = scratch.pop()
        try:
            # successive draws continue the block's stream: the same normals
            # as one draw of b rows
            for lo in range(0, b, rows):
                z = rng.standard_normal(out=buf[0, : min(rows, b - lo)])
                if law is not None:
                    # ||z||_2 exactly as np.linalg.norm(z, axis=1) forms it,
                    # before the norms below overwrite z
                    sq = np.multiply(z, z, out=buf[1, : len(z)])
                    z_norm[lo : lo + len(z)] = np.sqrt(sq.sum(axis=1))
                norms[lo : lo + len(z)] = _batch_pnorms(z, ps, buf)
        finally:
            scratch.append(buf)
        if law is not None:
            norms *= (law.radii(rng, b) / z_norm)[:, None]
        return norms

    # Blocks are taken in block order, and at most _AHEAD * W are submitted
    # and not yet taken, so finished blocks do not queue up in the workers'
    # malloc arenas.  A worker's exception re-raises here and cancels the rest.
    ahead: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for block in range(blocks):
                ahead.append(pool.submit(block_norms, block))
                if len(ahead) == _AHEAD * workers:
                    candidates.add(ahead.popleft().result())
            while ahead:
                candidates.add(ahead.popleft().result())
        finally:
            for future in ahead:
                future.cancel()
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
    (kappa,) = calibrate_joint({p: alpha}, d, alpha, reps, seed, aux_rows).standalone.values()
    return kappa


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
    entries: dict[float, tuple[float, float]]
    c_n: float
    conservative: bool
    mc_reps: int
    seed: int
    aux_rows: int | None = None
    standalone: dict[float, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # every check is written so that NaN fails it
        d = _check_d(self.d)
        _check_d(self.mc_reps, name="mc_reps")
        _check_d(self.seed, 0, name="seed")
        if self.aux_rows is not None:
            _RadialLaw(d, self.aux_rows)
        for p, (_, kappa) in self.entries.items():
            if not isinstance(p, float):
                raise TypeError(f"entry keys must be float exponents, got {p!r}")
            if not 0.0 < kappa < math.inf:
                raise ValueError(f"kappa must be positive and finite, got {kappa} at p={p:g}")
        shares = _check_shares({p: s for p, (s, _) in self.entries.items()}, self.alpha_total)
        if not 0.0 < self.c_n <= 1.0:
            raise ValueError(f"c_n must lie in (0, 1], got {self.c_n}")
        for p in self.entries:
            if not 0.0 < self.standalone.get(p, 0.0) < math.inf:
                raise ValueError(f"standalone kappa at p={p:g} must be present, positive and finite")
        for p in self.standalone.keys() - self.entries.keys():
            raise ValueError(f"standalone kappa at p={p} has no entry")
        # stored as floats, so that to_json writes plain JSON
        entries = {p: (share, float(self.entries[p][1])) for p, share in shares.items()}
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "standalone", {p: float(self.standalone[p]) for p in entries})
        # the reader's converters too, so that to_json writes no table
        # from_json rejects, and what they return is stored
        scalars = {name: rule for name, rule in _TABLE_FIELDS.items() if name != "entries"}
        for name, value in _parse({n: getattr(self, n) for n in scalars}, scalars, "").items():
            object.__setattr__(self, name, value)

    @property
    def exponents(self) -> tuple[float, ...]:
        return tuple(self.entries)

    def share(self, p) -> float:
        return self.entries[p][0]

    def kappa(self, p) -> float:
        return self.entries[p][1]

    def standalone_kappa(self, p) -> float:
        return self.standalone[p]

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
    reps = _check_d(reps, name="reps")
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
    seed = _check_d(seed, 0, name="seed")
    d = _check_d(d)
    law = None if aux_rows is None else _RadialLaw(d, aux_rows)
    ps, vals = zip(*sorted(_check_shares(shares, alpha_total).items()))
    reps = _auto_reps(min(vals), reps)

    ks = [_order_index(a, reps) for a in (alpha_total, *vals)]
    # every order statistic read below is among the top reps - min(ks)
    # values of its column or of the ratios, so only rows that can hold
    # one are kept: full-sample index k is kept-row index k - skip
    norms = _reference_norms(ps, d, reps, seed, law, reps - min(ks))
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
        aux_rows=None if law is None else law.m,
        standalone=standalone,
    )
