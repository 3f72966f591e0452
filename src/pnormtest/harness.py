"""Reproducible experiment runner behind the command line.

``run_experiment`` takes a JSON-style config (data-generating process,
test options, replication count, master seed), calibrates the combined
test once, then replays independent replications with counter-based
per-replication streams keyed (seed, rep).  Replications run through the
test engine's chunked replay, ``_whiten_chunks``: each replication is drawn
from its own stream into a slot of the one chunk buffer, each chunk is
whitened in one kernel call (one ``eigh`` per replication,
x = V (w^{-1/2} * (V' H))), and its decisions fill the chunk's rows of the
flag matrix, so only that matrix grows with ``reps``.  Every replication's
statistics are the same bits as when it is tested alone, so the chunk size
never changes a result.

The config is parsed once, before calibration, against field tables
(name -> converter, default) by ``critical_values._parse``, the reader of
spec and table documents too: every section rejects unknown fields,
numeric fields reject JSON booleans and strings, integer fields must be
integral, real fields finite, and every error names its field path.
The iv and rct tables are read off ``IvConfig`` and ``RctConfig``, so each
dataclass is the only list of its fields and defaults.

Reports split into a deterministic ``results`` section, a pure function
of the config, and a ``runtime`` section holding the wall clock.
Replications with a rank-deficient covariance estimate are counted and
reported in one warning per experiment, which says that the tests' size
is then not controlled.

The CSV reader lives here too: one observation per row, first row a
header, parse failures reported with line and column.  It returns the
n x d array, validated as every library function validates a sample.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
import warnings
from dataclasses import MISSING, dataclass
from typing import get_type_hints

import numpy as np

from .covariance import _TRUNC_MULT, _checked
from .critical_values import (
    SCHEMA_VERSION,
    UsageError,
    _block_rng,
    _document,
    _exponent,
    _integer,
    _list_of,
    _object,
    _optional,
    _parse,
    _real,
    _string,
    _vector,
    _version,
)
from .dgp import IvConfig, RctConfig, gen_iv, gen_rct
from .dominant_test import calibrate_spec, default_spec
from .test_engine import (  # run_tests stays importable from this module
    _check_estimator,
    _decide,
    _matched_aux_rows,
    _test_columns,
    _whiten_chunks,
    run_tests,
)

__all__ = [
    "UsageError",
    "DataError",
    "read_sample_csv",
    "SimulationReport",
    "run_experiment",
]


class DataError(ValueError):
    """Input files that exist but cannot be used as data."""


def read_sample_csv(path) -> np.ndarray:
    """Parse a moment CSV; bad cells are reported with line and column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        d = len(header)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d:
                raise DataError(
                    f"{path}: line {lineno}: expected {d} columns, got {len(row)}"
                )
            try:
                rows.append(np.asarray(row, dtype=float))
            except ValueError:
                for j, cell in enumerate(row):
                    try:
                        float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: line {lineno}, column {j + 1} "
                            f"({header[j]}): could not parse {cell!r}"
                        ) from None
                raise
    if not rows:
        raise DataError(f"{path}: no data rows after the header")
    try:
        return _checked(np.asarray(rows))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _aux_rows(value):
    if value is None or value == "fold":
        return value
    raise ValueError(f"expected 'fold' or null, got {value!r}")


# Field tables: name -> (convert, default), read by ``_parse``.  IV and RCT
# tables come from their config dataclasses.
_TOP_FIELDS = {
    "schema_version": (_version, SCHEMA_VERSION),
    "experiment": (_string, "unnamed"),
    "reps": (_integer, MISSING),
    "seed": (_integer, 0),
    "dgp": (_object, MISSING),
    "test": (_object, {}),
}
_TEST_FIELDS = {
    "alpha": (_real, 0.05),
    "estimator": (_check_estimator, "sample"),
    "trunc_mult": (_real, _TRUNC_MULT),
    "mc_reps": (_optional(_integer), None),
    "mc_seed": (_integer, 0),
    "aux_rows": (_aux_rows, "fold"),
    # "inf" names the sup norm, as in a table's "p" keys
    "extra_ps": (_list_of(_exponent, "exponents"), ()),
}
_KIND = {"kind": (_string, MISSING)}
_GAUSSIAN_FIELDS = {**_KIND, "n": (_integer, MISSING), "d": (_integer, MISSING),
                    "theta": (_vector, None)}
_CONVERT = {int: _integer, float: _real, str: _string, np.ndarray: _vector}


def _parse_config(cls, dgp: dict, beta_star_type):
    """A ``cls`` instance and ``beta_star`` (None when absent) from a dgp section."""
    hints = get_type_hints(cls)
    fields = {f.name: (_CONVERT[hints[f.name]], f.default) for f in dataclasses.fields(cls)}
    values = _parse(dgp, {**_KIND, **fields, "beta_star": (beta_star_type, None)}, "dgp")
    try:
        return cls(**{name: values[name] for name in fields}), values["beta_star"]
    except ValueError as exc:
        raise UsageError(f"dgp: {exc}") from None


def _build_sampler(dgp: dict):
    """Returns (n, d, draw) where draw(rng) yields one n x d array."""
    if "kind" not in dgp:
        raise UsageError("dgp.kind: missing required field")
    kind = dgp["kind"]
    if kind == "gaussian":
        fields = _parse(dgp, _GAUSSIAN_FIELDS, "dgp")
        n, d, theta = fields["n"], fields["d"], fields["theta"]
        if theta is not None and theta.shape != (d,):
            raise UsageError(f"dgp.theta: expected length {d}, got shape {theta.shape}")

        def draw(rng):
            # mean theta/sqrt(n) makes sqrt(n) * rowmean exactly N(theta, I)
            z = rng.standard_normal((n, d))
            return z if theta is None else z + theta / math.sqrt(n)

        return n, d, draw
    if kind == "iv":
        cfg, beta_star = _parse_config(IvConfig, dgp, _real)
        beta_star = cfg.beta_true if beta_star is None else beta_star
        return cfg.n, cfg.d, lambda rng: gen_iv(cfg, beta_star, rng)
    if kind == "rct":
        cfg, beta_star = _parse_config(RctConfig, dgp, _vector)
        beta_star = cfg.effect if beta_star is None else beta_star
        if beta_star.shape != (cfg.d,):
            raise UsageError(f"dgp.beta_star: expected length {cfg.d}")
        return cfg.n, cfg.d, lambda rng: gen_rct(cfg, beta_star, rng)
    raise UsageError(f"dgp.kind: must be 'gaussian', 'iv' or 'rct', got {kind!r}")


@dataclass(frozen=True)
class SimulationReport:
    """Per-replication reject flags plus their aggregates.

    ``flags`` is a reps x T boolean matrix, one column per test named in
    ``test_names``; rates and Monte-Carlo standard errors are derived
    from it, so the aggregates can never drift from the records.
    """

    experiment: str
    config: dict
    seed: int
    test_names: tuple[str, ...]
    flags: np.ndarray
    wall_clock: float

    def __post_init__(self) -> None:
        f = np.asarray(self.flags, dtype=bool)
        if f.ndim != 2 or f.shape[0] < 1:
            raise ValueError(f"flags must be a reps x T matrix, got shape {f.shape}")
        if f.shape[1] != len(self.test_names):
            raise ValueError(
                f"{len(self.test_names)} test names for {f.shape[1]} flag columns"
            )
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "flags", f)

    @property
    def reps(self) -> int:
        return self.flags.shape[0]

    @property
    def rates(self) -> dict[str, float]:
        means = self.flags.mean(axis=0)
        return {name: float(r) for name, r in zip(self.test_names, means)}

    @property
    def mc_se(self) -> dict[str, float]:
        return {
            name: math.sqrt(r * (1.0 - r) / self.reps)
            for name, r in self.rates.items()
        }

    def to_json_dict(self) -> dict:
        return _document("simulation_report", {
            "results": {
                "experiment": self.experiment,
                "seed": self.seed,
                "reps": self.reps,
                "config": self.config,
                "tests": list(self.test_names),
                "replications": [
                    {
                        "rep": i,
                        "rejects": {
                            name: bool(v)
                            for name, v in zip(self.test_names, self.flags[i])
                        },
                    }
                    for i in range(self.reps)
                ],
                "rates": self.rates,
                "mc_se": self.mc_se,
            },
            "runtime": {"wall_clock_s": self.wall_clock},
        })


def run_experiment(config: dict, threads: int = 1) -> SimulationReport:
    """Calibrate once, then replay ``reps`` independent replications.

    Deterministic given the config: replication r uses the counter-based
    stream keyed (seed, r).  Chunks run one after another on the calling
    thread; ``threads`` (at least 1) is accepted for compatibility and
    changes neither the results nor the speed.  Chunks stay on one thread
    because OpenBLAS's pool keeps spinning after each ``eigh``, so a second
    Python thread competes with it: 250 stacked (8, 40, 40) ``eigh`` calls
    took 0.42 s alone and 1.68 s beside one thread drawing normals.  Emits one
    ``RuntimeWarning`` naming how many replications had a rank-deficient
    covariance estimate, if any did.
    """
    top = _parse(config, _TOP_FIELDS, "")
    if threads < 1:
        raise UsageError(f"threads: must be >= 1, got {threads}")
    reps, seed = top["reps"], top["seed"]
    if reps < 1:
        raise UsageError(f"reps: must be >= 1, got {reps}")
    if seed < 0:
        raise UsageError(f"seed: must be nonnegative, got {seed}")
    n, d, draw = _build_sampler(top["dgp"])
    if n < 4:
        raise UsageError(f"dgp.n: must be >= 4 for difference pairs, got {n}")
    if d < 1:
        raise UsageError(f"dgp.d: must be >= 1, got {d}")

    opts = _parse(top["test"], _TEST_FIELDS, "test")
    alpha, estimator, trunc_mult = opts["alpha"], opts["estimator"], opts["trunc_mult"]
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"test.alpha: must lie in (0, 1), got {alpha}")
    if not trunc_mult > 0:
        raise UsageError(f"test.trunc_mult: must be positive, got {trunc_mult}")
    aux = _matched_aux_rows(n, d) if opts["aux_rows"] == "fold" else None

    try:
        spec = calibrate_spec(
            default_spec(d, alpha), reps=opts["mc_reps"], seed=opts["mc_seed"], aux_rows=aux
        )
    except ValueError as exc:
        raise UsageError(f"test: {exc}") from None

    ps, crits = _test_columns(spec, opts["extra_ps"])
    flags = np.empty((reps, len(ps) + 1), dtype=bool)

    def fill(rep: int, out: np.ndarray) -> None:
        out[...] = draw(_block_rng(seed, rep))

    deficient = 0
    start = time.perf_counter()
    for lo, hi, x, rank in _whiten_chunks(reps, n, d, fill, estimator, trunc_mult):
        _, reject, _, psi = _decide(x, spec, ps, crits)
        flags[lo:hi, :-1] = reject
        flags[lo:hi, -1] = psi
        deficient += int(np.count_nonzero(rank < d))
    elapsed = time.perf_counter() - start
    if deficient:
        warnings.warn(
            f"{deficient} of {reps} replications had a rank-deficient covariance "
            f"estimate (numerical rank < d = {d}); singular directions were projected out "
            "and the tests' size is not controlled",
            RuntimeWarning,
            stacklevel=2,
        )

    return SimulationReport(
        experiment=top["experiment"],
        config=config,
        seed=seed,
        test_names=tuple(str(p) for p in ps) + ("psi",),
        flags=flags,
        wall_clock=elapsed,
    )
