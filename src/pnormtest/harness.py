"""Reproducible experiment runner behind the command line.

``run_experiment`` takes a JSON-style config (data-generating process,
test options, replication count, master seed), calibrates the combined
test once, then replays independent replications with counter-based
per-replication streams keyed (seed, rep).  Replications run through the
test engine's phased replay, ``_replay``, on one lane per usable core: the
lanes draw each replication from its own stream straight into their chunk
buffers and reduce it to H and the packed lower triangle of its covariance
estimate, in spans of 4.5 MiB of triangles (3 spans for 2000 replications
at d=40); after each span the calling thread alone runs the whitening
(one ``eigh`` per matrix below d=256) and fills the flag matrix, the one
array that grows with ``reps``.  Every
replication's statistics are the same bits as when it is tested alone, so
neither the lane count nor the replay's budgets ever change a result.

The config is parsed once, before calibration, against field tables
(name -> converter, default) by ``critical_values._parse``, the reader of
spec and table documents too: every section rejects unknown fields,
numeric fields reject JSON booleans and strings, integer fields must be
integral, real fields finite, and every error names its field path.
The seeds, ``test.alpha``, ``dgp.d``, ``dgp.n`` and the vectors then run
the library's own check, so a bad value fails with its message after the
field path.  ``test.estimator`` names the estimator; the truncated one
truncates at three median row norms (``covariance._TRUNC_MULT``), as at
every other entry point.
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

import copy
import csv
import dataclasses
import math
import time
import warnings
from dataclasses import MISSING, dataclass
from typing import get_type_hints

import numpy as np

from .covariance import _check_rows, _checked
from .critical_values import (
    SCHEMA_VERSION,
    UsageError,
    _RadialLaw,
    _block_rng,
    _check_alpha,
    _check_d,
    _check_vector,
    _document,
    _exponent,
    _integer,
    _list_of,
    _numeric,
    _object,
    _optional,
    _parse,
    _real,
    _string,
    _vector,
    _version,
    _worker_count,
)
from .dgp import IvConfig, RctConfig, _iv_rows, _rct_rows
from .dominant_test import calibrate_spec, default_spec
from .test_engine import (  # run_tests stays importable from this module
    _check_estimator,
    _decide,
    _replay,
    _test_columns,
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


def _count(name: str, least: int = 1):
    return lambda value: _check_d(_integer(value), least, name=name)


# Field tables: name -> (convert, default), read by ``_parse``.  IV and RCT
# tables come from their config dataclasses.
_TOP_FIELDS = {
    "schema_version": (_version, SCHEMA_VERSION),
    "experiment": (_string, "unnamed"),
    "reps": (_count("reps"), MISSING),
    "seed": (_count("seed", 0), 0),
    "dgp": (_object, MISSING),
    "test": (_object, {}),
}
_TEST_FIELDS = {
    "alpha": (lambda value: _check_alpha(_numeric(value)), 0.05),
    "estimator": (_check_estimator, "sample"),
    "mc_reps": (_optional(_count("mc_reps")), None),
    "mc_seed": (_count("mc_seed", 0), 0),
    "aux_rows": (_aux_rows, "fold"),
    # "inf" names the sup norm, as in a table's "p" keys
    "extra_ps": (_list_of(_exponent, "exponents"), ()),
}
_KIND = {"kind": (_string, MISSING)}
_GAUSSIAN_FIELDS = {**_KIND, "n": (_integer, MISSING),
                    "d": (_count("d"), MISSING),
                    "theta": (_vector, None)}
_CONVERT = {int: _integer, float: _real, str: _string, np.ndarray: _vector}


def _at(path: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``; a ``ValueError`` is raised as a ``UsageError`` at ``path``."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_config(cls, dgp: dict, beta_star_type):
    """A ``cls`` instance and ``beta_star`` (None when absent) from a dgp section."""
    hints = get_type_hints(cls)
    fields = {f.name: (_CONVERT[hints[f.name]], f.default) for f in dataclasses.fields(cls)}
    values = _parse(dgp, {**_KIND, **fields, "beta_star": (beta_star_type, None)}, "dgp")
    return _at("dgp", cls, **{name: values[name] for name in fields}), values["beta_star"]


def _build_sampler(dgp: dict):
    """Returns (n, d, draw) where draw(rng, out) writes one n x d sample into ``out``."""
    if "kind" not in dgp:
        raise UsageError("dgp.kind: missing required field")
    kind = dgp["kind"]
    if kind == "gaussian":
        fields = _parse(dgp, _GAUSSIAN_FIELDS, "dgp")
        n, d, theta = fields["n"], fields["d"], fields["theta"]
        if theta is not None:
            theta = _at("dgp.theta", _check_vector, theta, "theta", d)

        def draw(rng, out):
            # mean theta/sqrt(n) makes sqrt(n) * rowmean exactly N(theta, I)
            rng.standard_normal(out=out)
            if theta is not None:
                out += theta / math.sqrt(n)

        return n, d, draw
    if kind == "iv":
        cfg, beta_star = _parse_config(IvConfig, dgp, _real)
        beta_star = cfg.beta_true if beta_star is None else beta_star
        return cfg.n, cfg.d, lambda rng, out: _iv_rows(cfg, beta_star, rng, out)
    if kind == "rct":
        cfg, beta_star = _parse_config(RctConfig, dgp, _vector)
        beta_star = cfg.effect if beta_star is None else beta_star
        beta_star = _at("dgp.beta_star", _check_vector, beta_star, "beta_star", cfg.d)
        return cfg.n, cfg.d, lambda rng, out: _rct_rows(cfg, beta_star, rng, out)
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
    stream keyed (seed, r).  ``threads`` (at least 1) is accepted for
    compatibility and changes neither the results nor the speed: the
    replay runs one lane per core this process may run on, as calibration
    does.  The lanes draw and reduce the replications of a span together;
    then the calling thread runs the span's ``eigh`` calls alone, because
    after an ``eigh`` of a matrix larger than 25 x 25 OpenBLAS's own threads
    spin for about 0.1 s, and a Python thread working beside them stalls:
    two threads drawing normals took 72 ms right after one (80, 40, 40)
    ``eigh`` and 37 ms without it.  Emits one ``RuntimeWarning`` naming how
    many replications had a rank-deficient covariance estimate, if any did.
    """
    top = _parse(config, _TOP_FIELDS, "")
    _at("threads", _check_d, threads, name="threads")
    reps, seed = top["reps"], top["seed"]
    n, d, draw = _build_sampler(top["dgp"])
    _at("dgp.n", _check_rows, n)

    opts = _parse(top["test"], _TEST_FIELDS, "test")
    alpha, estimator = opts["alpha"], opts["estimator"]
    aux = _RadialLaw.matched_rows(n, d) if opts["aux_rows"] == "fold" else None

    try:
        spec = calibrate_spec(
            default_spec(d, alpha), reps=opts["mc_reps"], seed=opts["mc_seed"], aux_rows=aux
        )
    except ValueError as exc:
        raise UsageError(f"test: {exc}") from None

    ps, crits = _test_columns(spec, opts["extra_ps"])
    flags = np.empty((reps, len(ps) + 1), dtype=bool)

    def fill(rep: int, out: np.ndarray) -> None:
        draw(_block_rng(seed, rep), out)

    deficient = 0
    start = time.perf_counter()
    lanes = _worker_count(reps)
    for lo, hi, x, rank in _replay(reps, n, d, fill, estimator, lanes):
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
        config=copy.deepcopy(config),
        seed=seed,
        test_names=tuple(f"{p:g}" for p in ps) + ("psi",),
        flags=flags,
        wall_clock=elapsed,
    )
