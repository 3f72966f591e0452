"""Reproducible experiment runner behind the command line.

``run_experiment`` takes a JSON-style config (data-generating process,
test options, replication count, master seed), calibrates the combined
test once, then replays independent replications with counter-based
per-replication streams keyed (seed, rep).  Replications run in fixed
chunks of about ``_CHUNK_BYTES`` of sample values: each chunk draws its
replications one stream at a time, stacks them, and whitens and tests the
whole stack in one call of the test engine's kernel (one ``eigh`` per
replication, x = V (w^{-1/2} * (V' H))).  A thread pool maps over chunks,
and each chunk writes its rows of the flag matrix by replication index.
Every replication's statistics are the same bits as when it is tested
alone, so neither the chunk size nor the thread count changes a result.

Reports split into a deterministic ``results`` section, a pure function
of the config, and a ``runtime`` section holding the wall clock.
Replications with a rank-deficient covariance estimate are counted and
reported in one warning per experiment.

CSV helpers live here too: one observation per row, first row a header,
parse failures reported with line and column.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .covariance import MomentSample, _as_sample
from .critical_values import SCHEMA_VERSION
from .dgp import IvConfig, RctConfig, gen_iv, gen_rct
from .dominant_test import calibrate_spec, default_spec
from .test_engine import (  # run_tests stays importable from this module
    _check_table_rows,
    _decide,
    _estimator_name,
    _test_columns,
    _whiten_stack,
    run_tests,
)

__all__ = [
    "UsageError",
    "DataError",
    "read_sample_csv",
    "write_sample_csv",
    "SimulationReport",
    "run_experiment",
]


# Replications per kernel call: about 1 MiB of sample values, at least one.
# Like the calibration block size it is fixed, not tuned per call; results
# do not depend on it.
_CHUNK_BYTES = 1 << 20


class UsageError(ValueError):
    """Bad flags or config: the caller asked for something malformed."""


class DataError(ValueError):
    """Input files that exist but cannot be used as data."""


def write_sample_csv(sample, path) -> None:
    """Write moment rows as CSV with header m1..md; %.17g round-trips."""
    s = _as_sample(sample)
    header = ",".join(f"m{j + 1}" for j in range(s.d))
    np.savetxt(path, s.values, fmt="%.17g", delimiter=",", header=header, comments="")


def read_sample_csv(path) -> MomentSample:
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
        return MomentSample(np.asarray(rows))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


_TOP_KEYS = {"schema_version", "experiment", "reps", "seed", "dgp", "test"}
_TEST_KEYS = {
    "alpha",
    "estimator",
    "trunc_mult",
    "mc_reps",
    "mc_seed",
    "aux_rows",
    "extra_ps",
}


def _need(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise UsageError(f"{path}: missing required field")
    return cfg[key]


def _build_sampler(dgp: dict):
    """Returns (n, d, draw) where draw(rng) yields one MomentSample."""
    kind = _need(dgp, "kind", "dgp.kind")
    if kind == "gaussian":
        n, d = int(_need(dgp, "n", "dgp.n")), int(_need(dgp, "d", "dgp.d"))
        if n < 4 or d < 1:
            raise UsageError(f"dgp: need n >= 4 and d >= 1, got n={n}, d={d}")
        theta = np.asarray(dgp.get("theta", np.zeros(d)), dtype=float)
        if theta.shape != (d,):
            raise UsageError(f"dgp.theta: expected length {d}, got shape {theta.shape}")
        shift = theta / math.sqrt(n)

        def draw(rng):
            # mean theta/sqrt(n) makes sqrt(n) * rowmean exactly N(theta, I)
            return MomentSample(rng.standard_normal((n, d)) + shift)

        return n, d, draw
    if kind == "iv":
        try:
            cfg = IvConfig.from_json_dict(dgp)
        except (ValueError, KeyError) as exc:
            raise UsageError(f"dgp: {exc}") from None
        beta_star = float(dgp.get("beta_star", cfg.beta_true))
        return cfg.n, cfg.d, lambda rng: gen_iv(cfg, beta_star, rng)
    if kind == "rct":
        try:
            cfg = RctConfig.from_json_dict(dgp)
        except (ValueError, KeyError) as exc:
            raise UsageError(f"dgp: {exc}") from None
        beta_star = np.asarray(dgp.get("beta_star", cfg.effect), dtype=float)
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
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "simulation_report",
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
        }


def run_experiment(config: dict, threads: int = 1) -> SimulationReport:
    """Calibrate once, then replay ``reps`` independent replications.

    Deterministic given the config: replication r uses the counter-based
    stream keyed (seed, r), and rows of the flag matrix are placed by
    replication index, so any thread count gives the same results.  Emits
    one ``RuntimeWarning`` naming how many replications had a
    rank-deficient covariance estimate, if any did.
    """
    if not isinstance(config, dict):
        raise UsageError("config: expected a JSON object")
    for key in config:
        if key not in _TOP_KEYS:
            raise UsageError(f"{key}: unknown field")
    if int(config.get("schema_version", SCHEMA_VERSION)) != SCHEMA_VERSION:
        raise UsageError(f"schema_version: expected {SCHEMA_VERSION}")
    if threads < 1:
        raise UsageError(f"threads: must be >= 1, got {threads}")

    reps = int(_need(config, "reps", "reps"))
    if reps < 1:
        raise UsageError(f"reps: must be >= 1, got {reps}")
    seed = int(config.get("seed", 0))
    if seed < 0:
        raise UsageError(f"seed: must be nonnegative, got {seed}")
    n, d, draw = _build_sampler(_need(config, "dgp", "dgp"))

    topts = config.get("test", {})
    if not isinstance(topts, dict):
        raise UsageError("test: expected a JSON object")
    for key in topts:
        if key not in _TEST_KEYS:
            raise UsageError(f"test.{key}: unknown field")
    alpha = float(topts.get("alpha", 0.05))
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"test.alpha: must lie in (0, 1), got {alpha}")
    try:
        estimator = _estimator_name(str(topts.get("estimator", "sample")))
    except ValueError as exc:
        raise UsageError(f"test.estimator: {exc}") from None
    trunc_mult = float(topts.get("trunc_mult", 3.0))
    mc_reps = topts.get("mc_reps")
    mc_reps = None if mc_reps is None else int(mc_reps)
    mc_seed = int(topts.get("mc_seed", 0))
    extra_ps = tuple(
        math.inf if str(p) == "inf" else float(p) for p in topts.get("extra_ps", ())
    )
    aux = topts.get("aux_rows", "fold")
    if aux == "fold":
        # match the pipeline's difference-pair count when it is usable
        aux = n // 2 if n // 2 >= d + 2 else None
    elif aux is not None:
        try:
            aux = int(aux)
        except (TypeError, ValueError):
            raise UsageError(
                f"test.aux_rows: expected an integer, null or 'fold', got {aux!r}"
            ) from None

    try:
        spec = calibrate_spec(default_spec(d, alpha), reps=mc_reps, seed=mc_seed, aux_rows=aux)
    except ValueError as exc:
        raise UsageError(f"test: {exc}") from None

    _check_table_rows(spec, n // 2)
    ps, crits = _test_columns(spec, extra_ps)
    flags = np.empty((reps, len(ps) + 1), dtype=bool)
    per_chunk = max(1, _CHUNK_BYTES // (8 * n * d))
    chunks = range(0, reps, per_chunk)
    workers = min(threads, len(chunks))
    # Each worker's chunk buffer is allocated here, on the calling thread:
    # memory a worker thread allocates and frees stays in its malloc arena.
    buffers = [np.empty((per_chunk, n, d)) for _ in range(workers)]

    def run_chunks(first: int) -> int:
        """Test chunks first, first + W, ...; count rank-deficient replications."""
        deficient = 0
        for lo in chunks[first::workers]:
            hi = min(lo + per_chunk, reps)
            values = buffers[first][: hi - lo]
            for i, rep in enumerate(range(lo, hi)):
                rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, rep))))
                values[i] = draw(rng).values
            x, _, rank, _, _ = _whiten_stack(values, estimator, trunc_mult)
            _, reject, _, psi = _decide(x, spec, ps, crits)
            flags[lo:hi, :-1] = reject
            flags[lo:hi, -1] = psi
            deficient += int(np.count_nonzero(rank < d))
        return deficient

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        deficient = sum(pool.map(run_chunks, range(workers)))
    elapsed = time.perf_counter() - start
    if deficient:
        warnings.warn(
            f"{deficient} of {reps} replications had a rank-deficient covariance "
            f"estimate (numerical rank < d = {d}); singular directions were projected out",
            RuntimeWarning,
            stacklevel=2,
        )

    return SimulationReport(
        experiment=str(config.get("experiment", "unnamed")),
        config=config,
        seed=seed,
        test_names=tuple(str(p) for p in ps) + ("psi",),
        flags=flags,
        wall_clock=elapsed,
    )
