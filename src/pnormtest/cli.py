"""Command-line front end.

Subcommands: ``tabulate`` (moment and critical-value tables as CSV),
``calibrate`` (write a calibrated test specification to JSON), ``test``
(run the combined test on a moment CSV), ``invert`` (grid inversion for
the IV model), ``simulate`` (run an experiment config), ``split-test``
(two-fold select-then-test).

Exit codes: 0 the command ran (test decisions live in the report, not
the exit code), 2 usage or config error, 3 unusable input data.  Data
errors are raised as ``DataError`` where the data is read or checked, in
the library too (a sample or fold of fewer than 4 rows); any other
``ValueError``, such as a parameter the library rejects, exits 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .critical_values import _document, _exponent_label, _formula_kappa
from .dominant_test import DominantTestSpec, calibrate_spec, default_spec
from .gaussian_moments import _check_p, lambda_p, sigma_p
from .harness import DataError, UsageError, read_sample_csv, run_experiment
from .sample_split import split_test
from .test_engine import _ESTIMATORS, _table_rows_mismatch, invert_confidence_set, run_tests

__all__ = ["main"]


def _parse_exponent(token: str) -> float:
    try:
        return _check_p(float(token))
    except ValueError as exc:
        raise UsageError(f"bad exponent {token!r}: {exc}") from None


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}: {exc}") from None


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


def _cmd_tabulate(args) -> None:
    ps = [_parse_exponent(tok) for tok in args.p.split(",") if tok.strip()]
    if not ps:
        raise UsageError("--p: need at least one exponent")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.x is not None:
        if args.d is not None or args.alpha is not None:
            raise UsageError("--x builds moment tables; --d/--alpha build critical values: pick one")
        xs = _parse_float_list(args.x, "--x")
        if any(math.isinf(p) for p in ps):
            raise UsageError("p=inf has no moment table; use --d/--alpha for its critical value")
        writer.writerow(["p", "x", "lambda", "sigma"])
        for p in ps:
            s = sigma_p(p)
            for x in xs:
                writer.writerow([_exponent_label(p), f"{x:g}", repr(lambda_p(p, x)), repr(s)])
        return
    if args.d is None or args.alpha is None:
        raise UsageError("need either --x or both --d and --alpha")
    kappas = [_formula_kappa(p, args.d, args.alpha) for p in ps]
    writer.writerow(["p", "d", "alpha", "kappa"])
    for p, kappa in zip(ps, kappas):
        writer.writerow([_exponent_label(p), args.d, f"{args.alpha:g}", repr(kappa)])


def _spec_from_grid(grid: str, d: int, alpha: float) -> DominantTestSpec:
    if grid == "default":
        return default_spec(d, alpha)
    ps = sorted({_parse_exponent(tok) for tok in grid.split(",") if tok.strip()})
    if not ps:
        raise UsageError("--grid: need 'default' or a comma-separated exponent list")
    share = alpha / len(ps)
    interior = tuple(p for p in ps if 2.0 < p < math.inf)
    return DominantTestSpec(
        d=d,
        alpha_total=alpha,
        alpha_2=share if 2.0 in ps else 0.0,
        alpha_I=share * len(interior),
        alpha_inf=share if math.inf in ps else 0.0,
        p_grid=interior,
        per_p_shares=tuple(share for _ in interior),
    )


def _cmd_calibrate(args) -> None:
    extras = [_parse_exponent(tok) for tok in args.extra_p.split(",") if tok.strip()]
    spec = _spec_from_grid(args.grid, args.d, args.alpha)
    spec = calibrate_spec(
        spec, reps=args.reps, seed=args.seed, aux_rows=args.aux_rows, extra_ps=extras
    )
    Path(args.out).write_text(spec.to_json() + "\n")


def _load_spec(path: str) -> DominantTestSpec:
    try:
        spec = DominantTestSpec.from_json(Path(path).read_text())
    except ValueError as exc:
        raise DataError(f"{path}: not a calibrated test specification: {exc}") from None
    if not spec.calibrated:
        raise DataError(f"{path}: specification has no calibration table; run 'calibrate'")
    return spec


def _cmd_test(args) -> None:
    sample = read_sample_csv(args.data)
    spec = _load_spec(args.table)
    mismatch = _table_rows_mismatch(spec, sample.shape[0] // 2)
    if mismatch is not None:
        raise DataError(f"{args.data}: {mismatch}")
    try:
        report = run_tests(sample, spec, estimator=args.estimator)
    except ValueError as exc:
        raise DataError(f"{args.data}: {exc}") from None
    _emit(_document("test_report", report.to_json_dict()), args.out)


# most candidate points that ``invert --grid`` may name
_MAX_GRID_POINTS = 10**6


def _parse_grid_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--grid: expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(tok) for tok in parts)
    except ValueError as exc:
        raise UsageError(f"--grid: {exc}") from None
    if not (lo <= hi and 0 < step < math.inf):
        raise UsageError(f"--grid: need lo <= hi and a finite step > 0, got {text!r}")
    if not (hi - lo) / step + 1 <= _MAX_GRID_POINTS:  # NaN and infinite bounds fail it
        raise UsageError(f"--grid: {text!r} needs at most {_MAX_GRID_POINTS} points")
    return np.arange(lo, hi + 0.5 * step, step)


def _cmd_invert(args) -> None:
    grid = _parse_grid_range(args.grid)
    sample = read_sample_csv(args.data)
    cols = sample.shape[1]
    if cols < 3:
        raise DataError(f"{args.data}: the iv model needs columns y, Y, z1..zd (>= 3), got {cols}")
    y, endog, z = sample[:, 0], sample[:, 1], sample[:, 2:]

    def model(beta: float) -> np.ndarray:
        return (y - endog * beta)[:, None] * z

    conf = invert_confidence_set(
        model,
        grid,
        _parse_exponent(args.p),
        args.alpha,
        estimator=args.estimator,
        mc_reps=args.mc_reps,
        mc_seed=args.mc_seed,
    )
    for beta in conf.retained:
        print(f"{beta:g}")


def _cmd_simulate(args) -> None:
    try:
        config = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.config}: invalid JSON: {exc}") from None
    report = run_experiment(config)
    _emit(report.to_json_dict(), args.out)


def _cmd_split_test(args) -> None:
    result = split_test(
        read_sample_csv(args.data), args.d, selection=args.select, p=_parse_exponent(args.p),
        frac1=args.frac1, seed=args.seed, alpha=args.alpha, reps=args.reps,
        mc_seed=args.mc_seed, estimator=args.estimator,
    )
    _emit(_document("split_test_report", result.to_json_dict()), args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnormtest",
        description="p-norm tests for many moment equalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tab = sub.add_parser(
        "tabulate", help="print moment or critical-value tables as CSV",
        description="Critical values here are the paper's limit theory: asymptotic formulas, "
        "exact at p=inf.  At d=40, alpha=0.05 a standard Gaussian vector exceeds them with "
        "probability 0.061-0.065 for p in 2..4, 0.033 at p=8, 0.010 at p=12, 0.002 at p=16 and "
        "0.000 at p=32.  'calibrate' makes the Monte-Carlo critical values that 'test' uses.",
    )
    tab.add_argument("--p", required=True, help="comma-separated exponents, e.g. 2,3,inf")
    tab.add_argument("--x", help="comma-separated shifts: emit lambda_p(x) and sigma_p")
    tab.add_argument("--d", type=int, help="dimension for critical values")
    tab.add_argument("--alpha", type=float, help="level for critical values")
    tab.set_defaults(func=_cmd_tabulate)

    cal = sub.add_parser("calibrate", help="calibrate a test specification to JSON")
    cal.add_argument("--d", type=int, required=True)
    cal.add_argument("--alpha", type=float, required=True)
    cal.add_argument("--grid", default="default", help="'default' or exponents like 2,4,inf")
    cal.add_argument("--reps", type=int, default=None, help="Monte-Carlo draws (default: auto)")
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--aux-rows", type=int, default=None,
                     help="finite-sample reference at this many difference pairs, at least d + 2")
    cal.add_argument("--extra-p", default="",
                     help="exponents off the grid: standalone kappas from the same draws")
    cal.add_argument("--out", required=True)
    cal.set_defaults(func=_cmd_calibrate)

    tst = sub.add_parser("test", help="run the combined test on a moment CSV")
    tst.add_argument("--data", required=True, help="CSV of moment evaluations at beta*")
    tst.add_argument("--table", required=True, help="calibrated specification JSON")
    tst.add_argument("--estimator", choices=_ESTIMATORS, default="sample")
    tst.add_argument("--out", help="report JSON path (default: stdout)")
    tst.set_defaults(func=_cmd_test)

    inv = sub.add_parser("invert", help="retain candidate beta values by grid inversion")
    inv.add_argument("--data", required=True, help="IV data CSV: columns y, Y, z1..zd")
    inv.add_argument("--grid", required=True, help="lo:hi:step candidate grid")
    inv.add_argument("--p", default="2")
    inv.add_argument("--alpha", type=float, default=0.05)
    inv.add_argument("--estimator", choices=_ESTIMATORS, default="sample")
    inv.add_argument("--mc-reps", type=int, default=None, help="Monte-Carlo draws (default: auto)")
    inv.add_argument("--mc-seed", type=int, default=0)
    inv.set_defaults(func=_cmd_invert)

    sim = sub.add_parser("simulate", help="run an experiment config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", help="report JSON path (default: stdout)")
    sim.set_defaults(func=_cmd_simulate)

    spl = sub.add_parser("split-test", help="select d moments on fold 1, test them on fold 2")
    spl.add_argument("--data", required=True)
    spl.add_argument("--d", type=int, required=True)
    spl.add_argument("--select", default="top", choices=["top", "greedy"])
    spl.add_argument("--p", default="2", help="exponent driving greedy selection")
    spl.add_argument("--frac1", type=float, default=0.5)
    spl.add_argument("--seed", type=int, default=0)
    spl.add_argument("--alpha", type=float, default=0.05)
    spl.add_argument("--reps", type=int, default=None)
    spl.add_argument("--mc-seed", type=int, default=0)
    spl.add_argument("--estimator", choices=_ESTIMATORS, default="sample")
    spl.add_argument("--out", help="report JSON path (default: stdout)")
    spl.set_defaults(func=_cmd_split_test)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # UsageError, or a parameter the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
