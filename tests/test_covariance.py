import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pnormtest import covariance, harness
from pnormtest.covariance import (
    MomentSample,
    _check_rows,
    _checked,
    _kurtosis,
    difference_pairs,
    kurtosis_diagnostic,
    sample_cov,
    truncated_cov,
)
from pnormtest.critical_values import _RadialLaw, _block_rng
from pnormtest.dominant_test import calibrate_spec, default_spec
from pnormtest.harness import DataError, UsageError, run_experiment
from pnormtest.sample_split import select_greedy, select_top_scaled, split, split_test
from pnormtest.test_engine import invert_confidence_set, prepare_standardized, run_tests

SQ2 = np.sqrt(2.0)


class TestMomentSample:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MomentSample(np.array([[1.0, np.inf]]))

    def test_single_row_accepted(self):
        s = MomentSample(np.array([3.0]))
        assert (s.n, s.d) == (1, 1)

    def test_values_read_only(self):
        s = MomentSample(np.ones((4, 2)))
        with pytest.raises(ValueError):
            s.values[0, 0] = 2.0


class TestDifferencePairs:
    def test_worked_example(self):
        s = [[1, 0], [3, 2], [5, 5], [5, 1]]
        out = difference_pairs(s)
        assert_allclose(out, [[SQ2, SQ2], [0.0, -2 * SQ2]], atol=1e-14)

    def test_constant_sample_gives_zero_rows(self):
        s = np.tile([2.0, -1.0], (6, 1))
        assert_allclose(difference_pairs(s), np.zeros((3, 2)))

    def test_odd_trailing_row_dropped(self):
        s = np.arange(10.0).reshape(5, 2)
        assert difference_pairs(s).shape[0] == 2

    def test_n_below_four_rejected(self):
        with pytest.raises(ValueError):
            difference_pairs(np.ones((3, 2)))

    def test_mean_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((20_000, 5))
        aux = difference_pairs(s)
        maxdiag = sample_cov(aux).entries.diagonal().max()
        bound = 5 * np.sqrt(maxdiag / aux.shape[0])
        assert np.max(np.abs(aux.mean(axis=0))) <= bound


class TestSampleCov:
    def test_single_row(self):
        out = sample_cov([[2.0, 0.0]])
        assert_allclose(out.entries, [[4.0, 0.0], [0.0, 0.0]])

    def test_two_rows(self):
        out = sample_cov([[1.0, 1.0], [-1.0, -1.0]])
        assert_allclose(out.entries, [[1.0, 1.0], [1.0, 1.0]])

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(1)
        out = sample_cov(rng.standard_normal((100_000, 3)))
        assert np.max(np.abs(out.entries - np.eye(3))) <= 0.05

    def test_psd(self):
        rng = np.random.default_rng(2)
        out = sample_cov(rng.standard_normal((30, 8)))
        w = np.linalg.eigvalsh(out.entries)
        assert w[0] >= -1e-10 * max(w[-1], 1.0)


class TestTruncatedCov:
    def test_inactive_for_large_multiplier(self, monkeypatch):
        monkeypatch.setattr(covariance, "_TRUNC_MULT", 10.0)
        rng = np.random.default_rng(3)
        s = rng.standard_normal((500, 6))
        assert_allclose(
            truncated_cov(s).entries, sample_cov(s).entries, atol=1e-12
        )

    def test_outlier_row_is_controlled(self):
        rng = np.random.default_rng(4)
        clean = rng.standard_normal((1000, 5))
        dirty = clean.copy()
        dirty[137] *= 1e6
        clean_norm = np.linalg.norm(truncated_cov(clean).entries, 2)
        dirty_norm = np.linalg.norm(truncated_cov(dirty).entries, 2)
        assert dirty_norm <= 10 * clean_norm

    def test_identical_rows_rank_one_psd(self, monkeypatch):
        monkeypatch.setattr(covariance, "_TRUNC_MULT", 0.5)
        s = np.tile([1.0, 2.0], (8, 1))
        out = truncated_cov(s)
        w = np.linalg.eigvalsh(out.entries)
        assert w[0] >= -1e-12
        assert np.linalg.matrix_rank(out.entries) == 1

    def test_desk_scale_consistency_both_estimators(self):
        # i.i.d. N(0, Sigma0) rows, d=10, n=20000: within 0.15 ||Sigma0||
        rng = np.random.default_rng(5)
        root = rng.standard_normal((10, 10)) / np.sqrt(10)
        sigma0 = root @ root.T + 0.5 * np.eye(10)
        rows = rng.standard_normal((20_000, 10)) @ np.linalg.cholesky(sigma0).T
        aux = difference_pairs(rows)
        bound = 0.15 * np.linalg.norm(sigma0, 2)
        for est in (sample_cov, truncated_cov):
            err = np.linalg.norm(est(aux).entries - sigma0, 2)
            assert err <= bound, est.__name__


class TestKurtosisDiagnostic:
    def test_gaussian_value(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal((50_000, 5))
        assert kurtosis_diagnostic(s) == pytest.approx(3.0**0.25, abs=0.1)

    def test_constant_sample_errors(self):
        with pytest.raises(ValueError, match="zero variance"):
            kurtosis_diagnostic(np.ones((10, 3)))

    def test_heavy_tails_exceed_gaussian(self):
        rng = np.random.default_rng(7)
        s = rng.standard_t(5, size=(10_000, 4))
        assert _kurtosis(s, 64, seed=1) > 3.0**0.25

    @staticmethod
    def power_formula(values, directions, seed):
        # the diagnostic as first written, with the fourth moment as proj**4
        centered = values - values.mean(axis=0)
        t = np.random.default_rng(seed).standard_normal((values.shape[1], directions))
        t /= np.linalg.norm(t, axis=0)
        proj = centered @ t
        second = np.mean(proj**2, axis=0)
        fourth = np.mean(proj**4, axis=0)
        return float(np.max(fourth**0.25 / np.sqrt(second)))

    def test_matches_power_formula_on_mostly_negative_projections(self):
        # rows spread along the diagnostic's own direction by a centred
        # exponential: about 63% of the projections are negative
        t = np.random.default_rng(3).standard_normal((5, 1))
        t /= np.linalg.norm(t)
        e = np.random.default_rng(8).exponential(size=(4000, 1))
        values = (e - e.mean()) @ t.T
        proj = (values - values.mean(axis=0)) @ t
        assert np.mean(proj < 0) > 0.6
        want = self.power_formula(values, 1, 3)
        assert _kurtosis(values, 1, 3) == pytest.approx(want, rel=1e-12)

    def test_matches_power_formula_on_heavy_tails(self):
        values = np.random.default_rng(9).standard_t(4, size=(3000, 7)) - 0.5
        want = self.power_formula(values, 64, 0)
        assert kurtosis_diagnostic(values) == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module")
def spec4():
    return calibrate_spec(default_spec(4, 0.05), reps=20_000, seed=2)


# every entry point that validates its input in place instead of copying it,
# each reduced to comparable plain values
ENTRY_POINTS = {
    "run_tests": lambda v, spec: run_tests(v, spec).to_json_dict(),
    "split_test": lambda v, spec: split_test(
        v, 4, selection="greedy", spec=spec, seed=1
    ).to_json_dict(),
    "select_top_scaled": lambda v, spec: select_top_scaled(v, 3).tolist(),
    "select_greedy": lambda v, spec: select_greedy(v, 3, p=3.0).tolist(),
    "kurtosis_diagnostic": lambda v, spec: kurtosis_diagnostic(v),
    "sample_cov": lambda v, spec: sample_cov(v).entries.tolist(),
    "truncated_cov": lambda v, spec: truncated_cov(v).entries.tolist(),
    "prepare_standardized": lambda v, spec: prepare_standardized(v)[0].tolist(),
    "difference_pairs": lambda v, spec: difference_pairs(v).tolist(),
}

BAD_INPUTS = {
    "nan": np.where(np.eye(40, 4) > 0, np.nan, 1.0),
    "inf": np.where(np.eye(40, 4) > 0, -np.inf, 1.0),
    "3-D": np.ones((2, 40, 4)),
    "empty": np.empty((0, 4)),
}


class TestCheckedBoundary:
    @pytest.mark.parametrize("bad", BAD_INPUTS, ids=str)
    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=str)
    def test_rejects_as_moment_sample_does(self, entry, bad, spec4):
        with pytest.raises(ValueError) as built:
            MomentSample(BAD_INPUTS[bad])
        with pytest.raises(ValueError, match=f"^{re.escape(str(built.value))}$"):
            ENTRY_POINTS[entry](BAD_INPUTS[bad], spec4)

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=str)
    def test_layouts_and_dtypes_give_the_same_bits(self, entry, spec4):
        ints = np.random.default_rng(10).integers(-9, 10, size=(120, 4))
        ints[:, 1] += 2
        floats = ints.astype(float)
        want = ENTRY_POINTS[entry](floats.copy(), spec4)
        for layout in (np.asfortranarray(floats), ints, np.asfortranarray(ints)):
            before = layout.copy()
            assert ENTRY_POINTS[entry](layout, spec4) == want
            assert np.array_equal(layout, before) and layout.dtype == before.dtype
            assert layout.flags.writeable

    def test_c_ordered_float_input_stays_writeable_and_unchanged(self, spec4):
        values = np.random.default_rng(11).standard_normal((120, 4))
        before = values.copy()
        for entry in ENTRY_POINTS.values():
            entry(values, spec4)
        assert np.array_equal(values, before)
        assert values.flags.writeable
        values[0, 0] = 1.0


def truncated_moment(pairs, mult):
    # the truncated second moment at ``mult`` median row norms, from numpy alone
    norms = np.linalg.norm(pairs, axis=1)
    rows = pairs * np.minimum(1.0, mult * np.median(norms) / norms)[:, None]
    return rows.T @ rows / len(rows)


def truncated_stats(values, mult, ps):
    # S_p of an n x d sample whitened by its debiased truncated estimate
    n, d = values.shape
    sigma = truncated_moment(difference_pairs(values), mult)
    if _RadialLaw.matched_rows(n, d) is not None:
        sigma *= _RadialLaw(d, n // 2).debias
    w, v = np.linalg.eigh(sigma)
    x = v @ ((v.T @ (np.sqrt(n) * values.mean(axis=0))) / np.sqrt(w))
    return [np.linalg.norm(x, p) for p in ps]


# every entry point that once took a truncation multiplier, passed level t
TRUNC_MULT_ENTRY_POINTS = {
    "truncated_cov": lambda t, v, spec: truncated_cov(v, trunc_mult=t),
    "prepare_standardized": lambda t, v, spec: prepare_standardized(v, "truncated", trunc_mult=t),
    "run_tests": lambda t, v, spec: run_tests(v, spec, "truncated", trunc_mult=t),
}


class TestOneTruncationLevel:
    """Every entry point truncates at ``covariance._TRUNC_MULT``, read when it runs."""

    def test_every_entry_point_follows_the_patched_level(self, monkeypatch, spec4,
                                                         fixed_critical):
        monkeypatch.setattr(covariance, "_TRUNC_MULT", 1.2)

        def check(got, sample, ps):
            # the statistics of the patched level, not of the default 3
            assert_allclose(got, truncated_stats(sample, 1.2, ps), rtol=1e-9)
            assert not np.allclose(got, truncated_stats(sample, 3.0, ps), rtol=1e-6)

        rng = np.random.default_rng(21)
        values = rng.standard_t(3.0, size=(120, 4))
        aux = difference_pairs(values)
        assert_allclose(truncated_cov(aux).entries, truncated_moment(aux, 1.2), rtol=1e-12)
        assert not np.allclose(truncated_cov(aux).entries, truncated_moment(aux, 3.0))

        report = run_tests(values, spec4, "truncated")
        check([r.statistic for r in report.per_p], values, [r.p for r in report.per_p])

        wide = rng.standard_t(3.0, size=(240, 10))
        result = split_test(wide, 4, spec=spec4, seed=1, estimator="truncated")
        fold2 = wide[np.ix_(split(240, 0.5, seed=1)[1], result.selected)]
        check([r.statistic for r in result.report.per_p], fold2, [r.p for r in result.report.per_p])

        grid = [0.0, 0.5, 1.0]
        conf = invert_confidence_set(
            lambda beta: values - beta, grid, 2.0, 0.05, "truncated"
        )
        for beta, entry in zip(grid, conf.entries):
            check([entry.statistic], values - beta, [2.0])

        # the replay's whitened replications, as its decisions read them
        seen, decide = [], harness._decide
        monkeypatch.setattr(harness, "_decide", lambda x, *a: seen.append(x) or decide(x, *a))
        dgp = {"kind": "gaussian", "n": 60, "d": 4}
        run_experiment({"reps": 3, "seed": 4, "dgp": dgp,
                        "test": {"estimator": "truncated", "mc_reps": 20_000}})
        n, d, draw = harness._build_sampler(dgp)
        for rep, x in enumerate(np.concatenate(seen)):
            sample = np.empty((n, d))
            draw(_block_rng(4, rep), sample)
            check([np.linalg.norm(x)], sample, [2.0])

    @pytest.mark.parametrize("level", [3.0, 1.2, 0.0], ids=repr)
    @pytest.mark.parametrize("entry", TRUNC_MULT_ENTRY_POINTS, ids=str)
    def test_multiplier_arguments_fail_loudly(self, entry, level, spec4):
        # no level is accepted, not even the one every entry point uses
        values = np.random.default_rng(12).standard_normal((40, 4))
        with pytest.raises(TypeError, match="unexpected keyword argument 'trunc_mult'"):
            TRUNC_MULT_ENTRY_POINTS[entry](level, values, spec4)

    @pytest.mark.parametrize("estimator", ["sample", "truncated"])
    def test_trunc_mult_config_field_is_unknown(self, estimator):
        config = {"reps": 2, "dgp": {"kind": "gaussian", "n": 40, "d": 3},
                  "test": {"estimator": estimator, "trunc_mult": 2}}
        with pytest.raises(UsageError, match=r"^test\.trunc_mult: unknown field$"):
            run_experiment(config)


# every entry point that forms difference pairs, given a 3-row sample v:
# (its check's arguments, the field path before the message, call)
THREE_ROWS_SPLIT = (1, "; folds of sizes 2 and 1 are too small")
ROWS_ENTRY_POINTS = {
    "run_tests": ((3,), "", lambda v, spec: run_tests(v, spec)),
    "split_test": (THREE_ROWS_SPLIT, "", lambda v, spec: split_test(v, 4, spec=spec)),
    "select_top_scaled": ((3,), "", lambda v, spec: select_top_scaled(v, 1)),
    "select_greedy": ((3,), "", lambda v, spec: select_greedy(v, 1)),
    "split": (THREE_ROWS_SPLIT, "", lambda v, spec: split(len(v))),
    "invert_confidence_set": ((3,), "", lambda v, spec: invert_confidence_set(
        lambda beta: v, [0.0], 2, 0.05, mc_reps=2000
    )),
    "run_experiment": ((3,), "dgp.n: ", lambda v, spec: run_experiment(
        {"reps": 1, "dgp": {"kind": "gaussian", "n": len(v), "d": v.shape[1]}}
    )),
}


class TestRowsBoundary:
    @pytest.mark.parametrize("entry", ROWS_ENTRY_POINTS, ids=str)
    def test_rejects_as_check_rows_does(self, entry, spec4):
        args, path, call = ROWS_ENTRY_POINTS[entry]
        with pytest.raises(ValueError) as want:
            _check_rows(*args)
        message = f"{path}{want.value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as got:
            call(np.random.default_rng(13).standard_normal((3, 4)), spec4)
        # a DataError (exit 3 on the command line), or a config's UsageError
        assert got.type is (UsageError if path else want.type) and want.type is DataError


class TestCheckedFiniteness:
    # _checked proves finiteness from the sum of all entries and checks entry
    # by entry only when that sum is not finite

    def test_finite_entries_whose_sum_overflows_are_accepted_quietly(self):
        values = np.random.default_rng(15).standard_normal((40, 3))
        values[:, 1] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _checked(values) is values
            pairs = difference_pairs(values)
        assert np.array_equal(pairs, (values[1::2] - values[::2]) / SQ2)
        assert np.all(pairs[:, 1] == 0.0)

    @pytest.mark.parametrize(
        "entries",
        [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
        ids=["nan", "+inf", "-inf", "+inf and -inf"],
    )
    def test_rejects_each_kind_of_non_finite_entry(self, entries):
        values = np.ones((40, 3))
        values[3, : len(entries)] = entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^moment sample entries must be finite$"):
                _checked(values)

    def test_allocates_nothing_of_the_input_size(self):
        values = np.random.default_rng(16).standard_normal((2000, 2000))
        tracemalloc.start()
        try:
            _checked(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
