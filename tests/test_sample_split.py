import math
import tracemalloc

import numpy as np
import pytest

from pnormtest import covariance, sample_split, test_engine
from pnormtest.dominant_test import calibrate_spec, default_spec
from pnormtest.sample_split import (
    SplitResult,
    select_greedy,
    select_top_scaled,
    split,
    split_test,
)
from pnormtest.test_engine import run_tests


class TestSplit:
    def test_even_split_partitions_the_sample(self):
        n1, n2 = split(10, 0.5, seed=0)
        assert n1.size == 5 and n2.size == 5
        assert np.intersect1d(n1, n2).size == 0
        assert np.array_equal(np.sort(np.concatenate([n1, n2])), np.arange(10))

    def test_deterministic_given_seed(self):
        a = split(100, 0.5, seed=7)
        b = split(100, 0.5, seed=7)
        c = split(100, 0.5, seed=8)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_fraction_sets_first_fold_size(self):
        n1, n2 = split(100, 0.3, seed=1)
        assert n1.size == 30 and n2.size == 70

    def test_folds_come_back_sorted(self):
        for fold in split(50, 0.4, seed=3):
            assert np.array_equal(fold, np.sort(fold))

    def test_rejects_too_small_folds(self):
        with pytest.raises(ValueError, match="too small"):
            split(7, 0.5, seed=0)
        with pytest.raises(ValueError, match="too small"):
            split(100, 0.01, seed=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="frac1"):
            split(10, 0.0, seed=0)
        with pytest.raises(ValueError, match="frac1"):
            split(10, 1.0, seed=0)


def shifted_sample(rng, n, big_d, shifts):
    values = rng.standard_normal((n, big_d))
    for j, s in shifts.items():
        values[:, j] += s
    return values


class TestSelectTopScaled:
    def test_finds_a_ten_se_shift(self):
        # one coordinate shifted by 10 standard errors is found essentially
        # always at n1 = 500
        hits = 0
        rng = np.random.default_rng(42)
        for _ in range(1000):
            s = shifted_sample(rng, 500, 30, {17: 10.0 / math.sqrt(500)})
            hits += select_top_scaled(s, 1)[0] == 17
        assert hits >= 990

    def test_d_equal_to_total_selects_everything(self):
        s = np.random.default_rng(0).standard_normal((40, 6))
        assert np.array_equal(select_top_scaled(s, 6), np.arange(6))

    def test_exact_tie_goes_to_lower_index(self):
        rng = np.random.default_rng(5)
        strong = rng.standard_normal(60) + 2.0
        weak = rng.standard_normal(60)
        s = np.column_stack([strong, weak, strong])
        assert select_top_scaled(s, 1)[0] == 0

    def test_zero_variance_scores_zero(self):
        rng = np.random.default_rng(9)
        const = np.full(80, 7.0)
        s = np.column_stack([const, rng.standard_normal(80) + 0.3, rng.standard_normal(80)])
        assert 0 not in select_top_scaled(s, 2)
        assert 0 in select_top_scaled(s, 3)  # forced only when d = D

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((60, 8)) + rng.uniform(-0.5, 0.5, size=8)
        pi = rng.permutation(8)
        base = set(select_top_scaled(values, 3).tolist())
        permuted = select_top_scaled(values[:, pi], 3)
        assert set(pi[permuted].tolist()) == base

    def test_rejects_bad_d(self):
        s = np.zeros((10, 3))
        with pytest.raises(ValueError, match="d must be >= 1"):
            select_top_scaled(s, 0)
        with pytest.raises(ValueError, match="1 <= d"):
            select_top_scaled(s, 4)


class TestSelectGreedy:
    @pytest.mark.parametrize("p", [2.0, 3.5, math.inf])
    def test_first_pick_matches_top_scaled(self, p):
        # on a single coordinate every p-norm is the same studentized value
        rng = np.random.default_rng(21)
        s = shifted_sample(rng, 120, 9, {4: 0.6})
        assert select_greedy(s, 1, p)[0] == select_top_scaled(s, 1)[0]

    def test_recovers_two_orthogonal_signals(self):
        rng = np.random.default_rng(33)
        hits = 0
        shift = 8.0 / math.sqrt(400)
        for _ in range(500):
            s = shifted_sample(rng, 400, 12, {3: shift, 7: shift})
            hits += np.array_equal(select_greedy(s, 2, 2.0), [3, 7])
        assert hits >= 475

    @pytest.mark.parametrize("p", [2.0, 3.0, 3.5, math.inf])
    def test_matches_brute_force_forward_selection(self, p):
        # independent check of the Schur recursion (p = 2) and the stacked
        # whitening step (other p): redo each step with an explicit
        # eigendecomposition of the restricted covariance per candidate.
        # On this draw the four exponents pick four different sets:
        # (0, 1, 5), (1, 2, 5), (1, 5, 6) and (1, 2, 6).
        rng = np.random.default_rng(27)
        s = shifted_sample(rng, 150, 7, {1: 0.4, 5: 0.3})
        h = math.sqrt(s.shape[0]) * s.mean(axis=0)
        v = s[: 2 * (s.shape[0] // 2)]
        r = (v[1::2] - v[0::2]) / math.sqrt(2.0)
        chosen: list[int] = []
        for _ in range(3):
            best, best_stat = -1, -np.inf
            for j in range(7):
                if j in chosen:
                    continue
                cols = chosen + [j]
                sigma = r[:, cols].T @ r[:, cols] / r.shape[0]
                w, q = np.linalg.eigh(sigma)
                z = q @ ((q.T @ h[cols]) / np.sqrt(w))
                stat = float(np.linalg.norm(z, ord=p))
                if stat > best_stat:
                    best, best_stat = j, stat
            chosen.append(best)
        assert np.array_equal(select_greedy(s, 3, p), np.sort(chosen))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_duplicate_column_skipped_with_warning(self, p):
        rng = np.random.default_rng(8)
        lead = rng.standard_normal(100) + 1.0
        other = rng.standard_normal(100) + 0.5
        s = np.column_stack([lead, lead, other])
        with pytest.warns(RuntimeWarning, match="degenerate"):
            chosen = select_greedy(s, 2, p)
        assert np.array_equal(chosen, [0, 2])

    def test_exhausted_candidates_raise(self):
        col = np.random.default_rng(2).standard_normal(50) + 1.0
        s = np.column_stack([col, col])
        with pytest.warns(RuntimeWarning, match="degenerate"):
            with pytest.raises(RuntimeError, match="no admissible"):
                select_greedy(s, 2, 2.0)

    @pytest.mark.parametrize("select", [select_top_scaled, select_greedy])
    def test_rejects_fewer_than_four_rows(self, select):
        s = np.random.default_rng(0).standard_normal((3, 3))
        with pytest.raises(ValueError, match="n >= 4"):
            select(s, 1)

    def test_rejects_bad_exponent_and_d(self):
        s = np.random.default_rng(0).standard_normal((20, 3))
        with pytest.raises(ValueError, match="exponent"):
            select_greedy(s, 1, 1.5)
        with pytest.raises(ValueError, match="1 <= d"):
            select_greedy(s, 5, 2.0)


class TestGreedyWarning:
    """A degenerate greedy step warns at the line that called the library."""

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("entry", ["select_greedy", "split_test"])
    def test_warning_names_the_caller(self, entry, p):
        rng = np.random.default_rng(8)
        lead = rng.standard_normal(200) + 1.0
        values = np.column_stack([lead, lead, rng.standard_normal((200, 2)) + 0.5])
        spec = calibrate_spec(default_spec(2, 0.05), reps=20_000, seed=2, aux_rows=50)
        calls = {
            "select_greedy": lambda: select_greedy(values, 2, p),
            "split_test": lambda: split_test(values, 2, selection="greedy", p=p, spec=spec),
        }
        with pytest.warns(RuntimeWarning, match="degenerate") as rec:
            calls[entry]()
        assert [w.filename for w in rec if "degenerate" in str(w.message)] == [__file__]


@pytest.fixture(scope="module")
def spec4():
    return calibrate_spec(default_spec(4, 0.05), reps=50_000, seed=2)


class TestSplitTest:
    def test_identity_selection_reduces_to_second_fold_test(self):
        # "top" with d = D selects every column
        spec6 = calibrate_spec(default_spec(6, 0.05), reps=50_000, seed=3)
        values = np.random.default_rng(17).standard_normal((200, 6))
        result = split_test(values, 6, selection="top", spec=spec6, seed=4)
        _, idx2 = split(200, 0.5, seed=4)
        direct = run_tests(values[idx2], spec6)
        assert result.selected == (0, 1, 2, 3, 4, 5)
        for rec, ref in zip(result.report.per_p, direct.per_p):
            assert rec.statistic == ref.statistic and rec.reject == ref.reject
        assert result.report.dominant.max_ratio == direct.dominant.max_ratio

    def test_selects_and_rejects_a_planted_violation(self, spec4):
        rng = np.random.default_rng(55)
        s = shifted_sample(rng, 600, 40, {23: 0.8})
        result = split_test(s, 4, selection="top", spec=spec4, seed=1)
        assert isinstance(result, SplitResult)
        assert 23 in result.selected
        assert result.report.dominant.reject
        assert (result.n1, result.n2) == (300, 300)
        assert result.report.d == 4

    def test_greedy_route_runs(self, spec4):
        rng = np.random.default_rng(56)
        s = shifted_sample(rng, 400, 10, {2: 0.7})
        result = split_test(s, 4, selection="greedy", p=3.0, spec=spec4, seed=1)
        assert 2 in result.selected

    def test_warns_when_d_outgrows_second_fold(self, spec4):
        s = np.random.default_rng(3).standard_normal((40, 5))
        with pytest.warns(UserWarning, match=r"n2\^\(2/5\)"):
            split_test(s, 4, selection="top", spec=spec4, seed=0)

    def test_json_dict_carries_selection_and_report(self, spec4):
        s = np.random.default_rng(4).standard_normal((200, 8))
        doc = split_test(s, 4, selection="top", spec=spec4, seed=2).to_json_dict()
        assert sorted(doc) == ["n1", "n2", "report", "selected"]
        assert len(doc["selected"]) == 4

    def test_rejects_bad_explicit_selection(self, spec4):
        # selection is by name only, never by an index list
        s = np.random.default_rng(5).standard_normal((200, 8))
        for selection in (range(4), [0, 1, 2, 3], (0, 1, 2, 9), "lasso"):
            with pytest.raises(ValueError, match="selection must be 'top' or 'greedy'"):
                split_test(s, 4, selection=selection, spec=spec4)

    @pytest.mark.parametrize("ready_spec", [False, True])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"estimator": "bogus"}, "unknown estimator 'bogus'"),
            ({"reps": 0}, "reps must be >= 1"),
            ({"reps": 2.5}, "reps must be >= 1"),
            ({"p": 1.5}, "exponent must satisfy p >= 2"),
            ({"alpha": 1.5}, r"alpha must lie in \(0, 1\)"),
        ],
    )
    def test_inputs_checked_before_any_fold_work(
        self, monkeypatch, spec4, ready_spec, bad, message
    ):
        # refused at entry, also when a ready spec leaves reps unused
        def reached(*args):
            raise AssertionError("fold 1 was read before the inputs were checked")

        monkeypatch.setattr(sample_split, "_fold_moments", reached)
        s = np.random.default_rng(5).standard_normal((200, 8))
        with pytest.raises(ValueError, match=message):
            split_test(s, 4, selection="greedy", spec=spec4 if ready_spec else None, **bad)

    @pytest.mark.parametrize(
        "d, selection, p, error, message",
        [
            (9, "top", 2.0, ValueError, r"need 1 <= d <= 8, got d=9"),
            (4, "lasso", 2.0, ValueError, "selection must be 'top' or 'greedy'"),
            (4, "top", "x", TypeError, "exponent must be a real number"),
        ],
    )
    def test_d_selection_and_exponent_checked_before_any_fold_work(
        self, monkeypatch, spec4, d, selection, p, error, message
    ):
        # p is checked whatever the selection reads
        def reached(*args):
            raise AssertionError("fold 1 was read before the inputs were checked")

        monkeypatch.setattr(sample_split, "_fold_moments", reached)
        s = np.random.default_rng(5).standard_normal((200, 8))
        with pytest.raises(error, match=message):
            split_test(s, d, selection=selection, p=p, spec=spec4)

    def test_default_spec_is_calibrated_at_d(self):
        values = np.random.default_rng(6).standard_normal((120, 12))
        result = split_test(values, 2, selection="top", reps=20_000, seed=3)
        assert result.report.d == 2
        assert [rec.p for rec in result.report.per_p] == [2.0, 3.0, math.inf]


def test_validates_each_sample_once(monkeypatch, spec4):
    # covariance._checked is the one validator: run_tests on an array calls
    # it once, and split_test calls it once, for the caller's array; fold 2
    # goes on as an array it has already validated
    calls = []
    original = covariance._checked

    def counted(s):
        calls.append(s)
        return original(s)

    for module in (covariance, test_engine, sample_split):
        monkeypatch.setattr(module, "_checked", counted)
    values = np.random.default_rng(12).standard_normal((200, 30))
    for sample in (values[:, :4], np.ascontiguousarray(values[:, :4])):
        calls.clear()
        run_tests(sample, spec4)
        assert len(calls) == 1 and calls[0] is sample
    calls.clear()
    split_test(values, 4, selection="greedy", p=2.0, spec=spec4, seed=3)
    assert len(calls) == 1 and calls[0] is values


def test_mismatched_table_warning_names_the_caller():
    # fold 2 of 200 rows has 50 difference pairs, the table was drawn for 30
    spec = calibrate_spec(default_spec(4, 0.05), reps=50_000, seed=2, aux_rows=30)
    values = np.random.default_rng(14).standard_normal((200, 10))
    with pytest.warns(RuntimeWarning, match=r"aux_rows=30 .* has 50") as rec:
        split_test(values, 4, spec=spec, seed=3)
    assert rec[0].filename == __file__


def test_split_test_does_not_copy_its_input(spec4):
    # a C-ordered float input is validated in place and fold 1 is read
    # block by block: beyond the input, the peak is fold 1's difference-pair
    # rows (a quarter of the input here) and one small buffer
    values = np.random.default_rng(13).standard_normal((2000, 2000))
    tracemalloc.start()
    try:
        split_test(values, 4, selection="greedy", p=2.0, spec=spec4, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * values.nbytes


# _BLOCK_BYTES = 1 reads 2-row blocks; 1 << 62 reads any fold in one block
BLOCK_SIZES = [1, sample_split._BLOCK_BYTES, 1 << 62]


class TestBlockedFoldMoments:
    # _fold_moments streams rows through a buffer; its results must be the
    # whole-array formulas' bits at any block size

    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    @pytest.mark.parametrize("big_d", [1, 2, 12, 5000])
    @pytest.mark.parametrize("n", [9, 75])
    def test_equal_the_whole_fold_formulas(self, monkeypatch, block_bytes, big_d, n):
        monkeypatch.setattr(sample_split, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(big_d * n)
        # wide-ranging magnitudes, so any change of summation order shows
        values = rng.standard_normal((n, big_d)) * np.exp(3.0 * rng.standard_normal((n, big_d)))
        idx1, _ = split(n, 0.5, seed=1)  # 5 (odd) and 38 rows
        for idx, fold in ((idx1, values[idx1]), (None, values)):
            h, r, pair_var = sample_split._fold_moments(values, idx)
            n1 = fold.shape[0]
            assert np.array_equal(h, math.sqrt(n1) * fold.mean(axis=0))
            assert np.array_equal(r, covariance._pair_rows(fold))
            assert np.array_equal(pair_var, np.mean(r * r, axis=0))

    @pytest.mark.parametrize("select", [select_top_scaled, select_greedy])
    def test_selectors_reject_a_fold_too_small_for_pairs(self, select):
        with pytest.raises(ValueError, match="difference pairs need n >= 4 rows, got 3"):
            select(np.random.default_rng(19).standard_normal((3, 5)), 1)

    @pytest.mark.parametrize("selection", ["top", "greedy"])
    def test_split_test_does_not_depend_on_the_block_size(
        self, monkeypatch, spec4, selection
    ):
        values = np.random.default_rng(18).standard_normal((301, 40))
        values[:, 7] += 0.3
        docs = []
        for block_bytes in BLOCK_SIZES:
            monkeypatch.setattr(sample_split, "_BLOCK_BYTES", block_bytes)
            docs.append(split_test(values, 4, selection=selection, spec=spec4).to_json_dict())
        assert docs[0] == docs[1] == docs[2]
