"""Tests for critical value formulas and Monte-Carlo calibration.

Closed-form routes are checked against independent oracles: scipy
quantiles of chi-square and F for the Monte-Carlo reference laws, and a
brentq root of (2 Phi(t) - 1)^d = 1 - alpha for the exact sup-norm value.
"""

import dataclasses
import math
import os
import re
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy.special import ndtr

from pnormtest import critical_values
from pnormtest.critical_values import (
    _BLOCK,
    CriticalValueTable,
    _batch_pnorms,
    _block_rng,
    _check_alpha,
    _check_d,
    _check_shares,
    _check_vector,
    _order_index,
    _TopRows,
    _worker_count,
    calibrate_joint,
    kappa_inf_asymptotic,
    kappa_inf_exact,
    kappa_p_asymptotic,
    mc_pnorm_quantile,
)
from pnormtest.consistency_oracle import (
    finite_p_criterion,
    lambda_criterion,
    local_power,
    make_alternative,
    sup_criterion,
    sup_threshold,
)
from pnormtest.dgp import IvConfig, RctConfig, gen_rct
from pnormtest.dominant_test import (
    DominantTestSpec,
    calibrate_spec,
    default_spec,
    power_loss_bound,
)
from pnormtest.sample_split import select_greedy, select_top_scaled, split, split_test
from pnormtest.test_engine import invert_confidence_set, p_norm_stat, standardize, theta_oracle

DATA = Path(__file__).parent / "data"


class TestKappaAsymptotic:
    def test_p2_d100_value(self):
        # bracket = ppf(0.95) * sqrt(100) * sqrt(2) + 100, assembled here
        # from scipy directly rather than through the module's lambda/sigma.
        oracle = math.sqrt(stats.norm.ppf(0.95) * 10.0 * math.sqrt(2.0) + 100.0)
        got = kappa_p_asymptotic(2, 100, 0.05)
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(11.10233, abs=1e-4)

    def test_p4_d100_value(self):
        oracle = (stats.norm.ppf(0.95) * 10.0 * math.sqrt(96.0) + 300.0) ** 0.25
        got = kappa_p_asymptotic(4, 100, 0.05)
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(4.63408, abs=1e-4)

    def test_close_to_exact_at_p2(self):
        # the p = 2 formula is accurate already at d = 100; exact law of
        # ||Z||_2^2 is chi-square so the quantile needs no Monte Carlo
        exact = math.sqrt(stats.chi2.ppf(0.95, 100))
        assert abs(kappa_p_asymptotic(2, 100, 0.05) - exact) <= 0.05

    def test_within_ten_percent_of_mc(self):
        # heavier-tailed exponents converge more slowly; the asymptotic
        # value must still land within 10% of the Monte-Carlo quantile
        for p in (2, 3, 4):
            mc = mc_pnorm_quantile(p, 100, 0.05, reps=200_000, seed=5)
            assert abs(kappa_p_asymptotic(p, 100, 0.05) - mc) <= 0.1 * mc

    def test_rejects_sup_norm(self):
        with pytest.raises(ValueError, match="kappa_inf"):
            kappa_p_asymptotic(math.inf, 100, 0.05)

    def test_rejects_negative_bracket(self):
        # tiny d with alpha near 1 drives the bracket below zero
        with pytest.raises(ValueError, match="invalid"):
            kappa_p_asymptotic(2, 1, 0.999)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            kappa_p_asymptotic(2, 100, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            kappa_p_asymptotic(2, 100, 1.0)

    @pytest.mark.parametrize("p", [2, 3, 2.5])
    def test_rejects_nan_d(self, p):
        with pytest.raises(ValueError, match="d must"):
            kappa_p_asymptotic(p, math.nan, 0.05)

    @pytest.mark.parametrize("d", [math.inf, math.nan, 2.5])
    def test_rejects_unusable_d(self, d):
        with pytest.raises(ValueError, match=f"d must be >= 1 and a finite integer, got {d}"):
            kappa_p_asymptotic(3, d, 0.05)


class TestKappaInfExact:
    @pytest.mark.parametrize("d", [1, 2, 3, 10, 1000, 100_000])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5])
    def test_matches_root_finding(self, d, alpha):
        def excess(t):
            return d * math.log(2.0 * ndtr(t) - 1.0) - math.log1p(-alpha)

        root = optimize.brentq(excess, 0.05, 10.0, xtol=1e-13)
        assert kappa_inf_exact(d, alpha) == pytest.approx(root, abs=1e-9)

    def test_d1_is_two_sided_normal_quantile(self):
        assert kappa_inf_exact(1, 0.05) == pytest.approx(
            stats.norm.ppf(0.975), abs=1e-12
        )

    @given(
        d=st.integers(min_value=1, max_value=10**6),
        alpha=st.floats(min_value=0.001, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, d, alpha):
        assert kappa_inf_exact(d + 1, alpha) > kappa_inf_exact(d, alpha)
        assert kappa_inf_exact(d, alpha / 2.0) > kappa_inf_exact(d, alpha)

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError, match="d must"):
            kappa_inf_exact(0, 0.05)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5])
    def test_rejects_nan_d(self, alpha):
        with pytest.raises(ValueError, match="d must"):
            kappa_inf_exact(math.nan, alpha)

    @pytest.mark.parametrize("d", [math.inf, math.nan, 2.5])
    def test_rejects_unusable_d(self, d):
        with pytest.raises(ValueError, match=f"d must be >= 1 and a finite integer, got {d}"):
            kappa_inf_exact(d, 0.05)


class TestKappaInfAsymptotic:
    def test_d1000_value(self):
        # terms assembled independently of the module arithmetic
        root = math.sqrt(2.0 * math.log(1000.0))
        oracle = (
            root
            - (math.log(math.log(1000.0)) + math.log(4 * math.pi)) / (2 * root)
            - math.log(-math.log(0.95) / 2.0) / root
        )
        assert kappa_inf_asymptotic(1000, 0.05) == pytest.approx(oracle, abs=1e-12)
        assert kappa_inf_asymptotic(1000, 0.05) == pytest.approx(4.10205, abs=1e-4)

    def test_approaches_exact(self):
        gap_small = abs(kappa_inf_asymptotic(10**3, 0.05) - kappa_inf_exact(10**3, 0.05))
        gap_large = abs(kappa_inf_asymptotic(10**6, 0.05) - kappa_inf_exact(10**6, 0.05))
        assert gap_large < gap_small
        assert gap_large < 0.05

    def test_small_d_directs_to_exact(self):
        with pytest.raises(ValueError, match="kappa_inf_exact"):
            kappa_inf_asymptotic(2, 0.05)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5])
    def test_rejects_nan_d(self, alpha):
        with pytest.raises(ValueError, match="d >= 3"):
            kappa_inf_asymptotic(math.nan, alpha)

    @pytest.mark.parametrize("d", [math.inf, math.nan, 2.5])
    def test_rejects_unusable_d(self, d):
        with pytest.raises(ValueError, match=f"d must be >= 3 and a finite integer, got {d}"):
            kappa_inf_asymptotic(d, 0.05)


class TestBatchPnorms:
    def test_matches_naive(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((20, 7))
        ps = [2.0, 2.5, 3.0, 7.0, math.inf]
        got = _batch_pnorms(z, ps)
        for j, p in enumerate((2, 2.5, 3, 7)):
            naive = (np.abs(z) ** p).sum(axis=1) ** (1.0 / p)
            assert np.allclose(got[:, j], naive, rtol=1e-12)
        assert np.allclose(got[:, 4], np.abs(z).max(axis=1), rtol=0)

    def test_no_overflow_at_extreme_scale(self):
        z = np.full((1, 5), 1e280)
        got = _batch_pnorms(z, [4.0])
        assert np.isfinite(got[0, 0])
        assert got[0, 0] == pytest.approx(1e280 * 5**0.25, rel=1e-12)

    def test_zero_rows(self):
        got = _batch_pnorms(np.zeros((2, 3)), [2.0, math.inf])
        assert np.all(got == 0.0)

    def test_scratch_rows_beyond_z_and_z_unchanged(self):
        z = np.random.default_rng(3).standard_normal((5, 4))
        before = z.copy()
        ps = [2.0, 3.0, 4.5, math.inf]
        got = _batch_pnorms(z, ps, np.empty((2, 8, 4)))
        assert np.array_equal(got, _batch_pnorms(z, ps))
        assert np.array_equal(z, before)

    def test_z_in_scratch_gives_the_same_bits(self):
        # calibration draws z into scratch[0] and norms it in place
        z = np.random.default_rng(4).standard_normal((5, 4))
        ps = [2.0, 3.0, 4.5, math.inf]
        scratch = np.empty((2, 8, 4))
        scratch[0, :5] = z
        got = _batch_pnorms(scratch[0, :5], ps, scratch)
        assert got.tobytes() == _batch_pnorms(z, ps).tobytes()


class TestOrderStatQuantile:
    """The empirical (1 - alpha)-quantile is order statistic ceil((1 - alpha) n)."""

    def test_index_rule(self):
        v = np.arange(1.0, 101.0)
        assert v[_order_index(0.05, v.size)] == 95.0
        assert v[_order_index(0.049, v.size)] == 96.0
        assert v[_order_index(0.5, v.size)] == 50.0

    def test_unsorted_input(self):
        v = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        assert np.sort(v)[_order_index(0.2, v.size)] == 4.0


class TestMcQuantile:
    def test_deterministic(self):
        a = mc_pnorm_quantile(3, 25, 0.05, reps=20_000, seed=11)
        b = mc_pnorm_quantile(3, 25, 0.05, reps=20_000, seed=11)
        c = mc_pnorm_quantile(3, 25, 0.05, reps=20_000, seed=12)
        assert a == b
        assert a != c

    def test_d1_is_absolute_normal(self):
        got = mc_pnorm_quantile(2, 1, 0.05, reps=200_000, seed=3)
        assert got == pytest.approx(stats.norm.ppf(0.975), abs=0.02)

    def test_p2_against_chi_square(self):
        oracle = math.sqrt(stats.chi2.ppf(0.95, 200))
        got = mc_pnorm_quantile(2, 200, 0.05, reps=100_000, seed=3)
        assert got == pytest.approx(oracle, abs=0.03)

    def test_sup_against_exact(self):
        got = mc_pnorm_quantile(math.inf, 1000, 0.05, reps=50_000, seed=3)
        assert got == pytest.approx(kappa_inf_exact(1000, 0.05), abs=0.04)

    def test_quantiles_ordered_in_alpha(self):
        hi = mc_pnorm_quantile(4, 30, 0.05, reps=20_000, seed=9)
        lo = mc_pnorm_quantile(4, 30, 0.10, reps=20_000, seed=9)
        assert hi >= lo

    def test_finite_sample_reference_p2_oracle(self):
        # with aux_rows = m the p = 2 profile is a pure radius:
        # sqrt((m-d-1) d / (m-d+1) * F(d, m-d+1))
        d, m = 10, 40
        scale = (m - d - 1) * d / (m - d + 1)
        oracle = math.sqrt(scale * stats.f.ppf(0.95, d, m - d + 1))
        got = mc_pnorm_quantile(2, d, 0.05, reps=200_000, seed=21, aux_rows=m)
        assert got == pytest.approx(oracle, abs=0.03)

    def test_finite_sample_reference_widens_tails(self):
        d, m = 20, 60
        gauss = mc_pnorm_quantile(math.inf, d, 0.05, reps=100_000, seed=8)
        finite = mc_pnorm_quantile(math.inf, d, 0.05, reps=100_000, seed=8, aux_rows=m)
        assert finite > gauss

    def test_finite_sample_reference_approaches_gaussian(self):
        d = 15
        gauss = mc_pnorm_quantile(3, d, 0.05, reps=100_000, seed=8)
        finite = mc_pnorm_quantile(3, d, 0.05, reps=100_000, seed=8, aux_rows=10**6)
        assert finite == pytest.approx(gauss, abs=0.02)

    @pytest.mark.parametrize("aux_rows", [11, 100.5, "100", True, math.nan])
    def test_aux_rows_too_small(self, monkeypatch, aux_rows):
        # at d = 10 only an integer aux_rows >= 12 names a reference law; any
        # other value is refused before the draw count is checked or drawn,
        # a string as a TypeError
        def no_draws(seed, block):
            raise AssertionError("drew reference vectors before checking aux_rows")

        monkeypatch.setattr(critical_values, "_block_rng", no_draws)
        error = TypeError if isinstance(aux_rows, str) else ValueError
        with pytest.raises(error, match="aux_rows"):
            mc_pnorm_quantile(2, 10, 0.05, reps=2000, seed=0, aux_rows=aux_rows)
        with pytest.raises(error, match="aux_rows"):
            calibrate_joint({2: 0.05}, 10, 0.05, reps=999, seed=0, aux_rows=aux_rows)

    @pytest.mark.parametrize(
        "reps, error, message",
        [(999, ValueError, "too small"), ("2000", TypeError, "must be a real number")]
        + [(r, ValueError, "must be >= 1 and a finite integer")
           for r in (True, 2000.5, math.nan, math.inf)],
    )
    def test_rejects_tiny_reps(self, monkeypatch, reps, error, message):
        # a bool, fractional or non-numeric count is refused before any draw
        def no_draws(seed, block):
            raise AssertionError("drew reference vectors before checking reps")

        monkeypatch.setattr(critical_values, "_block_rng", no_draws)
        with pytest.raises(error, match=f"^reps.*{message}"):
            mc_pnorm_quantile(2, 10, 0.05, reps=reps, seed=0)

    def test_integral_float_reps_is_drawn_as_int(self):
        t = calibrate_joint({2: 0.05}, 4, 0.05, reps=2000.0, seed=1)
        assert type(t.mc_reps) is int
        assert t == calibrate_joint({2: 0.05}, 4, 0.05, reps=2000, seed=1)

    @pytest.mark.parametrize("seed", [-1, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            mc_pnorm_quantile(2, 10, 0.05, reps=2000, seed=seed)

    def test_needs_100_draws_beyond_the_quantile(self):
        with pytest.raises(ValueError, match="need at least 10000"):
            mc_pnorm_quantile(2, 10, 0.01, reps=5000)


class TestCalibrateJoint:
    def test_single_exponent_scale_factor_is_one(self):
        # with one exponent at the full level the max ratio's quantile is
        # exactly kappa / kappa = 1
        t = calibrate_joint({2: 0.05}, d=12, alpha_total=0.05, reps=20_000, seed=4)
        assert t.c_n == 1.0
        assert not t.conservative

    def test_kappas_match_single_exponent_calls(self):
        # the shared draw stream depends only on (seed, d), so per-share
        # kappas must equal standalone mc_pnorm_quantile calls exactly
        shares = {2: 0.02, 4: 0.02, math.inf: 0.01}
        t = calibrate_joint(shares, d=15, alpha_total=0.05, reps=30_000, seed=6)
        for p, share in shares.items():
            assert t.kappa(p) == mc_pnorm_quantile(p, 15, share, reps=30_000, seed=6)
            assert t.standalone_kappa(p) == mc_pnorm_quantile(
                p, 15, 0.05, reps=30_000, seed=6
            )

    @pytest.mark.parametrize("aux_rows", [None, 40])
    def test_extra_exponents_match_single_exponent_calls(self, aux_rows):
        # an extra exponent is one more column of the same draws, read at alpha_total
        t = calibrate_joint(
            {2: 0.03, math.inf: 0.02}, d=15, alpha_total=0.05, reps=30_000, seed=6,
            aux_rows=aux_rows, extra_ps=[7, 2.5],
        )
        assert t.exponents == (2.0, math.inf)
        assert list(t.standalone) == [2.0, math.inf, 2.5, 7.0]
        for p in (2.5, 7):
            assert t.standalone_kappa(p) == mc_pnorm_quantile(
                p, 15, 0.05, reps=30_000, seed=6, aux_rows=aux_rows
            )

    def test_bad_extra_p_refused_before_any_draw(self, monkeypatch):
        def draws(*args):
            raise AssertionError("reference draws began before extra_ps was checked")

        monkeypatch.setattr(critical_values, "_reference_norms", draws)
        with pytest.raises(ValueError, match="^exponent must satisfy p >= 2, got 1$"):
            calibrate_spec(default_spec(20, 0.05), extra_ps=(3, 1.0))
        with pytest.raises(TypeError, match="^exponent must be a real number, got '8'$"):
            calibrate_joint({2: 0.05}, 20, 0.05, extra_ps=["8"])

    def test_share_kappa_exceeds_standalone(self):
        t = calibrate_joint(
            {2: 0.025, math.inf: 0.025}, d=40, alpha_total=0.05, reps=20_000, seed=2
        )
        for p in (2, math.inf):
            assert t.kappa(p) > t.standalone_kappa(p)

    def test_scale_factor_in_unit_interval(self):
        t = calibrate_joint(
            {2: 0.025, math.inf: 0.025}, d=40, alpha_total=0.05, reps=20_000, seed=2
        )
        assert 0.8 < t.c_n <= 1.0

    def test_deterministic(self):
        kw = dict(d=10, alpha_total=0.05, reps=20_000, seed=13)
        a = calibrate_joint({2: 0.03, 3: 0.02}, **kw)
        b = calibrate_joint({2: 0.03, 3: 0.02}, **kw)
        assert a == b

    def test_exponents_sorted(self):
        t = calibrate_joint(
            {math.inf: 0.02, 2: 0.03}, d=8, alpha_total=0.05, reps=20_000, seed=1
        )
        assert t.exponents == (2.0, math.inf)
        assert all(type(p) is float for p in t.exponents)

    def test_rejects_share_mismatch(self):
        with pytest.raises(ValueError, match="sum"):
            calibrate_joint({2: 0.02, 4: 0.02}, d=8, alpha_total=0.05, reps=20_000)

    def test_rejects_duplicate_exponents(self):
        with pytest.raises(ValueError, match="duplicate"):
            calibrate_joint(
                # distinct Python numbers that round to the same float
                {2**53: 0.025, 2**53 + 1: 0.025}, d=8, alpha_total=0.05, reps=20_000
            )

    def test_rejects_unresolvable_share(self):
        with pytest.raises(ValueError, match="smallest share"):
            calibrate_joint(
                {2: 0.049, 4: 0.001}, d=8, alpha_total=0.05, reps=20_000
            )

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            calibrate_joint({2: 0.05}, d=0, alpha_total=0.05)

    @pytest.mark.parametrize("d", [math.inf, math.nan, 2.5])
    def test_rejects_unusable_d(self, d):
        with pytest.raises(ValueError, match=f"d must be >= 1 and a finite integer, got {d}"):
            calibrate_joint({2: 0.05}, d=d, alpha_total=0.05, reps=1000)

    def test_finite_sample_reference_plumbs_through(self):
        t = calibrate_joint(
            {2: 0.05}, d=10, alpha_total=0.05, reps=200_000, seed=21, aux_rows=40
        )
        assert t.kappa(2) == mc_pnorm_quantile(
            2, 10, 0.05, reps=200_000, seed=21, aux_rows=40
        )
        assert t.aux_rows == 40


class TestBlockSchedule:
    """Reference blocks run on threads; no worker count may change a bit."""

    # (reps, shares, alpha_total, aux_rows): a partial last block after five
    # full ones, a single partial block, and two blocks for three workers
    CASES = [
        (5 * _BLOCK + 7, {2: 0.025, math.inf: 0.025}, 0.05, None),
        (5 * _BLOCK + 7, {2: 0.02, 3: 0.02, math.inf: 0.02}, 0.06, 60),
        (1000, {2: 0.1, math.inf: 0.1}, 0.2, None),
        (2 * _BLOCK, {2.5: 0.1, 4: 0.1}, 0.2, 30),
    ]

    @staticmethod
    def run_with_workers(monkeypatch, workers, reps, shares, alpha, aux_rows):
        monkeypatch.setattr(critical_values, "_worker_count", lambda blocks: workers)
        table = calibrate_joint(shares, 12, alpha, reps=reps, seed=9, aux_rows=aux_rows)
        quantiles = [
            mc_pnorm_quantile(p, 12, alpha, reps=reps, seed=9, aux_rows=aux_rows)
            for p in shares
        ]
        return table.to_json(), quantiles

    @pytest.mark.parametrize("reps,shares,alpha,aux_rows", CASES)
    def test_identical_for_any_worker_count(self, monkeypatch, reps, shares, alpha, aux_rows):
        serial = self.run_with_workers(monkeypatch, 1, reps, shares, alpha, aux_rows)
        for workers in (2, 3):
            got = self.run_with_workers(monkeypatch, workers, reps, shares, alpha, aux_rows)
            assert got[0] == serial[0], f"table differs at {workers} workers"
            assert got[1] == serial[1], f"quantiles differ at {workers} workers"

    def test_many_workers_with_frequent_thread_switches(self, monkeypatch):
        # more workers than cores, switching as often as the interpreter
        # allows: a block written to the wrong rows or lost would show
        case = (20 * _BLOCK + 3, {2: 0.025, math.inf: 0.025}, 0.05, 40)
        serial = self.run_with_workers(monkeypatch, 1, *case)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert self.run_with_workers(monkeypatch, 8, *case) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_worker_count_bounds(self):
        cores = len(os.sched_getaffinity(0))
        assert _worker_count(1) == 1
        assert _worker_count(10**6) == cores
        assert _worker_count(0) == 1

    def test_worker_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _worker_count(10**6) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("switch_interval", [None, 1e-6])
    def test_kept_rows_identical_for_any_worker_count(self, monkeypatch, switch_interval):
        # d=40, m=200, 300k draws and top=15000: the buffer is pruned many
        # times, and every kept row, not only the table, must be the same
        ps = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, math.inf]
        law = critical_values._RadialLaw(40, 200)
        interval = sys.getswitchinterval()
        if switch_interval is not None:
            sys.setswitchinterval(switch_interval)
        try:
            kept = {}
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(critical_values, "_worker_count", lambda blocks: workers)
                kept[workers] = critical_values._reference_norms(ps, 40, 300_000, 0, law, 15_000)
        finally:
            sys.setswitchinterval(interval)
        for w in (2, 3, 8):
            assert kept[w].shape == kept[1].shape, f"kept rows differ at {w} workers"
            assert kept[w].tobytes() == kept[1].tobytes(), f"norms differ at {w} workers"

    def test_blocks_run_at_most_ahead_of_the_caller(self, monkeypatch):
        # a slow calling thread: finished blocks wait for it, at most
        # _AHEAD * W of them started and not yet taken
        started, taken, ahead = [], [0], []
        real_rng, real_add = critical_values._block_rng, critical_values._TopRows.add

        def block_rng(seed, block):
            started.append(block)
            return real_rng(seed, block)

        def add(self, norms):
            ahead.append(len(started) - taken[0])
            time.sleep(0.002)
            taken[0] += 1
            real_add(self, norms)

        monkeypatch.setattr(critical_values, "_worker_count", lambda blocks: 2)
        monkeypatch.setattr(critical_values, "_block_rng", block_rng)
        monkeypatch.setattr(critical_values._TopRows, "add", add)
        mc_pnorm_quantile(2, 12, 0.05, reps=40 * _BLOCK, seed=0)
        assert taken[0] == 40 and sorted(started) == list(range(40))
        assert max(ahead) <= critical_values._AHEAD * 2

    def test_worker_exception_reaches_caller(self, monkeypatch):
        real = critical_values._batch_pnorms

        def failing(z, *args):
            if z.shape[0] < _BLOCK:  # only the partial last block fails
                raise FloatingPointError("block failed")
            return real(z, *args)

        monkeypatch.setattr(critical_values, "_worker_count", lambda blocks: 2)
        monkeypatch.setattr(critical_values, "_batch_pnorms", failing)
        with pytest.raises(FloatingPointError, match="block failed"):
            mc_pnorm_quantile(2, 12, 0.05, reps=3 * _BLOCK + 1, seed=0)

    @pytest.mark.parametrize("d,aux_rows", [(40, 200), (12, None)])
    def test_kept_rows_identical_for_any_pass_size(self, monkeypatch, d, aux_rows):
        # three passes of 342, 342 and 340 rows per full block, against one
        # pass; the partial last block is cut by the same rule
        ps = [2.0, 3.0, 4.5, 8.0, math.inf]
        law = None if aux_rows is None else critical_values._RadialLaw(d, aux_rows)
        reps = 12 * _BLOCK + 300
        kept = []
        for entries in (_BLOCK * d * 2 // 5, _BLOCK * d):
            monkeypatch.setattr(critical_values, "_PASS_ENTRIES", entries)
            kept.append(critical_values._reference_norms(ps, d, reps, 3, law, reps // 10))
        several, one = kept
        assert several.shape == one.shape
        assert several.tobytes() == one.tobytes()

    @pytest.mark.parametrize(
        "d,aux_rows,name", [(12, None, "table_d12.json"), (40, 200, "table_d40_aux200.json")]
    )
    def test_tables_match_recorded_golden(self, d, aux_rows, name):
        # recorded before calibration ran on threads; the draw stream and
        # every table built from it must stay byte-identical
        table = calibrate_spec(default_spec(d, 0.05), aux_rows=aux_rows).table
        assert table.to_json() + "\n" == (DATA / name).read_text()

    @pytest.mark.parametrize("aux_rows", [None, 200])
    @pytest.mark.parametrize("d", [12, 40])
    def test_extras_leave_every_grid_value_bit_equal(self, d, aux_rows):
        # extra columns only make the kept-row buffer keep more rows, and
        # the integer-power chain only adds sums, so nothing else moves
        spec = default_spec(d, 0.05)
        plain = calibrate_spec(spec, aux_rows=aux_rows).table
        extras = (32, 2.5, 12, 16, 3, math.inf)  # 3 and inf are on the grid
        table = calibrate_spec(spec, aux_rows=aux_rows, extra_ps=extras).table
        for name in ("entries", "c_n", "conservative", "mc_reps", "seed", "aux_rows"):
            assert getattr(table, name) == getattr(plain, name)
        assert list(table.standalone)[: len(plain.standalone)] == list(plain.standalone)
        for p, kappa in plain.standalone.items():
            assert table.standalone_kappa(p).hex() == kappa.hex()
        assert list(table.standalone)[len(plain.standalone) :] == [2.5, 12.0, 16.0, 32.0]
        doc = table.to_json_dict()
        assert [e["p"] for e in doc.pop("extras")] == [2.5, 12.0, 16.0, 32.0]
        assert repr(doc) == repr(plain.to_json_dict())  # float reprs: the same bits


def full_matrix_calibration(shares, d, alpha_total, reps, seed, aux_rows):
    """Calibration read from the whole reps x |grid| matrix of reference norms.

    The oracle for the kept-row selection: every block of the draw stream
    is stored, each column is partitioned at its share's and at the full
    level's order statistic, and c_n is the order statistic of the running
    max of norm / kappa over all rows.
    """
    ps, vals = zip(*sorted((float(p), float(s)) for p, s in shares.items()))
    norms = np.empty((reps, len(ps)))
    for block in range(-(-reps // _BLOCK)):
        lo = block * _BLOCK
        b = min(_BLOCK, reps - lo)
        rng = _block_rng(seed, block)
        z = rng.standard_normal((b, d))
        rows = _batch_pnorms(z, list(ps))
        if aux_rows is not None:
            m = aux_rows
            radius = np.sqrt((m - d - 1.0) * d / (m - d + 1.0) * rng.f(d, m - d + 1, size=b))
            rows *= (radius / np.linalg.norm(z, axis=1))[:, None]
        norms[lo : lo + b] = rows
    k_alpha = _order_index(alpha_total, reps)
    entries, standalone, kappas = {}, {}, []
    for j, (p, share) in enumerate(zip(ps, vals)):
        ks = [_order_index(share, reps), k_alpha]
        kappa, alone = np.partition(norms[:, j], ks)[ks]
        entries[p] = (share, float(kappa))
        standalone[p] = float(alone)
        kappas.append(kappa)
    ratios = norms[:, 0] / kappas[0]
    for j in range(1, len(ps)):
        np.maximum(ratios, norms[:, j] / kappas[j], out=ratios)
    c_raw = float(np.partition(ratios, k_alpha)[k_alpha])
    return entries, standalone, min(c_raw, 1.0), c_raw > 1.0


class TestKeptRows:
    """Calibration keeps only the rows that can set a kappa or c_n."""

    GRID = {2: 0.02, 3: 0.01, 4: 0.01, 6: 0.005, math.inf: 0.005}
    # (shares, d, alpha_total, reps): a grid, a one-exponent map (share ==
    # alpha), and d = 1, where every exponent's norm is |z| and the
    # columns tie row by row; no reps is a multiple of the block size
    CASES = [
        (GRID, 12, 0.05, 30 * _BLOCK + 123),
        ({3: 0.05}, 12, 0.05, 20 * _BLOCK + 5),
        ({2: 0.02, 5: 0.01, math.inf: 0.02}, 1, 0.05, 20 * _BLOCK + 17),
    ]

    @pytest.mark.parametrize("aux_rows", [None, 30])
    @pytest.mark.parametrize("shares,d,alpha,reps", CASES)
    def test_equals_full_matrix_oracle(self, monkeypatch, shares, d, alpha, reps, aux_rows):
        want = full_matrix_calibration(shares, d, alpha, reps, 5, aux_rows)
        for workers in (1, 2, 3):
            monkeypatch.setattr(critical_values, "_worker_count", lambda blocks: workers)
            table = calibrate_joint(shares, d, alpha, reps=reps, seed=5, aux_rows=aux_rows)
            got = (table.entries, table.standalone, table.c_n, table.conservative)
            assert got == want, f"differs at {workers} workers"

    def test_keeps_a_small_share_of_the_rows(self):
        ps = [float(p) for p in self.GRID]
        reps = 30 * _BLOCK + 123
        top = reps - _order_index(0.05, reps)
        kept = critical_values._reference_norms(ps, 12, reps, 5, None, top)
        assert kept.shape[0] == len(ps)
        assert top <= kept.shape[1] <= 4 * top + _BLOCK
        full = critical_values._reference_norms(ps, 12, reps, 5, None, reps)
        assert full.shape == (len(ps), reps)

    def test_buffer_fill_stays_near_the_kept_rows(self, monkeypatch):
        # the rows held on entry to every prune, on the default d = 200 grid
        monkeypatch.setattr(critical_values, "_worker_count", lambda blocks: 1)
        fills = []
        prune = _TopRows._prune

        def recording_prune(buffer):
            fills.append(buffer.n)
            prune(buffer)

        monkeypatch.setattr(_TopRows, "_prune", recording_prune)
        ps = list(default_spec(200, 0.05).share_map())
        reps = 200_000
        top = reps - _order_index(0.05, reps)
        critical_values._reference_norms(ps, 200, reps, 0, None, top)
        assert fills
        assert max(fills) <= 3 * top + _BLOCK

    def test_peak_memory_is_a_fraction_of_the_norm_matrix(self, monkeypatch):
        # one worker: each worker adds its own scratch, which does not grow with reps
        monkeypatch.setattr(critical_values, "_worker_count", lambda blocks: 1)
        ps = (2, 3, 4, 5, 6, 7, 8, 9, 10, math.inf)
        reps = 200_000
        tracemalloc.start()
        try:
            calibrate_joint({p: 0.005 for p in ps}, 200, 0.05, reps=reps, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * reps * len(ps) * 8

    @pytest.mark.parametrize("levels", [None, 7])
    def test_buffer_keeps_every_top_value_of_unrelated_columns(self, levels):
        # six independent columns: the union of their top sets outgrows the
        # first limit, so the buffer must grow; integer levels make ties
        rng = np.random.default_rng(2)
        reps, top = 40 * _BLOCK + 9, 2000
        values = rng.random((reps, 6))
        if levels is not None:
            values = np.floor(values * levels)
        buffer = _TopRows(6, top, reps)
        for lo in range(0, reps, _BLOCK):
            buffer.add(values[lo : lo + _BLOCK])
        kept = buffer.kept()
        assert buffer.limit > 4 * top
        assert kept.shape[1] < reps
        tops = kept.shape[1] - top
        for j in range(6):
            want = np.sort(values[:, j])[-top:]
            assert np.array_equal(np.sort(kept[j])[tops:], want)
        scale = np.sort(values, axis=0)[-top] + 0.5
        want = np.sort((values / scale).max(axis=1))[-top:]
        got = np.sort((kept.T / scale).max(axis=1))[tops:]
        assert np.array_equal(got, want)


class TestCriticalValueTable:
    def make(self):
        return calibrate_joint(
            {2: 0.02, 3.5: 0.02, math.inf: 0.01},
            d=9,
            alpha_total=0.05,
            reps=20_000,
            seed=17,
            aux_rows=50,
        )

    def test_json_roundtrip_exact(self):
        t = self.make()
        assert CriticalValueTable.from_json(t.to_json()) == t

    def test_numpy_integer_arguments_are_written_as_ints(self):
        reps, seed, aux_rows = np.int64(2000), np.int64(1), np.int64(30)
        t = calibrate_joint({2: 0.05}, 4, 0.05, reps=reps, seed=seed, aux_rows=aux_rows)
        assert type(t.mc_reps) is int and type(t.seed) is int and type(t.aux_rows) is int
        assert CriticalValueTable.from_json(t.to_json()) == t
        # the constructor stores what its converters return
        direct = dataclasses.replace(
            t, d=np.int64(4), mc_reps=reps, seed=seed, aux_rows=aux_rows
        )
        stored = (direct.d, direct.mc_reps, direct.seed, direct.aux_rows)
        assert [type(v) for v in stored] == [int] * 4
        assert CriticalValueTable.from_json(direct.to_json()) == direct == t

    @pytest.mark.parametrize("name", ["table_d12.json", "table_d40_aux200.json"])
    def test_golden_tables_round_trip(self, name):
        text = (DATA / name).read_text()
        assert CriticalValueTable.from_json(text).to_json() + "\n" == text

    def test_json_keys(self):
        doc = self.make().to_json_dict()
        assert doc["schema_version"] == 1
        assert doc["kind"] == "critical_value_table"
        assert [row["p"] for row in doc["entries"]] == [2.0, 3.5, "inf"]
        assert "extras" not in doc  # a table without extras writes no such field

    def test_extras_round_trip_after_the_entries(self):
        base = self.make()
        t = dataclasses.replace(base, standalone={**base.standalone, 8: 2.5, 2.5: 4})
        assert list(t.standalone)[3:] == [2.5, 8.0]
        assert all(type(p) is type(k) is float for p, k in t.standalone.items())
        doc = t.to_json_dict()
        assert list(doc)[-2:] == ["entries", "extras"]
        assert doc["extras"] == [
            {"p": 2.5, "standalone_kappa": 4.0}, {"p": 8.0, "standalone_kappa": 2.5}
        ]
        assert CriticalValueTable.from_json(t.to_json()) == t
        doc["extras"].reverse()  # read in any order, stored sorted
        assert CriticalValueTable.from_json_dict(doc) == t

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="critical_value_table"):
            CriticalValueTable.from_json('{"kind": "other", "entries": []}')

    def test_invariants_enforced(self):
        t = self.make()
        good = dict(
            d=t.d,
            alpha_total=t.alpha_total,
            entries=t.entries,
            c_n=t.c_n,
            conservative=t.conservative,
            mc_reps=t.mc_reps,
            seed=t.seed,
        )
        with pytest.raises(ValueError, match="c_n"):
            CriticalValueTable(**{**good, "c_n": 1.5})
        with pytest.raises(ValueError, match="c_n"):
            CriticalValueTable(**{**good, "c_n": 0.0})
        with pytest.raises(ValueError, match="sum"):
            CriticalValueTable(**{**good, "alpha_total": 0.2})
        bad_entries = {2.0: (0.05, -1.0)}
        with pytest.raises(ValueError, match="kappa"):
            CriticalValueTable(**{**good, "entries": bad_entries})

    @pytest.mark.parametrize(
        "override, error, message",
        [
            ({"d": 2.5}, ValueError, "d must be >= 1 and a finite integer, got 2.5"),
            ({"d": math.nan}, ValueError, "d must be >= 1 and a finite integer, got nan"),
            ({"mc_reps": 10.5}, ValueError, "mc_reps must be >= 1 and a finite integer, got 10.5"),
            ({"mc_reps": math.nan}, ValueError, "mc_reps must be >= 1 and a finite integer, got nan"),
            ({"mc_reps": True}, ValueError, "mc_reps must be >= 1 and a finite integer, got True"),
            ({"seed": 2.5}, ValueError, "seed must be >= 0 and a finite integer, got 2.5"),
            ({"seed": True}, ValueError, "seed must be >= 0 and a finite integer, got True"),
            ({"aux_rows": 7.5}, ValueError, "aux_rows must be >= 6 and a finite integer, got 7.5"),
            (
                {"alpha_total": 1.5, "entries": {2.0: (0.9, 3.0), math.inf: (0.6, 3.0)}},
                ValueError,
                "alpha_total must lie in (0, 1), got 1.5",
            ),
            ({"entries": {2: (0.05, 3.0)}}, TypeError, "entry keys must be float exponents, got 2"),
            ({"entries": {1.5: (0.05, 3.0)}}, ValueError, "exponent must satisfy p >= 2, got 1.5"),
            ({"entries": {math.nan: (0.05, 3.0)}}, ValueError, "exponent must not be NaN"),
            # values in range that the reader's converters reject: to_json
            # would write a document that from_json cannot read
            ({"d": True, "aux_rows": 3}, ValueError, "d must be >= 1 and a finite integer, got True"),
            ({"conservative": "no"}, ValueError, "conservative: expected true or false, got 'no'"),
            ({"c_n": True}, ValueError, "c_n: expected a number, got True"),
            # an exponent without an entry is an extra: a valid exponent, a valid kappa
            ({"standalone": {2.0: 3.0, 5.0: -1.0}}, ValueError,
             "standalone kappa at p=5 must be present, positive and finite"),
            ({"standalone": {2.0: 3.0, 1.5: 1.0}}, ValueError,
             "exponent must satisfy p >= 2, got 1.5"),
            ({"standalone": {2.0: 3.0, "8": 1.0}}, TypeError,
             "exponent must be a real number, got '8'"),
        ],
        ids=["fractional d", "nan d", "fractional mc_reps", "nan mc_reps", "flag mc_reps",
             "fractional seed", "flag seed", "fractional aux_rows",
             "alpha_total above 1", "int key", "key below 2", "nan key",
             "flag d", "string flag", "flag c_n", "negative extra kappa", "extra below 2",
             "string extra"],
    )
    def test_constructor_rejects(self, override, error, message):
        good = dict(
            d=4, alpha_total=0.05, entries={2.0: (0.05, 3.0)}, c_n=1.0,
            conservative=False, mc_reps=20_000, seed=0, standalone={2.0: 3.0},
        )
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            CriticalValueTable(**{**good, **override})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_numpy_values_stored_as_floats(self, dtype):
        # 0.0625 and 3.0 are exact in float32, so the shares still sum to alpha_total
        table = CriticalValueTable(
            d=4, alpha_total=dtype(0.0625), entries={2.0: (dtype(0.0625), dtype(3.0))},
            c_n=dtype(1.0), conservative=False, mc_reps=20_000, seed=0,
            standalone={2.0: dtype(3.5)},
        )
        assert type(table.share(2.0)) is float and type(table.kappa(2.0)) is float
        assert type(table.standalone_kappa(2.0)) is float
        assert CriticalValueTable.from_json(table.to_json()) == table

    @pytest.mark.parametrize("flag", [False, True])
    def test_numpy_bool_flag_stored_as_bool(self, flag):
        table = dataclasses.replace(self.make(), conservative=np.bool_(flag))
        assert type(table.conservative) is bool and table.conservative is flag
        assert CriticalValueTable.from_json(table.to_json()) == table

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, value):
        t = self.make()
        good = dict(
            d=t.d, alpha_total=t.alpha_total, entries=t.entries, c_n=t.c_n,
            conservative=t.conservative, mc_reps=t.mc_reps, seed=t.seed,
            standalone=t.standalone,
        )
        p, (share, _) = next(iter(t.entries.items()))
        with pytest.raises(ValueError, match="^kappa must be positive"):
            CriticalValueTable(**{**good, "entries": {**t.entries, p: (share, value)}})
        with pytest.raises(ValueError, match="^standalone kappa"):
            CriticalValueTable(**{**good, "standalone": {**t.standalone, p: value}})
        with pytest.raises(ValueError, match=r"^alpha_total must lie in \(0, 1\)"):
            CriticalValueTable(**{**good, "alpha_total": value})

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(d=9.5), "d: expected an integer, got 9.5"),
            (lambda doc: doc.update(aux_rows="50"), "aux_rows: expected a number, got '50'"),
            (lambda doc: doc.update(conservative=0), "conservative: expected true or false, got 0"),
            (lambda doc: doc.update(c_n=math.nan), "c_n: must be finite"),
            (lambda doc: doc["entries"][1].update(p="3.5"), "entries[1].p: expected a number"),
            (lambda doc: doc["entries"][2].update(kappa=math.inf), "entries[2].kappa: must be finite"),
            (lambda doc: doc["entries"][0].update(note=1), "entries[0].note: unknown field"),
            (lambda doc: doc.pop("entries"), "entries: missing required field"),
            (lambda doc: doc.update(extras={}), "extras: expected a list of objects, got {}"),
            (lambda doc: doc.update(extras=[{"p": 7}]),
             "extras[0].standalone_kappa: missing required field"),
            (lambda doc: doc.update(extras=[{"p": 7, "standalone_kappa": 2.0, "share": 0.01}]),
             "extras[0].share: unknown field"),
            (lambda doc: doc.update(extras=[{"p": 7, "standalone_kappa": 2.0},
                                            {"p": "inf", "standalone_kappa": 2.0}]),
             "extras[1].p: exponent inf is listed twice"),
            (lambda doc: doc.update(extras=[{"p": 7, "standalone_kappa": 2.0}] * 2),
             "extras[1].p: exponent 7 is listed twice"),
        ],
        ids=["fractional d", "string aux_rows", "number flag", "nan c_n", "string p",
             "infinite kappa", "unknown entry key", "no entries", "extras not a list",
             "extra without kappa", "extra with a share", "extra on the grid",
             "extra listed twice"],
    )
    def test_reader_names_the_field_path(self, edit, message):
        doc = self.make().to_json_dict()
        edit(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            CriticalValueTable.from_json_dict(doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("d", 0, "d must be >= 1 and a finite integer, got 0"),
            ("mc_reps", -5, "mc_reps must be >= 1 and a finite integer, got -5"),
            ("mc_reps", 0, "mc_reps must be >= 1 and a finite integer, got 0"),
            ("seed", -3, "seed must be >= 0 and a finite integer, got -3"),
            ("aux_rows", -7, "aux_rows must be >= 11 and a finite integer, got -7"),
            ("aux_rows", 10, "aux_rows must be >= 11 and a finite integer, got 10"),
        ],
    )
    def test_reader_rejects_out_of_range_fields(self, field, value, message):
        # provenance that no calibration can produce
        doc = self.make().to_json_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CriticalValueTable.from_json_dict(doc)

    def test_smallest_finite_sample_table_loads(self):
        # d = 9: aux_rows = d + 2 is the smallest finite-sample reference
        doc = {**self.make().to_json_dict(), "aux_rows": 11, "seed": 0}
        assert CriticalValueTable.from_json_dict(doc).aux_rows == 11


def rejects_as(owner, entry):
    """``entry()`` raises exactly the type and message with which ``owner()`` does."""
    with pytest.raises((TypeError, ValueError)) as want:
        owner()
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$") as got:
        entry()
    assert got.type is want.type


SAMPLE = np.random.default_rng(5).standard_normal((80, 6))
BAD_LEVELS = ["0.05", True, math.nan, 0.0, 1.0]


def table(**fields) -> CriticalValueTable:
    good = dict(
        d=4, alpha_total=0.05, entries={2.0: (0.05, 3.0)}, c_n=1.0,
        conservative=False, mc_reps=20_000, seed=0, standalone={2.0: 3.0},
    )
    return CriticalValueTable(**{**good, **fields})


def spec(**fields) -> DominantTestSpec:
    good = dict(
        d=8, alpha_total=0.05, alpha_2=0.03, alpha_I=0.02, alpha_inf=0.0,
        p_grid=(3.0,), per_p_shares=(0.02,),
    )
    return DominantTestSpec(**{**good, **fields})


# every entry point that takes a level: (the name its check uses, call at level a)
ALPHA_ENTRY_POINTS = {
    "kappa_p_asymptotic": ("alpha", lambda a: kappa_p_asymptotic(4, 10, a)),
    "kappa_inf_asymptotic": ("alpha", lambda a: kappa_inf_asymptotic(10, a)),
    "kappa_inf_exact": ("alpha", lambda a: kappa_inf_exact(10, a)),
    "mc_pnorm_quantile": ("alpha", lambda a: mc_pnorm_quantile(2, 4, a, reps=2000)),
    "calibrate_joint": ("alpha", lambda a: calibrate_joint({2.0: 0.05}, 4, a, 4000)),
    "default_spec": ("alpha", lambda a: default_spec(8, a)),
    "DominantTestSpec": ("alpha_total", lambda a: spec(alpha_total=a)),
    "DominantTestSpec alpha_I": ("alpha_I", lambda a: spec(alpha_I=a)),
    "CriticalValueTable": ("alpha_total", lambda a: table(alpha_total=a)),
    "power_loss_bound alpha_total": ("alpha_total", lambda a: power_loss_bound(2, a, 0.01)),
    "power_loss_bound alpha_p": ("alpha_p", lambda a: power_loss_bound(2, 0.05, a)),
    "local_power": ("alpha", lambda a: local_power(2, a, 1.0)),
    "invert_confidence_set": ("alpha", lambda a: invert_confidence_set(
        lambda beta: SAMPLE, [0.0], 2, a, mc_reps=2000
    )),
    "split_test": ("alpha", lambda a: split_test(SAMPLE, 4, alpha=a, seed=1)),
}

# every entry point that takes a share map, with share s at p = 3
SHARE_ENTRY_POINTS = {
    "calibrate_joint": lambda s: calibrate_joint({2.0: 0.03, 3.0: s}, 4, 0.05, 4000),
    "CriticalValueTable": lambda s: table(
        entries={2.0: (0.03, 3.0), 3.0: (s, 3.0)}, standalone={2.0: 3.0, 3.0: 3.0}
    ),
    "DominantTestSpec": lambda s: spec(per_p_shares=(s,)),
}


def iv(**fields) -> IvConfig:
    return IvConfig(**{**dict(n=40, d=3, beta_true=0.0, pi=[0.5, 0.0, 0.0]), **fields})


def rct(**fields) -> RctConfig:
    return RctConfig(**{**dict(n=40, d=3, pi_treat=0.5, effect=[0.0, 0.0, 0.0]), **fields})


# every entry point that takes a count: (its check's least, hint and name, call at d)
D_ENTRY_POINTS = {
    "kappa_p_asymptotic": ((), lambda d: kappa_p_asymptotic(4, d, 0.05)),
    "kappa_inf_asymptotic": (
        (3, "; the asymptotic formula needs d >= 3, use kappa_inf_exact"),
        lambda d: kappa_inf_asymptotic(d, 0.05),
    ),
    "kappa_inf_exact": ((), lambda d: kappa_inf_exact(d, 0.05)),
    "mc_pnorm_quantile": ((), lambda d: mc_pnorm_quantile(2, d, 0.05, reps=2000)),
    "calibrate_joint": ((), lambda d: calibrate_joint({2.0: 0.05}, d, 0.05, 4000)),
    "default_spec": ((2, "; the default grid needs d >= 2"), lambda d: default_spec(d, 0.05)),
    "DominantTestSpec": ((), lambda d: spec(d=d)),
    "CriticalValueTable": ((), lambda d: table(d=d)),
    "sup_threshold": ((), sup_threshold),
    "make_alternative": (
        (2, "; alternative families need d >= 2"), lambda d: make_alternative("sparse", d)
    ),
    "split_test": ((), lambda d: split_test(SAMPLE, d, seed=1)),
    "select_top_scaled": ((), lambda d: select_top_scaled(SAMPLE, d)),
    "select_greedy": ((), lambda d: select_greedy(SAMPLE, d)),
    "split": ((1, "", "n"), split),
    "IvConfig n": ((1, "", "n"), lambda n: iv(n=n)),
    "IvConfig d": ((), lambda d: iv(d=d)),
    "RctConfig n": ((1, "", "n"), lambda n: rct(n=n)),
    "RctConfig d": ((), lambda d: rct(d=d)),
}

# every entry point that takes a vector: (its check's name and length, call at v)
VECTOR_ENTRY_POINTS = {
    "IvConfig pi": (("pi", 3), lambda v: iv(pi=v)),
    "RctConfig effect": (("effect", 3), lambda v: rct(effect=v)),
    "gen_rct": (("beta_star", 3), lambda v: gen_rct(rct(), v, 0)),
    "standardize": (("h", 3), lambda v: standardize(v, np.eye(3))),
    "theta_oracle": (("mu", 3), lambda v: theta_oracle(v, np.eye(3), 40)),
    "finite_p_criterion": (("theta",), lambda v: finite_p_criterion(v, 4)),
    "lambda_criterion": (("theta",), lambda v: lambda_criterion(v, 4)),
    "sup_criterion": (("theta",), sup_criterion),
    "p_norm_stat": (("v",), lambda v: p_norm_stat(v, 2)),
}
BAD_VECTORS = {
    "nan entry": [0.5, math.nan, 0.0],
    "non-numeric entry": ["a", 0.0, 0.0],
    "wrong length": [0.5, 0.0],
    "2-D": np.ones((3, 3)),
}

# every entry point that takes an integer other than a dimension: a draw
# count, a seed or aux_rows; (its check's least and name, call at c)
COUNT_ENTRY_POINTS = {
    "mc_pnorm_quantile reps": ((1, "reps"), lambda c: mc_pnorm_quantile(2, 4, 0.05, reps=c)),
    "calibrate_joint reps": ((1, "reps"), lambda c: calibrate_joint({2.0: 0.05}, 4, 0.05, c)),
    "calibrate_spec reps": ((1, "reps"), lambda c: calibrate_spec(spec(), reps=c)),
    "split_test reps": ((1, "reps"), lambda c: split_test(SAMPLE, 4, reps=c, seed=1)),
    "invert_confidence_set mc_reps": ((1, "mc_reps"), lambda c: invert_confidence_set(
        lambda beta: SAMPLE, [0.0], 2, 0.05, mc_reps=c
    )),
    "CriticalValueTable mc_reps": ((1, "mc_reps"), lambda c: table(mc_reps=c)),
    "mc_pnorm_quantile seed": (
        (0, "seed"), lambda c: mc_pnorm_quantile(2, 4, 0.05, reps=2000, seed=c)
    ),
    "calibrate_joint seed": (
        (0, "seed"), lambda c: calibrate_joint({2.0: 0.05}, 4, 0.05, 4000, seed=c)
    ),
    "calibrate_spec seed": ((0, "seed"), lambda c: calibrate_spec(spec(), reps=4000, seed=c)),
    "CriticalValueTable seed": ((0, "seed"), lambda c: table(seed=c)),
    "invert_confidence_set mc_seed": ((0, "mc_seed"), lambda c: invert_confidence_set(
        lambda beta: SAMPLE, [0.0], 2, 0.05, mc_reps=2000, mc_seed=c
    )),
    "split_test mc_seed": (
        (0, "mc_seed"), lambda c: split_test(SAMPLE, 4, reps=4000, mc_seed=c, seed=1)
    ),
    "split fold seed": ((0, "seed"), lambda c: split(100, 0.5, c)),
    "split_test fold seed": ((0, "seed"), lambda c: split_test(SAMPLE, 4, seed=c)),
    # d = 4, and d = 8 for the spec: at least d + 2 pairs
    "mc_pnorm_quantile aux_rows": (
        (6, "aux_rows"), lambda c: mc_pnorm_quantile(2, 4, 0.05, reps=2000, aux_rows=c)
    ),
    "calibrate_joint aux_rows": (
        (6, "aux_rows"), lambda c: calibrate_joint({2.0: 0.05}, 4, 0.05, 4000, aux_rows=c)
    ),
    "calibrate_spec aux_rows": (
        (10, "aux_rows"), lambda c: calibrate_spec(spec(), reps=4000, aux_rows=c)
    ),
    "CriticalValueTable aux_rows": ((6, "aux_rows"), lambda c: table(aux_rows=c)),
}
SEED_ENTRY_POINTS = {
    entry: rule for entry, rule in COUNT_ENTRY_POINTS.items() if rule[0][0] == 0
}
BELOW = "below its least value"


class TestScalarBoundary:
    @pytest.mark.parametrize("bad", BAD_LEVELS, ids=repr)
    @pytest.mark.parametrize("entry", ALPHA_ENTRY_POINTS, ids=str)
    def test_level_rejected_as_check_alpha_does(self, entry, bad):
        name, call = ALPHA_ENTRY_POINTS[entry]
        rejects_as(lambda: _check_alpha(bad, name), lambda: call(bad))

    @pytest.mark.parametrize("bad", BAD_LEVELS, ids=repr)
    @pytest.mark.parametrize("entry", SHARE_ENTRY_POINTS, ids=str)
    def test_share_rejected_as_check_alpha_does(self, entry, bad):
        rejects_as(lambda: _check_alpha(bad, "alpha share at p=3"),
                   lambda: SHARE_ENTRY_POINTS[entry](bad))

    @pytest.mark.parametrize(
        "shares, calls",
        [
            ({}, [
                lambda: calibrate_joint({}, 4, 0.05, 4000),
                lambda: table(entries={}, standalone={}),
                lambda: spec(alpha_2=0.0, alpha_I=0.0, p_grid=(), per_p_shares=()),
            ]),
            ({2.0: 0.02}, [
                lambda: calibrate_joint({2.0: 0.02}, 4, 0.05, 4000),
                lambda: table(entries={2.0: (0.02, 3.0)}),
                lambda: spec(alpha_2=0.02, alpha_I=0.0, p_grid=(), per_p_shares=()),
            ]),
        ],
        ids=["empty map", "sum below alpha_total"],
    )
    def test_share_map_rejected_as_check_shares_does(self, shares, calls):
        for call in calls:
            rejects_as(lambda: _check_shares(shares, 0.05), call)

    @pytest.mark.parametrize("bad", [True, 2.5, math.nan, "3", 0], ids=repr)
    @pytest.mark.parametrize("entry", D_ENTRY_POINTS, ids=str)
    def test_dimension_rejected_as_check_d_does(self, entry, bad):
        args, call = D_ENTRY_POINTS[entry]
        rejects_as(lambda: _check_d(bad, *args), lambda: call(bad))

    @pytest.mark.parametrize(
        "entry, bad",
        [
            (entry, bad)
            for entry, (args, _) in VECTOR_ENTRY_POINTS.items()
            for bad in BAD_VECTORS
            if len(args) == 2 or bad != "wrong length"  # a theta has any length
        ],
        ids=str,
    )
    def test_vector_rejected_as_check_vector_does(self, entry, bad):
        args, call = VECTOR_ENTRY_POINTS[entry]
        rejects_as(lambda: _check_vector(BAD_VECTORS[bad], *args),
                   lambda: call(BAD_VECTORS[bad]))

    @pytest.mark.parametrize("bad", [True, 2.5, "3", math.nan, BELOW], ids=repr)
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS, ids=str)
    def test_count_rejected_as_check_d_does(self, entry, bad):
        (least, name), call = COUNT_ENTRY_POINTS[entry]
        bad = least - 1 if bad == BELOW else bad
        rejects_as(lambda: _check_d(bad, least, name=name), lambda: call(bad))

    @pytest.mark.parametrize("bad", [-1, True, 2.5, np.int64(-2)], ids=repr)
    @pytest.mark.parametrize("entry", SEED_ENTRY_POINTS, ids=str)
    def test_seed_rejected_as_check_d_does(self, entry, bad):
        (_, name), call = SEED_ENTRY_POINTS[entry]
        rejects_as(lambda: _check_d(bad, 0, name=name), lambda: call(bad))

    def test_split_test_refuses_a_null_fold_seed(self):
        # a null seed would draw different folds on every call
        rejects_as(lambda: _check_d(None, 0, name="seed"),
                   lambda: split_test(SAMPLE, 4, seed=None))
