"""Tests for critical value formulas and Monte-Carlo calibration.

Closed-form routes are checked against independent oracles: scipy
quantiles of chi-square and F for the Monte-Carlo reference laws, and a
brentq root of (2 Phi(t) - 1)^d = 1 - alpha for the exact sup-norm value.
"""

import math
import os
import re
import sys
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
    _order_index,
    _TopRows,
    _worker_count,
    calibrate_joint,
    kappa_inf_asymptotic,
    kappa_inf_exact,
    kappa_p_asymptotic,
    mc_pnorm_quantile,
)
from pnormtest.dominant_test import calibrate_spec, default_spec
from pnormtest.gaussian_moments import INF, as_exponent

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
        ps = [as_exponent(p) for p in (2, 2.5, 3, 7)] + [INF]
        got = _batch_pnorms(z, ps)
        for j, p in enumerate((2, 2.5, 3, 7)):
            naive = (np.abs(z) ** p).sum(axis=1) ** (1.0 / p)
            assert np.allclose(got[:, j], naive, rtol=1e-12)
        assert np.allclose(got[:, 4], np.abs(z).max(axis=1), rtol=0)

    def test_no_overflow_at_extreme_scale(self):
        z = np.full((1, 5), 1e280)
        got = _batch_pnorms(z, [as_exponent(4)])
        assert np.isfinite(got[0, 0])
        assert got[0, 0] == pytest.approx(1e280 * 5**0.25, rel=1e-12)

    def test_zero_rows(self):
        got = _batch_pnorms(np.zeros((2, 3)), [as_exponent(2), INF])
        assert np.all(got == 0.0)

    def test_scratch_rows_beyond_z_and_z_unchanged(self):
        z = np.random.default_rng(3).standard_normal((5, 4))
        before = z.copy()
        ps = [as_exponent(p) for p in (2, 3, 4.5)] + [INF]
        got = _batch_pnorms(z, ps, np.empty((2, 8, 4)))
        assert np.array_equal(got, _batch_pnorms(z, ps))
        assert np.array_equal(z, before)


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

    def test_aux_rows_too_small(self):
        with pytest.raises(ValueError, match="aux_rows"):
            mc_pnorm_quantile(2, 10, 0.05, reps=2000, seed=0, aux_rows=11)

    def test_rejects_tiny_reps(self):
        with pytest.raises(ValueError, match="reps"):
            mc_pnorm_quantile(2, 10, 0.05, reps=999, seed=0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            mc_pnorm_quantile(2, 10, 0.05, reps=2000, seed=-1)

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
        assert t.exponents == (as_exponent(2), INF)

    def test_rejects_share_mismatch(self):
        with pytest.raises(ValueError, match="sum"):
            calibrate_joint({2: 0.02, 4: 0.02}, d=8, alpha_total=0.05, reps=20_000)

    def test_rejects_duplicate_exponents(self):
        with pytest.raises(ValueError, match="duplicate"):
            calibrate_joint(
                {2: 0.025, as_exponent(2.0): 0.025}, d=8, alpha_total=0.05, reps=20_000
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

    @pytest.mark.parametrize(
        "d,aux_rows,name", [(12, None, "table_d12.json"), (40, 200, "table_d40_aux200.json")]
    )
    def test_tables_match_recorded_golden(self, d, aux_rows, name):
        # recorded before calibration ran on threads; the draw stream and
        # every table built from it must stay byte-identical
        table = calibrate_spec(default_spec(d, 0.05), aux_rows=aux_rows).table
        assert table.to_json() + "\n" == (DATA / name).read_text()


def full_matrix_calibration(shares, d, alpha_total, reps, seed, aux_rows):
    """Calibration read from the whole reps x |grid| matrix of reference norms.

    The oracle for the kept-row selection: every block of the draw stream
    is stored, each column is partitioned at its share's and at the full
    level's order statistic, and c_n is the order statistic of the running
    max of norm / kappa over all rows.
    """
    ps, vals = zip(*sorted((as_exponent(p), float(s)) for p, s in shares.items()))
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
        ps = [as_exponent(p) for p in self.GRID]
        reps = 30 * _BLOCK + 123
        top = reps - _order_index(0.05, reps)
        kept = critical_values._reference_norms(ps, 12, reps, 5, None, top)
        assert kept.shape[0] == len(ps)
        assert top <= kept.shape[1] <= 4 * top + _BLOCK
        full = critical_values._reference_norms(ps, 12, reps, 5, None, reps)
        assert full.shape == (len(ps), reps)

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

    @pytest.mark.parametrize("name", ["table_d12.json", "table_d40_aux200.json"])
    def test_golden_tables_round_trip(self, name):
        text = (DATA / name).read_text()
        assert CriticalValueTable.from_json(text).to_json() + "\n" == text

    def test_json_keys(self):
        doc = self.make().to_json_dict()
        assert doc["schema_version"] == 1
        assert doc["kind"] == "critical_value_table"
        assert [row["p"] for row in doc["entries"]] == [2.0, 3.5, "inf"]

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
        bad_entries = {as_exponent(2): (0.05, -1.0)}
        with pytest.raises(ValueError, match="kappa"):
            CriticalValueTable(**{**good, "entries": bad_entries})

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
        with pytest.raises(ValueError, match="sum"):
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
        ],
        ids=["fractional d", "string aux_rows", "number flag", "nan c_n", "string p",
             "infinite kappa", "unknown entry key", "no entries"],
    )
    def test_reader_names_the_field_path(self, edit, message):
        doc = self.make().to_json_dict()
        edit(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            CriticalValueTable.from_json_dict(doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("d", 0, "d must be >= 1, got 0"),
            ("mc_reps", -5, "mc_reps must be >= 1, got -5"),
            ("mc_reps", 0, "mc_reps must be >= 1, got 0"),
            ("seed", -3, "seed must be nonnegative, got -3"),
            ("aux_rows", -7, "aux_rows must be null or >= d + 2, got -7"),
            ("aux_rows", 10, "aux_rows must be null or >= d + 2, got 10"),
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
