"""End-to-end acceptance checks at desk scale.

One test per shipping criterion: size control under estimated covariance,
local power against the normal approximation, critical-value formulas
against exact oracles, consistency-criterion directionality, power
dominance of the combined test, bounded power loss, post-selection size,
the IV specialization, and a numerics bundle.

Heavy Monte Carlo fixtures are module-scoped; every seed is frozen so the
whole file is deterministic.  Expected runtime is a few minutes, dominated
by the sample-splitting loop.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import pinvh

from pnormtest.consistency_oracle import (
    finite_p_criterion,
    make_alternative,
    sup_criterion,
)
from pnormtest.critical_values import (
    calibrate_joint,
    kappa_inf_asymptotic,
    kappa_inf_exact,
    kappa_p_asymptotic,
    mc_pnorm_quantile,
)
from pnormtest.dgp import IvConfig, gen_iv
from pnormtest.dominant_test import calibrate_spec, default_spec, power_loss_bound
from pnormtest.gaussian_moments import (
    lambda_p,
    normal_cdf,
    normal_quantile,
    sigma_p,
)
from pnormtest.matrix_core import pinv_sqrt
from pnormtest.sample_split import select_greedy, select_top_scaled, split, split_test
from pnormtest.test_engine import p_norm_stat, prepare_standardized, run_tests

from _oracles import lambda_quadrature

SIZE_BAND = (0.03, 0.07)


def _sfc(*key) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


def _batch_pnorm_stats(z: np.ndarray, ps) -> dict:
    """p-norms of each row of z for integer exponents and inf, in one pass."""
    a = np.abs(z)
    finite = sorted(int(p) for p in ps if not math.isinf(p))
    out = {}
    cur = a * a
    if 2 in finite:
        out[2.0] = cur.sum(axis=1) ** 0.5
    for k in range(3, finite[-1] + 1):
        cur = cur * a
        if k in finite:
            out[float(k)] = cur.sum(axis=1) ** (1.0 / k)
    if any(math.isinf(p) for p in ps):
        out[math.inf] = a.max(axis=1)
    return out


@pytest.fixture(scope="module")
def null_size_rates():
    """Rejection rates on the d=40, n=400 Gaussian null, both estimators.

    The covariance is estimated from difference pairs inside run_tests, so
    the spec is calibrated against the matching 200-pair reference.
    """
    d, n, alpha, reps = 40, 400, 0.05, 5000
    spec = calibrate_spec(default_spec(d, alpha), seed=11, aux_rows=n // 2)
    kinf = kappa_inf_exact(d, alpha)
    keys = (2.0, 3.0, 4.0, "inf_exact", "psi", "psi_clipped")
    hits = {est: dict.fromkeys(keys, 0) for est in ("sample", "truncated")}
    start = time.perf_counter()
    for rep in range(reps):
        rows = _sfc(20260814, rep).standard_normal((n, d))
        for est, acc in hits.items():
            report = run_tests(rows, spec, estimator=est)
            for p in (2.0, 3.0, 4.0):
                acc[p] += report.record(p).reject
            acc["inf_exact"] += report.record(math.inf).statistic >= kinf
            acc["psi"] += report.dominant.reject
            # clipping c_n at 1 can only make the combined test stricter
            acc["psi_clipped"] += report.dominant.max_ratio >= 1.0
    elapsed = time.perf_counter() - start
    rates = {est: {k: v / reps for k, v in acc.items()} for est, acc in hits.items()}
    return rates, elapsed


def test_finite_p_size_control(null_size_rates):
    rates, elapsed = null_size_rates
    for est in ("sample", "truncated"):
        for p in (2.0, 3.0, 4.0):
            r = rates[est][p]
            assert SIZE_BAND[0] <= r <= SIZE_BAND[1], f"{est} p={p}: rate {r}"
    assert elapsed <= 180.0, f"null size loop took {elapsed:.0f}s"


def test_sup_and_combined_size_control(null_size_rates):
    rates, _ = null_size_rates
    for est in ("sample", "truncated"):
        r_inf = rates[est]["inf_exact"]
        assert SIZE_BAND[0] <= r_inf <= SIZE_BAND[1], f"{est} sup: rate {r_inf}"
        r_psi = rates[est]["psi"]
        assert SIZE_BAND[0] <= r_psi <= SIZE_BAND[1], f"{est} psi: rate {r_psi}"
        assert rates[est]["psi_clipped"] <= SIZE_BAND[1]


def test_local_power_matches_normal_approximation():
    # Gaussian limit experiment with known identity covariance: power of the
    # p-norm test against a dense drift approaches 1 - Phi(z_alpha - c/sigma_p)
    d, reps, alpha = 1000, 10_000, 0.05
    z95 = normal_quantile(1 - alpha)

    theta2 = np.full(d, math.sqrt(2.0 / math.sqrt(d)))  # ||theta||^2 = 2 sqrt(d)
    draws = np.random.default_rng(31).standard_normal((reps, d)) + theta2  # Z_d + theta
    power2 = float(np.mean(np.linalg.norm(draws, axis=1) >= kappa_p_asymptotic(2, d, alpha)))
    target2 = 1.0 - normal_cdf(z95 - 2.0 / sigma_p(2))
    assert power2 == pytest.approx(target2, abs=0.05)

    # per-coordinate shift t solving sum(lambda_4(t) - lambda_4(0)) = 2 sqrt(d),
    # i.e. t^4 + 6 t^2 = 2/sqrt(d)
    t = math.sqrt(-3.0 + math.sqrt(9.0 + 2.0 / math.sqrt(d)))
    draws = np.random.default_rng(32).standard_normal((reps, d)) + t
    s4 = (np.abs(draws) ** 4).sum(axis=1) ** 0.25
    power4 = float(np.mean(s4 >= kappa_p_asymptotic(4, d, alpha)))
    target4 = 1.0 - normal_cdf(z95 - 2.0 / sigma_p(4))
    assert power4 == pytest.approx(target4, abs=0.07)


def test_sup_critical_value_formula_vs_exact_oracle():
    gaps = [
        kappa_inf_asymptotic(d, 0.05) - kappa_inf_exact(d, 0.05)
        for d in (10**3, 10**4, 10**5)
    ]
    assert abs(gaps[0]) <= 0.10
    assert abs(gaps[2]) <= 0.08
    assert abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])


def test_consistency_criteria_directionality():
    """Divergence criteria across d = 10^2..10^6 for the canonical families."""
    ds = (10**2, 10**3, 10**4, 10**5, 10**6)

    def increasing(seq):
        return all(a < b for a, b in zip(seq, seq[1:]))

    def decreasing(seq):
        return all(a > b for a, b in zip(seq, seq[1:]))

    sparse = [make_alternative("sparse", d) for d in ds]
    assert increasing([sup_criterion(a) for a in sparse])
    for p in (2, 4, 6):
        seq = [finite_p_criterion(a, p) for a in sparse]
        assert max(seq) <= 1.5 * seq[0], f"sparse p={p}: {seq}"

    dense = [make_alternative("dense", d) for d in ds]
    for p in (2, 4, 6):
        assert increasing([finite_p_criterion(a, p) for a in dense])
    assert increasing([sup_criterion(a) for a in dense])

    semi = [make_alternative("semi_sparse", d) for d in ds]
    assert decreasing([finite_p_criterion(a, 2) for a in semi])
    assert decreasing([sup_criterion(a) for a in semi])
    # The p=6 criterion k (2t ln d)^3 / sqrt(d) diverges like (2t)^3 ln d,
    # but the raw sequence is not monotone on this grid, for two reasons:
    # * while 2t ln d < 1 (d < e^{1/(2t)} ~ 518) the spike is below 1, so
    #   g_6 = x^2 and the p=6 criterion is the p=2 one, which falls;
    # * the integer spike count k = ceil(r), r = sqrt(d) / (ln d)^2, scales
    #   the criterion by k/r, and that factor swings more than ln d grows.
    # So check the p=2 identity below the threshold and, above it, that the
    # criterion with k/r divided out is (2t)^3 ln d and rises at each step.
    t = 0.08  # make_alternative's default
    seq6 = [finite_p_criterion(a, 6) for a in semi]
    seq2 = [finite_p_criterion(a, 2) for a in semi]
    corrected = []
    for d, v6, v2 in zip(ds, seq6, seq2):
        ln_d = math.log(d)
        if 2.0 * t * ln_d < 1.0:
            assert v6 == pytest.approx(v2, rel=1e-12), (
                f"semi-sparse p=6 at d={d} (spike < 1) differs from p=2: {v6} vs {v2}"
            )
            continue
        r = math.sqrt(d) / ln_d**2
        corrected.append(v6 * r / math.ceil(r))
        rate = (2.0 * t) ** 3 * ln_d
        assert corrected[-1] == pytest.approx(rate, rel=1e-9), (
            f"semi-sparse p=6 at d={d}: corrected {corrected[-1]} is not (2t)^3 ln d = {rate}"
        )
    assert len(corrected) >= 2 and increasing(corrected), (
        f"semi-sparse p=6 criterion does not diverge on this grid: "
        f"raw {[round(v, 6) for v in seq6]}, "
        f"with k/r divided out {[round(v, 6) for v in corrected]}"
    )


def test_power_ordering_on_semi_sparse_alternatives():
    # one spiked coordinate at d=5000: higher exponents should win, and the
    # combined test should track the best single exponent
    d, alpha = 5000, 0.05
    ps = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, math.inf]
    table = calibrate_joint(
        {p: alpha / len(ps) for p in ps}, d=d, alpha_total=alpha, reps=200_000, seed=6
    )
    kap = {p: table.kappa(p) for p in ps}
    alone = {p: table.standalone_kappa(p) for p in (2.0, 4.0, 6.0)}

    def spike(scale):
        return make_alternative("semi_sparse", d, scale=scale)

    def probe_power6(scale):
        z = _sfc(67).standard_normal((2000, d)) + spike(scale)
        s6 = (np.abs(z) ** 6).sum(axis=1) ** (1.0 / 6.0)
        return float(np.mean(s6 >= alone[6.0]))

    lo, hi = 2.0, 9.0  # fixed probe draws keep power monotone in the scale
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if probe_power6(mid) < 0.7 else (lo, mid)
    theta = spike(0.5 * (lo + hi))

    reps, blocks = 5000, 10
    hits = dict.fromkeys((2.0, 4.0, 6.0), 0)
    psi_hits = null_hits = 0
    for block in range(blocks):
        z = _sfc(68, block).standard_normal((reps // blocks, d)) + theta
        stats = _batch_pnorm_stats(z, ps)
        for p in hits:
            hits[p] += int(np.sum(stats[p] >= alone[p]))
        ratio = np.max(np.stack([stats[p] / kap[p] for p in ps]), axis=0)
        psi_hits += int(np.sum(ratio >= table.c_n))

        z0 = _sfc(61, block).standard_normal((reps // blocks, d))
        stats0 = _batch_pnorm_stats(z0, ps)
        ratio0 = np.max(np.stack([stats0[p] / kap[p] for p in ps]), axis=0)
        null_hits += int(np.sum(ratio0 >= table.c_n))

    power = {p: h / reps for p, h in hits.items()}
    power_psi = psi_hits / reps
    assert 0.6 <= power[6.0] <= 0.8, f"scale tuning missed: power6={power[6.0]}"
    assert power[6.0] >= power[4.0], f"{power}"
    assert power[4.0] >= power[2.0] - 0.02, f"{power}"
    assert power_psi >= power[6.0] - 0.05, f"psi={power_psi} vs {power}"
    assert null_hits / reps <= 0.07


def test_combined_test_bounded_power_loss():
    # dense drifts where p=2 alone is optimal: the combined test may lose at
    # most the analytic bound (plus MC slack) relative to the standalone test
    d, alpha, reps = 100, 0.05, 5000
    spec = calibrate_spec(default_spec(d, alpha), seed=7)
    table = spec.table
    ps = [p.value if not p.is_inf else math.inf for p in table.exponents]
    kap = {p: table.kappa(p) for p in ps}
    alone2 = table.standalone_kappa(2.0)
    assert table.share(2.0) == pytest.approx(alpha / 3.0)
    allowed = power_loss_bound(2, alpha, alpha / 3.0) + 0.03

    z95 = normal_quantile(1 - alpha)
    targets = np.linspace(0.10, 0.95, 10)
    measured2 = []
    for i, target in enumerate(targets):
        drift = z95 - normal_quantile(1.0 - target)
        theta = np.full(d, math.sqrt(drift * math.sqrt(2.0 * d) / d))
        z = _sfc(71, i).standard_normal((reps, d)) + theta
        stats = _batch_pnorm_stats(z, ps)
        p2 = float(np.mean(stats[2.0] >= alone2))
        ratio = np.max(np.stack([stats[p] / kap[p] for p in ps]), axis=0)
        psi = float(np.mean(ratio >= table.c_n))
        measured2.append(p2)
        assert p2 - psi <= allowed, f"cell {i}: p2={p2} psi={psi}"
    # the sweep really does span low to high power
    assert measured2[0] <= 0.15 and measured2[-1] >= 0.80


@pytest.fixture(scope="module")
def spec12():
    return calibrate_spec(default_spec(12, 0.05), seed=5, aux_rows=500)


@pytest.mark.slow
def test_sample_split_size_and_power(spec12):
    # D=2000 candidate moments, n=2000 null rows: whatever fold-1 selects,
    # the fold-2 test of the d=12 survivors must keep its level
    D, n, d, reps = 2000, 2000, 12, 3000
    hits = {(rule, key): 0 for rule in ("top", "greedy") for key in ("2", "inf", "psi")}
    for rep in range(reps):
        rows = _sfc(81, rep).standard_normal((n, D))
        idx1, idx2 = split(n, seed=rep)
        fold1 = rows[idx1]
        fold2 = rows[idx2]
        for rule, chosen in (
            ("top", select_top_scaled(fold1, d)),
            ("greedy", select_greedy(fold1, d, 2.0)),
        ):
            report = run_tests(fold2[:, chosen], spec12)
            hits[(rule, "2")] += report.record(2.0).reject
            hits[(rule, "inf")] += report.record(math.inf).reject
            hits[(rule, "psi")] += report.dominant.reject
    for key, count in hits.items():
        rate = count / reps
        assert SIZE_BAND[0] <= rate <= SIZE_BAND[1], f"{key}: rate {rate}"

    # power companion: one coordinate off by 8 standard errors, scan
    # selection must find it and the second-stage combined test must reject
    power_reps, col = 500, 1234
    rejects = 0
    for rep in range(power_reps):
        rows = _sfc(82, rep).standard_normal((n, D))
        rows[:, col] += 8.0 / math.sqrt(n)
        result = split_test(rows, d, selection="top", spec=spec12, seed=rep)
        rejects += result.report.dominant.reject
    assert rejects / power_reps >= 0.9


def test_iv_p2_is_anderson_rubin_and_robust_to_weak_instruments():
    # route 1: the generic standardized p=2 statistic; route 2: the explicit
    # quadratic form H' Sigma^-1 H computed with an independent inverse
    cfg = IvConfig(
        n=300, d=25, beta_true=1.0, pi=np.linspace(0.4, 1.2, 25), endogeneity_rho=0.3
    )
    for rep in range(50):
        s = gen_iv(cfg, beta_star=0.5, seed=rep)
        x, _, _, sigma, _ = prepare_standardized(s)
        s2 = p_norm_stat(x, 2)
        h = math.sqrt(s.shape[0]) * s.mean(axis=0)  # H = n^{-1/2} sum_i h(X_i)
        ar = math.sqrt(h @ pinvh(sigma) @ h)
        assert s2 == pytest.approx(ar, rel=1e-9)

    # pi = 0: beta is not identified, yet the test keeps its level at any
    # candidate value because the moment rows stay mean zero
    n, d, reps = 1000, 40, 3000
    cfg0 = IvConfig(n=n, d=d, beta_true=1.0, pi=np.zeros(d), endogeneity_rho=0.5)
    crit = mc_pnorm_quantile(2, d, 0.05, seed=9, aux_rows=n // 2)
    for bi, beta_star in enumerate((-1.0, 0.0, 1.0, 2.5)):
        hits = 0
        for rep in range(reps):
            s = gen_iv(cfg0, beta_star=beta_star, seed=np.random.SeedSequence((91, bi, rep)))
            hits += p_norm_stat(prepare_standardized(s)[0], 2) >= crit
        rate = hits / reps
        assert SIZE_BAND[0] <= rate <= SIZE_BAND[1], f"beta*={beta_star}: rate {rate}"


def test_numeric_invariants():
    for x in (0.0, 0.5, 1.0, 3.0, 10.0):
        assert lambda_p(2, x) == pytest.approx(1.0 + x * x, rel=1e-14)
    assert sigma_p(2) == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert sigma_p(4) == pytest.approx(math.sqrt(96.0), rel=1e-13)

    for p, x in ((2.0, 0.5), (4.0, 2.0)):
        assert lambda_p(p, x) == pytest.approx(lambda_quadrature(p, x), rel=1e-11)
    for p, x in ((2.5, 0.5), (3.0, 2.0)):
        assert lambda_p(p, x) == pytest.approx(lambda_quadrature(p, x), rel=1e-4)
    # direct Monte Carlo route for one fractional exponent
    zs = _sfc(101).standard_normal(2_000_000)
    vals = np.abs(zs + 1.5) ** 3.5
    mc_se = float(vals.std() / math.sqrt(vals.size))
    assert abs(lambda_p(3.5, 1.5) - float(vals.mean())) <= 5.0 * mc_se

    rng = np.random.default_rng(10)
    b = rng.standard_normal((30, 8))
    a = b.T @ b
    root = pinv_sqrt(a).entries
    assert np.allclose(root @ a @ root, np.eye(8), atol=1e-9)
    padded = np.zeros((9, 9))
    padded[:8, :8] = a  # rank deficient: whitening lands on a projection
    proj = pinv_sqrt(padded).entries @ padded @ pinv_sqrt(padded).entries
    assert np.allclose(proj @ proj, proj, atol=1e-9)

    for rep in range(20):
        v = rng.standard_normal(50)
        chain = [p_norm_stat(v, p) for p in (math.inf, 6.0, 4.0, 2.0)]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(chain, chain[1:]))

    assert mc_pnorm_quantile(3, 20, 0.05, reps=20_000, seed=4) == mc_pnorm_quantile(
        3, 20, 0.05, reps=20_000, seed=4
    )
