"""Tests for consistency criteria, power formulas, alternative families.

Sequence oracles below were computed independently from the closed-form
expressions (k and the spike size written out by hand per family) and are
frozen to six significant figures.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

from pnormtest.consistency_oracle import (
    finite_p_criterion,
    lambda_criterion,
    local_power,
    make_alternative,
    sup_criterion,
    sup_threshold,
)
from pnormtest.gaussian_moments import sigma_p

D_GRID = [10**2, 10**3, 10**4, 10**5, 10**6]

# frozen evaluations over D_GRID (hand-derived closed forms)
SEMI_P2 = [0.0736827, 0.0349508, 0.0294731, 0.0174754, 0.0132629]
SEMI_P6 = [0.0736827, 0.0426944, 0.0640055, 0.0592978, 0.0648055]
SEMI_SUP = [0.294996, 0.281109, 0.279808, 0.278241, 0.278068]
SPARSE_SUP = [4.97371, 6.58911, 8.31520, 10.2341, 12.4010]


class TestSupThreshold:
    def test_d100(self):
        assert sup_threshold(100) == pytest.approx(2.78325, abs=1e-5)

    def test_d1_is_zero(self):
        assert sup_threshold(1) == 0.0

    def test_d2_accepts_negative_lnln(self):
        root = math.sqrt(2 * math.log(2))
        assert sup_threshold(2) == pytest.approx(
            root - math.log(math.log(2)) / (2 * root), abs=1e-12
        )

    def test_increasing(self):
        vals = [sup_threshold(d) for d in (3, 10, 100, 10**4, 10**8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestFinitePCriterion:
    def test_zero_profile(self):
        assert finite_p_criterion(np.zeros(50), 2) == 0.0

    def test_sparse_closed_form(self):
        for d in D_GRID:
            got = finite_p_criterion(make_alternative("sparse", d), 2)
            assert got == pytest.approx(3.0 * math.log(d) / math.sqrt(d), rel=1e-12)

    def test_dense_closed_form(self):
        got = finite_p_criterion(make_alternative("dense", 100), 2)
        assert got == pytest.approx(math.sqrt(100) / math.log(100), rel=1e-12)

    @given(
        theta=hnp.arrays(
            np.float64, st.integers(1, 40), elements=st.floats(-5.0, 5.0)
        ),
        p=st.floats(2.0, 10.0),
        dq=st.floats(0.1, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_p(self, theta, p, dq):
        assert finite_p_criterion(theta, p) <= finite_p_criterion(theta, p + dq) + 1e-12


class TestLambdaCriterion:
    def test_zero_profile(self):
        assert lambda_criterion(np.zeros(10), 4) == 0.0

    def test_p2_identity(self):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(200) * 2.0
        got = lambda_criterion(theta, 2)
        assert got == pytest.approx(np.sum(theta**2) / math.sqrt(200), rel=1e-9)

    def test_divergence_direction_matches_envelope(self):
        # endpoint log-slope across the d grid has the same sign for both
        # criteria, for every family and exponent
        for kind in ("sparse", "dense", "semi_sparse"):
            for p in (2, 4, 6):
                fin = [finite_p_criterion(make_alternative(kind, d), p) for d in D_GRID]
                lam = [lambda_criterion(make_alternative(kind, d), p) for d in D_GRID]
                assert math.copysign(1, fin[-1] - fin[0]) == math.copysign(
                    1, lam[-1] - lam[0]
                ), (kind, p)


class TestSupCriterion:
    def test_zero_profile_d100(self):
        # 100 * MillsOdds(c_100), independently via scipy sf/cdf
        c = sup_threshold(100)
        oracle = 100 * norm.sf(c) / norm.cdf(c)
        got = sup_criterion(np.zeros(100))
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(0.270, abs=1e-3)

    def test_spike_at_threshold(self):
        # first coordinate contributes MillsOdds(0) = 1 exactly
        d = 500
        theta = np.zeros(d)
        theta[0] = sup_threshold(d)
        base = norm.sf(sup_threshold(d)) / norm.cdf(sup_threshold(d))
        assert sup_criterion(theta) == pytest.approx(1.0 + (d - 1) * base, rel=1e-9)

    def test_sparse_family_diverges(self):
        vals = [sup_criterion(make_alternative("sparse", d)) for d in D_GRID]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        for got, frozen in zip(vals, SPARSE_SUP):
            assert got == pytest.approx(frozen, rel=1e-5)

    def test_positive_at_zero(self):
        assert sup_criterion(np.zeros(3)) > 0.0


class TestCanonicalSequences:
    def test_semi_sparse_frozen_values(self):
        for d, v2, v6, vs in zip(D_GRID, SEMI_P2, SEMI_P6, SEMI_SUP):
            theta = make_alternative("semi_sparse", d)
            assert finite_p_criterion(theta, 2) == pytest.approx(v2, rel=1e-5)
            assert finite_p_criterion(theta, 6) == pytest.approx(v6, rel=1e-5)
            assert sup_criterion(theta) == pytest.approx(vs, rel=1e-5)

    def test_semi_sparse_directions(self):
        # p=2 and sup shrink monotonically.  The p=6 criterion diverges,
        # but its exact sequence is not monotone, for two reasons: at
        # d = 10^2 the spike is below 1 (2t ln d < 1), so g_6 = x^2 and the
        # p=6 value equals the p=2 one; and the ceiling in k makes the
        # sequence sawtooth.  So only the d >= 10^3 endpoints are compared
        # here; the acceptance suite checks every grid point with both
        # effects accounted for.
        assert all(b < a for a, b in zip(SEMI_P2, SEMI_P2[1:]))
        assert all(b < a for a, b in zip(SEMI_SUP, SEMI_SUP[1:]))
        p6 = [
            finite_p_criterion(make_alternative("semi_sparse", d), 6)
            for d in D_GRID[1:]
        ]
        assert p6[-1] > p6[0]


class TestLocalPower:
    def test_equals_alpha_at_zero(self):
        for alpha in (0.01, 0.05, 0.2):
            assert local_power(2, alpha, 0.0) == pytest.approx(alpha, rel=1e-12)

    def test_half_at_matched_drift(self):
        for p in (2, 3, 6):
            c = sigma_p(p) * norm.ppf(0.95)
            assert local_power(p, 0.05, c) == pytest.approx(0.5, abs=1e-12)

    def test_p2_drift_two(self):
        oracle = 1 - norm.cdf(norm.ppf(0.95) - 2.0 / math.sqrt(2.0))
        got = local_power(2, 0.05, 2.0)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.409, abs=1e-3)

    def test_increasing_in_c_decreasing_in_p(self):
        cs = [0.0, 0.5, 1.0, 2.0, 4.0]
        vals = [local_power(3, 0.05, c) for c in cs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        ps = [2, 3, 4, 6, 10]
        at_c = [local_power(p, 0.05, 2.0) for p in ps]
        assert all(b < a for a, b in zip(at_c, at_c[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="alpha"):
            local_power(2, 1.0, 1.0)
        with pytest.raises(ValueError, match="c must"):
            local_power(2, 0.05, -0.1)

    @pytest.mark.parametrize("p", [2, 3, 4.5])
    def test_rejects_nan_drift(self, p):
        with pytest.raises(ValueError, match="c must"):
            local_power(p, 0.05, math.nan)


class TestMakeAlternative:
    def test_sparse_d55(self):
        theta = make_alternative("sparse", 55)
        assert theta[0] == pytest.approx(math.sqrt(3 * math.log(55)), rel=1e-12)
        assert theta[0] == pytest.approx(3.467, abs=1e-3)
        assert np.all(theta[1:] == 0.0)

    def test_dense_d100(self):
        theta = make_alternative("dense", 100)
        assert np.all(theta == theta[0])
        assert theta[0] == pytest.approx(0.466, abs=1e-3)

    def test_semi_sparse_d1e4(self):
        theta = make_alternative("semi_sparse", 10**4)
        nz = theta[theta != 0.0]
        assert nz.size == 2
        assert nz[0] == pytest.approx(1.214, abs=1e-3)

    def test_scale_multiplies(self):
        a = make_alternative("dense", 50)
        b = make_alternative("dense", 50, scale=2.5)
        assert np.allclose(b, 2.5 * a)

    def test_semi_sparse_t_parameter(self):
        hot = make_alternative("semi_sparse", 10**4, t=0.32)
        cold = make_alternative("semi_sparse", 10**4, t=0.08)
        assert np.max(hot) == pytest.approx(2.0 * np.max(cold), rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="kind"):
            make_alternative("spiky", 100)
        with pytest.raises(ValueError, match="d >= 2"):
            make_alternative("sparse", 1)
        with pytest.raises(ValueError, match="too small"):
            make_alternative("semi_sparse", 2)
        with pytest.raises(ValueError, match="t > 0"):
            make_alternative("semi_sparse", 100, t=0.0)
        with pytest.raises(ValueError, match="scale"):
            make_alternative("dense", 100, scale=0.0)

    def test_returns_theta_profile(self):
        assert isinstance(make_alternative("dense", 10), np.ndarray)

    def test_rejects_nan_scale(self):
        with pytest.raises(ValueError, match="scale must be positive, got nan"):
            make_alternative("dense", 100, scale=math.nan)

    def test_rejects_nan_t(self):
        with pytest.raises(ValueError, match="t > 0, got t=nan"):
            make_alternative("semi_sparse", 100, t=math.nan)

    @pytest.mark.parametrize("kind", ["sparse", "dense", "semi_sparse"])
    def test_rejects_infinite_scale(self, kind):
        with pytest.raises(ValueError, match="theta entries must be finite"):
            make_alternative(kind, 100, scale=math.inf)


class TestThetaArgument:
    @pytest.mark.parametrize(
        "criterion",
        [lambda t: finite_p_criterion(t, 4), lambda t: lambda_criterion(t, 4), sup_criterion],
    )
    def test_one_check_of_every_theta(self, criterion):
        with pytest.raises(ValueError, match=r"expected a vector, got shape \(2, 2\)"):
            criterion(np.ones((2, 2)))
        with pytest.raises(ValueError, match="theta entries must be finite"):
            criterion([0.5, math.nan])
