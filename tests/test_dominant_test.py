"""Tests for the combined-test spec, rejection rule, and loss bound."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from pnormtest.critical_values import _auto_reps
from pnormtest.dominant_test import (
    DominantTestSpec,
    calibrate_spec,
    default_spec,
    evaluate_psi,
    power_loss_bound,
)


class TestDefaultSpec:
    def test_smallest_dimension(self):
        s = default_spec(2, 0.06)
        assert s.p_grid == (3.0,)
        assert s.per_p_shares == pytest.approx((0.02,), abs=1e-15)
        assert s.alpha_2 == pytest.approx(0.02, abs=1e-15)
        assert s.alpha_inf == pytest.approx(0.02, abs=1e-15)

    def test_d256(self):
        s = default_spec(256, 0.05)
        assert s.p_grid == tuple(float(p) for p in range(3, 11))
        # consecutive shares halve
        for a, b in zip(s.per_p_shares, s.per_p_shares[1:]):
            assert b == pytest.approx(a / 2.0, rel=1e-12)
        assert sum(s.per_p_shares) == pytest.approx(0.05 / 3.0, abs=1e-15)

    def test_grid_cap(self):
        s = default_spec(10**7, 0.05)
        assert len(s.p_grid) == 12
        assert s.p_grid[-1] == 14.0

    @given(
        d=st.integers(min_value=2, max_value=10**7),
        alpha=st.floats(min_value=0.001, max_value=0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_identity(self, d, alpha):
        s = default_spec(d, alpha)
        total = s.alpha_2 + s.alpha_inf + sum(s.per_p_shares)
        assert abs(total - alpha) <= 1e-12
        assert len(s.p_grid) == min(math.ceil(math.log2(d)), 12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="d >= 2"):
            default_spec(1, 0.05)
        with pytest.raises(ValueError, match="alpha"):
            default_spec(8, 0.0)

    def test_accepts_a_numpy_integer_d(self):
        s = default_spec(np.int64(40), 0.05)
        assert s == default_spec(40, 0.05)
        assert type(s.d) is int

    @pytest.mark.parametrize("d", [2.5, math.nan, math.inf], ids=str)
    def test_rejects_unusable_d(self, d):
        with pytest.raises(ValueError, match=f"^d must be >= 2 and a finite integer, got {d}"):
            default_spec(d, 0.05)


class TestSpecInvariants:
    def base(self, **kw):
        args = dict(
            d=8,
            alpha_total=0.05,
            alpha_2=0.02,
            alpha_I=0.02,
            alpha_inf=0.01,
            p_grid=(3.0, 4.0),
            per_p_shares=(0.012, 0.008),
        )
        args.update(kw)
        return DominantTestSpec(**args)

    def test_valid_base(self):
        s = self.base()
        assert s.exponents == (2.0, 3.0, 4.0, math.inf)
        assert not s.calibrated

    def test_zero_endpoint_drops_exponent(self):
        s = self.base(alpha_2=0.0, alpha_inf=0.03)
        assert 2.0 not in s.exponents
        assert math.inf in s.exponents

    def test_rejects_partition_mismatch(self):
        with pytest.raises(ValueError, match="alpha_total"):
            self.base(alpha_inf=0.02)

    def test_rejects_interior_share_mismatch(self):
        with pytest.raises(ValueError, match="alpha_I"):
            self.base(per_p_shares=(0.01, 0.008))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            self.base(p_grid=(4.0, 3.0))

    @pytest.mark.parametrize("d", [2.5, math.nan], ids=str)
    def test_rejects_unusable_d(self, d):
        with pytest.raises(ValueError, match=f"^d must be >= 1 and a finite integer, got {d}$"):
            self.base(d=d)

    def test_rejects_out_of_range_exponent(self):
        with pytest.raises(ValueError, match="2, inf"):
            self.base(p_grid=(2.0, 4.0))

    @pytest.mark.parametrize(
        "override",
        [
            {"alpha_2": math.nan},
            {"alpha_inf": math.nan},
            {"per_p_shares": (math.nan, 0.008)},
            {"alpha_I": math.nan, "per_p_shares": (math.nan, math.nan)},
        ],
        ids=["nan alpha_2", "nan alpha_inf", "nan interior share", "nan alpha_I"],
    )
    def test_rejects_nan_shares(self, override):
        with pytest.raises(ValueError):
            self.base(**override)

    def test_reads_a_spec_document_only(self):
        doc = self.base().to_json_dict()
        doc["kind"] = "critical_value_table"
        with pytest.raises(ValueError, match="^kind: expected 'dominant_test_spec'"):
            DominantTestSpec.from_json_dict(doc)

    def test_p2_only_spec_is_valid(self):
        s = DominantTestSpec(
            d=8,
            alpha_total=0.05,
            alpha_2=0.05,
            alpha_I=0.0,
            alpha_inf=0.0,
            p_grid=(),
            per_p_shares=(),
        )
        assert s.exponents == (2.0,)

    def test_rejects_all_zero_allocation(self):
        with pytest.raises(ValueError, match="no positive share"):
            DominantTestSpec(
                d=8,
                alpha_total=1e-13,
                alpha_2=0.0,
                alpha_I=0.0,
                alpha_inf=0.0,
                p_grid=(),
                per_p_shares=(),
            )

    def test_json_roundtrip_uncalibrated(self):
        s = self.base()
        assert DominantTestSpec.from_json(s.to_json()) == s

    def test_stores_plain_types(self):
        # a numpy d and list grids are stored as an int and float tuples:
        # the spec is hashable, writes JSON and reads back equal
        s = self.base(d=np.int64(8), p_grid=[3, np.float64(4.0)], per_p_shares=[0.012, 0.008])
        assert s == self.base() and hash(s) == hash(self.base())
        assert type(s.d) is int
        assert [type(v) for v in (*s.p_grid, *s.per_p_shares)] == [float] * 4
        assert DominantTestSpec.from_json(s.to_json()) == s
        calibrated = calibrate_spec(s, reps=np.int64(50_000), seed=3)
        assert DominantTestSpec.from_json(calibrated.to_json()) == calibrated

    @pytest.mark.parametrize("real", [np.float32, np.float64])
    def test_numpy_alpha_fields_stored_as_floats(self, real):
        # dyadic values, exact in float32, so the shares still sum exactly
        s = self.base(alpha_total=real(0.0625), alpha_2=real(0.03125), alpha_I=real(0.015625),
                      alpha_inf=real(0.015625), per_p_shares=(0.0078125, 0.0078125))
        fields = (s.alpha_total, s.alpha_2, s.alpha_I, s.alpha_inf)
        assert [type(v) for v in fields] == [float] * 4
        assert DominantTestSpec.from_json(s.to_json()) == s


@pytest.fixture(scope="module")
def calibrated():
    # d=6 gives m=3 interior exponents; 50k reps resolve the smallest
    # share 0.05/3 * (1/8)/(7/8) ~ 0.0024 with ~119 tail draws
    return calibrate_spec(default_spec(6, 0.05), reps=50_000, seed=3)


class TestCalibrateSpec:
    def test_table_attached_and_consistent(self, calibrated):
        s = calibrated
        assert s.calibrated
        assert s.table.d == 6
        assert s.table.exponents == s.exponents
        assert 0.0 < s.table.c_n <= 1.0

    def test_roundtrip_calibrated(self, calibrated):
        assert DominantTestSpec.from_json(calibrated.to_json()) == calibrated

    def test_auto_reps_floor_and_scaling(self):
        assert _auto_reps(0.01) == 200_000
        assert _auto_reps(6.5e-05) == math.ceil(100 / 6.5e-05)

    def test_auto_reps_resolve_their_own_smallest_share(self):
        # the smallest share at d=2048, alpha=0.5 times ceil(100 / share)
        # is 99.99999999999999 in floating point; the automatic count must
        # pass the same integer check it was derived from
        spec = dataclasses.replace(default_spec(2048, 0.5), d=2)
        assert calibrate_spec(spec).table.mc_reps == 1_228_200

    def test_mismatched_table_rejected(self, calibrated):
        with pytest.raises(ValueError, match="match the spec"):
            DominantTestSpec(
                d=7,
                alpha_total=0.05,
                alpha_2=calibrated.alpha_2,
                alpha_I=calibrated.alpha_I,
                alpha_inf=calibrated.alpha_inf,
                p_grid=calibrated.p_grid,
                per_p_shares=calibrated.per_p_shares,
                table=calibrated.table,
            )

    def test_table_at_other_shares_rejected(self, calibrated):
        # same total and grid, but the endpoint shares moved by 0.01
        with pytest.raises(ValueError, match="other alpha shares"):
            dataclasses.replace(
                calibrated,
                alpha_2=calibrated.alpha_2 + 0.01,
                alpha_inf=calibrated.alpha_inf - 0.01,
            )


class TestEvaluatePsi:
    def zeros(self, spec):
        return {p: 0.0 for p in spec.exponents}

    def test_all_zero_accepts(self, calibrated):
        assert evaluate_psi(self.zeros(calibrated), calibrated) is False

    def test_single_large_stat_rejects(self, calibrated):
        for p in calibrated.exponents:
            stats = self.zeros(calibrated)
            stats[p] = 2.0 * calibrated.table.kappa(p)
            assert evaluate_psi(stats, calibrated) is True

    def test_boundary_counts_as_rejection(self, calibrated):
        stats = self.zeros(calibrated)
        p = calibrated.exponents[0]
        stats[p] = calibrated.table.c_n * calibrated.table.kappa(p)
        assert evaluate_psi(stats, calibrated) is True

    def test_just_below_boundary_accepts(self, calibrated):
        stats = self.zeros(calibrated)
        p = calibrated.exponents[0]
        stats[p] = calibrated.table.c_n * calibrated.table.kappa(p) * (1 - 1e-9)
        assert evaluate_psi(stats, calibrated) is False

    def test_missing_exponent_errors(self, calibrated):
        stats = self.zeros(calibrated)
        del stats[math.inf]
        with pytest.raises(ValueError, match="missing"):
            evaluate_psi(stats, calibrated)

    def test_uncalibrated_errors(self):
        s = default_spec(4, 0.05)
        with pytest.raises(ValueError, match="calibrat"):
            evaluate_psi({p: 0.0 for p in s.exponents}, s)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_stats(self, calibrated, data):
        exps = calibrated.exponents
        base = {
            p: data.draw(st.floats(min_value=0.0, max_value=10.0), label=str(p))
            for p in exps
        }
        if evaluate_psi(base, calibrated):
            bumped = dict(base)
            idx = data.draw(st.integers(0, len(exps) - 1), label="idx")
            bump = data.draw(st.floats(min_value=0.0, max_value=5.0), label="bump")
            bumped[exps[idx]] = base[exps[idx]] + bump
            assert evaluate_psi(bumped, calibrated) is True


class TestPowerLossBound:
    def test_zero_at_full_share(self):
        assert power_loss_bound(2, 0.05, 0.05) == 0.0
        assert power_loss_bound(math.inf, 0.05, 0.05) == 0.0

    def test_finite_p_third_share(self):
        oracle = (norm.ppf(1 - 0.05 / 3) - norm.ppf(0.95)) / math.sqrt(2 * math.pi)
        got = power_loss_bound(4, 0.05, 0.05 / 3)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.1928, abs=2e-4)

    def test_sup_third_share(self):
        f = lambda x: math.log(-math.log(1 - x) / 2)
        oracle = f(0.05) - f(0.05 / 3)
        got = power_loss_bound(math.inf, 0.05, 0.05 / 3)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(1.1158, abs=2e-4)

    def test_increasing_as_share_shrinks(self):
        shares = [0.05, 0.02, 0.01, 0.004, 0.001]
        for p in (2, 5, math.inf):
            vals = [power_loss_bound(p, 0.05, a) for a in shares]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert all(v >= 0.0 for v in vals)

    def test_rejects_share_above_total(self):
        with pytest.raises(ValueError, match="alpha_p"):
            power_loss_bound(2, 0.05, 0.06)
        with pytest.raises(ValueError, match="alpha_p"):
            power_loss_bound(2, 0.05, 0.0)
