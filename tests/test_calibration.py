"""Variance-ratio scale factor and chi-square critical values."""
from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2

import lorenzel as lz
from lorenzel import core

TOY = lz.Sample([1.0, 2.0, 3.0, 4.0, 5.0])


class TestScaleFactor:
    def test_toy_by_hand(self):
        # t=0.4: psi=2, V=(1,2,0,0,0), U=(-1,0,0,0,0)
        sf = lz.scale_factor(TOY, 0.4)
        assert sf.sigma_p_sq == pytest.approx(0.64, rel=1e-12)
        assert sf.sigma_v_sq == pytest.approx(0.16, rel=1e-12)
        assert sf.ratio == pytest.approx(4.0, rel=1e-12)

    def test_three_point_by_hand(self):
        # s=(1,2,10), t=0.6: psi=2, V=(1,2,0), U=(-1,0,0)
        sf = lz.scale_factor(lz.Sample([1.0, 2.0, 10.0]), 0.6)
        assert sf.sigma_p_sq == pytest.approx(2 / 3, rel=1e-12)
        assert sf.sigma_v_sq == pytest.approx(2 / 9, rel=1e-12)
        assert sf.ratio == pytest.approx(3.0, rel=1e-12)

    def test_constant_sample_degenerate(self):
        with pytest.raises(lz.DegenerateVariance):
            lz.scale_factor(lz.Sample([4.0, 4.0, 4.0, 4.0]), 0.5)

    def test_single_inclusion_degenerate(self):
        # with exactly one observation at or below the quantile, the shifted
        # values are identically zero, so no scale factor exists
        with pytest.raises(lz.DegenerateVariance):
            lz.scale_factor(lz.Sample([1.0, 5.0]), 0.4)

    def test_tie_at_the_quantile_degenerate(self):
        # psi = 2 and every value at or below it equals 2; one value below
        # the tie makes the factor exist again
        with pytest.raises(lz.DegenerateVariance):
            lz.scale_factor(lz.Sample([2.0, 2.0, 2.0, 5.0, 7.0]), 0.6)
        assert lz.scale_factor(lz.Sample([1.0, 2.0, 2.0, 5.0, 7.0]), 0.6).ratio > 0.0

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=30),
           st.sampled_from([0.1, 0.25, 0.4, 0.5, 0.75, 0.9]))
    def test_degenerate_exactly_when_the_shifted_variance_is_zero(self, xs, t):
        s = lz.Sample(xs)
        psi = lz.sample_quantile(s, t)
        shifted = np.where(s.values <= psi, s.values - psi, 0.0)
        if shifted.var() == 0.0:
            with pytest.raises(lz.DegenerateVariance):
                lz.scale_factor(s, t)
        else:
            assert lz.scale_factor(s, t).sigma_v_sq > 0.0

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160])
    def test_overflow_and_underflow_are_nonfinite(self, scale):
        # distinct values, so the variances exist; in floating point they
        # overflow (1e200), underflow to zero (1e-200) or to a subnormal
        # (1e-160, sigma_v^2 = 1.36e-320, a ratio 1.3e-4 off), and no
        # warning escapes
        s = lz.Sample([scale * k for k in (1.0, 2.0, 3.0, 4.0, 5.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lz.NonFinite):
                lz.scale_factor(s, 0.8)
            with pytest.raises(lz.NonFinite):
                lz.invert("el", s, 0.8, 0.05)

    def test_large_but_finite_variances(self):
        # near the overflow bound the result is still computed, without warnings
        base = lz.scale_factor(TOY, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = lz.scale_factor(lz.Sample(2.0 ** 510 * TOY.values), 0.8)
        assert big.ratio == base.ratio
        assert big.sigma_v_sq == 2.0 ** 1020 * base.sigma_v_sq

    def test_small_but_normal_variances(self):
        # sigma_v^2 = 1.36e-300 is still a normal float, so the ratio is
        # 25/17 to rounding, as at any normal scale
        sf = lz.scale_factor(lz.Sample([1e-150 * k for k in (1.0, 2.0, 3.0, 4.0, 5.0)]), 0.8)
        assert sf.ratio == 1.4705882352941175

    def test_positive_for_continuous_data(self, rng):
        for _ in range(25):
            x = rng.chisquare(3.0, int(rng.integers(5, 60)))
            sf = lz.scale_factor(lz.Sample(x), float(rng.uniform(0.3, 0.9)))
            assert sf.sigma_p_sq > 0.0 and sf.sigma_v_sq > 0.0 and sf.ratio > 0.0

    def test_divisor_is_n_not_n_minus_1(self):
        s = lz.Sample([1.0, 2.0, 10.0])
        V = np.array([1.0, 2.0, 0.0])
        assert lz.scale_factor(s, 0.6).sigma_p_sq == pytest.approx(
            V.var(ddof=0), rel=1e-14)
        assert lz.scale_factor(s, 0.6).sigma_p_sq != pytest.approx(
            V.var(ddof=1), rel=1e-3)

    def test_rescaling(self, rng):
        x = rng.weibull(1.5, 40) * 2.0
        base = lz.scale_factor(lz.Sample(x), 0.5)
        doubled = lz.scale_factor(lz.Sample(4.0 * x), 0.5)  # power of two: exact
        assert doubled.sigma_p_sq == 16.0 * base.sigma_p_sq
        assert doubled.sigma_v_sq == 16.0 * base.sigma_v_sq
        assert doubled.ratio == base.ratio
        tripled = lz.scale_factor(lz.Sample(3.0 * x), 0.5)
        assert tripled.ratio == pytest.approx(base.ratio, rel=1e-12)


class TestChi2Crit:
    @pytest.mark.parametrize("alpha,expected", [
        (0.05, 3.841458820694124),
        (0.5, 0.454936423119572),
        (0.1, 2.705543454095404),
        (0.01, 6.6348966010212145),
    ])
    def test_frozen_values(self, alpha, expected):
        assert lz.chi2_crit(alpha) == pytest.approx(expected, abs=1e-9)

    def test_against_scipy_ppf(self):
        # independent route: the distribution's own quantile function
        for alpha in np.linspace(0.001, 0.999, 57):
            assert lz.chi2_crit(float(alpha)) == pytest.approx(
                chi2.ppf(1.0 - alpha, df=1), abs=1e-9)

    def test_monotone_decreasing_in_alpha(self):
        crits = [lz.chi2_crit(a) for a in np.linspace(0.005, 0.995, 100)]
        assert all(b < a for a, b in zip(crits, crits[1:]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05, 2.0])
    def test_domain(self, alpha):
        with pytest.raises(lz.DomainError):
            lz.chi2_crit(alpha)


class TestChi2CritTails:
    def test_against_scipy_isf_down_to_tiny_alpha(self):
        # from the lower normal tail: 1 - alpha/2 would round and lose the
        # precision of a small alpha, and reach 1.0 near alpha = 1e-16
        for alpha in np.geomspace(1e-300, 0.999):
            assert lz.chi2_crit(float(alpha)) == pytest.approx(chi2.isf(alpha, 1), rel=1e-13)

    def test_underflowing_half_alpha_is_infinite(self):
        assert lz.chi2_crit(5e-324) == math.inf


class TestScaledStatistic:
    def test_zero_at_point_estimate(self):
        theta_hat = lz.point_estimate(TOY, 0.4)
        for kind in lz.VariantKind:
            assert lz.scaled_statistic(kind, TOY, 0.4, theta_hat) == 0.0

    def test_is_ratio_times_log_ratio(self, rng):
        theta = 0.9
        expect = 4.0 * lz.log_ratio("el", TOY, 0.4, theta)
        assert lz.scaled_statistic("el", TOY, 0.4, theta) == pytest.approx(
            expect, rel=1e-12)
        # bit for bit, for every kind
        s = lz.Sample(rng.chisquare(3.0, 80))
        for t in (0.5, 0.9):
            theta = 1.05 * lz.point_estimate(s, t)
            for kind in lz.VariantKind:
                assert lz.scaled_statistic(kind, s, t, theta) == (
                    lz.scale_factor(s, t).ratio * lz.log_ratio(kind, s, t, theta))

    def test_kind_is_checked_before_any_work(self):
        # the sample is degenerate at t = 0.5, and t = 1.5 is outside (0, 1);
        # the bad kind is still what is reported, as invert does
        for t in (0.5, 1.5):
            with pytest.raises(ValueError, match="bogus") as info:
                lz.scaled_statistic("bogus", lz.Sample([4, 4, 4, 4]), t, 4.0)
            assert info.type is ValueError

    def test_tel_never_above_el(self):
        for theta in (0.2, 0.9, 1.5):
            el = lz.scaled_statistic("el", TOY, 0.4, theta)
            tel = lz.scaled_statistic("tel", TOY, 0.4, theta)
            assert tel <= el


def _outcome(fn, *args):
    """A call's float result, bit for bit, or its exception's class and message."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, lz.ScaleFactor):
        return tuple(x.hex() for x in (value.sigma_p_sq, value.sigma_v_sq, value.ratio))
    if isinstance(value, lz.ConfidenceInterval):
        return value.lower.hex(), value.upper.hex(), value.iterations
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return type(value), value.hex()


class TestSampleMemo:
    """The truncation, the set-up and the EL/AEL ratios a Sample keeps
    change no result."""

    @staticmethod
    def _calls(s):
        calls = []
        for t in (0.3, 0.5, np.float64(0.9)):
            calls.append((lz.scale_factor, s, t))
            calls.append((lz.truncated_values, s, t))
            calls.append((lz.point_estimate, s, t))
            calls += [(lz.invert, kind, s, t, 0.05) for kind in lz.VariantKind]
            theta_hat = lz.point_estimate(s, t)
            hull_top = float(lz.truncated_values(s, t).max())
            for theta in (0.0, -0.0, theta_hat, np.float64(theta_hat), 1, 0,
                          0.5 * (theta_hat + hull_top), 2.0 * hull_top + 1.0):
                for kind in lz.VariantKind:
                    calls.append((lz.scaled_statistic, kind.value, s, t, theta))
                    calls.append((lz.log_ratio, kind, s, t, theta))
        return calls

    @pytest.mark.parametrize("data", [
        [-0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],  # a -0.0 among the truncated values
        [2.0, 2.0, 2.0, 5.0, 7.0, 8.0, 9.0, 11.0],  # degenerate at t = 0.3
        "skew",
    ])
    def test_bit_identical_to_a_fresh_sample_in_any_call_order(self, data, rng):
        if data == "skew":
            data = lz.SkewNormal(0.0, 1.0, 4.0).draw(rng, 25)
        shared = lz.Sample(data)
        calls = self._calls(shared)
        want = [_outcome(fn, *(lz.Sample(data) if a is shared else a for a in args))
                for fn, *args in calls]
        order = list(range(len(calls)))
        shuffle = random.Random(3).shuffle
        for attempt in range(5):
            if attempt == 1:
                order.reverse()
            elif attempt > 1:
                shuffle(order)
            for i in order:
                fn, *args = calls[i]
                assert _outcome(fn, *args) == want[i], (attempt, calls[i])

    def test_four_kinds_truncate_once(self, monkeypatch):
        found = []
        true_quantile = core.sample_quantile

        def spy(s, t):
            found.append(t)
            return true_quantile(s, t)

        monkeypatch.setattr(core, "sample_quantile", spy)
        s = lz.Sample(TOY.values)
        for kind in lz.VariantKind:
            lz.invert(kind, s, 0.4, 0.05)
        assert found == [0.4]

    def test_truncated_values_are_read_only(self):
        v = lz.truncated_values(lz.Sample(TOY.values), 0.4)
        assert v.tolist() == [1.0, 2.0, 0.0, 0.0, 0.0]
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 7.0

    def test_hull_violation_is_not_kept(self):
        # V = (1, 2, 0, 0, 0) at t = 0.4, so theta = 5 is outside the EL hull
        s = lz.Sample(TOY.values)
        for _ in range(2):
            with pytest.raises(lz.ConvexHullViolation):
                lz.scaled_statistic("el", s, 0.4, 5.0)
            with pytest.raises(lz.ConvexHullViolation):
                lz.log_ratio("tel", s, 0.4, 5.0)
            ael = lz.scaled_statistic("ael", s, 0.4, 5.0)
            assert math.isfinite(ael) and ael > 0.0
            assert lz.log_ratio("tael", s, 0.4, 5.0) <= lz.log_ratio("ael", s, 0.4, 5.0)

    def test_degenerate_variance_is_raised_again(self):
        s = lz.Sample([4.0, 4.0, 4.0, 4.0])
        messages = set()
        for call in (lambda: lz.scale_factor(s, 0.5),
                     lambda: lz.scaled_statistic("el", s, 0.5, 4.0),
                     lambda: lz.scale_factor(s, 0.5),
                     lambda: lz.scaled_statistic("tael", s, 0.5, 4.0)):
            with pytest.raises(lz.DegenerateVariance) as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1
        # the ratio itself exists: theta at the sample's value is its estimate
        assert lz.log_ratio("ael", s, 0.5, 4.0) == 0.0

    def test_stays_bounded(self, rng):
        s = lz.Sample(rng.chisquare(3.0, 40))
        for theta in np.linspace(0.5, 1.5, 1000):
            lz.scaled_statistic("ael", s, 0.5, float(theta))
            assert len(s._memo) <= core._MEMO_SIZE
