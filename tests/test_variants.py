"""Adjusted (AEL) and transformed (TEL/TAEL) calibrations."""
from __future__ import annotations

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import lorenzel as lz
from conftest import oracle_log_ratio, random_positive_data
from lorenzel.core import _profile
from lorenzel.variants import _tel_inverse

S2 = lz.Sample([0.0, 3.0])  # deviations at (t=0.75, theta=1) are [-1, 2]
TOY = lz.Sample([1.0, 2.0, 3.0, 4.0, 5.0])


class TestAdjustmentFactor:
    def test_small_n_pinned_at_one(self):
        for n in (1, 2, 3, 7):
            assert lz.adjustment_factor(n) == 1.0

    def test_log_regime(self):
        # log(n)/2 exceeds 1 from n = 8 (e^2 ~ 7.39) onwards
        assert lz.adjustment_factor(8) == pytest.approx(math.log(8) / 2, rel=1e-15)
        assert lz.adjustment_factor(25) == pytest.approx(1.6094379124341003, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(lz.DomainError):
            lz.adjustment_factor(0)


class TestLogAelRatio:
    def test_frozen_value(self):
        got = lz.log_ratio("ael", S2, 0.75, 1.0)
        assert got == pytest.approx(0.051535467747335945, rel=1e-12)

    def test_zero_at_point_estimate(self):
        theta_hat = lz.point_estimate(TOY, 0.4)
        assert lz.log_ratio("ael", TOY, 0.4, theta_hat) == 0.0

    def test_finite_outside_the_el_hull(self):
        # EL is undefined at theta = 2.5 (outside [0, 2]); AEL is not
        with pytest.raises(lz.ConvexHullViolation):
            lz.log_ratio("el", TOY, 0.4, 2.5)
        got = lz.log_ratio("ael", TOY, 0.4, 2.5)
        assert got == pytest.approx(2.7527474439863275, rel=1e-9)

    def test_bounded_far_away(self):
        hull = 2.0
        near = lz.log_ratio("ael", TOY, 0.4, 0.6 + 5 * hull)
        far = lz.log_ratio("ael", TOY, 0.4, 0.6 + 1e6 * hull)
        assert math.isfinite(far)
        assert far <= near * 1.5 + 10.0  # plateaus rather than diverging

    def test_never_exceeds_el(self):
        # the extra support point can only increase the maximized likelihood
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 40))
            w = rng.normal(size=n)
            if not (w.min() < 0.0 < w.max()):
                continue
            el, _ = _profile(w, 0.0, adjusted=False)
            ael, _ = _profile(w, 0.0, adjusted=True)
            assert ael <= el + 1e-9 * (1.0 + el)
            checked += 1


class TestTelTransform:
    def test_identity_at_zero(self):
        assert lz.tel_transform(0.0, 50) == 0.0

    def test_quadratic_regime(self):
        assert lz.tel_transform(4.0, 100) == pytest.approx(4.0 * 0.96, rel=1e-15)

    def test_linear_tail(self):
        assert lz.tel_transform(60.0, 100) == pytest.approx(30.0, rel=1e-15)

    def test_continuous_at_kink(self):
        n = 20
        at = lz.tel_transform(n / 2, n)
        just_below = lz.tel_transform(n / 2 - 1e-9, n)
        just_above = lz.tel_transform(n / 2 + 1e-9, n)
        assert at == pytest.approx(n / 4, rel=1e-15)
        assert just_below == pytest.approx(at, abs=1e-8)
        assert just_above == pytest.approx(at, abs=1e-8)

    def test_nondecreasing_and_dominated(self):
        n = 30
        grid = np.linspace(0.0, 5 * n, 400)
        vals = [lz.tel_transform(l, n) for l in grid]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= l or math.isclose(v, l) for v, l in zip(vals, grid))

    @pytest.mark.parametrize("args", [(-0.5, 10), (1.0, 0)])
    def test_domain(self, args):
        with pytest.raises(lz.DomainError):
            lz.tel_transform(*args)

    @pytest.mark.parametrize("n", [2, 30, 7000])
    def test_inverse_round_trip(self, n):
        # both sides of the kink at l = n/2 (y = n/4), and the kink itself.
        # T has slope 0 just below the kink, so l within sqrt(eps) * n of it
        # cannot be recovered from T(l); the probes stay 1e-3 * n away.
        for l in [0.0, 1e-12 * n, 1e-3 * n, 0.3 * n, 0.499 * n, 0.5 * n,
                  0.5 * n + 1e-9 * n, 0.7 * n, 3.0 * n]:
            assert _tel_inverse(lz.tel_transform(l, n), n) == pytest.approx(l, rel=1e-12, abs=0)
        for y in [0.0, 1e-12 * n, 1e-3 * n, 0.2 * n, 0.25 * n - 1e-9 * n, 0.25 * n,
                  0.25 * n + 1e-9 * n, 2.0 * n]:
            assert lz.tel_transform(_tel_inverse(y, n), n) == pytest.approx(y, rel=1e-12, abs=0)


class TestTaelAndDispatch:
    def test_tael_frozen_value(self):
        got = lz.log_ratio("tael", S2, 0.75, 1.0)
        assert got == pytest.approx(0.05020751552936759, rel=1e-12)

    def test_tael_divides_by_original_n(self):
        # n = 2 here; dividing by n + 1 = 3 would give a different number
        ael = lz.log_ratio("ael", S2, 0.75, 1.0)
        assert lz.log_ratio("tael", S2, 0.75, 1.0) == pytest.approx(
            lz.tel_transform(ael, 2), rel=1e-15)
        assert lz.log_ratio("tael", S2, 0.75, 1.0) != pytest.approx(
            lz.tel_transform(ael, 3), rel=1e-15)

    def test_dispatch_matches_components(self):
        for t, theta in [(0.4, 0.5), (0.4, 1.2), (0.8, 2.0)]:
            el = lz.log_ratio("el", TOY, t, theta)
            tel = lz.log_ratio(lz.VariantKind.TEL, TOY, t, theta)
            ael = lz.log_ratio("ael", TOY, t, theta)
            tael = lz.log_ratio("tael", TOY, t, theta)
            assert all(type(v) is float for v in (el, tel, ael, tael))
            assert tel == lz.tel_transform(el, TOY.n)
            assert tael == lz.tel_transform(ael, TOY.n)

    def test_all_kinds_vanish_at_point_estimate(self):
        theta_hat = lz.point_estimate(TOY, 0.6)
        for kind in lz.VariantKind:
            assert lz.log_ratio(kind, TOY, 0.6, theta_hat) == 0.0

    def test_transforms_never_increase(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.chisquare(3.0, int(rng.integers(5, 40)))
            s = lz.Sample(x)
            theta = lz.point_estimate(s, 0.5) * rng.uniform(0.5, 1.5)
            try:
                el = lz.log_ratio("el", s, 0.5, theta)
            except lz.ConvexHullViolation:
                continue
            tel = lz.log_ratio("tel", s, 0.5, theta)
            ael = lz.log_ratio("ael", s, 0.5, theta)
            tael = lz.log_ratio("tael", s, 0.5, theta)
            assert tel <= el and tael <= ael


class TestTheta:
    """theta may be any real number and is converted to a float once."""

    @pytest.mark.parametrize("theta", [Fraction(5, 4), 1, True, np.int64(2), np.float32(1.3),
                                       np.float16(1.3), np.float64(1.25)])
    def test_a_real_number_gives_the_bits_of_its_float(self, theta):
        # t = 0.6: the truncated values are [1, 2, 3, 0, 0], hull (0, 3)
        for f in (lz.log_ratio, lz.scaled_statistic):
            for kind in lz.VariantKind:
                got = f(kind, lz.Sample(TOY.values), 0.6, theta)
                assert got == f(kind, lz.Sample(TOY.values), 0.6, float(theta)) > 0.0
                assert type(got) is float

    @pytest.mark.parametrize("theta", ["1.25", Decimal("1.25"), None, 1.25 + 0j])
    def test_anything_else_is_a_type_error_naming_theta(self, theta):
        for f in (lz.log_ratio, lz.scaled_statistic):
            with pytest.raises(TypeError, match="theta"):
                f("el", TOY, 0.6, theta)

    @pytest.mark.parametrize("theta", [10**400, -(10**400), Fraction(10**400, 3)],
                             ids=["int", "negative int", "Fraction"])
    def test_too_large_for_a_float_is_nonfinite(self, theta):
        for f in (lz.log_ratio, lz.scaled_statistic):
            with pytest.raises(lz.NonFinite):
                f("ael", TOY, 0.6, theta)


class TestOverflow:
    """Deviations or an AEL pseudo-point that overflow are refused as
    NonFinite, with no RuntimeWarning on the way."""

    @pytest.mark.parametrize("kind, x, t, theta", [
        # the deviations' sum overflows
        ("ael", np.arange(1.0, 21.0), 0.5, 1e308),
        ("tael", np.arange(1.0, 21.0), 0.5, 1e308),
        ("ael", [1e308, 1.5e308, 1.7e308, 1.2e308, 1.0, 2.0, 3.0], 0.9, 1e307),
        # a deviation overflows
        ("el", [1.0, 2.0, 1.7e308], 0.9, -1e308),
        ("ael", [1.0, 2.0, 1.7e308], 0.9, -1e308),
    ])
    def test_log_ratio(self, kind, x, t, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(lz.NonFinite):
                lz.log_ratio(kind, lz.Sample(x), t, theta)

    @pytest.mark.parametrize("kind", ["ael", "tael"])
    def test_scaled_statistic(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(lz.NonFinite):
                lz.scaled_statistic(kind, lz.Sample(np.arange(1.0, 21.0)), 0.5, 1e308)


class TestAgainstOracle:
    """log_ratio of every kind against the scipy-brentq oracle in conftest."""

    def test_matches_oracle(self, rng):
        checked_outside = 0
        for _ in range(50):
            n = int(rng.integers(5, 201))
            s = lz.Sample(random_positive_data(rng, n))
            t = float(rng.uniform(0.2, 0.9))
            v = lz.truncated_values(s, t)
            lo, hi = float(v.min()), float(v.max())
            inside = [lo + f * (hi - lo) for f in rng.uniform(0.02, 0.98, 3)]
            beyond = [hi + f * (hi - lo) for f in rng.uniform(0.01, 5.0, 2)]
            beyond.append(lo - float(rng.uniform(0.01, 5.0)) * (hi - lo))
            for theta in inside + beyond:
                for kind in lz.VariantKind:
                    want = oracle_log_ratio(v, theta, kind.value, n)
                    if not math.isfinite(want):
                        assert not kind.adjusted
                        with pytest.raises(lz.ConvexHullViolation):
                            lz.log_ratio(kind, s, t, theta)
                        checked_outside += 1
                        continue
                    assert lz.log_ratio(kind, s, t, theta) == pytest.approx(
                        want, rel=1e-9, abs=0)
        assert checked_outside == 50 * 3 * 2  # EL and TEL at every theta beyond
