"""Confidence-interval inversion against an independent oracle."""
from __future__ import annotations

import collections
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import lorenzel as lz
from conftest import (garbage_cycles, oracle_ci, random_positive_data, record_chunks,
                      seeded_intervals)
from lorenzel import intervals
from lorenzel.calibration import _setup_from
from lorenzel.core import _profile, _quantile_index, _truncate
from lorenzel.intervals import _ael_limit, _bounds, _joint_step, _newton, _pass
from lorenzel.variants import _tel_inverse

TOY = lz.Sample([1.0, 2.0, 3.0, 4.0, 5.0])


@st.composite
def signed_data(draw):
    n = draw(st.integers(min_value=5, max_value=80))
    mags = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return np.asarray(mags) * np.asarray(signs)


def outcome(kind, x, t):
    """Endpoints and passes of an interval, or the class of its failure."""
    try:
        ci = lz.invert(kind, lz.Sample(x), t, 0.05)
    except lz.LorenzELError as exc:
        return type(exc)
    return ci.lower, ci.upper, ci.iterations


class TestToyInterval:
    """The five-point sample at t=0.4 (theta_hat=0.6, hull (0,2))."""

    def test_el_endpoints_frozen(self):
        # endpoints derived from a 100001-point grid + brentq, fixed here
        ci = lz.invert("el", TOY, 0.4, 0.05)
        assert ci.lower == pytest.approx(0.2999875594129893, rel=1e-6)
        assert ci.upper == pytest.approx(0.9824073976145135, rel=1e-6)

    def test_fields(self):
        ci = lz.invert(lz.VariantKind.EL, TOY, 0.4, 0.05)
        assert ci.kind is lz.VariantKind.EL
        assert ci.level == pytest.approx(0.95)
        assert ci.iterations > 0
        assert ci.lower < 0.6 < ci.upper
        assert ci.length == pytest.approx(ci.upper - ci.lower, abs=0)

    def test_float_level_means_alpha(self):
        a = lz.invert("el", TOY, 0.4, 0.05)
        b = lz.invert("el", TOY, 0.4, np.float64(0.05))
        assert (a.lower, a.upper) == (b.lower, b.upper)
        assert a.level == b.level == 1.0 - 0.05 and type(b.level) is float
        for alpha in (0.0, 1.0):
            with pytest.raises(lz.DomainError):
                lz.invert("el", TOY, 0.4, alpha)

    def test_all_kinds_against_oracle(self):
        for kind in lz.VariantKind:
            ci = lz.invert(kind, TOY, 0.4, 0.05)
            lo, hi = oracle_ci(TOY.values, 0.4, 0.05, kind=kind.value)
            assert ci.lower == pytest.approx(lo, rel=1e-4), kind
            assert ci.upper == pytest.approx(hi, rel=1e-4), kind


class TestRandomInstances:
    def test_matches_oracle(self, rng):
        for _ in range(12):
            x = random_positive_data(rng, int(rng.integers(12, 40)))
            t = float(rng.choice([0.3, 0.5, 0.7]))
            kind = str(rng.choice(["el", "ael", "tel", "tael"]))
            ci = lz.invert(kind, lz.Sample(x), t, 0.05)
            lo, hi = oracle_ci(x, t, 0.05, kind=kind)
            assert ci.lower == pytest.approx(lo, rel=1e-4)
            assert ci.upper == pytest.approx(hi, rel=1e-4)

    def test_transform_nests_plain(self, rng):
        for _ in range(30):
            x = random_positive_data(rng, int(rng.integers(15, 80)))
            s = lz.Sample(x)
            t = float(rng.choice([0.2, 0.5, 0.8]))
            el = lz.invert("el", s, t, 0.05)
            tel = lz.invert("tel", s, t, 0.05)
            ael = lz.invert("ael", s, t, 0.05)
            tael = lz.invert("tael", s, t, 0.05)
            slack = 2e-8 * max(abs(el.lower), abs(el.upper)) + 1e-14
            assert tel.lower <= el.lower + slack
            assert tel.upper >= el.upper - slack
            slack = 2e-8 * max(abs(ael.lower), abs(ael.upper)) + 1e-14
            assert tael.lower <= ael.lower + slack
            assert tael.upper >= ael.upper - slack

    def test_smaller_alpha_widens(self, rng):
        for _ in range(10):
            x = random_positive_data(rng, 30)
            s = lz.Sample(x)
            wide = lz.invert("el", s, 0.5, 0.01)
            narrow = lz.invert("el", s, 0.5, 0.10)
            slack = 2e-8 * max(abs(wide.lower), abs(wide.upper)) + 1e-14
            assert wide.lower <= narrow.lower + slack
            assert wide.upper >= narrow.upper - slack

    @settings(max_examples=200, deadline=None)
    @given(signed_data(), st.sampled_from([k / 10 for k in range(1, 10)]),
           st.integers(min_value=-60, max_value=60))
    # an absolute bracket width in the multiplier solver moved this TAEL
    # upper endpoint by 0.07% at k = 32
    @example(np.array([-1.0, -1.0, -1.0, -1.0, -154.0, -295.0, -413.0, -958.0, -77.375]),
             0.5, 32)
    def test_scale_equivariance(self, x, t, k):
        # every tolerance in the search and the solver is relative, so
        # scaling the data by a power of two scales both endpoints exactly
        # and changes neither the passes nor the failure class
        c = 2.0 ** k
        for kind in lz.VariantKind:
            a = outcome(kind, x, t)
            b = outcome(kind, c * x, t)
            if isinstance(a, tuple):
                assert b == (c * a[0], c * a[1], a[2]), kind
            else:
                assert b is a, kind

    @settings(max_examples=300, deadline=None)
    @given(signed_data(), st.sampled_from([k / 10 for k in range(1, 10)]),
           st.sampled_from([0.01, 0.05, 0.2]))
    def test_estimate_nesting_and_whole_line(self, x, t, alpha):
        # theta_hat lies inside every bounded interval, TEL (TAEL) contains
        # EL (AEL) within the stopping tolerance, and an AEL (TAEL) set is
        # the whole line exactly when its limit is at or below its target
        s = lz.Sample(x)
        try:
            ratio = lz.scale_factor(s, t).ratio
        except lz.DegenerateVariance:
            for kind in lz.VariantKind:
                with pytest.raises(lz.DegenerateVariance):
                    lz.invert(kind, s, t, alpha)
            return
        theta_hat = lz.point_estimate(s, t)
        target = lz.chi2_crit(alpha) / ratio
        cis = {}
        for kind in lz.VariantKind:
            whole = kind.adjusted and _ael_limit(s.n) <= (
                _tel_inverse(target, s.n) if kind.transformed else target)
            try:
                cis[kind.value] = ci = lz.invert(kind, s, t, alpha)
            except lz.BracketFailure:
                assert whole, kind
                continue
            assert not whole, kind
            assert ci.lower <= theta_hat <= ci.upper, kind
        for plain, damped in (("el", "tel"), ("ael", "tael")):
            inner, outer = cis.get(plain), cis.get(damped)
            if inner and outer:
                slack = 2e-8 * max(abs(inner.lower), abs(inner.upper))
                assert outer.lower <= inner.lower + slack, plain
                assert outer.upper >= inner.upper - slack, plain

    def test_estimate_always_inside(self, rng):
        cases = [(random_positive_data(rng, int(rng.integers(10, 50))),
                  float(rng.uniform(0.15, 0.9))) for _ in range(20)]
        # intervals narrower than the stopping tolerance, where a point half
        # a tolerance inside an endpoint lies beyond the estimate
        cases += [(1e7 + rng.normal(0.0, 0.3, 500), t) for t in (0.3, 0.5, 0.9)]
        for x, t in cases:
            s = lz.Sample(x)
            theta_hat = lz.point_estimate(s, t)
            for kind in lz.VariantKind:
                ci = lz.invert(kind, s, t, 0.05)
                assert ci.lower <= theta_hat <= ci.upper


class TestFailureModes:
    def test_degenerate_variance(self):
        with pytest.raises(lz.DegenerateVariance):
            lz.invert("el", lz.Sample([2.0, 2.0, 2.0]), 0.5, 0.05)

    def test_bracket_failure_means_the_whole_line(self):
        # an absurdly demanding level puts the TAEL plateau below the
        # critical value, so the confidence set is the whole line, decided
        # without a pass over the data
        s = lz.Sample([1.0, 2.0, 10.0])
        with pytest.raises(lz.BracketFailure, match="whole line"):
            lz.invert("tael", s, 0.7, 1e-9)
        ratio = lz.scale_factor(s, 0.7).ratio
        crit = ratio * _tel_inverse(lz.chi2_crit(1e-9) / ratio, s.n)
        assert ratio * _ael_limit(s.n) <= crit

    @pytest.mark.parametrize("t", [0.5, 0.99])
    def test_wald_start_rounding_onto_the_estimate(self, t):
        # the Wald half-width is below half an ulp of theta_hat, so the
        # search starts from its fallback, which on an AEL side must be
        # finite: every kind gives the same interval
        s = lz.Sample(1e10 + np.random.default_rng(3).normal(0.0, 1e-6, 50))
        el = lz.invert("el", s, t, 0.05)
        for kind in ("ael", "tel", "tael"):
            ci = lz.invert(kind, s, t, 0.05)
            assert (ci.lower, ci.upper) == (el.lower, el.upper), kind

    def test_exact_power_of_two_scale_equivalence_on_a_1e153_sample(self):
        # at 1e153 the AEL pseudo-deviation's squared ratio would overflow in
        # a joint step on the data as they are; the search runs on the data
        # scaled by a power of two, so it finds the interval of the data
        # scaled by 2^-500, times 2^500, in as many passes, with no warning
        x = np.array([-2e153, 1e153, 1e153, 1e153, 2e153, 1e153])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in lz.VariantKind:
                big = outcome(kind, x, 0.5)
                small = outcome(kind, 2.0 ** -500 * x, 0.5)
                if isinstance(small, tuple):
                    assert big == (2.0 ** 500 * small[0], 2.0 ** 500 * small[1], small[2]), kind
                else:
                    assert big is small, kind

    def test_huge_data_raise_no_runtime_warning(self):
        # data of size 1e150-1e154, where sums of squares overflow: the
        # search must not leak numpy's overflow warning (an error under
        # -W error), and must find the interval of the data scaled by
        # 2^-500, times 2^500, in as many passes, or fail the same way
        rng = np.random.default_rng(5)
        produced = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                x = rng.lognormal(0.0, 1.0, 20) * 10.0 ** rng.uniform(150.0, 154.0)
                x[rng.random(20) < 0.3] *= -1.0
                for kind in lz.VariantKind:
                    big = outcome(kind, x, 0.5)
                    small = outcome(kind, 2.0 ** -500 * x, 0.5)
                    if isinstance(big, tuple):
                        assert big == (2.0 ** 500 * small[0], 2.0 ** 500 * small[1],
                                       small[2]), kind
                        produced += 1
                    else:  # a plug-in variance of the big data may overflow
                        assert big is lz.NonFinite or big is small, kind
        assert produced > 500

    def test_el_never_needs_the_cap(self, rng):
        # the plain ratio is +inf at the hull edge, so even extreme levels
        # give endpoints strictly inside the hull
        x = random_positive_data(rng, 25)
        s = lz.Sample(x)
        ci = lz.invert("el", s, 0.5, 1e-9)
        trunc = lz.truncated_values(s, 0.5)
        assert trunc.min() < ci.lower < ci.upper < trunc.max()


class TestBoundedness:
    """The AEL statistic rises to the same limit on both sides, so an AEL
    (TAEL) interval is bounded exactly when r * l_inf exceeds crit'."""

    @pytest.mark.parametrize("n", [2, 10, 25, 300])
    def test_limit_matches_the_profile_far_out(self, rng, n):
        v = random_positive_data(rng, n)
        theta_hat = float(v.sum() / n)
        hull_w = float(np.ptp(v))
        for out in (-1.0, 1.0):
            val, _ = _profile(v, theta_hat + out * 1e6 * hull_w, True)
            assert val == pytest.approx(_ael_limit(n), rel=1e-12), (n, out)

    def test_rule_agrees_with_the_oracle_grid(self):
        # the oracle searches its own 10-hull-width domain; where it sees no
        # crossing on either side, the rule must call the interval unbounded
        pops = [lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0), lz.SkewNormal(1.0, 3.0, 5.0)]
        verdicts = []
        for p, pop in enumerate(pops):
            for n in (5, 10, 15, 20, 25):
                for r in range(2):
                    s = lz.sample(pop, n, lz.SeedSpec(master_seed=61, stream_id=p), r)
                    for t in (0.2, 0.5, 0.8):
                        try:
                            ratio = lz.scale_factor(s, t).ratio
                        except lz.DegenerateVariance:
                            continue
                        hull_w = float(np.ptp(lz.truncated_values(s, t)))
                        for kind in ("ael", "tael"):
                            crit = lz.chi2_crit(0.05)
                            if kind == "tael":
                                crit = ratio * _tel_inverse(crit / ratio, n)
                            unbounded = ratio * _ael_limit(n) <= crit
                            lo, hi = oracle_ci(s.values, t, 0.05, kind=kind, points=33)
                            no_crossing = math.isclose(hi - lo, 20.0 * hull_w, rel_tol=1e-9)
                            assert unbounded == no_crossing, (p, n, r, t, kind)
                            verdicts.append(unbounded)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_far_crossing_is_found(self):
        # critical values just under the plateau put the AEL crossings 16
        # and 5,189 hull widths out, beyond any fixed search cap
        s = lz.Sample([1.0, 2.0, 3.5, 4.0, 7.0, 10.0, 12.0, 20.0])
        t = 0.7
        ratio = lz.scale_factor(s, t).ratio
        trunc = lz.truncated_values(s, t)
        theta_hat = float(trunc.sum() / s.n)
        hull_w = float(np.ptp(trunc))
        for gap, widths in ((1e-4, 16.4), (1e-9, 5189.0)):
            alpha = 2.0 * ndtr(-math.sqrt(ratio * _ael_limit(s.n) * (1.0 - gap)))
            crit = lz.chi2_crit(alpha)
            ci = lz.invert("ael", s, t, alpha)
            assert (ci.upper - theta_hat) / hull_w == pytest.approx(widths, rel=3e-3)
            assert lz.scaled_statistic("ael", s, t, ci.upper) <= crit * (1.0 + 1e-12)
            if gap == 1e-4:  # farther out the plateau is flat to rounding
                beyond = ci.upper + 2e-8 * abs(ci.upper)
                assert lz.scaled_statistic("ael", s, t, beyond) > crit


class TestKernelRefusals:
    """The kernels of the search refuse what they cannot use, from passes
    made by hand: a pass of TOY's truncation at t = 0.4, (1, 2, 0, 0, 0)."""

    V = lz.truncated_values(TOY, 0.4)
    HULL = (0.0, 2.0)

    def sums(self, **fields):
        return _pass(self.V, 0.9, -0.1, False, self.HULL)._replace(**fields)

    def test_bounds_decide_at_a_normal_curvature(self):
        # the pass's own sums, and a tiny but normal sum of r^2
        for s in (self.sums(), self.sums(sr2=1e-300)):
            assert math.isfinite(_bounds(s, 0.9)[0])

    @pytest.mark.parametrize("fields", [dict(sr2=1e-320), dict(sr2=0.0),
                                        dict(sr2=math.inf), dict(a=1.0, pseudo=1e200)],
                             ids=["subnormal", "zero", "infinite", "pseudo_overflows"])
    def test_bounds_undecided_at_a_subnormal_or_infinite_curvature(self, fields):
        # h = sum(r^2) + pr^2, shrunk by the shift: subnormal or zero, and
        # delta = |g| / sqrt(h) has lost its digits; infinite, and delta reads 0
        assert _bounds(self.sums(**fields), 0.9) == (-math.inf, math.inf)

    def test_newton_refuses_a_singular_jacobian(self):
        assert _newton(self.sums(), 3.0, 0.6, 2.0, self.HULL) is not None
        # at lam = 0 with sum(r) = 0 the determinant is zero; an infinite
        # sum of r^2 makes it nan
        for s in (self.sums(lam=0.0, sr=0.0), self.sums(sr2=math.inf)):
            assert _newton(s, 3.0, 0.6, 2.0, self.HULL) is None

    def test_joint_step_refuses_a_warm_point_outside_the_hull_bracket(self):
        # lam = -10 makes 1 + lam (2 - 0.9) negative at the top of the hull
        assert _joint_step(_pass(self.V, 0.9, -0.1, False, self.HULL), 3.0, 0.6, 2.0,
                           self.HULL) is not None
        assert _pass(self.V, 0.9, -10.0, False, self.HULL) is None
        assert _joint_step(_pass(self.V, 0.9, -10.0, False, self.HULL), 3.0, 0.6, 2.0,
                           self.HULL) is None


class TestSearchBudget:
    def test_exhausted_budget_raises(self, monkeypatch, rng):
        # a joint step that never moves theta and reports steps shrinking by
        # 0.7 each time, from an absurd length, neither converges nor stalls
        # within the budget; the search must give up loudly, not return
        lengths = iter(1e30 * 0.7 ** k for k in range(10**6))

        def creeps(sums, target, lo, hi, hull):
            # the pass it returns is 100 hull widths below the data, with a
            # lam too large for its bounds to decide at theta, so no joint
            # pass closes the side
            width = hull[1] - hull[0]
            far = sums._replace(theta=hull[0] - 100.0 * width, lam=1.0 / width)
            return sums.theta, sums.lam, next(lengths), far

        monkeypatch.setattr(intervals, "_joint_step", creeps)
        s = lz.Sample(random_positive_data(rng, 40))
        with pytest.raises(lz.LorenzELError, match="lower endpoint search") as exc_info:
            lz.invert("el", s, 0.5, 0.05)
        assert not isinstance(exc_info.value, lz.BracketFailure)
        assert "100 steps" in str(exc_info.value)

    def test_a_failure_leaves_no_reference_cycle(self, monkeypatch, rng):
        # a search out of steps, and a whole-line set, are raised from no
        # frame that still holds them, so nothing waits for the collector
        monkeypatch.setattr(intervals, "_MAX_PASSES", 2)
        s = lz.Sample(random_positive_data(rng, 40))
        ten = lz.Sample([12, 31, 7, 45, 23, 18, 52, 9, 27, 36])  # TAEL at 0.9: the whole line
        caught = []

        def run():
            for kind, smp, t in (("el", s, 0.5), ("tael", ten, 0.9)):
                try:
                    lz.invert(kind, smp, t, 0.05)
                except lz.LorenzELError as exc:
                    caught.append(type(exc))

        assert garbage_cycles(run) == 0
        assert set(caught) == {lz.LorenzELError, lz.BracketFailure}


class TestEvaluationBudget:
    def test_few_evaluations_and_covered_edges(self):
        pops = [lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0), lz.SkewNormal(1.0, 3.0, 5.0)]
        evals = {kind: [] for kind in lz.VariantKind}
        for p, pop in enumerate(pops):
            for n in (50, 300):
                for r in range(4):
                    s = lz.sample(pop, n, lz.SeedSpec(master_seed=31, stream_id=p), r)
                    for t in (0.1, 0.5, 0.9):
                        ratio = lz.scale_factor(s, t).ratio
                        hull_w = float(np.ptp(lz.truncated_values(s, t)))
                        for kind in lz.VariantKind:
                            ci = lz.invert(kind, s, t, 0.05)
                            evals[kind].append(ci.iterations)
                            crit = lz.chi2_crit(0.05)
                            if kind.transformed:
                                crit = ratio * _tel_inverse(crit / ratio, s.n)
                            base = "ael" if kind.adjusted else "el"
                            # covered at the endpoint (a cold-start
                            # re-evaluation may differ from the search's
                            # warm-started one in the last few ulps), not
                            # covered just beyond the stopping tolerance
                            for theta, out in ((ci.lower, -1.0), (ci.upper, 1.0)):
                                stat = lz.scaled_statistic(base, s, t, theta)
                                assert stat <= crit * (1.0 + 1e-12), (kind, n, t)
                                beyond = theta + out * (2e-8 * abs(theta) + 1e-14 * hull_w)
                                stat = lz.scaled_statistic(base, s, t, beyond)
                                assert stat > crit, (kind, n, t)
        for kind, counts in evals.items():
            assert np.mean(counts) <= 7.75, kind

    def test_small_samples_through_the_safeguard(self, monkeypatch, sides):
        # at n <= 25 a share of the sides stall in the joint steps and are
        # finished by bisection; their endpoints must be as good
        certified = collections.Counter()  # per side, its certified steps
        true_certify = intervals._certify

        def counted_certify(*args):
            # charged to the side that resumed: the sides of one set-up take turns
            certified[sides.current] += 1
            return true_certify(*args)

        monkeypatch.setattr(intervals, "_certify", counted_certify)
        pops = [lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0), lz.SkewNormal(1.0, 3.0, 5.0)]
        crit = lz.chi2_crit(0.05)
        unbounded = 0
        for p, pop in enumerate(pops):
            for n in (5, 10, 15, 25):
                for r in range(6):
                    s = lz.sample(pop, n, lz.SeedSpec(master_seed=47, stream_id=p), r)
                    for t in np.arange(1, 10) / 10.0:
                        try:
                            ratio = lz.scale_factor(s, t).ratio
                        except lz.DegenerateVariance:
                            continue
                        hull_w = float(np.ptp(lz.truncated_values(s, t)))
                        for kind in lz.VariantKind:
                            level = crit
                            if kind.transformed:
                                level = ratio * _tel_inverse(crit / ratio, n)
                            # the whole line exactly when the rule says so
                            predicted = kind.adjusted and ratio * _ael_limit(n) <= level
                            try:
                                ci = lz.invert(kind, s, t, 0.05)
                            except lz.BracketFailure:
                                assert predicted, (kind, n, t)
                                unbounded += 1
                                continue
                            assert not predicted, (kind, n, t)
                            base = "ael" if kind.adjusted else "el"
                            for theta, out in ((ci.lower, -1.0), (ci.upper, 1.0)):
                                stat = lz.scaled_statistic(base, s, t, theta)
                                assert stat <= level * (1.0 + 1e-12), (kind, n, t)
                                beyond = theta + out * (2e-8 * abs(theta) + 1e-14 * hull_w)
                                assert lz.scaled_statistic(base, s, t, beyond) > level, (kind, n, t)
        safeguarded = sum(c > 2 for c in certified.values())
        assert unbounded > 0
        assert 0.02 * len(sides.requests) < safeguarded < 0.2 * len(sides.requests)

    @pytest.mark.parametrize("forced", ["no_joint", "no_bounds"])
    def test_bisection_alone_finds_the_same_endpoints(self, monkeypatch, forced):
        # with every joint step stalled at once, certified steps alone must
        # find the same endpoints, fail the same way, and stay in budget.
        # With every bound undecided, no joint pass closes a side and every
        # certified step is a full evaluation; the probe beyond a converged
        # joint root then keeps the passes low (14.4 per interval; 65.6
        # without the probe)
        pops = [lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0), lz.SkewNormal(1.0, 3.0, 5.0)]
        cases = []
        for p, pop in enumerate(pops):
            for n in (10, 25, 50, 300):
                for r in range(2):
                    s = lz.sample(pop, n, lz.SeedSpec(master_seed=53, stream_id=p), r)
                    cases += [(s, t, kind) for t in (0.1, 0.5, 0.9) for kind in lz.VariantKind]

        def run_all():
            out = []
            for s, t, kind in cases:
                try:
                    out.append(lz.invert(kind, s, t, 0.05))
                except (lz.BracketFailure, lz.DegenerateVariance) as exc:
                    out.append(type(exc))
            return out

        joint = run_all()
        if forced == "no_joint":
            monkeypatch.setattr(intervals, "_joint_step", lambda *args: None)
        else:
            monkeypatch.setattr(intervals, "_bounds", lambda *args: (-math.inf, math.inf))
        bisected = run_all()
        assert sum(isinstance(ci, type) for ci in joint) < len(cases)
        for case, a, b in zip(cases, joint, bisected):
            if isinstance(a, type) or isinstance(b, type):
                assert a is b, case[1:]
                continue
            assert b.lower == pytest.approx(a.lower, rel=2e-8), case[1:]
            assert b.upper == pytest.approx(a.upper, rel=2e-8), case[1:]
        # the forcing took effect: certified steps alone take far more
        # passes than the joint passes do (8.73 per interval unforced; 14.4
        # with every bound undecided, 59.6 with every joint step stalled)
        unforced = np.mean([ci.iterations for ci in joint if not isinstance(ci, type)])
        forced_mean = np.mean([ci.iterations for ci in bisected if not isinstance(ci, type)])
        assert forced_mean > (1.3 if forced == "no_bounds" else 3.0) * unforced
        if forced == "no_bounds":
            assert forced_mean <= 20


# Intervals of the pinned design, made by ``pinned_search`` on the code
# before the scalar search's interpreter work was cut; that change kept every
# pass and every bit, and so must any change that claims to.
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "search_pins.json")


def pinned_search(monkeypatch) -> dict:
    """The intervals of the pinned design, each as [kind, lower, upper,
    passes] or [kind, failure class]: ``run_experiment`` on 3 populations x
    n {10, 50, 300} x t {0.1, 0.5, 0.9} x 2 reps, in (population, n, t, kind,
    replication) order, and the four kinds at t {0.1, 0.5, 0.9} on one
    3,000-value sample, inverted as the ``ci`` command does at that size,
    from one set-up per t and each other's seeds."""
    experiment = []
    with monkeypatch.context() as patched:
        record_chunks(patched, lambda kind, ci: experiment.append(
            [kind.value, type(ci).__name__] if isinstance(ci, Exception)
            else [kind.value, ci.lower, ci.upper, ci.iterations]))
        for p, pop in enumerate([lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0),
                                 lz.SkewNormal(1.0, 3.0, 5.0)]):
            lz.run_experiment(lz.ExperimentConfig(population=pop, n_grid=(10, 50, 300),
                                                  t_grid=(0.1, 0.5, 0.9), reps=2,
                                                  seed=lz.SeedSpec(83, p)))
    s = lz.Sample(np.random.default_rng(29).lognormal(10.0, 0.5, 3000))
    crit = lz.chi2_crit(0.05)
    table = []
    for t in (0.1, 0.5, 0.9):
        for ci in seeded_intervals(lz.VariantKind, s, t, crit):
            table.append([ci.kind.value, ci.lower, ci.upper, ci.iterations])
    return {"experiment": experiment, "ci": table}


class TestPinnedSearch:
    def test_same_passes_and_endpoints(self, monkeypatch):
        # the pinned work is the exact number of passes per kind; an
        # endpoint may move by 1e-10 relative, far inside the stopping
        # tolerance, and a failure must stay the same failure
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
        got = pinned_search(monkeypatch)
        for part in ("experiment", "ci"):
            want, have = pins[part], got[part]
            assert [r[0] for r in have] == [r[0] for r in want], part
            passes = dict.fromkeys(pins["passes"][part], 0)
            for a, b in zip(have, want):
                if len(b) == 2:
                    assert a == b, part
                    continue
                assert len(a) == 4, (part, b)
                assert a[1] == pytest.approx(b[1], rel=1e-10, abs=0), (part, b)
                assert a[2] == pytest.approx(b[2], rel=1e-10, abs=0), (part, b)
                passes[a[0]] += a[3]
            assert passes == pins["passes"][part], part


# Statistics of the pinned design, made by ``pinned_statistics`` on the code
# before the statistic path's numpy wrappers were cut; that change kept every
# bit, and so must any change that claims to.
STATISTIC_PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "statistic_pins.json")


def pinned_statistics() -> list:
    """The scaled statistics of the pinned design, in call order, each as
    [population, n, replication, t, kind, value], with the failure class in
    place of the value when there is none: replications 0-9 of SeedSpec(1)
    at t {0.5, 0.9} and theta the true ordinate, for the ``limit``
    benchmark's Weibull(1, 2) at n = 500 and for chi-square(3) and
    skew-normal(1, 3, 5) at n {10, 25}."""
    design = [("weibull", lz.Weibull(1.0, 2.0), 500)]
    design += [(name, pop, n) for name, pop in (("chisquare", lz.ChiSquare(3.0)),
                                                ("skewnormal", lz.SkewNormal(1.0, 3.0, 5.0)))
               for n in (10, 25)]
    rows = []
    for name, pop, n in design:
        theta = {t: lz.true_ordinate(pop, t) for t in (0.5, 0.9)}
        for rep in range(10):
            s = lz.sample(pop, n, lz.SeedSpec(1), replication=rep)
            for kind in ("el", "ael", "tel", "tael"):
                for t in (0.5, 0.9):
                    try:
                        value = lz.scaled_statistic(kind, s, t, theta[t])
                    except lz.LorenzELError as exc:
                        value = type(exc).__name__
                    rows.append([name, n, rep, t, kind, value])
    return rows


class TestPinnedStatistic:
    def test_same_statistics(self):
        # rel 1e-12 holds across numpy and BLAS builds; a failure must stay
        # the same failure
        with open(STATISTIC_PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
        got = pinned_statistics()
        assert [r[:5] for r in got] == [r[:5] for r in pins]
        for a, b in zip(got, pins):
            if isinstance(b[5], str):
                assert a[5] == b[5], b
            else:
                assert a[5] == pytest.approx(b[5], rel=1e-12, abs=0), b

    def test_transform_never_raises_the_ratio(self):
        got = {tuple(r[:5]): r[5] for r in pinned_statistics()}
        compared = 0
        for (name, n, rep, t, kind), value in got.items():
            inner = {"tel": "el", "tael": "ael"}.get(kind)
            if inner is None or isinstance(value, str):
                continue
            assert value <= got[name, n, rep, t, inner], (name, n, rep, t, kind)
            compared += 1
        assert compared == 200


def side_outcome(end) -> tuple:
    """A side as ``_drive`` ends it, by float hex: its endpoint, lam and
    closing pass, and its steps; or its failure's class and message."""
    if isinstance(end, Exception):
        return type(end).__name__, str(end)
    (endpoint, lam, sums), steps = end
    return (endpoint.hex(), None if lam is None else lam.hex(),
            None if sums is None else [float(f).hex() for f in sums], steps)


class TestBatchedPasses:
    """The sides of a group, driven together in one array pass per round,
    take every pass and bit that each takes alone: the same endpoints, lam,
    steps, closing-pass sums and failures, by float hex and by message."""

    T = (0.1, 0.5, 0.9)

    @staticmethod
    def drive(monkeypatch, samples, t, pass_values):
        """Each ``_drive`` call's ends, by ``side_outcome``, and each kind's
        intervals, when every sample of one size is searched as one group of
        ``_chunk_intervals`` with ``_PASS_VALUES`` set to ``pass_values``."""
        monkeypatch.setattr(intervals, "_PASS_VALUES", pass_values)
        true_drive = intervals._drive
        ends = []

        def recorded(*args):
            out = true_drive(*args)
            ends.append([side_outcome(end) for end in out])
            return out

        monkeypatch.setattr(intervals, "_drive", recorded)
        # stacked as run_experiment stacks a chunk
        V, setups = np.empty((len(samples), samples[0].size)), []
        for x in samples:
            k = _quantile_index(x.size, t)
            try:
                V[len(setups)], *setup = _setup_from(x, *_truncate(x, float(x[k])))
            except lz.DegenerateVariance:
                continue
            setups.append(setup)
        cis = [[(ci.lower.hex(), ci.upper.hex(), ci.iterations)
                if isinstance(ci, lz.ConfidenceInterval) else (type(ci).__name__, str(ci))
                for ci in cis]
               for cis in intervals._chunk_intervals(tuple(lz.VariantKind), V[:len(setups)],
                                                     setups, lz.chi2_crit(0.05), 0.95)]
        monkeypatch.setattr(intervals, "_drive", true_drive)
        return ends, cis

    def compare(self, monkeypatch, samples, t):
        """The group driven one side at a time, two at a time (each with its
        own pass, taking turns), three and four at a time (more sides than
        lanes, in one array pass) and all at once; returns the sides alone."""
        n = samples[0].size
        alone = self.drive(monkeypatch, samples, t, 1)
        for pass_values in (2 * n, 3 * n, 4 * n, 10**9):
            assert self.drive(monkeypatch, samples, t, pass_values) == alone, (n, t, pass_values)
        return alone

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 25, 50, 100, 300, 1000, 3000])
    def test_same_sides_as_one_at_a_time(self, monkeypatch, n):
        # values on a grid of quarters: ties at the quantile, and whole
        # samples that tie there, which have no interval
        rng = np.random.default_rng(n)
        samples = [np.sort(np.round(4.0 * random_positive_data(rng, n)) / 4.0)
                   for _ in range(10)]
        searched = 0
        for t in self.T:
            ends, _ = self.compare(monkeypatch, samples, t)
            searched += sum(map(len, ends))
        assert searched > 0

    def test_whole_line_sets_and_exhausted_sides(self, monkeypatch):
        # with 4 steps a side, some sides run out next to one that closes;
        # whole-line AEL sets are decided before any side is searched
        monkeypatch.setattr(intervals, "_MAX_PASSES", 4)
        seen = collections.Counter()
        for n in (5, 10, 25):
            rng = np.random.default_rng(n + 7)
            samples = [np.sort(random_positive_data(rng, n)) for _ in range(12)]
            for t in self.T:
                ends, cis = self.compare(monkeypatch, samples, t)
                for kind_ends, kind_cis in zip(ends, (c for c in cis if c)):
                    failed = [ci for ci in kind_cis if ci[0] == "LorenzELError"]
                    pairs = list(zip(kind_ends[::2], kind_ends[1::2]))
                    # a failed side is its (class, message), an interval
                    # fails for lack of steps exactly when a side does
                    assert len(failed) == sum(len(a) == 2 or len(b) == 2 for a, b in pairs)
                    for lower, upper in pairs:
                        outs = [len(side) == 2 for side in (lower, upper)]
                        seen[tuple(outs)] += 1
                        if all(outs):  # both failed: the lower side's failure is reported
                            assert ("LorenzELError", lower[1]) in failed
                            assert lower[1].startswith("lower endpoint search")
                seen["whole line"] += sum(ci[0] == "BracketFailure" for c in cis for ci in c)
        assert seen[True, False] and seen[False, True] and seen[True, True]
        assert seen[False, False] and seen["whole line"]

    @pytest.mark.parametrize("adjusted", [False, True])
    def test_refused_lanes_are_dropped_before_the_array_pass(self, rng, adjusted):
        # lanes at a lam that makes some d non-positive, or whose sums of
        # squares could overflow, or (AEL) that the pseudo-deviation refuses,
        # between admitted ones; none may warn
        for n in (2, 7, 64, 500):
            V = np.sort(rng.uniform(0.5, 1.0, (6, n)), axis=1)
            V[:, : n // 2] = 0.0
            hulls = [(float(v[0]), float(v[-1])) for v in V]
            lanes = []
            for row, (lo, hi) in enumerate(hulls):
                theta = 0.5 * (lo + hi)
                for lam in (-0.5, 0.5, -1.0 / (hi - theta), 1e300, 3.0, -3.0):
                    lanes.append((row, theta, lam))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = intervals._passes(V, hulls, adjusted, lanes)
                want = [_pass(V[row], theta, lam, adjusted, hulls[row])
                        for row, theta, lam in lanes]
            assert [None if s is None else [float(f).hex() for f in s] for s in got] == \
                   [None if s is None else [float(f).hex() for f in s] for s in want]
            assert 0 < sum(s is None for s in want) < len(want)


class TestLockstep:
    """A group of sides whose joint steps run as array code in lockstep
    takes every pass and bit that its sides take as coroutines: the same
    endpoints, lam, steps, closing-pass sums and failures, by float hex and
    by message."""

    T = (0.1, 0.5, 0.9)

    @staticmethod
    def compare(monkeypatch, samples, t, pass_values=intervals._PASS_VALUES):
        """The group of ``TestBatchedPasses.drive`` driven as coroutines and
        in lockstep, required equal; returns the ends and the lockstep's
        joint steps, as the lanes of each array Newton step."""
        steps = []
        true_newton = intervals._lane_newton

        def counted(p, *args):
            steps.append(len(p[0]))
            return true_newton(p, *args)

        monkeypatch.setattr(intervals, "_lane_newton", counted)
        monkeypatch.setattr(intervals, "_LOCKSTEP_SIDES", math.inf)
        alone = TestBatchedPasses.drive(monkeypatch, samples, t, pass_values)
        assert not steps
        monkeypatch.setattr(intervals, "_LOCKSTEP_SIDES", 0)
        assert TestBatchedPasses.drive(monkeypatch, samples, t, pass_values) == alone, (
            samples[0].size, t, pass_values)
        return alone, steps

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 25, 50, 100, 300, 1000, 3000])
    def test_same_sides_as_coroutines(self, monkeypatch, n):
        # values on a grid of quarters: ties at the quantile, and whole
        # samples that tie there, which have no interval; each kind seeded
        # by the one before it, with pieces of two lanes and of all lanes
        rng = np.random.default_rng(n)
        samples = [np.sort(np.round(4.0 * random_positive_data(rng, n)) / 4.0)
                   for _ in range(10)]
        stepped = 0
        for t in self.T:
            for pass_values in (2 * n, 10**9):
                (ends, _), steps = self.compare(monkeypatch, samples, t, pass_values)
                if any(map(len, ends)):
                    assert steps, (n, t)  # the array path took the joint steps
                stepped += sum(steps)
        assert stepped > (0 if n == 2 else 100)

    def test_huge_data(self, monkeypatch):
        # near 1e150, searched scaled by a power of two, with no warning
        rng = np.random.default_rng(150)
        samples = [np.sort(1e150 * random_positive_data(rng, 40)) for _ in range(10)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in self.T:
                (ends, _), steps = self.compare(monkeypatch, samples, t)
                assert steps and sum(map(len, ends)) == 80

    @pytest.mark.parametrize("budget", [1, 4])
    def test_exhausted_sides_and_whole_line_sets(self, monkeypatch, budget):
        # with 1 or 4 steps a side, some sides run out, in the array loop or
        # in the certified steps after it, next to ones that close
        monkeypatch.setattr(intervals, "_MAX_PASSES", budget)
        failed = closed = 0
        for n in (5, 10, 25):
            rng = np.random.default_rng(n + 7)
            samples = [np.sort(random_positive_data(rng, n)) for _ in range(12)]
            for t in self.T:
                (ends, cis), steps = self.compare(monkeypatch, samples, t)
                assert steps or not any(map(len, ends))
                sides = [side for kind in ends for side in kind]
                failed += sum(len(side) == 2 for side in sides)
                closed += sum(len(side) == 4 and side[2] is not None for side in sides)
        assert failed and (closed or budget == 1)


class TestLog1pGuard:
    """The array steps take log1p(lam pseudo) and log1p(-delta) with the
    scalar math.log1p at each lane: on inputs where numpy's log1p rounds
    differently, the array step keeps the scalar step's bits, and an array
    log1p would not."""

    @staticmethod
    def candidates(adjusted: bool, count: int = 3000, differ: bool = False):
        """``count`` passes of an AEL (EL) search on seeded data, at seeded
        (theta, lam), with a point near each pass's theta: the pass fields
        as rows over the lanes, as the lockstep keeps them, the passes, and
        the points.
        With ``differ``, only passes whose lam pseudo is an input where
        numpy's log1p and math.log1p differ."""
        rng = np.random.default_rng(1)
        n = 60
        v = np.sort(rng.uniform(0.5, 1.0, n))
        hull = (float(v[0]), float(v[-1]))
        passes, points = [], []
        while len(passes) < count:
            theta = float(rng.normal(v.mean(), 0.03))
            lam = float(rng.normal(0.0, 2.0))
            s = _pass(v, theta, lam, adjusted, hull)
            z = None if s is None else s.lam * s.pseudo
            if s is not None and (not differ or float(np.log1p(z)) != math.log1p(z)):
                passes.append(s)
                points.append(theta + float(rng.normal(0.0, 3e-4)))
        fields = np.array(passes).T
        return n, hull, fields, passes, np.array(points)

    @staticmethod
    def hexes(values) -> list:
        return [float(x).hex() for x in values]

    @pytest.mark.parametrize("adjusted", [False, True])
    def test_bounds(self, monkeypatch, adjusted):
        n, _, fields, passes, points = self.candidates(adjusted)
        a = lz.adjustment_factor(n) if adjusted else 0.0
        want = [_bounds(s, theta) for s, theta in zip(passes, points)]
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            low, high = intervals._lane_bounds(fields, n, a, adjusted, points, points)
            monkeypatch.setattr(intervals, "_log1p", np.log1p)
            vec_low, vec_high = intervals._lane_bounds(fields, n, a, adjusted, points, points)
        assert self.hexes(low) == self.hexes(w[0] for w in want)
        assert self.hexes(high) == self.hexes(w[1] for w in want)
        # lanes where numpy's log1p would move a bound: log1p(-delta) for
        # both kinds, and log1p(lam pseudo) for AEL
        moved = [i for i, w in enumerate(want)
                 if (vec_low[i], vec_high[i]) != w]
        assert len(moved) >= 10
        if adjusted:
            assert any(vec_low[i] != want[i][0] for i in moved)

    def test_newton(self, monkeypatch):
        n, hull, fields, passes, _ = self.candidates(True, 1000, differ=True)
        a = lz.adjustment_factor(n)
        k = len(passes)
        # targets near each pass's own log-ratio bound, where F2 is small
        # and so feels the last bit of log1p(lam pseudo)
        rng = np.random.default_rng(2)
        target = np.array([s.ldata + 2.0 * math.log1p(s.lam * s.pseudo) for s in passes])
        target += rng.normal(0.0, 1e-3, k)
        lo, hi = np.full(k, -math.inf), np.full(k, math.inf)
        h0, h1 = np.full(k, hull[0]), np.full(k, hull[1])
        want = [_newton(s, float(tg), -math.inf, math.inf, hull)
                for s, tg in zip(passes, target)]
        with np.errstate(all="ignore"):
            got = intervals._lane_newton(fields, a, True, target, lo, hi, np.array([h0, h1]))
            monkeypatch.setattr(intervals, "_log1p", np.log1p)
            vec = intervals._lane_newton(fields, a, True, target, lo, hi, np.array([h0, h1]))

        def steps(out):
            stepped, th, lm, full = out
            return [(th[i].hex(), lm[i].hex(), full[i].hex()) if stepped[i] else None
                    for i in range(k)]

        assert steps(got) == [None if w is None else tuple(map(float.hex, w)) for w in want]
        assert sum(g != v for g, v in zip(steps(got), steps(vec))) >= 10


def data_sum_cold_lam(v, theta, adjusted, hull):
    """A cold start's lam at theta from the sums of a pass over v, as the
    pass kernels once took it: sum(w) / sum(w^2) with the AEL
    pseudo-deviation -a_n mean(w), one Newton step from lam = 0, halved
    until every d is positive; None where sum(w^2) could overflow or no
    halving is admissible."""
    n = v.size
    w = v - theta
    if n * max(abs(hull[0] - theta), abs(hull[1] - theta)) ** 2 > 1e300:
        return None
    sw = float(np.add.reduce(w))
    pseudo = -lz.adjustment_factor(n) * (sw / n) if adjusted else 0.0
    lam = (sw + pseudo) / (float(w.dot(w)) + pseudo * pseudo)
    for _ in range(intervals._MAX_HALVINGS):
        if np.all(1.0 + lam * w > 0.0) and 1.0 + lam * pseudo > 0.0:
            return lam
        lam *= 0.5
    return None


class TestColdStart:
    """A cold side's first lam comes in O(1) from the set-up's theta_hat and
    sigma_p^2, and agrees with the one the data sums give."""

    @pytest.mark.parametrize("adjusted", [False, True])
    def test_agrees_with_the_data_sums(self, monkeypatch, adjusted):
        # values on a grid of quarters, so ties at the quantile, searched in
        # the units _chunk_intervals scales them to; Wald starts, and starts
        # that _search_side moves: halfway to an EL hull edge, or one hull
        # width out on an AEL side
        seen = []  # per _cold_lam call, its theta and lam
        true_cold = intervals._cold_lam

        def spy(theta, *args):
            lam = true_cold(theta, *args)
            seen.append((theta, lam))
            return lam

        monkeypatch.setattr(intervals, "_cold_lam", spy)
        starts = collections.Counter()
        for n in (2, 3, 5, 10, 25, 100, 500, 3000):
            rng = np.random.default_rng(n)
            for _ in range(4):
                x = np.sort(np.round(4.0 * random_positive_data(rng, n)) / 4.0)
                for t in (0.1, 0.5, 0.9):
                    try:
                        v, theta_hat, scale, hull = _setup_from(
                            x, *_truncate(x, float(x[_quantile_index(n, t)])))
                    except lz.DegenerateVariance:
                        continue
                    k = math.frexp(max(abs(hull[0]), abs(hull[1])))[1]
                    v, theta_hat = np.ldexp(v, -k), math.ldexp(theta_hat, -k)
                    var, hull = math.ldexp(scale.sigma_p_sq, -2 * k), tuple(
                        math.ldexp(h, -k) for h in hull)
                    target = lz.chi2_crit(0.05) / scale.ratio
                    wald = math.sqrt(target * var / n)
                    for out, edge in zip((-1.0, 1.0), hull):
                        bound = out * math.inf if adjusted else edge
                        # the second start is not inside (theta_hat, bound)
                        for start in (theta_hat + out * wald, theta_hat if adjusted else edge):
                            seen.clear()
                            side = intervals._search_side(v, adjusted, hull, target, theta_hat,
                                                          var, bound, (start, None, None))
                            with warnings.catch_warnings():
                                warnings.simplefilter("error")
                                try:
                                    request = next(side)
                                except (StopIteration, lz.LorenzELError):
                                    request = None
                            side.close()
                            (theta, lam), = seen
                            starts["wald" if theta == start else "moved"] += 1
                            want = data_sum_cold_lam(v, theta, adjusted, hull)
                            assert (lam is None) == (want is None), (n, t, theta)
                            if lam is not None:
                                assert lam == pytest.approx(want, rel=1e-13, abs=0.0), (n, t)
                                assert request == (theta, lam)
        assert starts["wald"] > 100 and starts["moved"] > 100
