"""Confidence-interval inversion against an independent oracle."""
from __future__ import annotations

import math

import numpy as np
import pytest

import lorenzel as lz
from conftest import oracle_ci, random_positive_data
from lorenzel import intervals
from lorenzel.variants import _tel_inverse

TOY = lz.Sample([1.0, 2.0, 3.0, 4.0, 5.0])


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
        assert ci.lower_bracketed and ci.upper_bracketed
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

    def test_scale_equivariance(self, rng):
        x = random_positive_data(rng, 35)
        s = lz.Sample(x)
        sc = lz.Sample(8.0 * x)
        for kind in lz.VariantKind:
            a = lz.invert(kind, s, 0.5, 0.05)
            b = lz.invert(kind, sc, 0.5, 0.05)
            assert b.lower == pytest.approx(8.0 * a.lower, rel=3e-8)
            assert b.upper == pytest.approx(8.0 * a.upper, rel=3e-8)

    def test_estimate_always_inside(self, rng):
        for _ in range(20):
            x = random_positive_data(rng, int(rng.integers(10, 50)))
            s = lz.Sample(x)
            t = float(rng.uniform(0.15, 0.9))
            theta_hat = lz.point_estimate(s, t)
            for kind in lz.VariantKind:
                ci = lz.invert(kind, s, t, 0.05)
                assert ci.lower <= theta_hat <= ci.upper


class TestFailureModes:
    def test_degenerate_variance(self):
        with pytest.raises(lz.DegenerateVariance):
            lz.invert("el", lz.Sample([2.0, 2.0, 2.0]), 0.5, 0.05)

    def test_bracket_failure_carries_partial_interval(self):
        # an absurdly demanding level pushes the TAEL plateau below the
        # critical value, so the cap is reached on both sides
        s = lz.Sample([1.0, 2.0, 10.0])
        with pytest.raises(lz.BracketFailure) as exc_info:
            lz.invert("tael", s, 0.7, 1e-9)
        partial = exc_info.value.interval
        assert partial is not None
        assert not (partial.lower_bracketed and partial.upper_bracketed)
        theta_hat = lz.point_estimate(s, 0.7)
        hull_w = 10.0 - 1.0
        if not partial.lower_bracketed:
            assert partial.lower == pytest.approx(theta_hat - 10.0 * hull_w)
        if not partial.upper_bracketed:
            assert partial.upper == pytest.approx(theta_hat + 10.0 * hull_w)

    def test_el_never_needs_the_cap(self, rng):
        # the plain ratio blows up at the hull edge, so even extreme levels
        # bracket within the hull
        x = random_positive_data(rng, 25)
        ci = lz.invert("el", lz.Sample(x), 0.5, 1e-9)
        assert ci.lower_bracketed and ci.upper_bracketed



class TestSlope:
    def test_matches_central_difference(self, rng):
        # envelope-theorem slope: -2 n lambda for EL; AEL adds the term of
        # the pseudo-deviation, which moves with theta
        for _ in range(60):
            n = int(rng.integers(10, 401))
            s = lz.Sample(random_positive_data(rng, n))
            t = float(rng.uniform(0.2, 0.9))
            for adjusted in (False, True):
                stat = intervals._Statistic(adjusted, s, t)
                theta_hat = float(stat.trunc.mean())
                vmin, vmax = float(stat.trunc.min()), float(stat.trunc.max())
                frac = float(rng.uniform(0.05, 0.6))
                edge = vmax if rng.random() < 0.5 else vmin
                theta = theta_hat + frac * (edge - theta_hat)
                _, slope = stat(theta)
                h = 1e-5 * (vmax - vmin)
                fd = (stat(theta + h)[0] - stat(theta - h)[0]) / (2.0 * h)
                assert slope == pytest.approx(fd, rel=1e-6), (n, adjusted)


class TestSearchBudget:
    def test_exhausted_budget_raises(self, monkeypatch, rng):
        # a joint step that never moves theta and reports steps shrinking by
        # 0.7 each time, from an absurd length, neither converges nor stalls
        # within the budget; the search must give up loudly, not return
        lengths = iter(1e30 * 0.7 ** k for k in range(10**6))

        def creeps(v, theta, lam, adjusted, target, lo, hi, hull):
            return theta, 1.0 if lam is None else lam, next(lengths)

        monkeypatch.setattr(intervals, "_joint_step", creeps)
        s = lz.Sample(random_positive_data(rng, 40))
        with pytest.raises(lz.LorenzELError, match="lower endpoint search") as exc_info:
            lz.invert("el", s, 0.5, 0.05)
        assert not isinstance(exc_info.value, lz.BracketFailure)
        assert "100 passes" in str(exc_info.value)

    def test_exhausted_budget_raises_in_the_safeguard(self, monkeypatch, rng):
        # joint steps that stall at once hand over to certified steps; a
        # slope a million times too steep makes each of those creep by the
        # tolerance, and the one budget still runs out loudly
        true_call = intervals._Statistic.__call__

        def steep(self, theta):
            val, slope = true_call(self, theta)
            return val, 1e6 * slope

        monkeypatch.setattr(intervals, "_joint_step", lambda *args: None)
        monkeypatch.setattr(intervals._Statistic, "__call__", steep)
        s = lz.Sample(random_positive_data(rng, 40))
        with pytest.raises(lz.LorenzELError, match="lower endpoint search") as exc_info:
            lz.invert("el", s, 0.5, 0.05)
        assert not isinstance(exc_info.value, lz.BracketFailure)


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
            assert np.mean(counts) <= 16.0, kind

    def test_small_samples_through_the_safeguard(self, monkeypatch):
        # at n <= 25 a share of the sides stall in the joint steps and are
        # finished by certified steps; their endpoints must be as good
        certified = []
        true_call = intervals._Statistic.__call__
        true_search = intervals._search_side

        def counted_call(self, theta):
            certified[-1] += 1
            return true_call(self, theta)

        def counted_search(*args):
            certified.append(0)
            return true_search(*args)

        monkeypatch.setattr(intervals._Statistic, "__call__", counted_call)
        monkeypatch.setattr(intervals, "_search_side", counted_search)
        pops = [lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0), lz.SkewNormal(1.0, 3.0, 5.0)]
        crit = lz.chi2_crit(0.05)
        unbracketed = 0
        for p, pop in enumerate(pops):
            for n in (5, 10, 15, 25):
                for r in range(6):
                    s = lz.sample(pop, n, lz.SeedSpec(master_seed=47, stream_id=p), r)
                    for t in np.arange(1, 10) / 10.0:
                        try:
                            ratio = lz.scale_factor(s, t).ratio
                        except lz.DegenerateVariance:
                            continue
                        trunc = lz.truncated_values(s, t)
                        hull_w = float(np.ptp(trunc))
                        theta_hat = lz.point_estimate(s, t)
                        for kind in lz.VariantKind:
                            try:
                                ci = lz.invert(kind, s, t, 0.05)
                            except lz.BracketFailure as exc:
                                ci = exc.interval
                            level = crit
                            if kind.transformed:
                                level = ratio * _tel_inverse(crit / ratio, n)
                            base = "ael" if kind.adjusted else "el"
                            sides = ((ci.lower, -1.0, ci.lower_bracketed),
                                     (ci.upper, 1.0, ci.upper_bracketed))
                            for theta, out, bracketed in sides:
                                stat = lz.scaled_statistic(base, s, t, theta)
                                assert stat <= level * (1.0 + 1e-12), (kind, n, t)
                                if not bracketed:
                                    unbracketed += 1
                                    assert kind.adjusted
                                    assert theta == pytest.approx(theta_hat + out * 10.0 * hull_w)
                                    continue
                                beyond = theta + out * (2e-8 * abs(theta) + 1e-14 * hull_w)
                                assert lz.scaled_statistic(base, s, t, beyond) > level, (kind, n, t)
        safeguarded = sum(c > 2 for c in certified)
        assert unbracketed > 0
        assert 0.02 * len(certified) < safeguarded < 0.2 * len(certified)
