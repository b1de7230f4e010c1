"""Populations: cdfs, quantiles, exact ordinates, reproducible draws."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

import lorenzel as lz

WEI = lz.Weibull(1.0, 2.0)
CHI = lz.ChiSquare(3.0)
SN = lz.SkewNormal(1.0, 3.0, 5.0)
T_GRID = [i / 10 for i in range(1, 10)]


def scipy_dist(pop):
    """The same population as a frozen scipy.stats distribution."""
    if isinstance(pop, lz.Weibull):
        return stats.weibull_min(pop.shape, scale=pop.scale)
    if isinstance(pop, lz.ChiSquare):
        return stats.chi2(pop.df)
    return stats.skewnorm(pop.shape, loc=pop.location, scale=pop.scale)


# closed form for Weibull(1, 2): 2 - 2(1-t)(1 - log(1-t))
WEI_ORDINATES = {
    0.1: 0.01035107181591255,
    0.2: 0.042970317897264465,
    0.3: 0.10065507848577471,
    0.4: 0.18700925148081127,
    0.5: 0.3068528194400546,
    0.6: 0.4669674145006759,
    0.7: 0.6776163174044387,
    0.8: 0.95622483502636,
    0.9: 1.3394829814011908,
}


class TestDistributions:
    def test_validation(self):
        with pytest.raises(lz.DomainError):
            lz.Weibull(0.0, 1.0)
        with pytest.raises(lz.DomainError):
            lz.ChiSquare(-3.0)
        with pytest.raises(lz.DomainError):
            lz.SkewNormal(0.0, 0.0, 1.0)
        # every parameter is a finite real number, read as core._number
        # reads one, and is stored as a float
        for make, name in [(lambda: lz.SkewNormal(math.nan, 1.0, 1.0), "location"),
                           (lambda: lz.SkewNormal(math.inf, 1.0, 1.0), "location"),
                           (lambda: lz.SkewNormal(0.0, 1.0, -math.inf), "shape"),
                           (lambda: lz.Weibull(1.0, math.inf), "scale"),
                           (lambda: lz.ChiSquare(math.inf), "df"),
                           (lambda: lz.Weibull(10**400, 1.0), "shape")]:
            with pytest.raises(lz.DomainError, match=name):
                make()
        with pytest.raises(TypeError, match="Weibull shape"):
            lz.Weibull("1", 2)
        pop = lz.SkewNormal(1, 3, 5)
        assert pop == SN and type(pop.shape) is float

    @pytest.mark.parametrize("pop", [WEI, CHI, SN])
    def test_cdf_matches_scipy(self, pop):
        dist = scipy_dist(pop)
        for x in (0.5, 1.7, 4.0):
            assert pop.cdf(x) == pytest.approx(dist.cdf(x), abs=1e-12)

    @pytest.mark.parametrize("pop", [WEI, CHI, SN])
    def test_quantile_inverts_cdf(self, pop):
        for t in T_GRID:
            assert pop.cdf(pop.quantile(t)) == pytest.approx(t, abs=1e-9)

    def test_weibull_median_closed_form(self):
        assert WEI.quantile(0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_chisq_quantile_against_scipy(self):
        for t in T_GRID:
            assert CHI.quantile(t) == pytest.approx(stats.chi2.ppf(t, 3), abs=1e-9)

    def test_moments_frozen(self):
        assert WEI.mean == pytest.approx(2.0, rel=1e-14)
        assert WEI.variance == pytest.approx(4.0, rel=1e-13)
        assert CHI.mean == 3.0 and CHI.variance == 6.0
        assert SN.mean == pytest.approx(3.3471705452662808, rel=1e-14)
        assert SN.variance == pytest.approx(3.4907904314343914, rel=1e-13)

    @pytest.mark.parametrize("pop,want", [
        # each scale ** 2 overflows; the variance is finite (want as a log)
        # or beyond the float range
        (lz.SkewNormal(0.0, 1.5e154, 1.0), 2.0 * math.log(1.5e154) + math.log1p(-1.0 / math.pi)),
        (lz.SkewNormal(0.0, 1e200, 1.0), math.inf),
        (lz.Weibull(2.0, 2.5e154), 2.0 * math.log(2.5e154) + math.log1p(-math.pi / 4.0)),
        (lz.Weibull(1.0, 1e200), math.inf),
        # Gamma(1 + 2/a) overflows, as Gamma(1 + 1/a) does for the mean
        (lz.Weibull(0.01, 1.0), math.inf),
        (lz.Weibull(0.005, 1.0), math.inf),
    ])
    def test_variance_past_a_square_that_overflows(self, pop, want):
        # no OverflowError and no RuntimeWarning: the variance when it is
        # finite, inf beyond the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pop.variance
        if math.isfinite(want):
            assert math.log(got) == pytest.approx(want, rel=1e-14)
        else:
            assert got == math.inf

    def test_str_forms(self):
        assert str(WEI) == "weibull(1,2)"
        assert str(CHI) == "chisquare(3)"
        assert str(SN) == "skewnormal(1,3,5)"


class TestSampling:
    @pytest.mark.parametrize("pop", [WEI, CHI, SN])
    def test_mean_within_four_se(self, pop):
        n = 200_000
        draws = pop.draw(lz.SeedSpec(123).generator(), n)
        se = math.sqrt(pop.variance / n)
        assert abs(float(draws.mean()) - pop.mean) < 4.0 * se

    @pytest.mark.parametrize("pop", [WEI, CHI, SN])
    def test_ks_against_own_cdf(self, pop):
        draws = pop.draw(lz.SeedSpec(7).generator(), 4000)
        p = stats.kstest(draws, pop.cdf).pvalue
        assert p > 1e-4

    def test_skewnormal_is_skewed_the_right_way(self):
        draws = SN.draw(lz.SeedSpec(9).generator(), 50_000)
        assert stats.skew(draws) > 0.3
        # mass genuinely extends below zero, and matches the cdf there
        p0 = SN.cdf(0.0)
        assert p0 > 0.001
        se = math.sqrt(p0 * (1.0 - p0) / draws.size)
        assert (draws < 0).mean() == pytest.approx(p0, abs=5 * se)

    def test_sample_returns_sorted_sample(self):
        s = lz.sample(WEI, 50, lz.SeedSpec(0))
        assert isinstance(s, lz.Sample)
        assert np.all(np.diff(s.values) >= 0.0)

    def test_sample_size_validation(self):
        with pytest.raises(lz.DomainError):
            lz.sample(WEI, 1, lz.SeedSpec(0))
        # n and replication are integers, and replication is not negative:
        # a plain ValueError naming the argument, not numpy's own message
        for args, name in [((10.0, 0), "n"), ((10, -1), "replication"),
                           ((10, 1.5), "replication")]:
            with pytest.raises(ValueError, match=name) as info:
                lz.sample(WEI, args[0], lz.SeedSpec(0), replication=args[1])
            assert not isinstance(info.value, lz.LorenzELError)

    @pytest.mark.parametrize("args", [(-1,), (0, -2), (1.5,)])
    def test_seeds_are_non_negative_integers(self, args):
        # a plain ValueError, not a LorenzELError, so the CLI exits 2
        with pytest.raises(ValueError) as info:
            lz.SeedSpec(*args)
        assert not isinstance(info.value, lz.LorenzELError)
        assert ("stream_id" if len(args) == 2 else "master_seed") in str(info.value)

    def test_replication_streams(self):
        a = lz.sample(WEI, 20, lz.SeedSpec(42), replication=3)
        b = lz.sample(WEI, 20, lz.SeedSpec(42), replication=3)
        c = lz.sample(WEI, 20, lz.SeedSpec(42), replication=4)
        d = lz.sample(WEI, 20, lz.SeedSpec(43), replication=3)
        e = lz.sample(WEI, 20, lz.SeedSpec(42, stream_id=1), replication=3)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert not np.array_equal(a.values, d.values)
        assert not np.array_equal(a.values, e.values)


class TestTrueOrdinate:
    def test_weibull_against_closed_form(self):
        for t, expected in WEI_ORDINATES.items():
            assert lz.true_ordinate(WEI, t) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("pop", [WEI, CHI, SN])
    def test_strictly_increasing_in_t(self, pop):
        vals = [lz.true_ordinate(pop, t) for t in T_GRID]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_limits(self):
        assert lz.true_ordinate(CHI, 1e-6) < 1e-4
        assert lz.true_ordinate(CHI, 1.0 - 1e-6) == pytest.approx(3.0, abs=1e-3)
        assert lz.true_ordinate(WEI, 1.0 - 1e-6) == pytest.approx(2.0, abs=1e-4)

    def test_never_exceeds_mean(self):
        for pop in (WEI, CHI, SN):
            for t in T_GRID:
                assert lz.true_ordinate(pop, t) < pop.mean

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2])
    def test_domain(self, t):
        with pytest.raises(lz.DomainError):
            lz.true_ordinate(WEI, t)

    @pytest.mark.parametrize("pop", [
        lz.Weibull(0.3, 1e-3), lz.Weibull(1.0, 2.0), lz.Weibull(5.0, 1e4),
        lz.ChiSquare(0.5), lz.ChiSquare(3.0), lz.ChiSquare(300.0), lz.ChiSquare(3000.0),
        lz.SkewNormal(1.0, 3.0, 5.0), lz.SkewNormal(0.0, 1.0, -50.0),
        lz.SkewNormal(-1e3, 10.0, 2.0),
    ], ids=str)
    def test_against_scipy_quadrature(self, pop):
        dist = scipy_dist(pop)
        lo = -math.inf if isinstance(pop, lz.SkewNormal) else 0.0
        for t in (0.01, 0.1, 0.5, 0.9, 0.99):
            ref, _ = integrate.quad(lambda x: x * dist.pdf(x), lo, dist.ppf(t),
                                    epsabs=0.0, epsrel=1e-11, limit=200)
            assert lz.true_ordinate(pop, t) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("shape", [1e8, 1e200, -1e8, -1e200])
    def test_skewnormal_large_shape_is_half_normal(self, shape):
        # from |shape| about 1e8 delta rounds to +-1 and 1 - delta^2 to 0,
        # and from about 1.34e154 shape^2 overflows: the ordinate is the
        # half-normal's, +-|Z|, with Phi(+-inf) for the vanished term
        pop = lz.SkewNormal(0.0, 1.0, shape)
        for t in (0.1, 0.5, 0.9):
            if shape > 0:  # |Z|: psi = Phi^-1((1 + t) / 2)
                psi = stats.norm.ppf(0.5 * (1.0 + t))
                want = math.sqrt(2.0 / math.pi) * -math.expm1(-0.5 * psi * psi)
            else:  # -|Z|: the values below psi are those with |Z| above c
                c = stats.norm.isf(0.5 * t)
                want = -math.sqrt(2.0 / math.pi) * math.exp(-0.5 * c * c)
            assert lz.true_ordinate(pop, t) == pytest.approx(want, rel=1e-9)
        assert pop.mean == pytest.approx(math.copysign(math.sqrt(2.0 / math.pi), shape))
        assert np.all(np.sign(lz.sample(pop, 50, lz.SeedSpec(1)).values) == np.sign(shape))

    def test_overflow_raises_nonfinite(self):
        # Gamma(1 + 1/a) overflows for shapes below about 0.006
        with pytest.raises(lz.NonFinite):
            lz.true_ordinate(lz.Weibull(0.005, 1.0), 0.9)

    @pytest.mark.parametrize("shape,t", [(0.005, 0.9), (1e-3, 0.5), (1e-3, 0.9)])
    def test_overflow_warns_of_nothing(self, shape, t):
        # where Gamma(1 + 1/a) = inf meets gammainc = 0 the product is nan:
        # NonFinite, with no RuntimeWarning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lz.NonFinite):
                lz.true_ordinate(lz.Weibull(shape, 1.0), t)
