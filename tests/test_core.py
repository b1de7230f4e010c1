"""Core EL machinery: quantiles, point estimates, the multiplier solver."""
from __future__ import annotations

import copy
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lorenzel as lz
from conftest import random_positive_data
from lorenzel import intervals
from lorenzel.calibration import _setup
from lorenzel.core import _kind, _profile
from lorenzel.intervals import _bounds, _certify, _cold_lam, _joint_step, _pass
from lorenzel.variants import _tel_inverse

TOY = lz.Sample([1.0, 2.0, 3.0, 4.0, 5.0])


@st.composite
def mixed_sign_vectors(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    mags = draw(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    w = [m * s for m, s in zip(mags, signs)]
    w[0] = -abs(w[0])
    w[1] = abs(w[1])
    # the multiplier scales as 1/w, so every stopping rule must be relative
    return np.asarray(w) * 10.0 ** draw(st.integers(min_value=-16, max_value=16))


def residual(w, lam):
    """mean(w / (1 + lam*w)), the equation the multiplier solves."""
    w = np.asarray(w, dtype=float)
    return float(np.mean(w / (1.0 + lam * w)))


def weights(w, lam):
    """The EL probabilities 1 / (m * (1 + lam*w)) implied by lam."""
    w = np.asarray(w, dtype=float)
    return 1.0 / (w.size * (1.0 + lam * w))


class TestSample:
    def test_sorts_and_locks(self):
        s = lz.Sample([3.0, 1.0, 2.0])
        assert s.values.tolist() == [1.0, 2.0, 3.0]
        assert not s.values.flags.writeable
        assert s.n == 3 and len(s) == 3

    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                         lambda s: pickle.loads(pickle.dumps(s))])
    def test_copies_stay_locked(self, copy_of):
        s = lz.Sample([3.0, 1.0, 2.0])
        lz.scaled_statistic("el", s, 0.5, 1.5)
        c = copy_of(s)
        assert c.values.tolist() == [1.0, 2.0, 3.0]
        assert not c.values.flags.writeable
        assert lz.scaled_statistic("el", c, 0.5, 1.5) == lz.scaled_statistic("el", s, 0.5, 1.5)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            lz.Sample([1.0])

    @pytest.mark.parametrize("bad", [[1.0, math.nan], [1.0, math.inf], [-math.inf, 0.0]])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            lz.Sample(bad)

    def test_negative_values_allowed(self):
        assert lz.Sample([-2.0, 1.0]).values[0] == -2.0

    @pytest.mark.parametrize("values", [np.array([1 + 5j, 2.0, 3.0]),
                                        np.array([1.0, 2.0, 3.0], dtype=np.complex64),
                                        [np.complex128(1 + 5j), 2.0, 3.0]])
    def test_rejects_complex(self, values):
        # a float cast keeps only the real part, with no more than a warning
        with pytest.raises(ValueError, match="observations must be real"):
            lz.Sample(values)

    @pytest.mark.parametrize("values", [["1.5", "2", "3"], ["1.5", 2.0, 3.0],
                                        np.array([b"1.5", b"2", b"3"]),
                                        np.array(["1.5", "2", "3"], dtype=object),
                                        np.array([1.5, b"2", 3], dtype=object),
                                        np.array([1.5, 2.0, np.str_("3")], dtype=object)])
    def test_rejects_strings(self, values):
        # a float cast would parse them, so a table column of text passes
        # unseen; in an object array too
        with pytest.raises(ValueError, match="observations must be numbers, not strings"):
            lz.Sample(values)

    def test_object_arrays_of_numbers_are_accepted(self):
        s = lz.Sample(np.array([Fraction(1, 3), 2, 3.0], dtype=object))
        assert s.values.tolist() == [1 / 3, 2.0, 3.0]

    @pytest.mark.parametrize("dtype", [int, bool, np.float32, float])
    def test_real_arrays_keep_their_bits(self, dtype):
        x = np.array([[3, 0], [1, 2]], dtype=dtype)
        s = lz.Sample(x)
        assert s.values.tobytes() == np.sort(x.astype(float).ravel()).tobytes()
        assert s.values.dtype == np.float64 and not np.shares_memory(s.values, x)


class TestVariantKind:
    FLAGS = {"el": (False, False), "ael": (True, False), "tel": (False, True),
             "tael": (True, True)}  # (adjusted, transformed)

    def test_flags(self):
        assert {kind.value: (kind.adjusted, kind.transformed)
                for kind in lz.VariantKind} == self.FLAGS
        assert [kind.value for kind in lz.VariantKind] == list(self.FLAGS)

    @pytest.mark.parametrize("kind", list(lz.VariantKind))
    def test_lookups_copies_and_pickles_keep_identity(self, kind):
        assert lz.VariantKind(kind.value) is kind and lz.VariantKind(kind) is kind
        assert _kind(kind.value) is kind and _kind(kind) is kind
        assert copy.copy(kind) is kind and copy.deepcopy(kind) is kind
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(kind, protocol)) is kind
        # a str enum: a member equals and hashes as its value
        assert kind == kind.value and hash(kind) == hash(kind.value)

    def test_unknown_kind_is_the_enums_own_error(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid VariantKind"):
            _kind("bogus")


class TestSampleQuantile:
    @pytest.mark.parametrize("t,expected", [
        (0.2, 1.0),   # ceil(1.0) = 1st order statistic
        (0.4, 2.0),
        (0.41, 3.0),  # ceil(2.05) = 3
        (0.5, 3.0),
        (0.9, 5.0),
        (0.99, 5.0),
    ])
    def test_examples(self, t, expected):
        assert lz.sample_quantile(TOY, t) == expected

    def test_float_dust_on_exact_multiple(self):
        # 5 * 0.6 = 3.0000000000000004 must still mean k = 3
        assert lz.sample_quantile(TOY, 0.6) == 3.0

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, t):
        with pytest.raises(lz.DomainError):
            lz.sample_quantile(TOY, t)

    def test_ties_all_included(self):
        s = lz.Sample([1.0, 2.0, 2.0, 2.0, 9.0])
        assert lz.sample_quantile(s, 0.4) == 2.0
        # every observation equal to the quantile is kept
        assert lz.truncated_values(s, 0.4).tolist() == [1.0, 2.0, 2.0, 2.0, 0.0]


class TestPointEstimate:
    def test_toy(self):
        assert lz.point_estimate(TOY, 0.4) == pytest.approx(0.6, abs=0)
        assert lz.point_estimate(TOY, 0.9) == pytest.approx(3.0, abs=0)

    def test_zero_at_ratio_root(self):
        theta_hat = lz.point_estimate(TOY, 0.4)
        assert lz.log_ratio("el", TOY, 0.4, theta_hat) == 0.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=50),
           st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99))
    def test_nondecreasing_in_t_for_nonnegative_data(self, xs, t1, t2):
        s = lz.Sample(xs)
        lo, hi = sorted((t1, t2))
        assert lz.point_estimate(s, lo) <= lz.point_estimate(s, hi) + 1e-12

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e6), min_size=2, max_size=50),
           st.floats(min_value=0.01, max_value=0.99),
           st.integers(min_value=-8, max_value=8))
    def test_scale_equivariance_exact_for_pow2(self, xs, t, k):
        # Power-of-two scaling is exact only while every partial sum and the
        # quotient sum/n stay normal: a subnormal rounds differently at each
        # scale (xs=[0.0, -5e-324] gives -0.0, then -5e-324 once doubled),
        # whatever the mean's implementation.  With nonzero |x| >= 2**-900
        # every nonzero sum is a multiple of 2**-952, so c*sum/n >= 2**-966
        # stays normal for k >= -8 and n <= 50.
        assume(all(x == 0.0 or abs(x) >= 2.0 ** -900 for x in xs))
        c = 2.0 ** k
        s = lz.Sample(xs)
        sc = lz.Sample([c * x for x in xs])
        assert lz.point_estimate(sc, t) == c * lz.point_estimate(s, t)


class TestSolveLambda:
    def test_symmetric_root_is_zero(self):
        lam = lz.solve_lambda([-1.0, 1.0])
        assert type(lam) is float
        assert lam == pytest.approx(0.0, abs=1e-12)
        assert weights([-1.0, 1.0], lam) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_known_root(self):
        w = [-1.0, 2.0]
        lam = lz.solve_lambda(w)
        assert lam == pytest.approx(0.25, rel=1e-12)
        assert abs(residual(w, lam)) <= 1e-10 * (1.0 + 2.0)
        assert weights(w, lam).sum() == pytest.approx(1.0, abs=1e-12)
        # p = (2/3, 1/3): the profile puts more mass on the nearer point
        assert weights(w, lam) == pytest.approx([2 / 3, 1 / 3], rel=1e-10)

    @pytest.mark.parametrize("e", [12, 13, 14, 15, 16])
    def test_known_root_at_large_scale(self, e):
        # an absolute bracket width would stop at lam = 0 from 1e14 on,
        # with a residual of 2.5e13 times the scale's contract
        w = [-(10.0 ** e), 2.0 * 10.0 ** e]
        lam = lz.solve_lambda(w)
        assert lam == pytest.approx(0.25 / 10.0 ** e, rel=1e-12)
        assert abs(residual(w, lam)) <= 1e-10 * (1.0 + 2.0 * 10.0 ** e)

    @pytest.mark.parametrize("w", [[1.0, 2.0], [-3.0, -0.5], [0.0, 1.0, 2.0],
                                   [0.0, 0.0], [-1.0, 0.0]])
    def test_hull_violation(self, w):
        with pytest.raises(lz.ConvexHullViolation):
            lz.solve_lambda(w)

    @pytest.mark.parametrize("w", [[math.nan, 1.0, -1.0], [math.inf, -1.0]])
    def test_non_finite_input(self, w):
        with pytest.raises(lz.NonFinite):
            lz.solve_lambda(w)

    def test_empty(self):
        with pytest.raises(ValueError):
            lz.solve_lambda([])

    @pytest.mark.parametrize("w", [np.array([1 + 1j, -1.0]), [np.complex128(-1.0), 2.0]])
    def test_rejects_complex(self, w):
        # a float cast keeps only the real part: lam = 0 for [1 + 1j, -1]
        with pytest.raises(ValueError, match="deviation vector must be real"):
            lz.solve_lambda(w)

    @pytest.mark.parametrize("w", [["-1", "2"], np.array([b"-1", b"2"]),
                                   np.array(["-1", "2"], dtype=object),
                                   np.array([-1.0, b"2"], dtype=object)])
    def test_rejects_strings(self, w):
        # a float cast would parse them: lam = 0.25 for ["-1", "2"], as a
        # list or as an object array
        with pytest.raises(ValueError, match="deviation vector must be numbers, not strings"):
            lz.solve_lambda(w)

    def test_object_arrays_of_numbers_are_accepted(self):
        w = np.array([Fraction(-1), 2], dtype=object)
        assert lz.solve_lambda(w) == lz.solve_lambda([-1.0, 2.0])

    @pytest.mark.parametrize("dtype", [int, np.float32, float])
    def test_real_arrays_keep_their_bits(self, dtype):
        w = np.array([-3, 1, 2, 5], dtype=dtype)
        assert lz.solve_lambda(w) == lz.solve_lambda(w.astype(float).tolist())

    def test_bool_array_is_its_float_copy(self):
        with pytest.raises(lz.ConvexHullViolation):  # [1.0, 0.0]: no negative entry
            lz.solve_lambda(np.array([True, False]))

    def test_warm_start_agrees(self):
        w = [-1.0, 0.5, 2.0, -0.2]
        cold = lz.solve_lambda(w)
        warm = lz.solve_lambda(w, lam0=cold * 0.9)
        silly = lz.solve_lambda(w, lam0=1e18)  # outside bracket: ignored
        assert warm == pytest.approx(cold, rel=1e-10)
        assert silly == pytest.approx(cold, rel=1e-10)

    def test_unconverged_root_raises(self):
        # entries spanning 1e-257 to 1e276 leave lam near -9.5e31 after the
        # iteration budget, with |lam * g| = 4e-5 and weights summing to
        # 0.875; that root must not be returned
        w = [1.05291294e-206, -1.8968274e276, -4.45280651e-257, 1.72612506e-161,
             4.39441001e-216, 3.57857364e-036, 6.63824220e-242, -1.53382468e-221]
        with pytest.raises(lz.LorenzELError, match=r"200 iterations.*\|lam \* g\|"):
            lz.solve_lambda(w)

    @settings(max_examples=300, deadline=None)
    @given(mixed_sign_vectors())
    def test_contract_on_random_vectors(self, w):
        lam = lz.solve_lambda(w)
        p = weights(w, lam)
        scale = 1.0 + float(np.max(np.abs(w)))
        assert abs(residual(w, lam)) <= 1e-10 * scale
        assert np.all(1.0 + lam * w > 0.0)
        assert np.all(p > 0.0)
        assert float(p.sum()) == pytest.approx(1.0, abs=1e-12)
        # the constraint the multiplier enforces
        assert float(np.sum(p * w)) == pytest.approx(0.0, abs=1e-10 * scale)


class TestLogElRatio:
    def test_frozen_value(self):
        # deviations [-1, 2]: lam = 1/4, ratio = 2(log(3/4) + log(3/2))
        s = lz.Sample([0.0, 3.0])
        got = lz.log_ratio("el", s, 0.75, 1.0)
        assert got == pytest.approx(0.23556607131276697, rel=1e-12)

    def test_nonnegative_and_grows_outward(self):
        theta_hat = lz.point_estimate(TOY, 0.4)
        vals = [lz.log_ratio("el", TOY, 0.4, th)
                for th in np.linspace(0.05, 1.95, 41)]
        assert all(v >= 0.0 for v in vals)
        i_hat = int(np.argmin([abs(th - theta_hat) for th in np.linspace(0.05, 1.95, 41)]))
        assert all(np.diff(vals[: i_hat + 1]) <= 1e-9)  # falling toward theta_hat
        assert all(np.diff(vals[i_hat:]) >= -1e-9)      # rising away from it

    @pytest.mark.parametrize("theta", [2.5, 2.0, 0.0, -1.0])
    def test_outside_hull(self, theta):
        # truncated values of TOY at t=0.4 live in [0, 2]
        with pytest.raises(lz.ConvexHullViolation):
            lz.log_ratio("el", TOY, 0.4, theta)

    def test_just_inside_hull_is_finite(self):
        v = lz.log_ratio("el", TOY, 0.4, 2.0 - 1e-9)
        assert math.isfinite(v) and v > 0.0

    def test_degenerate_all_zero_deviations(self):
        for adjusted in (False, True):
            assert _profile(np.full(4, 2.0), 2.0, adjusted) == (0.0, 0.0)

    @given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=4, max_size=30),
           st.floats(min_value=0.2, max_value=0.9),
           st.integers(min_value=-6, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, xs, t, k):
        c = 2.0 ** k
        s = lz.Sample(xs)
        theta = 0.75 * lz.point_estimate(s, t) + 0.25 * max(lz.truncated_values(s, t))
        try:
            base = lz.log_ratio("el", s, t, theta)
        except (lz.ConvexHullViolation, lz.DegenerateVariance):
            return
        scaled = lz.log_ratio("el", lz.Sample([c * x for x in xs]), t, c * theta)
        assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12)


def _reference_solve_lambda(w, lam0=None):
    """``solve_lambda`` as one function, before its loop became the kernel
    ``core._solve``: the reference the kernel keeps bit for bit."""
    w = np.asarray(w)
    if w.dtype.kind == "c":
        raise ValueError("deviation vector must be real, not complex")
    w = w.astype(float, copy=False).ravel()
    if w.size == 0:
        raise ValueError("empty deviation vector")
    wmin = float(np.minimum.reduce(w))
    wmax = float(np.maximum.reduce(w))
    if not (math.isfinite(wmin) and math.isfinite(wmax)):
        raise lz.NonFinite("deviation vector contains non-finite entries")
    if not (wmin < 0.0 < wmax):
        raise lz.ConvexHullViolation(
            "zero is not interior to the convex hull of the deviations "
            f"(min={wmin:g}, max={wmax:g})"
        )
    lo = -1.0 / wmax
    hi = -1.0 / wmin
    eps = 1e-12 * (hi - lo)
    lo += eps
    hi -= eps

    m = w.size
    target = 1e-13 * (float(np.add.reduce(np.abs(w))) / m)
    lam = 0.0
    if lam0 is not None and lo < lam0 < hi:
        lam = float(lam0)
    if not lo < lam < hi:
        lam = 0.5 * (lo + hi)

    g = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(200):
            r = w / (1.0 + lam * w)
            g = float(np.add.reduce(r)) / m
            if not math.isfinite(g):
                raise lz.NonFinite("estimating equation overflowed")
            if abs(g) <= target and abs(lam * g) <= 2.5e-13:
                break
            if g > 0.0:
                lo = lam
            else:
                hi = lam
            if (hi - lo) * max(wmax, -wmin) <= 1e-14:
                break
            slope = -float(r.dot(r)) / m
            step = lam - g / slope if slope < 0.0 and math.isfinite(slope) else math.inf
            lam = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            raise lz.LorenzELError(
                f"Lagrange multiplier did not converge in 200 "
                f"iterations (lam = {lam:.6g}, |lam * g| = {abs(lam * g):.3g})")

    return lam


def _reference_profile(v, theta, adjusted, lam0=None):
    """``core._profile`` as it was on ``_reference_solve_lambda``, with the
    AEL vector concatenated."""
    with np.errstate(over="ignore"):
        w = v - theta
        total = float(np.add.reduce(w)) if adjusted else 0.0
    if not w.any():
        return 0.0, 0.0
    if adjusted:
        n = w.size
        w = np.concatenate((w, [-lz.adjustment_factor(n) * (total / n)]))
    lam = _reference_solve_lambda(w, lam0=lam0)
    return max(2.0 * float(np.add.reduce(np.log1p(lam * w))), 0.0), lam


def _stopped_by_width(w, lam):
    """Whether the reference returned lam with its convergence test unmet,
    so that the bracket-width rule stopped it."""
    m = w.size
    with np.errstate(over="ignore", invalid="ignore"):
        g = float(np.add.reduce(w / (1.0 + lam * w))) / m
    target = 1e-13 * (float(np.add.reduce(np.abs(w))) / m)
    return not (abs(g) <= target and abs(lam * g) <= 2.5e-13)


class TestSolverKernelBits:
    """``solve_lambda`` and ``_profile`` against the reference, compared by
    the bits of every float (so -0.0 is not 0.0) and by the class and
    message of every error.  The reference runs with runtime warnings
    ignored, the code under test with them as errors."""

    @staticmethod
    def outcome(fn, *args, reference=False):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore" if reference else "error", RuntimeWarning)
            try:
                result = fn(*args)
            except lz.LorenzELError as exc:
                return type(exc), str(exc)
        return tuple(x.hex() for x in (result if isinstance(result, tuple) else (result,)))

    def check(self, w, lam0=None):
        got = self.outcome(lz.solve_lambda, w, lam0)
        assert got == self.outcome(_reference_solve_lambda, w, lam0, reference=True)
        return got

    def check_profile(self, v, theta, adjusted, lam0=None):
        got = self.outcome(_profile, v, theta, adjusted, lam0)
        assert got == self.outcome(_reference_profile, v, theta, adjusted, lam0, reference=True)
        return got

    @staticmethod
    def starts(rng, w):
        """lam0 as None, 0.0, inside the bracket (near the root and anywhere)
        and outside it."""
        lo, hi = -1.0 / float(w.max()), -1.0 / float(w.min())
        root = _reference_solve_lambda(w)
        return (None, 0.0, root * float(rng.uniform(0.5, 1.5)), float(rng.uniform(lo, hi)),
                hi + (hi - lo), lo - 1e18 * (hi - lo))

    def test_random_vectors(self):
        rng = np.random.default_rng(2801)
        sizes = [2, 3, 3000] + [int(np.exp(rng.uniform(np.log(2), np.log(3000))))
                                for _ in range(117)]
        done = 0
        for n in sizes:
            w = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n) + rng.uniform(-1, 1)
            w[0], w[-1] = -abs(w[0]) - 1e-3, abs(w[-1]) + 1e-3
            w *= 10.0 ** rng.integers(-100, 100)
            for lam0 in self.starts(rng, w):
                self.check(w, lam0)
                done += 1
        assert done == 720

    def test_profiles(self):
        rng = np.random.default_rng(2802)
        done = 0
        for n in [2, 3, 3000] + [int(np.exp(rng.uniform(np.log(2), np.log(3000))))
                                 for _ in range(97)]:
            x = np.sort(rng.weibull(float(rng.uniform(0.5, 3.0)), n)) * 10.0 ** rng.uniform(-5, 5)
            psi = x[min(max(math.ceil(n * float(rng.uniform(0.05, 0.95))), 1), n) - 1]
            v = np.where(x <= psi, x, 0.0)
            lo, hi = float(v.min()), float(v.max())
            inside = lo + (hi - lo) * float(rng.uniform(0.001, 0.999))
            for theta, adjusted in ((inside, False), (inside, True),
                                    (hi + (hi - lo) * 10.0 ** rng.uniform(-3, 3), True)):
                lam = self.check_profile(v, theta, adjusted)
                if lam[0] is lz.ConvexHullViolation:
                    continue
                for lam0 in (0.0, float.fromhex(lam[1]) * float(rng.uniform(0.5, 1.5)), 1e18):
                    self.check_profile(v, theta, adjusted, lam0)
                done += 1
        assert done >= 280

    def test_zero_sum_stays_at_zero(self):
        rng = np.random.default_rng(2803)
        for n in (2, 5, 64, 999, 3000):
            half = rng.integers(1, 1000, n // 2).astype(float)
            w = rng.permutation(np.concatenate((half, -half, np.zeros(n % 2))))
            for lam0 in (None, 0.0, -0.0):  # -0.0 stays -0.0
                assert float.fromhex(self.check(w, lam0)[0]) == 0.0
            # v symmetric about theta: the AEL pseudo-deviation is zero too
            v = np.sort(w) + 1000.0
            for adjusted in (False, True):
                ratio, lam = self.check_profile(v, 1000.0, adjusted)
                assert float.fromhex(ratio) == 0.0 and float.fromhex(lam) == 0.0
            assert self.check_profile(np.full(n, 7.0), 7.0, True) == (0.0.hex(), 0.0.hex())

    def test_width_rule(self):
        # one negative deviation against up to 3,000 positive ones about 30
        # times larger puts the root where a float step of lam moves the
        # residual by more than the convergence test allows; scaled anywhere
        # in 1e-150..1e150
        rng = np.random.default_rng(2804)
        width = 0
        for _ in range(60):
            k = int(rng.integers(2500, 3000))
            w = np.concatenate((-rng.uniform(0.9, 1.1, 1), 30.0 * rng.uniform(0.5, 1.5, k)))
            w *= 10.0 ** rng.uniform(-150, 150)
            got = self.check(w)
            width += _stopped_by_width(w, float.fromhex(got[0]))
            self.check(w[::-1] * -1.0)
        assert width >= 3

    @pytest.mark.parametrize("w, error", [
        ([np.nan, 1.0, -1.0], lz.NonFinite), ([-1.0, np.inf], lz.NonFinite),
        ([1.0, 2.0], lz.ConvexHullViolation), ([-1.0, 0.0], lz.ConvexHullViolation),
        ([-1e308] + [1.7e308] * 4, lz.NonFinite),  # the sum of |w| and the residual overflow
        ([1.05291294e-206, -1.8968274e276, -4.45280651e-257, 1.72612506e-161,
          4.39441001e-216, 3.57857364e-036, 6.63824220e-242, -1.53382468e-221],
         lz.LorenzELError),
    ])
    def test_raises(self, w, error):
        got = self.check(np.array(w))
        assert got[0] is error

    @pytest.mark.parametrize("v, theta, adjusted, error", [
        ([1.0, 2.0, 3.0], 3.0, False, lz.ConvexHullViolation),
        ([1.0, 2.0, 3.0], -1.0, False, lz.ConvexHullViolation),
        ([1.0, 2.0, 3.0], math.inf, True, lz.NonFinite),
        ([1.0, 2.0, 3.0], math.nan, False, lz.NonFinite),
        ([-1e308, 1e308, 1.5e308], -1e308, False, lz.NonFinite),  # a deviation overflows
        ([1e308, 1.5e308, 1.7e308], 0.0, True, lz.NonFinite),  # their sum overflows
        ([-1e308] + [1.7e308] * 4, 0.0, False, lz.NonFinite),
    ])
    def test_profile_raises(self, v, theta, adjusted, error):
        got = self.check_profile(np.array(v), theta, adjusted)
        assert got[0] is error


def cold_pass(v, theta, adjusted, hull, theta_hat, var):
    """The pass at a cold start's lam at theta, as ``_search_side`` takes
    that lam from the set-up's theta_hat and sigma_p^2 (``var``); None when
    no lam is admissible or the pass is refused."""
    n, dev = v.size, theta_hat - theta
    pseudo = -lz.adjustment_factor(n) * dev if adjusted else 0.0
    lam = _cold_lam(theta, hull, pseudo, n * dev, n * (var + dev * dev))
    return None if lam is None else _pass(v, theta, lam, adjusted, hull)


class TestJointStep:
    def test_converges_quadratically_to_the_endpoint(self, rng):
        # from 5% inside an endpoint, with the exact multiplier there, four
        # joint steps land on the crossing; a wrong Jacobian term (the AEL
        # pseudo-deviation's, say) leaves the steps shrinking only linearly
        for _ in range(40):
            n = int(rng.integers(15, 300))
            s = lz.Sample(random_positive_data(rng, n))
            t = float(rng.uniform(0.2, 0.9))
            v = lz.truncated_values(s, t)
            hull = (float(v.min()), float(v.max()))
            theta_hat = lz.point_estimate(s, t)
            target = lz.chi2_crit(0.05) / lz.scale_factor(s, t).ratio
            for adjusted in (False, True):
                ci = lz.invert("ael" if adjusted else "el", s, t, 0.05)
                for end, lo, hi in ((ci.lower, hull[0], theta_hat),
                                    (ci.upper, theta_hat, hull[1])):
                    theta = end - 0.05 * (end - theta_hat)
                    lam = _profile(v, theta, adjusted)[1]
                    steps = []
                    for _ in range(4):
                        before = theta, lam
                        theta, lam, step, sums = _joint_step(
                            _pass(v, theta, lam, adjusted, hull), target, lo, hi, hull)
                        assert (sums.theta, sums.lam) == before
                        steps.append(step)
                    assert steps[-1] <= 1e-12 * abs(end), (n, t, adjusted, steps)
                    assert theta == pytest.approx(end, rel=2e-8)

    def test_cold_start_and_stall(self):
        # a cold start takes the one-step multiplier from the set-up; a step
        # that cannot stay inside (lo, hi) comes back as None
        v, theta_hat, scale, hull = _setup(TOY, 0.4)  # (1, 2, 0, 0, 0), theta_hat 0.6
        cold = cold_pass(v, 0.9, False, hull, theta_hat, scale.sigma_p_sq)
        theta, lam, step, sums = _joint_step(cold, 3.0, 0.6, 2.0, hull)
        assert 0.6 < theta < 2.0 and lam < 0.0 and step > 0.0
        assert sums.theta == 0.9 and sums.lam < 0.0
        assert _joint_step(cold, 3.0, 0.9 - 1e-9, 0.9 + 1e-9, hull) is None


class TestCertify:
    """One pass at a warm multiplier bounds the log-ratio on the side of the
    target that decides, and falls back to a full evaluation otherwise."""

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_bounds_agree_with_the_profile_near_the_endpoints(self, alpha):
        # alpha = 0.5 gives small targets, where log(d) in place of log1p
        # puts the lower bound 2.5e-12 above the log-ratio (n = 50)
        pops = [lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0), lz.SkewNormal(1.0, 3.0, 5.0)]
        crit = lz.chi2_crit(alpha)
        checked = decided = 0
        shifted = [0, 0]  # O(1) bounds checked, and deciding
        for p, pop in enumerate(pops):
            for n in (5, 10, 25, 50, 150, 500):
                for r in range(4):
                    s = lz.sample(pop, n, lz.SeedSpec(master_seed=71, stream_id=p), r)
                    for t in (0.1, 0.5, 0.9):
                        try:
                            v, theta_hat, scale, hull = _setup(s, t)
                        except lz.DegenerateVariance:
                            continue
                        for kind in lz.VariantKind:
                            try:
                                ci = lz.invert(kind, s, t, alpha)
                            except lz.BracketFailure:
                                continue
                            target = crit / scale.ratio
                            if kind.transformed:
                                target = _tel_inverse(target, n)
                            for end, edge in ((ci.lower, hull[0]), (ci.upper, hull[1])):
                                # joint steps from 5% inside the endpoint, as
                                # in the search; each one's theta and lam are
                                # certified there, and a tolerance either side;
                                # each pass's O(1) bounds are checked at the
                                # new theta, and 0.499 and 1 tolerance either side
                                if kind.adjusted:
                                    edge = math.copysign(math.inf, end - theta_hat)
                                lo, hi = sorted((theta_hat, edge))
                                theta = end - 0.05 * (end - theta_hat)
                                joint = cold_pass(v, theta, kind.adjusted, hull, theta_hat,
                                                  scale.sigma_p_sq)
                                for _ in range(5):
                                    step = _joint_step(joint, target, lo, hi, hull)
                                    if step is None:
                                        break
                                    theta, lam, _, sums = step
                                    for th in (theta, theta * (1 - 5e-9), theta * (1 + 5e-9)):
                                        sums = _pass(v, th, lam, kind.adjusted, hull)
                                        val, _ = _certify(v, sums, th, kind.adjusted, lam, target)
                                        exact, _ = _profile(v, th, kind.adjusted)
                                        if val > target:  # a lower bound
                                            assert val <= exact * (1 + 1e-12), (n, t, kind)
                                        else:  # an upper bound
                                            assert val >= exact * (1 - 1e-12), (n, t, kind)
                                        checked += 1
                                        decided += val != exact
                                    tol = 1e-8 * abs(theta) + 1e-15 * (hull[1] - hull[0])
                                    for k in (-1.0, -0.499, 0.0, 0.499, 1.0):
                                        th = theta + k * tol
                                        low, high = _bounds(sums, th)
                                        exact, _ = _profile(v, th, kind.adjusted)
                                        assert low <= exact * (1 + 1e-12), (n, t, kind, k)
                                        assert high >= exact * (1 - 1e-12), (n, t, kind, k)
                                        if k and step[2] <= tol:  # near a converged root
                                            shifted[0] += 1
                                            shifted[1] += low > target or high <= target
                                    joint = _pass(v, theta, lam, kind.adjusted, hull)
        # the bounds decide nearly every point without a full evaluation
        assert decided > 0.9 * checked > 0
        assert shifted[1] > 0.9 * shifted[0] > 0

    def test_falls_back_when_the_curvature_overflows(self, monkeypatch):
        # near 1e153 the AEL pseudo-deviation's (w / d)^2 overflows, so h is
        # inf, which would make the Newton decrement 0 and call any point
        # covered; those points must go to a full evaluation instead.
        # invert searches data scaled to size 1, so the sides are searched
        # here on the data as they are
        x = np.array([-2e153, 1e153, 1e153, 1e153, 2e153, 1e153])
        v, theta_hat, scale, hull = _setup(lz.Sample(x), 0.5)
        target = lz.chi2_crit(0.05) / scale.ratio
        wald = math.sqrt(target * scale.sigma_p_sq / v.size)
        calls = []
        true_certify = intervals._certify
        true_profile = intervals._profile

        def spy_certify(v, sums, theta, adjusted, lam, target):
            calls.append([theta, lam, False])
            return true_certify(v, sums, theta, adjusted, lam, target)

        def spy_profile(*args):
            calls[-1][2] = True
            return true_profile(*args)

        monkeypatch.setattr(intervals, "_certify", spy_certify)
        monkeypatch.setattr(intervals, "_profile", spy_profile)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plans = [(0, (hull, target, theta_hat, scale.sigma_p_sq, out * math.inf,
                          (theta_hat + out * wald, None, None))) for out in (-1.0, 1.0)]
            ends = intervals._drive(v[None], [hull], True, plans)
            assert not any(isinstance(end, Exception) for end in ends)
        overflowed = 0
        for theta, lam, fell_back in calls:
            if lam is None:
                continue
            w = v - theta
            w = np.append(w, -lz.adjustment_factor(w.size) * float(w.mean()))
            d = 1.0 + lam * w
            if not np.all(d > 0.0):
                continue
            with np.errstate(over="ignore"):
                h = float((w / d) @ (w / d))
            if math.isinf(h):
                overflowed += 1
                assert fell_back, theta
        assert overflowed > 0

    def test_coverage_design_rarely_needs_a_full_evaluation(self, monkeypatch):
        # round 0 of the benchmark's seed-83 coverage design: nearly every
        # side closes in its joint passes, certified by a pass's O(1) bounds,
        # and _profile runs in at most 1% of the passes.  Every group runs
        # as coroutines, whose _search_side and _joint_step this test counts;
        # TestLockstep holds the lockstep path to the same sides, bit for bit
        monkeypatch.setattr(intervals, "_LOCKSTEP_SIDES", math.inf)
        counts = {"sides": 0, "closed": 0, "passes": 0, "profile": 0}
        true_search = intervals._search_side
        true_joint = intervals._joint_step
        true_certify = intervals._certify
        true_profile = intervals._profile

        def counted_search(*args):
            # the sides of a group run interleaved; a side that certified
            # steps closed keeps no closing pass
            out = yield from true_search(*args)
            counts["sides"] += 1
            counts["closed"] += out[0][2] is not None
            return out

        def counted_joint(*args):
            counts["passes"] += 1
            return true_joint(*args)

        def counted_certify(*args):
            counts["passes"] += 1
            return true_certify(*args)

        def counted_profile(*args):
            counts["profile"] += 1
            return true_profile(*args)

        monkeypatch.setattr(intervals, "_search_side", counted_search)
        monkeypatch.setattr(intervals, "_joint_step", counted_joint)
        monkeypatch.setattr(intervals, "_certify", counted_certify)
        monkeypatch.setattr(intervals, "_profile", counted_profile)
        for pop in (lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0), lz.SkewNormal(1.0, 3.0, 5.0)):
            lz.run_experiment(lz.ExperimentConfig(
                population=pop, n_grid=(50, 100, 150, 300, 500),
                t_grid=tuple(k / 10 for k in range(1, 10)), reps=4, alpha=0.05,
                methods=tuple(lz.VariantKind), seed=lz.SeedSpec(master_seed=83, stream_id=0)))
        assert counts["sides"] > 4000
        assert counts["closed"] >= 0.95 * counts["sides"]
        assert counts["profile"] <= 0.01 * counts["passes"]
