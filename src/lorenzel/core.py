"""Empirical-likelihood core for generalized Lorenz ordinates.

The cumulative income below the t-th quantile, theta(t) = E[X 1(X <= psi_t)],
is estimated from a sorted sample, and candidate values of theta are
profiled through the empirical likelihood: observation weights p_i maximize
prod(p_i) subject to sum(p_i) = 1 and sum(p_i * W_i) = 0, where
W_i = X_i 1(X_i <= psi_hat) - theta.  The inner maximization reduces to a
one-dimensional root-find for the Lagrange multiplier lambda.  At an
interval endpoint, theta and lambda are found together instead, by
Newton steps on both equations (``_joint_step``).
"""
from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConvexHullViolation, DomainError, LorenzELError, NonFinite

__all__ = [
    "Sample",
    "VariantKind",
    "sample_quantile",
    "point_estimate",
    "truncated_values",
    "solve_lambda",
    "adjustment_factor",
]


class VariantKind(str, Enum):
    """The four log-likelihood-ratio calibrations."""

    EL = "el"
    AEL = "ael"
    TEL = "tel"
    TAEL = "tael"

    @property
    def adjusted(self) -> bool:
        """Whether the ratio is profiled with the AEL pseudo-point."""
        return self in (VariantKind.AEL, VariantKind.TAEL)

    @property
    def transformed(self) -> bool:
        """Whether the ratio is damped by the TEL transform."""
        return self in (VariantKind.TEL, VariantKind.TAEL)


# Entries a Sample's memo holds before it is emptied.
_MEMO_SIZE = 16


class Sample:
    """Immutable, ascending-sorted view of real-valued observations.

    Input order is irrelevant; values are copied, sorted, and locked.
    Requires at least two finite observations.  Negative values are
    allowed (e.g. skew-normal populations produce them).

    A Sample stays observably immutable.  ``scale_factor``, ``log_ratio``
    and ``scaled_statistic`` keep what they derive from it in a private
    memo: the truncation at each t, and the EL and AEL log-ratios at each
    (t, theta).  A result read from the memo is bit for bit the one a
    fresh Sample of the same data gives, so results do not depend on call
    order.  The memo holds at most _MEMO_SIZE entries and is emptied when
    full; it never holds an exception, and it dies with the Sample.
    """

    __slots__ = ("_values", "_memo")

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=float).ravel().copy()
        if arr.size < 2:
            raise ValueError(f"need at least 2 observations, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("all observations must be finite")
        arr.sort()
        arr.flags.writeable = False
        self._values = arr
        self._memo = {}

    def __reduce__(self):
        # a copy or an unpickled Sample is built afresh: locked, with an empty memo
        return Sample, (self._values,)

    def _recall(self, key, compute):
        """``compute()``, kept under ``key`` for the next call with it.  An
        exception propagates and is not kept; a full memo is emptied first."""
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            pass
        value = compute()
        if len(memo) >= _MEMO_SIZE:
            memo.clear()
        memo[key] = value
        return value

    @property
    def values(self) -> np.ndarray:
        """Read-only array of observations, sorted ascending."""
        return self._values

    @property
    def n(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, min={self._values[0]:g}, max={self._values[-1]:g})"


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie in (0, 1), got {t}")
    return t


def sample_quantile(s: Sample, t: float) -> float:
    """t-th sample quantile: the smallest x with empirical CDF(x) >= t.

    Left-continuous (type 1) definition: the ceil(n*t)-th order statistic.
    No interpolation.
    """
    t = _check_t(t)
    # round kills float dust in n*t so exact multiples land on their integer
    k = math.ceil(round(s.n * t, 9))
    k = min(max(k, 1), s.n)
    return float(s.values[k - 1])


def truncated_values(s: Sample, t: float) -> np.ndarray:
    """V_i = X_i 1(X_i <= quantile); ties at the quantile are all included."""
    return _truncation(s, t)[0]


def _truncation(s: Sample, t: float) -> tuple[np.ndarray, float]:
    """``truncated_values`` and the quantile it truncates at."""
    psi = sample_quantile(s, t)
    return np.where(s.values <= psi, s.values, 0.0), psi


def _memo_truncation(s: Sample, t: float) -> tuple[np.ndarray, float]:
    """``_truncation`` from the memo of s, with V read-only; t is a float
    in (0, 1)."""
    def compute():
        v, psi = _truncation(s, t)
        v.flags.writeable = False
        return v, psi
    return s._recall(("truncation", t), compute)


def point_estimate(s: Sample, t: float) -> float:
    """Empirical generalized Lorenz ordinate: mean of the truncated values.

    This is the unique theta at which the log-likelihood ratio vanishes.
    """
    return float(truncated_values(s, t).sum() / s.n)


_MAX_LAMBDA_ITERATIONS = 200


def solve_lambda(w, lam0: float | None = None) -> float:
    """Solve mean(w / (1 + lam*w)) = 0 for the Lagrange multiplier.

    Parameters
    ----------
    w : array_like
        Deviation vector.  Zero must be an interior point of its convex
        hull, i.e. w must contain a strictly negative and a strictly
        positive entry.
    lam0 : float, optional
        Warm-start guess; ignored when it falls outside the admissible
        bracket.

    Returns
    -------
    float
        The multiplier lam, the unique root in the open bracket
        (-1/max(w), -1/min(w)).  The implied probabilities are
        1 / (m * (1 + lam*w)) for the m entries of w.

    Raises
    ------
    ConvexHullViolation
        If all entries share a sign (zeros included on the boundary).
    NonFinite
        On non-finite input or internal overflow.
    LorenzELError
        When no stopping rule is met in _MAX_LAMBDA_ITERATIONS iterations,
        as when the entries of w span hundreds of orders of magnitude.

    Notes
    -----
    The objective is strictly decreasing on the bracket, so a sign-change
    bracket always exists; Newton steps are taken when they stay inside
    the current bracket and bisection otherwise.  Iteration stops when
    |residual| <= 1e-13 * mean|w| (comfortably below the contractual
    1e-10 * (1 + max|w|)) *and* |lam * residual| <= 2.5e-13 — the latter
    because sum(weights) - 1 equals -lam * residual identically, so the
    weights sum to one only as tightly as that product is driven down —
    or when the bracket width falls below 1e-14 / max|w|.  That last rule
    is relative because lam scales as 1/w while lam * w does not: an
    absolute width would stop at once on deviations of order 1e14, with
    the residual far above the contract.
    """
    w = np.asarray(w, dtype=float).ravel()
    if w.size == 0:
        raise ValueError("empty deviation vector")
    wmin = float(w.min())
    wmax = float(w.max())
    if not (math.isfinite(wmin) and math.isfinite(wmax)):  # nan propagates
        raise NonFinite("deviation vector contains non-finite entries")
    if not (wmin < 0.0 < wmax):
        raise ConvexHullViolation(
            "zero is not interior to the convex hull of the deviations "
            f"(min={wmin:g}, max={wmax:g})"
        )
    lo = -1.0 / wmax
    hi = -1.0 / wmin
    eps = 1e-12 * (hi - lo)
    lo += eps
    hi -= eps

    m = w.size
    target = 1e-13 * (float(np.abs(w).sum()) / m)
    lam = 0.0
    if lam0 is not None and lo < lam0 < hi:
        lam = float(lam0)
    if not lo < lam < hi:  # extreme one-sided brackets may exclude 0
        lam = 0.5 * (lo + hi)

    g = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_LAMBDA_ITERATIONS):
            r = w / (1.0 + lam * w)
            g = float(r.sum()) / m
            if not math.isfinite(g):
                raise NonFinite("estimating equation overflowed")
            if abs(g) <= target and abs(lam * g) <= 2.5e-13:
                break
            if g > 0.0:
                lo = lam
            else:
                hi = lam
            if (hi - lo) * max(wmax, -wmin) <= 1e-14:
                break
            slope = -float(r @ r) / m
            step = lam - g / slope if slope < 0.0 and math.isfinite(slope) else math.inf
            lam = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            raise LorenzELError(
                f"Lagrange multiplier did not converge in {_MAX_LAMBDA_ITERATIONS} "
                f"iterations (lam = {lam:.6g}, |lam * g| = {abs(lam * g):.3g})")

    return lam


def adjustment_factor(n: int) -> float:
    """AEL pseudo-observation scale a_n = max(1, log(n)/2)."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return max(1.0, 0.5 * math.log(n))


def _ael_limit(n: int) -> float:
    """Limit of the AEL log-ratio as theta -> +-inf: the deviations over |theta|
    tend to n copies of -+1 and the pseudo-point +-a_n, whatever the data."""
    a = adjustment_factor(n)
    return -2.0 * (n * math.log((n + 1) * a / (n * (1.0 + a))) + math.log((n + 1) / (1.0 + a)))


def _profile(v: np.ndarray, theta: float, adjusted: bool,
             lam0: float | None = None) -> tuple[float, float]:
    """Log-ratio 2*sum(log(1 + lam*w)) at theta, and lam.

    w = v - theta, with the AEL pseudo-deviation -a_n * mean(w) appended
    when ``adjusted``.  All-zero deviations satisfy the constraint with
    uniform weights, so the ratio is 0 by convention.  Raises
    ConvexHullViolation (EL only) when theta is outside the open hull of v.
    """
    w = v - theta
    if not w.any():
        return 0.0, 0.0
    if adjusted:
        n = w.size
        w = np.append(w, -adjustment_factor(n) * (float(w.sum()) / n))
    lam = solve_lambda(w, lam0=lam0)
    return max(2.0 * float(np.log1p(lam * w).sum()), 0.0), lam


class _Pass(NamedTuple):
    """The sums of one pass over the data at (theta, lam).

    With w = v - theta, d = 1 + lam w, q = 1 / d and r = w q over the data;
    the AEL pseudo-deviation is carried as a scalar.
    """

    theta: float
    lam: float
    n: int
    a: float  # a_n for AEL, 0 for EL
    pseudo: float  # -a_n mean(w) for AEL, 0 for EL
    dmin: float  # the smallest d, at an end of the hull
    ldata: float  # 2 sum(log1p(lam w))
    sr: float  # sum(r)
    sr2: float  # sum(r^2)
    sq: float  # sum(q)
    sq2: float  # sum(q^2)


def _pass(v: np.ndarray, theta: float, lam: float, adjusted: bool,
          hull: tuple[float, float]) -> _Pass | None:
    """The sums of one pass over v at (theta, lam), for either kind of search
    step; None when some d is not positive or a sum of squares could
    overflow.  ``hull`` is the (min, max) of v."""
    n = v.size
    w = v - theta
    a = adjustment_factor(n) if adjusted else 0.0
    pseudo = -a * (float(w.sum()) / n) if adjusted else 0.0
    e0, e1 = hull[0] - theta, hull[1] - theta
    d0, d1 = 1.0 + lam * e0, 1.0 + lam * e1
    # d is linear in w, so d > 0 at the ends of the hull means everywhere
    if not (d0 > 0.0 and d1 > 0.0 and 1.0 + lam * pseudo > 0.0):
        return None
    # w / d increases with w, so its largest size is at an end of the hull,
    # and 1 / d is at most 1 / dmin; under these bounds r @ r and q @ q can
    # neither overflow nor warn that they did
    dmin = min(d0, d1)
    r_end = max(-e0 / d0, e1 / d1)
    if n * r_end * r_end > 1e300 or n > 1e300 * dmin * dmin:
        return None
    x = lam * w
    # log1p, not log(d): rounding d costs up to an ulp of 1 per term, more
    # than a bound on a small target can spare
    ldata = 2.0 * float(np.log1p(x).sum())
    x += 1.0
    q = 1.0 / x
    r = w * q
    return _Pass(theta, lam, n, a, pseudo, dmin, ldata,
                 float(r.sum()), float(r @ r), float(q.sum()), float(q @ q))


def _bounds(s: _Pass, theta: float) -> tuple[float, float]:
    """Lower and upper bounds on the log-ratio at theta, in O(1) from the sums
    of a pass at s.theta, with the pass's lam; (-inf, inf) when undecided.

    At s.theta: the log-ratio is the supremum of
    L = 2 sum(log1p(lam w)) + 2 log1p(lam pseudo) over admissible lam (weak
    duality), so L is a lower bound.  -sum(log d) is standard
    self-concordant in lam, so while its Newton decrement delta = |g| / sqrt(h),
    with g = sum(r) + pr, h = sum(r^2) + pr^2 and pr = pseudo / (1 + lam pseudo),
    is below 1, L - 2 (delta + log1p(-delta)) is an upper bound (Nesterov 2004,
    sec. 4.1.4).  At theta = s.theta + D each d becomes d (1 + x), with
    x = -lam D q and |x| <= eps = |lam D| / dmin, and each r becomes
    (r - D q) / (1 + x).  Then x - x^2 / (1 - eps) <= x / (1 + x) <= log1p(x)
    <= x bound L, and sum|r| <= sqrt(n sum(r^2)) and
    ||r - D q|| >= ||r|| - |D| ||q|| bound |g| above and h below.  Undecided
    when eps is not below 0.01, when lam is not admissible for the
    pseudo-deviation, or when the bound on h is infinite (pr^2 may overflow,
    which would make delta 0) or subnormal.
    """
    shift = theta - s.theta
    x = s.lam * shift
    eps = abs(x) / s.dmin
    pseudo = s.pseudo + s.a * shift
    dp = 1.0 + s.lam * pseudo
    if not (eps < 0.01 and dp > 0.0):
        return -math.inf, math.inf
    top = s.ldata - 2.0 * x * s.sq + 2.0 * math.log1p(s.lam * pseudo)
    low = top - 2.0 * x * x * s.sq2 / (1.0 - eps)
    pr = pseudo / dp
    g = (abs(s.sr - shift * s.sq + pr) + eps / (1.0 - eps)
         * (math.sqrt(s.n) * math.sqrt(s.sr2) + abs(shift) * s.sq))
    nr = max(math.sqrt(s.sr2) - abs(shift) * math.sqrt(s.sq2), 0.0) / (1.0 + eps)
    h = nr * nr + pr * pr
    if not sys.float_info.min <= h < math.inf:
        return -math.inf, math.inf
    delta = g / math.sqrt(h)
    high = top - 2.0 * (delta + math.log1p(-delta)) if delta < 1.0 else math.inf
    return low, high


def _certify(v: np.ndarray, theta: float, adjusted: bool, lam: float | None,
             target: float, hull: tuple[float, float]) -> tuple[float, float]:
    """Bound the log-ratio at theta on the side of ``target``, in one pass at lam.

    A lower bound above the target means not covered, an upper bound at or
    below it covered (``_bounds`` at the pass's own theta).  Returns the
    bound that decides, and the Newton step lam + g / h as the next warm
    start.  Falls back to ``_profile``, and returns what it returns, when
    lam is None, when ``_pass`` refuses it, or when the bounds straddle the
    target.
    """
    s = None if lam is None else _pass(v, theta, lam, adjusted, hull)
    if s is not None:
        low, high = _bounds(s, theta)
        if low > target or high <= target:
            pr = s.pseudo / (1.0 + lam * s.pseudo)
            return low if low > target else high, lam + (s.sr + pr) / (s.sr2 + pr * pr)
    return _profile(v, theta, adjusted, lam)


# Halvings a joint step may take to stay admissible before it counts as stalled.
_MAX_HALVINGS = 8


def _admissible(theta: float, lam: float, pseudo: float, lo: float, hi: float,
                hull: tuple[float, float]) -> bool:
    """Whether theta lies strictly inside (lo, hi) and every d = 1 + lam w stays
    positive; d is linear in w, so that is checked at the ends of ``hull``,
    the (min, max) of v, and at the AEL pseudo-deviation."""
    return (lo < theta < hi and 1.0 + lam * (hull[0] - theta) > 0.0
            and 1.0 + lam * (hull[1] - theta) > 0.0 and 1.0 + lam * pseudo > 0.0)


def _as_kind(s: _Pass, adjusted: bool, mean: float) -> _Pass | None:
    """The pass s, at the same (theta, lam), for the kind ``adjusted``, in O(1).

    The data sums are the same for EL and AEL; only the pseudo-deviation
    -a_n (mean - theta) differs, with ``mean`` the mean of v.  None when lam
    is not admissible for it.
    """
    if adjusted == (s.a > 0.0):
        return s
    a = adjustment_factor(s.n) if adjusted else 0.0
    pseudo = -a * (mean - s.theta)
    if not 1.0 + s.lam * pseudo > 0.0:
        return None
    return s._replace(a=a, pseudo=pseudo)


def _newton(s: _Pass, target: float, lo: float, hi: float,
            hull: tuple[float, float]) -> tuple[float, float, float] | None:
    """One damped Newton step on (theta, lam) towards an interval endpoint,
    from the sums of a pass at (s.theta, s.lam).

    An endpoint solves F1 = sum(w / d) = 0 and F2 = 2 sum(log d) - target = 0
    together, with d = 1 + lam w and w as in ``_profile``, so no inner
    solve for lam is needed.  The pass gives F1, F2 and the Jacobian

        [[-sum(w^2 / d^2), sum(w' / d^2)], [2 F1, 2 lam sum(w' / d)]],

    where w' = dw/dtheta is -1 for the data and +a_n for the AEL
    pseudo-deviation, which is carried as a scalar.  The step is halved
    until it is admissible (``_admissible``).  Returns the new theta and
    lam and the length of the full theta step, or None when the Jacobian is
    singular or not finite, or the step needs more than _MAX_HALVINGS
    halvings.
    """
    theta, lam, a = s.theta, s.lam, s.a
    dp = 1.0 + lam * s.pseudo
    pr = s.pseudo / dp
    f1 = s.sr + pr
    f2 = s.ldata + 2.0 * math.log1p(lam * s.pseudo) - target
    # products, not ** 2: a float power raises OverflowError where * gives inf
    a11 = -s.sr2 - pr * pr
    a12 = a / (dp * dp) - s.sq2
    a22 = 2.0 * lam * (a / dp - s.sq)
    det = a11 * a22 - 2.0 * f1 * a12
    if not (math.isfinite(det) and det != 0.0):
        return None
    dlam = (a12 * f2 - a22 * f1) / det
    dtheta = (2.0 * f1 * f1 - a11 * f2) / det
    full = abs(dtheta)
    for _ in range(_MAX_HALVINGS + 1):
        if _admissible(theta + dtheta, lam + dlam, s.pseudo + a * dtheta, lo, hi, hull):
            return theta + dtheta, lam + dlam, full
        dtheta *= 0.5
        dlam *= 0.5
    return None


def _joint_step(v: np.ndarray, theta: float, lam: float | None, adjusted: bool,
                target: float, lo: float, hi: float, hull: tuple[float, float],
                ) -> tuple[float, float, float, _Pass] | None:
    """One pass over v at (theta, lam) (``_pass``) and the Newton step on its
    sums towards an interval endpoint (``_newton``).

    ``lam=None`` starts from lam = sum(w) / sum(w^2), one Newton step on F1
    from zero, halved until admissible.  Returns the new theta and lam, the
    length of the full theta step and the pass at the old theta and lam,
    or None when ``_pass`` refuses the old point or ``_newton`` takes no
    step.
    """
    if lam is None:
        n = v.size
        vmin, vmax = hull
        # the largest |w| is at an end of the hull; under this bound w @ w
        # can neither overflow nor warn that it did
        e = max(abs(vmin - theta), abs(vmax - theta))
        if n * e * e > 1e300:
            return None
        w = v - theta
        sw = float(w.sum())
        pseudo = -adjustment_factor(n) * (sw / n) if adjusted else 0.0
        lam = (sw + pseudo) / (float(w @ w) + pseudo * pseudo)
        for _ in range(_MAX_HALVINGS):
            if _admissible(theta, lam, pseudo, lo, hi, hull):
                break
            lam *= 0.5
        else:
            return None
    s = _pass(v, theta, lam, adjusted, hull)
    if s is None:
        return None
    step = _newton(s, target, lo, hi, hull)
    return None if step is None else (*step, s)
