"""Empirical-likelihood core for generalized Lorenz ordinates.

The cumulative income below the t-th quantile, theta(t) = E[X 1(X <= psi_t)],
is estimated from a sorted sample, and candidate values of theta are
profiled through the empirical likelihood: observation weights p_i maximize
prod(p_i) subject to sum(p_i) = 1 and sum(p_i * W_i) = 0, where
W_i = X_i 1(X_i <= psi_hat) - theta.  The inner maximization reduces to a
one-dimensional root-find for the Lagrange multiplier lambda.
"""
from __future__ import annotations

import math
import numbers
import operator
from enum import Enum

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
    """The four log-likelihood-ratio calibrations.  A member's ``adjusted``
    (profiled with the AEL pseudo-point) and ``transformed`` (damped by the
    TEL transform) are plain attributes, set once."""

    def __new__(cls, value: str, adjusted: bool, transformed: bool):
        kind = str.__new__(cls, value)
        kind._value_, kind.adjusted, kind.transformed = value, adjusted, transformed
        return kind

    EL = "el", False, False
    AEL = "ael", True, False
    TEL = "tel", False, True
    TAEL = "tael", True, True


# VariantKind is a str enum, so a member hashes and compares as its value
_KINDS = {kind.value: kind for kind in VariantKind}


def _kind(kind) -> VariantKind:
    """``VariantKind(kind)``, without ``Enum.__call__`` for a member or its
    value."""
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        return VariantKind(kind)


# Entries a Sample's memo holds before it is emptied.
_MEMO_SIZE = 16


class Sample:
    """Immutable, ascending-sorted view of real-valued observations.

    Input order is irrelevant; values are copied, sorted, and locked.
    Requires at least two finite observations.  Negative values are
    allowed (e.g. skew-normal populations produce them).

    A Sample stays observably immutable.  The functions that truncate it
    (``truncated_values``, ``point_estimate``, ``scale_factor``,
    ``log_ratio``, ``scaled_statistic`` and ``invert``) keep what they
    derive from it in a private memo: the truncation at each t, the set-up
    every kind shares at each t (``calibration._setup``), and the EL and
    AEL log-ratios at each (t, theta).  A result read from the memo is bit
    for bit the one a fresh Sample of the same data gives, so results do
    not depend on call order.  The memo holds at most _MEMO_SIZE entries
    and is emptied when full; it never holds an exception, and it dies with
    the Sample.
    """

    __slots__ = ("_values", "_memo")

    def __init__(self, values) -> None:
        arr = _real(values, "observations").astype(float).ravel()  # astype copies
        if arr.size < 2:
            raise ValueError(f"need at least 2 observations, got {arr.size}")
        if not np.logical_and.reduce(np.isfinite(arr)):  # np.all, without its wrapper
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


def _number(x, name: str, too_large: type = DomainError) -> float:
    """x, the argument ``name``, as a float: any real number (``numbers.Real``).
    TypeError naming it for anything else (a str, bytes, Decimal or complex,
    say); ``too_large`` when it is too large for a float."""
    # float first: the common case skips the abstract base class's check
    if not isinstance(x, (float, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise too_large(f"{name} is too large for a float") from None


def _check_t(t: float) -> float:
    t = _number(t, "t")
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie in (0, 1), got {t}")
    return t


def _real(values, name: str) -> np.ndarray:
    """``np.asarray(values)``; ValueError naming ``name`` for a complex or
    string dtype, or an object array that holds a str or bytes, which a
    float cast would reduce to its real part or parse."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "c":
        raise ValueError(f"{name} must be real, not complex")
    # only an object array pays for the scan of its elements
    if kind in "US" or kind == "O" and any(isinstance(x, (str, bytes)) for x in arr.flat):
        raise ValueError(f"{name} must be numbers, not strings")
    return arr


def _integer(value, name: str) -> int:
    """``value`` as a Python int; ValueError naming ``name`` when it is not
    an integer (a float such as 10.7 or 2.0 included)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _quantile_index(n: int, t: float) -> int:
    """Index of the t-th sample quantile in n sorted values; t is a float in
    (0, 1).  See ``sample_quantile``."""
    # round kills float dust in n*t so exact multiples land on their integer
    return min(max(math.ceil(round(n * t, 9)), 1), n) - 1


def sample_quantile(s: Sample, t: float) -> float:
    """t-th sample quantile: the smallest x with empirical CDF(x) >= t.

    Left-continuous (type 1) definition: the ceil(n*t)-th order statistic.
    No interpolation.
    """
    return float(s.values[_quantile_index(s.n, _check_t(t))])


def truncated_values(s: Sample, t: float) -> np.ndarray:
    """Read-only V_i = X_i 1(X_i <= quantile); ties at the quantile are all
    included."""
    return _truncation(s, _check_t(t))[0]


def _truncate(x: np.ndarray, psi: float) -> tuple[np.ndarray, float]:
    """Read-only V = x 1(x <= psi) of the values x, and psi; no memo."""
    v = np.where(x <= psi, x, 0.0)
    v.flags.writeable = False
    return v, psi


def _truncation(s: Sample, t: float) -> tuple[np.ndarray, float]:
    """``truncated_values`` and the quantile it truncates at, kept in the
    memo of s; t is a float in (0, 1)."""
    return s._recall(("truncation", t), lambda: _truncate(s.values, sample_quantile(s, t)))


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
    ValueError
        If w is empty, complex or a string array.

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
    The loop is the kernel ``_solve``, which ``_profile`` calls directly;
    at lam = 0 it takes the ratios w / (1 + lam*w) to be w, as w is finite.
    """
    w = _real(w, "deviation vector").astype(float, copy=False).ravel()
    if w.size == 0:
        raise ValueError("empty deviation vector")
    with np.errstate(over="ignore", invalid="ignore"):
        return _solve(w, lam0)[0]


def _solve(w: np.ndarray, lam0: float | None) -> tuple[float, np.ndarray]:
    """``solve_lambda`` on a non-empty 1-D float64 w, inside the caller's
    errstate (over and invalid ignored): lam and its last iteration's lam * w."""
    # np.minimum.reduce, np.add.reduce and r.dot(r) are ndarray.min, .sum and
    # r @ r bit for bit, without their wrappers; a solve takes only a few
    # passes, so the wrappers would cost as much as the arithmetic
    wmin = float(np.minimum.reduce(w))
    wmax = float(np.maximum.reduce(w))
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
    target = 1e-13 * (float(np.add.reduce(np.abs(w))) / m)
    lam = 0.0
    if lam0 is not None and lo < lam0 < hi:
        lam = float(lam0)
    if not lo < lam < hi:  # extreme one-sided brackets may exclude 0
        lam = 0.5 * (lo + hi)

    g = math.inf
    for _ in range(_MAX_LAMBDA_ITERATIONS):
        lw = lam * w if lam else None  # w / (1 + 0*w) is w, bit for bit
        r = w if lw is None else w / (1.0 + lw)
        g = float(np.add.reduce(r)) / m
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
        slope = -float(r.dot(r)) / m
        step = lam - g / slope if slope < 0.0 and math.isfinite(slope) else math.inf
        lam = step if lo < step < hi else 0.5 * (lo + hi)
    else:
        raise LorenzELError(
            f"Lagrange multiplier did not converge in {_MAX_LAMBDA_ITERATIONS} "
            f"iterations (lam = {lam:.6g}, |lam * g| = {abs(lam * g):.3g})")

    return lam, lam * w if lw is None else lw


def adjustment_factor(n: int) -> float:
    """AEL pseudo-observation scale a_n = max(1, log(n)/2)."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return max(1.0, 0.5 * math.log(n))


def _profile(v: np.ndarray, theta: float, adjusted: bool,
             lam0: float | None = None) -> tuple[float, float]:
    """Log-ratio 2*sum(log(1 + lam*w)) at theta, and lam.

    w = v - theta, with the AEL pseudo-deviation -a_n * mean(w) appended
    when ``adjusted``; v is a non-empty 1-D float64 array.  All-zero
    deviations satisfy the constraint with uniform weights, so the ratio is
    0 by convention.  Raises ConvexHullViolation (EL only) when theta is
    outside the open hull of v.  Calls the kernel ``_solve`` and takes the
    logs of its last lam * w: bit for bit ``solve_lambda`` on w.
    """
    # an overflowing deviation or sum is infinite, which _solve refuses as NonFinite
    with np.errstate(over="ignore", invalid="ignore"):
        if adjusted:
            n = v.size
            w = np.empty(n + 1)  # w[:n] is v - theta, w[n] the pseudo-deviation
            total = float(np.add.reduce(np.subtract(v, theta, out=w[:n])))
            w[n] = -adjustment_factor(n) * (total / n)
        else:
            w = v - theta
        if not w.any():  # a zero pseudo-deviation when all of v - theta is zero
            return 0.0, 0.0
        lam, lw = _solve(w, lam0)
        return max(2.0 * float(np.add.reduce(np.log1p(lw))), 0.0), lam
