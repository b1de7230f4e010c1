"""Adjusted and transformed calibrations of the EL log-ratio.

Three modifications of the plain empirical log-likelihood ratio improve
small-sample interval behaviour:

* AEL appends one pseudo-deviation ``-a_n * mean(w)`` before profiling,
  which keeps zero inside the hull for every finite theta and bounds the
  ratio, at the cost of some over-coverage for large ratios.
* TEL damps large plain ratios through ``l * max(1 - l/n, 1/2)``.
* TAEL applies the same damping to the adjusted ratio (divisor is the
  original n, not n + 1).

A kind's ``adjusted`` and ``transformed`` attributes say which of the two
modifications it applies.  The EL and AEL ratios both come from the
profile kernel in ``core``; ``log_ratio`` returns any kind's ratio as a
float.

The sample's memo (see ``core.Sample``) keeps the truncation at each t and
the EL and AEL ratios at each (t, theta) for a float theta.  So on one
sample, EL and TEL at the same (t, theta) share one profile, AEL and TAEL
another, and all four kinds share the truncation at t; TEL (TAEL) is then
one O(1) transform of the kept ratio.
"""
from __future__ import annotations

import math

from .core import Sample, VariantKind, _check_t, _kind, _number, _profile, _truncation
from .errors import DomainError, NonFinite

__all__ = ["tel_transform", "log_ratio"]

# TEL damping past the kink at l = n * _GAMMA.  The transform is increasing
# only for _GAMMA <= 1/2, which is what lets an interval be found by
# inverting the undamped ratio at a remapped critical value.
_GAMMA = 0.5


def tel_transform(l: float, n: int) -> float:
    """Damped ratio l * max(1 - l/n, 1/2).

    Increasing and continuous in l; equals the identity at l = 0 and
    grows with slope 1/2 past the kink at l = n/2.
    """
    if l < 0.0:
        raise DomainError(f"log-ratio must be nonnegative, got {l}")
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return l * max(1.0 - l / n, 1.0 - _GAMMA)


def _tel_inverse(y: float, n: int) -> float:
    """The l >= 0 with tel_transform(l, n) = y, for y >= 0.

    Below the kink (y <= n/4) this is the smaller root of l - l^2/n = y,
    written 2y / (1 + sqrt(1 - 4y/n)) so that it keeps its digits when
    4y/n is tiny.
    """
    kink = n * _GAMMA * (1.0 - _GAMMA)
    if y <= kink:
        return 2.0 * y / (1.0 + math.sqrt(1.0 - 4.0 * y / n))
    return y / (1.0 - _GAMMA)


def log_ratio(kind: VariantKind, s: Sample, t: float, theta: float) -> float:
    """Log-likelihood ratio of the requested calibration at theta.

    Nonnegative, zero at ``point_estimate(s, t)``.  For EL and TEL it
    raises ConvexHullViolation when theta lies outside the open hull of
    the truncated values; AEL and TAEL are finite for every finite theta.
    theta may be any real number and is converted to a float once; anything
    else raises TypeError.
    """
    t = _check_t(t)
    return _memo_log_ratio(_kind(kind), s, t, _number(theta, "theta", NonFinite))


def _memo_log_ratio(kind: VariantKind, s: Sample, t: float, theta: float) -> float:
    """``log_ratio`` for a valid kind, a float t in (0, 1) and a float theta,
    with the EL (AEL) ratio, which TEL (TAEL) maps, kept in the memo of s.

    The kept ratio is read before the truncation.  -0.0 shares the entry of
    0.0, as V - theta then differs only in the sign of zeros, which no
    finite ratio depends on.
    """
    adjusted = kind.adjusted
    val = s._recall(("ratio", t, theta, adjusted),
                    lambda: _profile(_truncation(s, t)[0], theta, adjusted)[0])
    return tel_transform(val, s.n) if kind.transformed else val
