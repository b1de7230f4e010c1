"""Adjusted and transformed calibrations of the EL log-ratio.

Three modifications of the plain empirical log-likelihood ratio improve
small-sample interval behaviour:

* AEL appends one pseudo-deviation ``-a_n * mean(w)`` before profiling,
  which keeps zero inside the hull for every finite theta and bounds the
  ratio, at the cost of some over-coverage for large ratios.
* TEL damps large plain ratios through ``l * max(1 - l/n, 1/2)``.
* TAEL applies the same damping to the adjusted ratio (divisor is the
  original n, not n + 1).

A kind's ``adjusted`` and ``transformed`` properties say which of the two
modifications it applies.
"""
from __future__ import annotations

import math

import numpy as np

from .core import LogRatioValue, Sample, VariantKind, _profile_value, estimating_values
from .errors import DomainError

__all__ = [
    "adjustment_factor",
    "ael_augment",
    "log_ael_ratio",
    "tel_transform",
    "log_tael_ratio",
    "log_ratio",
]

# TEL damping past the kink at l = n * _GAMMA.  The transform is increasing
# only for _GAMMA <= 1/2, which is what lets an interval be found by
# inverting the undamped ratio at a remapped critical value.
_GAMMA = 0.5


def adjustment_factor(n: int) -> float:
    """AEL pseudo-observation scale a_n = max(1, log(n)/2)."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return max(1.0, 0.5 * math.log(n))


def ael_augment(w, a: float) -> np.ndarray:
    """Append the balancing pseudo-deviation -a * mean(w) to w."""
    w = np.asarray(w, dtype=float).ravel()
    return np.append(w, -a * float(np.mean(w)))


def _ael_value(w: np.ndarray, lam0: float | None = None) -> tuple[float, float]:
    if not w.any():
        return 0.0, 0.0
    aug = ael_augment(w, adjustment_factor(w.size))
    return _profile_value(aug, lam0=lam0)


def log_ael_ratio(s: Sample, t: float, theta: float) -> LogRatioValue:
    """Adjusted empirical log-likelihood ratio at a candidate ordinate.

    Finite for every finite ``theta``: whenever the deviations are not all
    zero, the pseudo-deviation sits on the opposite side of zero from
    their mean, so the hull condition always holds.
    """
    return log_ratio(VariantKind.AEL, s, t, theta)


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


def log_tael_ratio(s: Sample, t: float, theta: float) -> LogRatioValue:
    """Transformed adjusted ratio: tel_transform of the AEL ratio.

    The damping divisor is the original sample size n, not the augmented
    n + 1.
    """
    return log_ratio(VariantKind.TAEL, s, t, theta)


def log_ratio(kind: VariantKind, s: Sample, t: float, theta: float) -> LogRatioValue:
    """Dispatch to the requested calibration of the log-likelihood ratio."""
    kind = VariantKind(kind)
    w = estimating_values(s, t, theta).deviations
    val, _ = _ael_value(w) if kind.adjusted else _profile_value(w)
    if kind.transformed:
        val = tel_transform(val, s.n)
    return LogRatioValue(value=val, kind=kind)
