"""Chi-square calibration of the log-likelihood ratio.

The quantile is estimated jointly with the partial mean, so the plain
ratio is not asymptotically chi-square(1); it must be multiplied by the
variance ratio sigma_p^2 / sigma_v^2 of two plug-in moments.  The scaled
statistic is then compared against the chi-square(1) critical value.

``scale_factor`` and ``scaled_statistic`` keep the truncation and the scale
factor at each t in the sample's memo (see ``core.Sample``), so the four
kinds' statistics at one (sample, t) truncate once and compute the scale
factor once, and ``scaled_statistic`` shares ``log_ratio``'s kept EL and
AEL ratios.  Intervals do not read the memo: ``invert`` truncates once per
call through ``_truncate``, and ``run_experiment`` and the ``ci`` command
once per (sample, t) for all their methods (``intervals._setup``).

The critical value comes from the standard library's ``NormalDist``, so
this module, and the ``ci`` and ``curve`` commands, need no SciPy.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import Sample, VariantKind, _check_t, _memo_truncation, _truncation
from .errors import DegenerateVariance, DomainError, NonFinite
from .variants import _memo_log_ratio

__all__ = [
    "ScaleFactor",
    "scale_factor",
    "chi2_crit",
    "scaled_statistic",
]


@dataclass(frozen=True)
class ScaleFactor:
    """Plug-in variances of the two influence terms and their ratio."""

    sigma_p_sq: float
    sigma_v_sq: float
    ratio: float


def chi2_crit(alpha: float) -> float:
    """Upper-alpha critical value of chi-square with one degree of freedom.

    Computed as the square of the standard-normal quantile at alpha/2,
    which is exact for one degree of freedom.  The lower tail keeps its
    relative precision for any alpha; 1 - alpha/2 would round to 1.0 near
    alpha = 1e-16.  Infinite when alpha/2 underflows to zero.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    half = 0.5 * alpha
    return NormalDist().inv_cdf(half) ** 2 if half > 0.0 else math.inf


def _truncate(s: Sample, t: float) -> tuple[np.ndarray, float, ScaleFactor]:
    """The truncated values V, their mean theta_hat, and the scale factor,
    from one truncation; see ``scale_factor``."""
    v, psi = _truncation(s, t)
    return (v, *_scale(s, v, psi))


def _scale(s: Sample, v: np.ndarray, psi: float) -> tuple[float, ScaleFactor]:
    """theta_hat and the scale factor from the truncation V of s at the quantile psi."""
    # the sample is sorted: every value up to the quantile ties at it
    if float(s.values[0]) == psi:
        raise DegenerateVariance(f"every value at or below the quantile is {psi:g}, so "
                                 "sigma_v^2 = 0 and the scale factor is undefined")
    with np.errstate(over="ignore", invalid="ignore"):
        # x - psi_hat is +0.0 only at x = psi_hat, so this equals
        # (x - psi_hat) 1(x <= psi_hat) bit for bit
        shifted = np.minimum(s.values - psi, 0.0)
        theta_hat = float(v.sum() / s.n)
        # numpy's own two-pass variance, bit for bit, without ndarray.var's wrapper
        d = v - theta_hat
        sigma_p_sq = float((d * d).sum() / s.n)
        d = shifted - shifted.sum() / s.n
        sigma_v_sq = float((d * d).sum() / s.n)
    # a subnormal variance has lost its relative precision, and so has the ratio
    tiny = sys.float_info.min
    ratio = sigma_p_sq / sigma_v_sq if sigma_p_sq >= tiny and sigma_v_sq >= tiny else 0.0
    if not 0.0 < ratio < math.inf:
        raise NonFinite(f"plug-in variances {sigma_p_sq:g} and {sigma_v_sq:g} over- or "
                        "underflow; the scale factor is undefined")
    return theta_hat, ScaleFactor(sigma_p_sq=sigma_p_sq, sigma_v_sq=sigma_v_sq, ratio=ratio)


def _memo_scale_factor(s: Sample, t: float) -> ScaleFactor:
    """``scale_factor`` from the memo of s; t is a float in (0, 1)."""
    return s._recall(("scale", t), lambda: _scale(s, *_memo_truncation(s, t))[1])


def scale_factor(s: Sample, t: float) -> ScaleFactor:
    """Variance ratio restoring the chi-square(1) limit.

    sigma_p^2 is the plug-in variance of X 1(X <= psi_hat) and sigma_v^2
    that of (X - psi_hat) 1(X <= psi_hat), both with divisor n.  Raises
    DegenerateVariance when sigma_v^2 vanishes, that is when every value at
    or below the quantile ties at it (a single one, for example), and then
    no interval exists; raises NonFinite when a variance over- or underflows,
    subnormal values included.
    """
    return _memo_scale_factor(s, _check_t(t))


def scaled_statistic(kind: VariantKind, s: Sample, t: float, theta: float) -> float:
    """Variance-ratio-scaled log-likelihood ratio, asymptotically chi2(1).

    The kind is checked before any work, as in ``invert``.
    """
    kind = VariantKind(kind)
    t = _check_t(t)
    return _memo_scale_factor(s, t).ratio * _memo_log_ratio(kind, s, t, theta)
