"""Chi-square calibration of the log-likelihood ratio.

The quantile is estimated jointly with the partial mean, so the plain
ratio is not asymptotically chi-square(1); it must be multiplied by the
variance ratio sigma_p^2 / sigma_v^2 of two plug-in moments.  The scaled
statistic is then compared against the chi-square(1) critical value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import Sample, VariantKind, sample_quantile, truncated_values
from .errors import DegenerateVariance, DomainError
from .variants import log_ratio

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

    Computed as the square of the standard-normal quantile at 1 - alpha/2,
    which is exact for one degree of freedom.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return float(ndtri(1.0 - 0.5 * alpha)) ** 2


def _truncate(s: Sample, t: float) -> tuple[np.ndarray, float, ScaleFactor]:
    """The truncated values V, their mean theta_hat, and the scale factor,
    from one truncation; see ``scale_factor``."""
    v = truncated_values(s, t)
    # x - psi_hat is +0.0 only at x = psi_hat, so this equals
    # (x - psi_hat) 1(x <= psi_hat) bit for bit
    shifted = np.minimum(s.values - sample_quantile(s, t), 0.0)
    theta_hat = float(v.sum() / s.n)
    # numpy's own two-pass variance, bit for bit, without ndarray.var's wrapper
    d = v - theta_hat
    sigma_p_sq = float((d * d).sum() / s.n)
    d = shifted - shifted.sum() / s.n
    sigma_v_sq = float((d * d).sum() / s.n)
    if sigma_v_sq <= 0.0 or not math.isfinite(sigma_v_sq):
        raise DegenerateVariance(
            f"variance of the shifted truncated values is {sigma_v_sq:g}; "
            "the scale factor is undefined"
        )
    return v, theta_hat, ScaleFactor(sigma_p_sq=sigma_p_sq, sigma_v_sq=sigma_v_sq,
                                     ratio=sigma_p_sq / sigma_v_sq)


def scale_factor(s: Sample, t: float) -> ScaleFactor:
    """Variance ratio restoring the chi-square(1) limit.

    sigma_p^2 is the plug-in variance of X 1(X <= psi_hat) and sigma_v^2
    that of (X - psi_hat) 1(X <= psi_hat), both with divisor n.  Raises
    DegenerateVariance when sigma_v^2 vanishes (for example, a single
    observation at or below the quantile, or all included values tied at
    it), in which case no interval exists.
    """
    return _truncate(s, t)[2]


def scaled_statistic(kind: VariantKind, s: Sample, t: float, theta: float) -> float:
    """Variance-ratio-scaled log-likelihood ratio, asymptotically chi2(1)."""
    sf = scale_factor(s, t)
    return sf.ratio * log_ratio(kind, s, t, theta)
