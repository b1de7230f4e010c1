"""Chi-square calibration of the log-likelihood ratio.

The quantile is estimated jointly with the partial mean, so the plain
ratio is not asymptotically chi-square(1); it must be multiplied by the
variance ratio sigma_p^2 / sigma_v^2 of two plug-in moments.  The scaled
statistic is then compared against the chi-square(1) critical value.

What every kind's statistic and interval at one (sample, t) share, the
truncation, the point estimate, the scale factor and the hull, is built
by one function, ``_setup_from``.  ``_setup`` keeps its result in the
sample's memo (see ``core.Sample``), where ``scale_factor``,
``scaled_statistic`` and ``invert`` read it, and
``scaled_statistic`` shares ``log_ratio``'s kept EL and AEL ratios.
``run_experiment`` and the ``ci`` command set up each sample's values at
every t with no memo, since each set-up is used once, stacked in one
array t-major (``_stacked_setups``).  Every interval is inverted from
set-ups by ``intervals._chunk_intervals``, which takes the kinds asked of
it in turn, each on every stacked set-up at once; ``invert`` is its
one-set-up, one-kind case.

The critical value comes from the standard library's ``NormalDist``, so
this module, and the ``ci`` and ``curve`` commands, need no SciPy.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import (Sample, VariantKind, _check_t, _kind, _number, _quantile_index, _truncate,
                   _truncation)
from .errors import DegenerateVariance, DomainError, LorenzELError, NonFinite
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
    alpha = _number(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    half = 0.5 * alpha
    return NormalDist().inv_cdf(half) ** 2 if half > 0.0 else math.inf


def _setup_from(x: np.ndarray, v: np.ndarray, psi: float,
                ) -> tuple[np.ndarray, float, ScaleFactor, tuple[float, float]]:
    """The truncated values V, their mean theta_hat, the scale factor and the
    hull of V, from the sorted values x and their truncation (V, psi); no
    memo.  See ``scale_factor``."""
    n = x.size
    # x is sorted: every value up to the quantile ties at it
    if float(x[0]) == psi:
        raise DegenerateVariance(f"every value at or below the quantile is {psi:g}, so "
                                 "sigma_v^2 = 0 and the scale factor is undefined")
    with np.errstate(over="ignore", invalid="ignore"):
        # x - psi_hat is +0.0 only at x = psi_hat, so this equals
        # (x - psi_hat) 1(x <= psi_hat) bit for bit
        shifted = np.minimum(x - psi, 0.0)
        # np.add.reduce is ndarray.sum's own reduction, bit for bit, without
        # its wrapper; the variances are numpy's own two-pass ones, bit for
        # bit, without ndarray.var's wrapper
        theta_hat = float(np.add.reduce(v) / n)
        d = v - theta_hat
        sigma_p_sq = float(np.add.reduce(d * d) / n)
        d = shifted - np.add.reduce(shifted) / n
        sigma_v_sq = float(np.add.reduce(d * d) / n)
    # a subnormal variance has lost its relative precision, and so has the ratio
    tiny = sys.float_info.min
    ratio = sigma_p_sq / sigma_v_sq if sigma_p_sq >= tiny and sigma_v_sq >= tiny else 0.0
    if not 0.0 < ratio < math.inf:
        raise NonFinite(f"plug-in variances {sigma_p_sq:g} and {sigma_v_sq:g} over- or "
                        "underflow; the scale factor is undefined")
    scale = ScaleFactor(sigma_p_sq=sigma_p_sq, sigma_v_sq=sigma_v_sq, ratio=ratio)
    return v, theta_hat, scale, (float(np.minimum.reduce(v)), float(np.maximum.reduce(v)))


def _stacked_setups(samples: list, ts) -> tuple[np.ndarray, list, list]:
    """``_setup_from`` of each sorted array of ``samples``, all of one size
    n, at each t of ``ts``, t-major, with no memo: the truncated values
    stacked in the rows of V, their other results in ``setups``, and per t,
    per sample, the index of its row or the LorenzELError of its set-up."""
    n = samples[0].size
    V, setups, rows = np.empty((len(ts) * len(samples), n)), [], []
    for t in ts:
        k = _quantile_index(n, t)
        at = []
        for x in samples:
            try:
                V[len(setups)], *setup = _setup_from(x, *_truncate(x, float(x[k])))
            except LorenzELError as exc:
                # kept without its traceback, which holds this frame and so
                # the whole stack in a reference cycle with the error
                at.append(exc.with_traceback(None))
                continue
            at.append(len(setups))
            setups.append(setup)
        rows.append(at)
    return V[:len(setups)], setups, rows


def _setup(s: Sample, t: float) -> tuple[np.ndarray, float, ScaleFactor, tuple[float, float]]:
    """``_setup_from`` of s at t, kept in the memo of s; t is a float in (0, 1)."""
    return s._recall(("setup", t), lambda: _setup_from(s.values, *_truncation(s, t)))


def scale_factor(s: Sample, t: float) -> ScaleFactor:
    """Variance ratio restoring the chi-square(1) limit.

    sigma_p^2 is the plug-in variance of X 1(X <= psi_hat) and sigma_v^2
    that of (X - psi_hat) 1(X <= psi_hat), both with divisor n.  Raises
    DegenerateVariance when sigma_v^2 vanishes, that is when every value at
    or below the quantile ties at it (a single one, for example), and then
    no interval exists; raises NonFinite when a variance over- or underflows,
    subnormal values included.
    """
    return _setup(s, _check_t(t))[2]


def scaled_statistic(kind: VariantKind, s: Sample, t: float, theta: float) -> float:
    """Variance-ratio-scaled log-likelihood ratio, asymptotically chi2(1).

    The kind is checked before any work, as in ``invert``.  theta may be any
    real number and is converted to a float once; anything else raises
    TypeError.
    """
    kind = _kind(kind)
    t = _check_t(t)
    theta = _number(theta, "theta", NonFinite)
    return _setup(s, t)[2].ratio * _memo_log_ratio(kind, s, t, theta)
