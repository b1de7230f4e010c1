"""Confidence intervals by inverting the scaled log-likelihood ratio.

The interval at level 1 - alpha collects every theta whose scaled ratio
stays at or below the chi-square(1) critical value.  Endpoints are located
by walking outward from the point estimate until the statistic crosses the
threshold, then bisecting the crossing.  The walk relies on the EL and AEL
statistics being nondecreasing away from the point estimate.

The TEL transform T is increasing, so r * T(l) <= crit exactly when
r * l <= r * T^-1(crit / r), with r the variance ratio.  A TEL (TAEL)
interval is therefore the EL (AEL) interval at that larger critical value,
which is also why it contains the EL (AEL) interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .calibration import SignificanceLevel, scale_factor
from .core import Sample, VariantKind, _profile_value, truncated_values
from .errors import BracketFailure, ConvexHullViolation
from .variants import _ael_value, _tel_inverse

__all__ = ["ConfidenceInterval", "invert"]

# Outward probe schedule, as fractions of the distance from the point
# estimate to the search-domain boundary.  Geometric on both ends: fine
# steps near the estimate (endpoints usually sit within a few percent of
# the domain for large n) and fine steps near the boundary (where EL
# statistics blow up).
_PROBE_FRACTIONS = tuple(
    [2.0 ** -k for k in range(7, 0, -1)]
    + [1.0 - 2.0 ** -k for k in range(2, 41)]
    + [1.0]
)

# Endpoints whose statistic never reaches the critical value inside the
# search domain are reported at the domain edge with bracketed=False.
_AEL_CAP_MULTIPLE = 10.0  # cap = theta_hat +/- 10 * hull width
_HULL_CLAMP = 1e-12  # relative inset keeping EL probes strictly inside the hull


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for the generalized Lorenz ordinate."""

    lower: float
    upper: float
    level: float
    kind: VariantKind
    iterations: int
    lower_bracketed: bool = True
    upper_bracketed: bool = True

    @property
    def length(self) -> float:
        return self.upper - self.lower


class _Statistic:
    """Scaled EL or AEL log-ratio as a function of theta, with eval counting.

    The truncated values, variance ratio, and Lagrange warm start are
    cached across evaluations; outside the hull the EL statistic is
    +inf by convention.
    """

    def __init__(self, adjusted: bool, s: Sample, t: float) -> None:
        self.profile = _ael_value if adjusted else _profile_value
        self.trunc = truncated_values(s, t)
        self.ratio = scale_factor(s, t).ratio
        self.evals = 0
        self._lam = None

    def __call__(self, theta: float) -> float:
        self.evals += 1
        try:
            val, self._lam = self.profile(self.trunc - theta, lam0=self._lam)
        except ConvexHullViolation:
            return math.inf
        return self.ratio * val


def _bisect(stat: _Statistic, crit: float, inner: float, outer: float,
            hull_w: float) -> float:
    """Shrink [inner, outer] around the threshold crossing; return the
    inner (covered) edge."""
    tol = 1e-8 * max(abs(inner), abs(outer)) + 1e-15 * hull_w
    for _ in range(200):
        if abs(outer - inner) <= tol:
            break
        mid = 0.5 * (inner + outer)
        if stat(mid) <= crit:
            inner = mid
        else:
            outer = mid
        tol = 1e-8 * max(abs(inner), abs(outer)) + 1e-15 * hull_w
    return inner


def _search_side(stat: _Statistic, crit: float, theta_hat: float,
                 bound: float, hull_w: float) -> tuple[float, bool]:
    """Locate the crossing between theta_hat and bound (either side)."""
    span = bound - theta_hat
    prev_theta = theta_hat
    for frac in _PROBE_FRACTIONS:
        theta = theta_hat + frac * span
        if stat(theta) > crit:
            return _bisect(stat, crit, prev_theta, theta, hull_w), True
        prev_theta = theta
    return bound, False  # never crossed inside the domain


def invert(kind: VariantKind, s: Sample, t: float,
           level: SignificanceLevel | float) -> ConfidenceInterval:
    """Confidence interval for the generalized Lorenz ordinate at t.

    Parameters
    ----------
    kind : VariantKind
        Which calibration of the log-ratio to invert.
    s, t : Sample, float
        Data and Lorenz abscissa.
    level : SignificanceLevel or float
        Significance spec; a bare float is taken as alpha.

    Raises
    ------
    BracketFailure
        When the statistic never reaches the critical value inside the
        search domain on some side.  The partial interval (offending
        endpoint at the domain edge, its bracketed flag cleared) rides on
        the exception's ``interval`` attribute.
    DegenerateVariance
        When the scale factor is undefined for (s, t).
    """
    kind = VariantKind(kind)
    if not isinstance(level, SignificanceLevel):
        level = SignificanceLevel(float(level))
    stat = _Statistic(kind.adjusted, s, t)
    theta_hat = float(stat.trunc.sum() / s.n)
    vmin = float(stat.trunc.min())
    vmax = float(stat.trunc.max())
    hull_w = vmax - vmin

    if kind.adjusted:
        dom_lo = theta_hat - _AEL_CAP_MULTIPLE * hull_w
        dom_hi = theta_hat + _AEL_CAP_MULTIPLE * hull_w
    else:
        dom_lo = vmin + _HULL_CLAMP * hull_w
        dom_hi = vmax - _HULL_CLAMP * hull_w

    crit = level.chi2_crit
    search_crit = crit
    if kind.transformed:
        search_crit = stat.ratio * _tel_inverse(crit / stat.ratio, s.n)
    lower, lower_ok = _search_side(stat, search_crit, theta_hat, dom_lo, hull_w)
    stat._lam = None  # warm starts do not transfer across sides
    upper, upper_ok = _search_side(stat, search_crit, theta_hat, dom_hi, hull_w)

    ci = ConfidenceInterval(
        lower=lower, upper=upper, level=level.level, kind=kind,
        iterations=stat.evals, lower_bracketed=lower_ok, upper_bracketed=upper_ok,
    )
    if not (lower_ok and upper_ok):
        sides = [name for name, ok in (("lower", lower_ok), ("upper", upper_ok)) if not ok]
        raise BracketFailure(
            f"{kind.value} statistic stayed below the critical value "
            f"{crit:.6g} out to the search boundary on the "
            f"{' and '.join(sides)} side", interval=ci,
        )
    return ci
