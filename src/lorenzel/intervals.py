"""Confidence intervals by inverting the scaled log-likelihood ratio.

The interval at level 1 - alpha collects every theta whose scaled ratio
stays at or below the chi-square(1) critical value.  The EL and AEL
statistics are nondecreasing away from the point estimate, so each side
holds one crossing.  It is found by a safeguarded Newton search on
sqrt(stat) - sqrt(crit), which is nearly linear in theta, started from
the Wald point.  The search keeps a bracket [inner, outer] around the
crossing.  A step that leaves the bracket, that comes from a non-finite
value, or that is longer than half the step before last (the safeguard
of rtsafe, Numerical Recipes section 9.4) is replaced by bisection.  The
search stops once the bracket is narrower than 1e-8 relative and returns
its inner, covered, edge.  It raises LorenzELError rather than return an
unconverged endpoint when its evaluation budget runs out.

The slope costs nothing extra.  The profile kernel (``core._profile``)
returns it with the ratio, from the Lagrange multiplier the evaluation
already solved, by the envelope theorem.

The TEL transform T is increasing, so r * T(l) <= crit exactly when
r * l <= r * T^-1(crit / r), with r the variance ratio.  A TEL (TAEL)
interval is therefore the EL (AEL) interval at that larger critical value,
which is also why it contains the EL (AEL) interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .calibration import chi2_crit, scale_factor
from .core import Sample, VariantKind, _profile, truncated_values
from .errors import BracketFailure, ConvexHullViolation, LorenzELError
from .variants import _tel_inverse

__all__ = ["ConfidenceInterval", "invert"]

# Endpoints whose statistic never reaches the critical value inside the
# search domain are reported at the domain edge with bracketed=False.
_AEL_CAP_MULTIPLE = 10.0  # cap = theta_hat +/- 10 * hull width
_HULL_CLAMP = 1e-12  # relative inset keeping EL probes strictly inside the hull
# Statistic evaluations allowed per side.  Bisection alone closes any
# bracket to the stopping tolerance in at most 54 steps.
_MAX_EVALS = 100


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for the generalized Lorenz ordinate.

    ``iterations`` counts the statistic evaluations of the endpoint
    search, over both sides.
    """

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
    """Scaled EL or AEL log-ratio and its slope in theta, with eval counting.

    The truncated values, variance ratio, and Lagrange warm start are
    cached across evaluations; outside the hull the EL statistic is
    +inf (slope nan) by convention.
    """

    def __init__(self, adjusted: bool, s: Sample, t: float) -> None:
        self.adjusted = adjusted
        self.trunc = truncated_values(s, t)
        self.scale = scale_factor(s, t)
        self.ratio = self.scale.ratio
        self.evals = 0
        self._lam = None

    def __call__(self, theta: float) -> tuple[float, float]:
        self.evals += 1
        try:
            val, slope, self._lam = _profile(self.trunc, theta, self.adjusted, self._lam)
        except ConvexHullViolation:
            return math.inf, math.nan
        return self.ratio * val, self.ratio * slope


def _search_side(stat: _Statistic, crit: float, theta_hat: float, start: float,
                 bound: float, hull_w: float) -> tuple[float, bool]:
    """Locate the crossing between theta_hat and bound (either side).

    Returns the inner (covered) edge of the final bracket, or the bound
    with False when the statistic stays at or below crit out to it.
    """
    inner, outer = theta_hat, bound
    crossed = False  # outer has been seen above crit, not merely assumed
    root_crit = math.sqrt(crit)
    theta, prev = start, theta_hat
    step = prev_step = abs(bound - theta_hat)
    for _ in range(_MAX_EVALS):
        if not (theta - inner) * (outer - theta) > 0.0:  # outside the bracket, or nan
            theta = 0.5 * (inner + outer) if crossed else bound
        prev_step, step, prev = step, abs(theta - prev), theta
        val, slope = stat(theta)
        if val <= crit:
            if theta == bound:
                return bound, False
            inner = theta
        else:
            outer, crossed = theta, True
        tol = 1e-8 * max(abs(inner), abs(outer)) + 1e-15 * hull_w
        if crossed and abs(outer - inner) <= tol:
            return inner, True
        # Newton on sqrt(val) - sqrt(crit).  A step longer than half the one
        # before last is converging too slowly and becomes a bisection; a
        # step shorter than the tolerance is stretched to it so that the
        # bracket can close.
        root = math.sqrt(val)
        newton = 2.0 * root * (root_crit - root) / slope if slope else math.nan
        if not abs(newton) <= 0.5 * prev_step:
            newton = math.nan
        elif abs(newton) < tol:
            newton = math.copysign(tol, newton)
        theta += newton
    side = "lower" if bound < theta_hat else "upper"
    raise LorenzELError(
        f"{side} endpoint search did not converge in {_MAX_EVALS} statistic "
        f"evaluations (bracket [{min(inner, outer):.17g}, {max(inner, outer):.17g}])"
    )


def invert(kind: VariantKind, s: Sample, t: float, alpha: float) -> ConfidenceInterval:
    """Confidence interval for the generalized Lorenz ordinate at t.

    Parameters
    ----------
    kind : VariantKind
        Which calibration of the log-ratio to invert.
    s, t : Sample, float
        Data and Lorenz abscissa.
    alpha : float
        Significance level in (0, 1); the interval has nominal coverage
        1 - alpha.

    Raises
    ------
    DomainError
        When alpha lies outside (0, 1).
    BracketFailure
        When the statistic never reaches the critical value inside the
        search domain on some side.  The partial interval (offending
        endpoint at the domain edge, its bracketed flag cleared) rides on
        the exception's ``interval`` attribute.
    DegenerateVariance
        When the scale factor is undefined for (s, t).
    LorenzELError
        When an endpoint search exhausts its evaluation budget; the
        message names the side.
    """
    kind = VariantKind(kind)
    crit = chi2_crit(alpha)
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

    search_crit = crit
    if kind.transformed:
        search_crit = stat.ratio * _tel_inverse(crit / stat.ratio, s.n)
    # Wald half-width, from r * l(theta) ~ n (theta - theta_hat)^2 / sigma_v^2
    wald = math.sqrt(search_crit * stat.scale.sigma_v_sq / s.n)
    lower, lower_ok = _search_side(stat, search_crit, theta_hat, theta_hat - wald,
                                   dom_lo, hull_w)
    stat._lam = None  # warm starts do not transfer across sides
    upper, upper_ok = _search_side(stat, search_crit, theta_hat, theta_hat + wald,
                                   dom_hi, hull_w)

    ci = ConfidenceInterval(
        lower=lower, upper=upper, level=1.0 - float(alpha), kind=kind,
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
