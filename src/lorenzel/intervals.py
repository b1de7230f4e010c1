"""Confidence intervals by inverting the scaled log-likelihood ratio.

The interval at level 1 - alpha collects every theta whose scaled ratio
stays at or below the chi-square(1) critical value.  The EL and AEL
statistics are nondecreasing away from the point estimate.  The EL
statistic is +inf at the edges of the hull of the truncated values, so
each side holds one crossing inside the hull.  The AEL statistic rises
on both sides to the same limit ``core._ael_limit(n)``, whatever the data
(Chen, Variyath & Abraham 2008; Emerson & Owen 2009).  So ``invert``
knows before any search whether an AEL interval is the whole line or is
bounded on both sides, and then searches each side out towards infinity.
Each side is one loop with two kinds of step.

Joint steps.  The crossing and its Lagrange multiplier solve two
equations together, sum(w / (1 + lam w)) = 0 and
2 sum(log(1 + lam w)) = crit / r, with w = V - theta and r the variance
ratio (Hall & La Scala 1990; Owen 2001, ch. 3).  A Newton step on
(lam, theta) takes one pass over the data and solves no inner equation
for lam (``core._joint_step``).  It is halved until every 1 + lam w
stays positive and theta stays between the point estimate and the
search boundary.  Joint steps start from the Wald point, or from halfway
to the boundary when the Wald point lies beyond it.

Certified steps.  These are full evaluations of the statistic (the
profile kernel ``core._profile``), and only they move the bracket
[inner, outer] around the crossing.  When a joint theta step falls below
the stopping tolerance, the joint root is evaluated, warm-started from
the joint lam, and so is a point half a tolerance beyond it if it is
covered, or inside it if not.  The bracket is then closed by the
stopping rule below.

Safeguard.  A joint step that needs more than ``core._MAX_HALVINGS``
halvings, or that is longer than half of each of the two joint steps
before it, has stalled; so has a certification that leaves the bracket
open.  From then on the side takes certified steps: Newton on
sqrt(stat) - sqrt(crit), which is nearly linear in theta, with the slope
that the evaluation returns by the envelope theorem.  A step that leaves
the bracket, that comes from a non-finite value, or that is longer than
half the step before last (the safeguard of rtsafe, Numerical Recipes
section 9.4) is replaced by bisection or, while the outer edge is
infinite, by a step that doubles the distance from the point estimate
(by at least one hull width).

The search stops once the bracket is narrower than 1e-8 relative and
returns its inner, covered, edge.  Both kinds of step count against one
budget of passes per side; the search raises LorenzELError rather than
return an unconverged endpoint when it runs out.

The TEL transform T is increasing, so r * T(l) <= crit exactly when
r * l <= r * T^-1(crit / r), with r the variance ratio.  A TEL (TAEL)
interval is therefore the EL (AEL) interval at that larger critical value,
which is also why it contains the EL (AEL) interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .calibration import chi2_crit, scale_factor
from .core import Sample, VariantKind, _ael_limit, _joint_step, _profile, truncated_values
from .errors import BracketFailure, ConvexHullViolation, LorenzELError
from .variants import _tel_inverse

__all__ = ["ConfidenceInterval", "invert"]

# Passes over the data (joint steps and statistic evaluations) allowed per
# side.  Bisection alone closes any bracket to the stopping tolerance in at
# most 54 steps.
_MAX_PASSES = 100


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for the generalized Lorenz ordinate.

    ``iterations`` counts the passes over the data of the endpoint
    search, joint steps plus certified evaluations, over both sides.
    """

    lower: float
    upper: float
    level: float
    kind: VariantKind
    iterations: int

    @property
    def length(self) -> float:
        return self.upper - self.lower


class _Statistic:
    """Scaled EL or AEL log-ratio and its slope in theta, with pass counting.

    The truncated values, their hull, the variance ratio, and the Lagrange
    warm start are cached across evaluations; outside the hull the EL
    statistic is +inf (slope nan) by convention.  ``passes`` counts the
    passes over the data: statistic evaluations and joint steps.
    """

    def __init__(self, adjusted: bool, s: Sample, t: float) -> None:
        self.adjusted = adjusted
        self.trunc = truncated_values(s, t)
        self.hull = (float(self.trunc.min()), float(self.trunc.max()))
        self.scale = scale_factor(s, t)
        self.ratio = self.scale.ratio
        self.passes = 0
        self._lam = None

    def __call__(self, theta: float) -> tuple[float, float]:
        self.passes += 1
        try:
            val, slope, self._lam = _profile(self.trunc, theta, self.adjusted, self._lam)
        except ConvexHullViolation:
            return math.inf, math.nan
        return self.ratio * val, self.ratio * slope

    def joint(self, theta: float, lam: float | None, crit: float, lo: float,
              hi: float) -> tuple[float, float, float] | None:
        """One joint Newton step towards r * l(theta) = crit (``core._joint_step``)."""
        self.passes += 1
        return _joint_step(self.trunc, theta, lam, self.adjusted, crit / self.ratio,
                           lo, hi, self.hull)


def _search_side(stat: _Statistic, crit: float, theta_hat: float, start: float,
                 bound: float, hull_w: float) -> float:
    """Locate the crossing between theta_hat and bound (either side).

    ``bound``, the hull edge (EL) or an infinity (AEL), lies beyond the
    crossing.  Joint steps run from ``start`` until they converge or
    stall, then certified steps finish the side (see the module
    docstring).  Returns the inner (covered) edge of the final bracket.
    """
    inner, outer = theta_hat, bound
    root_crit = math.sqrt(crit)
    out = math.copysign(1.0, bound - theta_hat)
    lo, hi = min(theta_hat, bound), max(theta_hat, bound)
    theta = start if lo < start < hi else 0.5 * (theta_hat + bound)
    lam = None
    joint = True  # joint steps until they converge or stall
    probe = False  # the next certified step checks the other side of theta
    prev = theta_hat
    step = prev_step = math.inf
    for _ in range(_MAX_PASSES):
        if joint:
            nxt = stat.joint(theta, lam, crit, lo, hi)
            # a joint step that must be halved too often, or that is longer
            # than half of each of the two before it, has stalled
            if nxt is None or nxt[2] > 0.5 * max(step, prev_step):
                joint = False
            else:
                theta, lam, moved = nxt
                prev_step, step = step, moved
                probe = moved <= 1e-8 * abs(theta) + 1e-15 * hull_w
                joint = not probe
            if not joint:  # certified steps from here on, warm-started
                stat._lam = lam  # from the joint lam, with a fresh step history
                step = prev_step = abs(bound - theta_hat)
            continue
        # Certified step: a full evaluation, the only kind that moves the
        # bracket.
        if not (theta - inner) * (outer - theta) > 0.0:  # outside the bracket, or nan
            if math.isfinite(outer):
                theta = 0.5 * (inner + outer)
            else:  # no point above crit seen yet on an AEL side: step outwards
                theta = inner + out * max(abs(inner - theta_hat), hull_w)
        prev_step, step, prev = step, abs(theta - prev), theta
        val, slope = stat(theta)
        if val <= crit:
            inner = theta
        else:
            outer = theta
        # an infinite outer keeps the bracket open but must not make tol infinite
        edge = outer if math.isfinite(outer) else inner
        tol = 1e-8 * max(abs(inner), abs(edge)) + 1e-15 * hull_w
        if abs(outer - inner) <= tol:
            return inner
        if probe:
            # the joint root is certified by a point just beyond it if it
            # is covered, and just inside it if it is not
            probe = False
            half = 0.5 * (1e-8 * abs(theta) + 1e-15 * hull_w)
            theta += out * half if val <= crit else -out * half
            continue
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
        f"{side} endpoint search did not converge in {_MAX_PASSES} passes over "
        f"the data (bracket [{min(inner, outer):.17g}, {max(inner, outer):.17g}])"
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
        When an AEL (TAEL) statistic is bounded at or below the critical
        value, so that the confidence set is the whole line.  The
        exception's ``interval`` is (-inf, inf) with 0 iterations.
    DegenerateVariance
        When the scale factor is undefined for (s, t).
    LorenzELError
        When an endpoint search exhausts its budget of passes over the
        data; the message names the side.
    """
    kind = VariantKind(kind)
    crit = chi2_crit(alpha)
    level = 1.0 - float(alpha)
    stat = _Statistic(kind.adjusted, s, t)
    theta_hat = float(stat.trunc.sum() / s.n)
    dom_lo, dom_hi = stat.hull
    hull_w = dom_hi - dom_lo

    search_crit = crit
    if kind.transformed:
        search_crit = stat.ratio * _tel_inverse(crit / stat.ratio, s.n)
    if kind.adjusted:
        bounded = stat.ratio * _ael_limit(s.n)
        if bounded <= search_crit:
            raise BracketFailure(
                f"{kind.value} statistic is bounded by r * l_inf = {bounded:.6g} <= the "
                f"critical value {search_crit:.6g}: the confidence set is the whole line",
                interval=ConfidenceInterval(-math.inf, math.inf, level, kind, 0))
        dom_lo, dom_hi = -math.inf, math.inf
    # Wald half-width, from r * l(theta) ~ n (theta - theta_hat)^2 / sigma_v^2
    wald = math.sqrt(search_crit * stat.scale.sigma_v_sq / s.n)
    lower = _search_side(stat, search_crit, theta_hat, theta_hat - wald, dom_lo, hull_w)
    upper = _search_side(stat, search_crit, theta_hat, theta_hat + wald, dom_hi, hull_w)
    return ConfidenceInterval(lower=lower, upper=upper, level=level, kind=kind,
                              iterations=stat.passes)
