"""Confidence intervals by inverting the scaled log-likelihood ratio.

The interval at level 1 - alpha collects every theta whose scaled ratio
stays at or below the chi-square(1) critical value.  The EL and AEL
statistics are nondecreasing away from the point estimate.  The EL
statistic is +inf at the edges of the hull of the truncated values, so
each side holds one crossing inside the hull.  The AEL statistic rises
on both sides to the same limit ``_ael_limit(n)``, whatever the data
(Chen, Variyath & Abraham 2008; Emerson & Owen 2009).  So ``invert``
knows before any search whether an AEL interval is the whole line or is
bounded on both sides, and then searches each side out towards infinity.
Each side runs two loops in turn, joint steps and then certified steps,
both aimed at one target for the unscaled log-ratio l: crit / r for EL and AEL, with r the
variance ratio, and T^-1(crit / r) for TEL and TAEL.  The TEL transform T
is increasing, so r * T(l) <= crit exactly when l <= T^-1(crit / r): a
TEL (TAEL) interval is the EL (AEL) interval at a larger target, which is
why it contains the EL (AEL) interval.

Joint steps.  The crossing and its Lagrange multiplier solve two
equations together, sum(w / (1 + lam w)) = 0 and 2 sum(log(1 + lam w)) =
target, with w = V - theta (Hall & La Scala 1990; Owen 2001, ch. 3).  A
Newton step on (lam, theta) takes one pass over the data and solves no
inner equation for lam (``_joint_step``).  It is halved until every
1 + lam w stays positive and theta stays between the point estimate and
the search boundary.  Joint steps start from the Wald point.  If that lies
beyond the boundary, or rounds onto the point estimate, they start halfway
to the boundary instead, or one hull width out on an AEL side, whose
boundary is infinite.  A cold start's lam is one Newton step from lam = 0,
which the point estimate and sigma_p^2 give in O(1) (``_cold_lam``).  A
joint step has stalled when it needs more than ``_MAX_HALVINGS`` halvings,
or is longer than half of each of the two joint steps before it.

Bounds.  Any admissible lam gives a lower bound on l (weak duality);
while the Newton decrement delta of -sum(log(1 + lam w)) in lam is below
1, self-concordance bounds l from above by that bound plus
2 (-delta - log(1 - delta)).  A lower bound above the target means not
covered, an upper bound at or below it covered.  The sums of one pass
(``_pass``) give both bounds at the pass's theta, and, in O(1),
bounds at any theta close enough to it (``_bounds``).

Closing in the joint passes.  After every joint step, the sums of its
pass bound l 0.499 of a tolerance inside and beyond the new theta.  Only
two of the four bounds decide: first the lower bound at the outer point,
the cheaper one, which needs no Newton decrement, then the upper bound at
the inner point.  If the outer point is not covered and the inner one is,
the side returns the inner point with no further pass; at n >= 50 nearly
every side does, one pass before its theta step would fall below the
stopping tolerance.  The joint steps have converged when a theta step
falls below it.

Certified steps.  Only they move the bracket [inner, outer] around the
crossing.  They go on from where the joint steps stopped, with their
theta, lam, bracket and step count, and whether they converged.  Each
decides whether theta is covered in one pass at the last lam
(``_certify``), and the Newton step in lam is the next warm start.  When
the bounds straddle the target, or lam is missing or not admissible, a
full evaluation of the log-ratio (``_profile``) decides instead.  The
first certified step is at the last joint theta.  If the joint steps
converged that is the joint root, and the second is half a tolerance
beyond it if it is covered, or inside it if not, which usually closes the
bracket.  Every other certified step bisects the bracket, or doubles the
distance from the point estimate (by at least one hull width) while an
AEL side's outer edge is still infinite.

The search stops once the bracket is narrower than 1e-8 relative and
returns its inner, covered, edge.  Both kinds of step count against one
budget of steps per side; running out raises LorenzELError rather than
return an unconverged endpoint, which, like any LorenzELError of a search,
rules out that one interval.  The search runs on the truncated values
scaled by a power of two to a largest size in [0.5, 1), so that no sum of
squares overflows; every tolerance is relative, so the endpoints are
those of the unscaled search, bit for bit, wherever that one does not
overflow.  The values are scaled once per set-up, in place, by
``_chunk_intervals``, which inverts every kind asked of them on that one
copy.

Batched passes.  A side's search is a coroutine (``_search_side``): it
keeps its scalar logic, but hands out each pass it needs, as (theta, lam),
and is sent the pass's sums (``_pass``).
``_chunk_intervals`` inverts one kind on many truncations of one sample
size at once, stacked t-major (``calibration._stacked_setups``): every
replication of a simulation chunk at every t of the grid, or the ``ci``
command's one sample at every t of a group.  The truncation has n values
at every t, so rows of different t share the stack.  Both sides of every
row are one group, and ``_drive`` answers the open requests of the
sides in flight with one array pass over their stacked rows
(``_passes``).  Each row reduces along its own contiguous axis, as a 1-D
array does, and each sum of squares is numpy's dot, as ``ndarray.dot``
takes it, so every answer is bit for bit the one ``_pass`` gives on that
row alone: no pass, step or bit moves.  At n <= 500 a pass costs its
numpy call overhead, not its data, so a pass shared by 8 or more sides
costs 1.6-3.5x less than the same passes one at a time.  A pass over more
than ``_PASS_VALUES`` values leaves the cache, so up to _PASS_VALUES // n
sides, and at least one, are in flight.  A pass shared by two sides costs
more than their two passes, so a round with fewer than three open requests
answers each with ``_pass``: the two sides of one set-up, as for
``invert``, take turns, a pass each, up to n = _PASS_VALUES / 2, and
beyond it run one after the other.  The ``ci`` command stacks
_PASS_VALUES // n of its t, and at least one, in a group, so a table of
up to 455 values is one group over the default nine t, and one of more
than 2,048 values searches one t at a time, as ``invert`` does.  A group
of fewer than ``_LOCKSTEP_SIDES`` sides runs every side as a coroutine:
``invert`` (two sides), the ``ci`` command over the default nine t (at
most 18 sides), and any simulation chunk of fewer than 20 (replication, t)
rows.

Lockstep joint steps.  A group of at least ``_LOCKSTEP_SIDES`` sides, a
simulation chunk at every t of the grid, takes its joint steps as array
code over all its sides at once (``_lockstep``), since the interpreter
work of a step costs more than its pass at these sizes.  The cold
multipliers and the seeded steps 0 are computed for every side together,
and then each round makes one pass at every side still in its joint steps,
_PASS_VALUES // n sides at a time, and takes one Newton step, stall test
and close check over all of them.  A side that its pass closes ends there
as ``_search_side`` would end it; a side that stalls, probes beside a
converged root, is refused or runs out of steps goes on as a coroutine of
certified steps (``_certified``) from exactly the theta, lam, bracket,
probe flag and step count where the joint steps stopped.  The array steps
are ``_search_side``'s, operation by operation in the same order,
elementwise: IEEE arithmetic rounds each +, -, *, / and sqrt alone, so
the bits are the same.  np.minimum and np.maximum stand for Python's min
and max only where no NaN and no zero's sign can reach a decision, and
log1p(lam pseudo) and log1p(-delta) stay ``math.log1p`` at each lane, as
numpy's log1p rounds differently on a few percent of inputs.

Seeded starts.  ``_chunk_intervals`` inverts the kinds asked in turn,
lazily, each on every row of its group, for ``run_experiment`` and the
``ci`` command, and each search starts from an earlier kind's side on the
same row, the same sample at the same t (``_SEEDS``): AEL and TEL from
EL's, TAEL from AEL's.  Its lists come kind by kind, and ``_t_major``
hands them on in (t, kind) order, each when it is first needed.
``invert`` is its one-set-up, one-kind case.  The first
joint step, step 0, comes from the seed side's closing pass, the joint
pass whose bounds closed it: the data sums of a pass are the same for EL
and AEL, and AEL's pseudo-deviation -a_n (theta_hat - theta) and a larger
target are scalars, so ``_newton`` takes that step with this kind's
target in O(1), halved until it is admissible between the inner bracket
edge and the search boundary.  The side's own first pass then usually
closes it; on large samples the bounds of the seed's pass already do, and
the side takes no pass at all.  A seed side that closed through certified
steps keeps no pass, and the search starts from its endpoint and
multiplier instead, as it does when the step is not admissible.  A TEL
(TAEL) target is at least the EL (AEL) one, so the seed endpoints are
covered and are also the inner bracket edges; EL's endpoints are not
AEL's inner edges, as the two intervals are not ordered.  A kind whose
source kind was not requested, has not run yet or failed searches from
the Wald point, as ``invert`` always does.  So their endpoints may differ
from ``invert``'s within the stopping tolerance.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Generator, Iterator, NamedTuple

import numpy as np

from .calibration import _setup, chi2_crit
from .core import Sample, VariantKind, _check_t, _kind, _profile, adjustment_factor
from .errors import BracketFailure, ConvexHullViolation, LorenzELError
from .variants import _tel_inverse

__all__ = ["ConfidenceInterval", "invert"]

# Steps (joint steps and certified steps, each at most one pass over the
# data) allowed per side.  Bisection alone closes any bracket to the stopping tolerance in at
# most 54 steps.
_MAX_PASSES = 100


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for the generalized Lorenz ordinate.

    ``iterations`` counts the steps of the endpoint search over both sides,
    joint and certified, each one pass over the data or a full evaluation.
    A joint step refused before its pass counts too, and a seeded side that
    its seed's pass closes takes none (see "Seeded starts").
    """

    lower: float
    upper: float
    level: float
    kind: VariantKind
    iterations: int

    @property
    def length(self) -> float:
        return self.upper - self.lower


@functools.lru_cache(maxsize=256)
def _ael_limit(n: int) -> float:
    """Limit of the AEL log-ratio as theta -> +-inf: the deviations over |theta|
    tend to n copies of -+1 and the pseudo-point +-a_n, whatever the data."""
    a = adjustment_factor(n)
    return -2.0 * (n * math.log((n + 1) * a / (n * (1.0 + a))) + math.log((n + 1) / (1.0 + a)))


class _Pass(NamedTuple):
    """The sums of one pass over the data at (theta, lam).

    With w = v - theta, d = 1 + lam w, q = 1 / d and r = w q over the data;
    the AEL pseudo-deviation is carried as a scalar.  A pass that closes a
    side in lockstep (``_lockstep``) carries n as a float.
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


# Halvings a joint step may take to stay admissible before it counts as stalled.
_MAX_HALVINGS = 8


def _cold_lam(theta: float, hull: tuple[float, float], pseudo: float, sw: float,
              ww: float) -> float | None:
    """A cold start's lam at theta: sum(w) / sum(w^2) over the data, sums sw
    and ww, and the AEL pseudo-deviation (0 for EL), one Newton step on F1
    from lam = 0, halved until every d stays positive; None when
    ``_MAX_HALVINGS`` halvings do not make it so."""
    lam = (sw + pseudo) / (ww + pseudo * pseudo)
    e0, e1 = hull[0] - theta, hull[1] - theta
    # d is linear in w: positive at the ends of the hull means everywhere
    for _ in range(_MAX_HALVINGS):
        if 1.0 + lam * e0 > 0.0 and 1.0 + lam * e1 > 0.0 and 1.0 + lam * pseudo > 0.0:
            return lam
        lam *= 0.5
    return None


def _dmin(theta: float, lam: float, hull: tuple[float, float], n: int,
          pseudo: float) -> float | None:
    """The smallest d = 1 + lam w of a pass at (theta, lam), over n values
    with the hull (min, max) and the AEL pseudo-deviation (0 for EL), in
    O(1); None when some d is not positive or a sum of squares of the pass
    could overflow."""
    e0, e1 = hull[0] - theta, hull[1] - theta
    d0, d1 = 1.0 + lam * e0, 1.0 + lam * e1
    # d is linear in w, so d > 0 at the ends of the hull means everywhere
    if not (d0 > 0.0 and d1 > 0.0 and 1.0 + lam * pseudo > 0.0):
        return None
    # w / d increases with w, so its largest size is at an end of the hull,
    # and 1 / d is at most 1 / dmin; under these bounds r.dot(r) and
    # q.dot(q) can neither overflow nor warn that they did
    dmin = min(d0, d1)
    r_end = max(-e0 / d0, e1 / d1)
    if n * r_end * r_end > 1e300 or n > 1e300 * dmin * dmin:
        return None
    return dmin


def _pass(v: np.ndarray, theta: float, lam: float, adjusted: bool,
          hull: tuple[float, float]) -> _Pass | None:
    """The sums of one pass over v at (theta, lam), for either kind of search
    step; None when ``_dmin`` refuses the pass.  ``hull`` is the (min, max)
    of v."""
    n = v.size
    w = v - theta
    a = adjustment_factor(n) if adjusted else 0.0
    # np.add.reduce is ndarray.sum's own reduction, bit for bit, without its wrapper
    pseudo = -a * (float(np.add.reduce(w)) / n) if adjusted else 0.0
    dmin = _dmin(theta, lam, hull, n, pseudo)
    if dmin is None:
        return None
    x = lam * w
    # log1p, not log(d): rounding d costs up to an ulp of 1 per term, more
    # than a bound on a small target can spare
    ldata = 2.0 * float(np.add.reduce(np.log1p(x)))
    x += 1.0
    q = np.divide(1.0, x, out=x)
    r = np.multiply(w, q, out=w)
    return _Pass(theta, lam, n, a, pseudo, dmin, ldata, float(np.add.reduce(r)),
                 float(r.dot(r)), float(np.add.reduce(q)), float(q.dot(q)))


def _squares(a: np.ndarray) -> np.ndarray:
    """Each row's a[i].dot(a[i]), bit for bit, in one call: a stacked
    row-by-column matmul takes each product with numpy's dot, as
    ndarray.dot does."""
    return np.matmul(a[:, None, :], a[:, :, None]).ravel()


def _sums(w: np.ndarray, lam: np.ndarray) -> tuple:
    """The five sums of ``_pass`` over each row of w = v - theta at the lam
    of the row: 2 sum(log1p(lam w)), sum(r), sum(r^2), sum(q) and sum(q^2),
    each an array over the rows.  Bit for bit ``_pass``'s: each row reduces
    along its own contiguous axis as a 1-D array does, and each sum of
    squares is numpy's dot.  w is overwritten."""
    # lam w twice, so that log1p(lam w) needs no array of its own
    lams = lam[:, None]
    x = np.multiply(lams, w)
    ldata = 2.0 * np.add.reduce(np.log1p(x, out=x), axis=1)
    np.multiply(lams, w, out=x)
    x += 1.0
    q = np.divide(1.0, x, out=x)
    r = np.multiply(w, q, out=w)
    return (ldata, np.add.reduce(r, axis=1), _squares(r), np.add.reduce(q, axis=1),
            _squares(q))


def _passes(V: np.ndarray, hulls: list, adjusted: bool, lanes: list) -> list:
    """``_pass`` at each lane (row, theta, lam), on the row of V and its hull
    in ``hulls``, as one array pass over the stacked rows (``_sums``): the
    same sums, bit for bit, or None where ``_dmin`` refuses the pass.  A
    lane refused is dropped before any sum of squares, logarithm or
    division, so no RuntimeWarning can fire."""
    n = V.shape[1]
    rows, thetas, _ = zip(*lanes)
    w = V[list(rows)]
    w -= np.array(thetas)[:, None]
    a = adjustment_factor(n) if adjusted else 0.0
    sw = np.add.reduce(w, axis=1).tolist() if adjusted else None
    kept = []  # (lane index, lam, dmin, pseudo) of the lanes admitted
    for j, (row, theta, lam) in enumerate(lanes):
        pseudo = -a * (sw[j] / n) if adjusted else 0.0
        dmin = _dmin(theta, lam, hulls[row], n, pseudo)
        if dmin is not None:
            kept.append((j, lam, dmin, pseudo))
    out = [None] * len(lanes)
    if not kept:
        return out
    if len(kept) < len(lanes):
        w = w[[j for j, _, _, _ in kept]]
    sums = _sums(w, np.array([lam for _, lam, _, _ in kept]))
    for (j, lam, dmin, pseudo), fields in zip(kept, zip(*(f.tolist() for f in sums))):
        out[j] = _Pass(thetas[j], lam, n, a, pseudo, dmin, *fields)
    return out


# The smallest normal float: a smaller bound on h has lost its precision.
_TINY = sys.float_info.min


def _bounds(s: _Pass, theta: float, upper: bool = True) -> tuple[float, float]:
    """Lower and upper bounds on the log-ratio at theta, in O(1) from the sums
    of a pass at s.theta, with the pass's lam; (-inf, inf) when undecided.
    With ``upper=False`` the upper bound reads inf, uncomputed, and the
    lower bound is the same as with it.

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
    theta0, lam, n, a, pseudo, dmin, ldata, sr, sr2, sq, sq2 = s
    shift = theta - theta0
    x = lam * shift
    eps = abs(x) / dmin
    pseudo += a * shift
    dp = 1.0 + lam * pseudo
    if not (eps < 0.01 and dp > 0.0):
        return -math.inf, math.inf
    top = ldata - 2.0 * x * sq + 2.0 * math.log1p(lam * pseudo)
    pr = pseudo / dp
    nr = max(math.sqrt(sr2) - abs(shift) * math.sqrt(sq2), 0.0) / (1.0 + eps)
    h = nr * nr + pr * pr
    if not _TINY <= h < math.inf:
        return -math.inf, math.inf
    low = top - 2.0 * x * x * sq2 / (1.0 - eps)
    if not upper:
        return low, math.inf
    g = (abs(sr - shift * sq + pr) + eps / (1.0 - eps)
         * (math.sqrt(n) * math.sqrt(sr2) + abs(shift) * sq))
    delta = g / math.sqrt(h)
    high = top - 2.0 * (delta + math.log1p(-delta)) if delta < 1.0 else math.inf
    return low, high


def _certify(v: np.ndarray, s: _Pass | None, theta: float, adjusted: bool,
             lam: float | None, target: float) -> tuple[float, float]:
    """Bound the log-ratio at theta on the side of ``target``, from the sums s
    of one pass at (theta, lam).

    A lower bound above the target means not covered, an upper bound at or
    below it covered (``_bounds`` at the pass's own theta).  Returns the
    bound that decides, and the Newton step lam + g / h as the next warm
    start.  Falls back to ``_profile``, and returns what it returns, when
    there is no pass (lam is None, or the pass was refused) or when the
    bounds straddle the target.
    """
    if s is not None:
        low, high = _bounds(s, theta)
        if low > target or high <= target:
            pr = s.pseudo / (1.0 + lam * s.pseudo)
            return low if low > target else high, lam + (s.sr + pr) / (s.sr2 + pr * pr)
    return _profile(v, theta, adjusted, lam)


def _as_kind(s: _Pass, adjusted: bool, mean: float) -> _Pass | None:
    """The pass s, at the same (theta, lam), for the kind ``adjusted``, in O(1).

    The data sums are the same for EL and AEL; an EL pass gains AEL's
    pseudo-deviation -a_n (mean - theta), with ``mean`` the mean of v, and
    any other pass is returned as it is (no kind is seeded by an AEL pass
    but TAEL).  None when lam is not admissible for the pseudo-deviation.
    """
    if not adjusted or s.a > 0.0:
        return s
    theta, lam, n = s[:3]
    a = adjustment_factor(n)
    pseudo = -a * (mean - theta)
    if not 1.0 + lam * pseudo > 0.0:
        return None
    return _Pass(theta, lam, n, a, pseudo, *s[5:])  # s[5:]: dmin and the data sums


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
    until theta lies strictly inside (lo, hi) and every d stays positive.
    Returns the new theta and lam and the length of the full theta step, or
    None when the Jacobian is singular or not finite, or the step needs
    more than _MAX_HALVINGS halvings.
    """
    theta, lam, _, a, pseudo, _, ldata, sr, sr2, sq, sq2 = s
    dp = 1.0 + lam * pseudo
    pr = pseudo / dp
    f1 = sr + pr
    f2 = ldata + 2.0 * math.log1p(lam * pseudo) - target
    # products, not ** 2: a float power raises OverflowError where * gives inf
    a11 = -sr2 - pr * pr
    a12 = a / (dp * dp) - sq2
    a22 = 2.0 * lam * (a / dp - sq)
    det = a11 * a22 - 2.0 * f1 * a12
    if not (math.isfinite(det) and det != 0.0):
        return None
    dlam = (a12 * f2 - a22 * f1) / det
    dtheta = (2.0 * f1 * f1 - a11 * f2) / det
    full = abs(dtheta)
    h0, h1 = hull
    for _ in range(_MAX_HALVINGS + 1):
        th, lm = theta + dtheta, lam + dlam
        if (lo < th < hi and 1.0 + lm * (h0 - th) > 0.0 and 1.0 + lm * (h1 - th) > 0.0
                and 1.0 + lm * (pseudo + a * dtheta) > 0.0):
            return th, lm, full
        dtheta *= 0.5
        dlam *= 0.5
    return None


def _joint_step(s: _Pass | None, target: float, lo: float, hi: float,
                hull: tuple[float, float]) -> tuple[float, float, float, _Pass] | None:
    """The joint step from the sums s of one pass (``_pass``; None when it
    was refused): the Newton step on them towards an interval endpoint
    (``_newton``), as the new theta and lam and the length of the full theta
    step, and s; None when there is no pass or ``_newton`` takes no step."""
    step = None if s is None else _newton(s, target, lo, hi, hull)
    return None if step is None else (*step, s)


def _search_side(v: np.ndarray, adjusted: bool, hull: tuple[float, float], target: float,
                 theta_hat: float, var: float, bound: float, seed: tuple,
                 inner: float | None = None) -> Generator[tuple, _Pass | None, tuple]:
    """Locate the crossing l(theta) = target between theta_hat and bound.

    ``bound``, the hull edge (EL) or an infinity (AEL), lies beyond the
    crossing.  ``seed`` is (start, lam, sums): joint steps run from
    ``start`` and the Lagrange warm start ``lam`` (a cold start when None),
    and ``sums``, the joint pass that closed a seed side or None, gives
    step 0, at no pass over the data, when ``_newton`` takes it.
    ``inner``, a point known to be covered, is the inner edge of the first
    bracket, theta_hat by default.  Joint steps run until a pass's bounds
    close the side or the steps converge or stall; certified steps then go
    on from their theta and lam (see the module docstring).  Returns the
    side as the next kind's seed, (the inner, covered, edge of the final
    bracket, the last lam, the joint pass whose bounds closed the side or
    None when certified steps closed it), and the steps it took.  A
    coroutine: each step yields the pass it needs as (theta, lam), and is
    sent ``_pass``'s answer (see "Batched passes").  A cold start's sums
    come from theta_hat and ``var``, the variance of v about it; one not
    strictly inside the search range, or whose ``_cold_lam`` is None, takes
    no pass and goes to the certified steps.
    """
    inner = theta_hat if inner is None else inner
    hull_w = hull[1] - hull[0]
    slack = 1e-15 * hull_w  # the absolute part of every stopping tolerance
    out = math.copysign(1.0, bound - theta_hat)
    half = out * 0.499
    lo, hi = min(theta_hat, bound), max(theta_hat, bound)
    theta, lam, sums = seed
    if not lo < theta < hi:  # the start is beyond the bound or rounds onto theta_hat
        theta = 0.5 * (theta_hat + bound) if math.isfinite(bound) else theta_hat + out * hull_w
        lam = None  # a seeded multiplier belongs to the seeded start
    if lam is None and lo < theta < hi:
        n, dev = v.size, theta_hat - theta
        pseudo = -adjustment_factor(n) * dev if adjusted else 0.0
        lam = _cold_lam(theta, hull, pseudo, n * dev, n * (var + dev * dev))
    # a seed's pass, as a pass of this kind, gives step 0, which needs no
    # pass of its own; its bounds may even close the side
    sums = None if sums is None else _as_kind(sums, adjusted, theta_hat)
    nxt = None if sums is None else _newton(sums, target, min(inner, bound),
                                            max(inner, bound), hull)
    probe = False  # whether the first certified step probes beside a converged root
    step = prev_step = math.inf
    for passes in range(1 if nxt is None else 0, _MAX_PASSES + 1):
        if passes:
            s = None if lam is None else (yield theta, lam)
            nxt = _joint_step(s, target, lo, hi, hull)
            # a joint step that must be halved too often, or that is longer
            # than half of each of the two before it, has stalled
            if nxt is None or nxt[2] > 0.5 * max(step, prev_step):
                break
            theta, lam, moved, sums = nxt
            prev_step, step = step, moved
        else:  # a step from a seed's pass does not count towards a stall
            theta, lam, moved = nxt
        # the pass bounds l just inside and just beyond the new theta;
        # 0.499, not 0.5, keeps the two points within one stopping
        # tolerance of each other after rounding.  Only the lower bound
        # beyond and the upper bound inside decide, the cheaper first
        tol = 1e-8 * abs(theta) + slack
        near, far = theta - half * tol, theta + half * tol
        if (lo < near < hi and _bounds(sums, far, False)[0] > target
                and _bounds(sums, near)[1] <= target):
            return (near, lam, sums), passes
        probe = moved <= tol
        if probe:
            break
    return (yield from _certified(v, adjusted, hull, target, theta_hat, bound, inner, theta,
                                  lam, probe, passes))


def _certified(v: np.ndarray, adjusted: bool, hull: tuple[float, float], target: float,
               theta_hat: float, bound: float, inner: float, theta: float, lam: float | None,
               probe: bool, passes: int) -> Generator[tuple, _Pass | None, tuple]:
    """The certified steps of ``_search_side``, from where its joint steps
    stopped: their theta and lam, the inner bracket edge, whether the first
    certified step probes beside a converged root, and the steps taken.  The
    outer edge is still ``bound``, as only these steps move the bracket.  A
    coroutine, as ``_search_side`` is; returns what it returns."""
    outer = bound
    hull_w = hull[1] - hull[0]
    slack = 1e-15 * hull_w
    out = math.copysign(1.0, bound - theta_hat)
    for passes in range(passes + 1, _MAX_PASSES + 1):
        s = None if lam is None else (yield theta, lam)
        try:
            val, lam = _certify(v, s, theta, adjusted, lam, target)
        except ConvexHullViolation:  # outside the EL hull
            val = math.inf
        if val > target:
            outer = theta
        elif (theta - inner) * out > 0.0:  # covered, and not inside a seeded inner edge
            inner = theta
        # an infinite outer keeps the bracket open but must not make tol infinite
        edge = outer if math.isfinite(outer) else inner
        tol = 1e-8 * max(abs(inner), abs(edge)) + slack
        if abs(outer - inner) <= tol:
            return (inner, lam, None), passes
        if probe:
            # the joint root is certified by a point just beyond it if it
            # is covered, and just inside it if it is not
            probe = False
            gap = 0.5 * (1e-8 * abs(theta) + slack)
            theta += out * gap if val <= target else -out * gap
            if (theta - inner) * (outer - theta) > 0.0:
                continue
        if math.isfinite(outer):
            theta = 0.5 * (inner + outer)
        else:  # no point above the target seen yet on an AEL side: step outwards
            theta = inner + out * max(abs(inner - theta_hat), hull_w)
    side = "lower" if bound < theta_hat else "upper"
    raise LorenzELError(
        f"{side} endpoint search did not converge in {_MAX_PASSES} steps "
        f"(bracket [{min(inner, outer):.17g}, {max(inner, outer):.17g}])"
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
    TypeError
        When t or alpha is not a real number.
    DomainError
        When t or alpha lies outside (0, 1).
    BracketFailure
        When an AEL (TAEL) statistic is bounded at or below the critical
        value, so that the confidence set is the whole line; this is
        decided before any pass over the data.
    DegenerateVariance, NonFinite
        When the scale factor is undefined, or over- or underflows, for (s, t).
    LorenzELError
        When an endpoint search exhausts its budget of steps (the message
        names the side), or a multiplier does not converge.
    """
    kind = _kind(kind)
    crit = chi2_crit(alpha)
    v, *setup = _setup(s, _check_t(t))
    # a copy of v, which is kept in the sample's memo, as the one row to scale
    cis = next(_chunk_intervals((kind,), np.array(v, ndmin=2), [setup], crit,
                                1.0 - float(alpha)))
    if isinstance(cis[0], Exception):
        raise cis.pop()  # popped, so that this frame, in its traceback, does not hold it
    return cis[0]


# The kind whose endpoints and multipliers, on the same truncation, start
# each kind's search; for TEL and TAEL they are also the inner bracket edges
# (see "Seeded starts" above).
_SEEDS = {VariantKind.AEL: VariantKind.EL, VariantKind.TEL: VariantKind.EL,
          VariantKind.TAEL: VariantKind.AEL}


# Values one array pass covers at most: the sides of a group, of size n,
# share a pass _PASS_VALUES // n at a time, and the ci command stacks as
# many of its t, and at least one, in a group.  A pass shared by 8 sides costs
# 1.6x less than their passes one at a time at n = 500, and one shared by 32
# sides 3.5x less at n = 100; past about 16,000 values a pass leaves the
# cache and costs more.  A pass holds three arrays of this size (the
# deviations, their products and numpy's buffer for a broadcast column),
# 96 KB, next to a chunk's own arrays.
_PASS_VALUES = 4096


# Sides a group needs for its joint steps to run in lockstep (``_lockstep``);
# smaller groups run each side's joint steps as scalar code in its coroutine.
# A lockstep round costs about as much at 8 sides as at 72, so it pays only
# in large groups: over all four kinds of one t, lockstep takes as long as the
# coroutines at about 46 sides at n = 50 and at about 34 sides at n = 300,
# 1.9x (1.5x) as long at 16 sides and 0.82x (0.77x) as long at 72.
_LOCKSTEP_SIDES = 40


def _log1p(z: np.ndarray) -> np.ndarray:
    """math.log1p of each element: np.log1p differs from it in the last bit
    on a few percent of inputs, so the scalar steps' bits need the scalar
    function."""
    return np.fromiter(map(math.log1p, z.tolist()), float, len(z))


def _lane_dmin(p: np.ndarray, hull: np.ndarray, adjusted: bool) -> np.ndarray:
    """``_dmin`` at each lane of a pass, the fields of ``_Pass`` as rows over
    the lanes, with sum(w) in the dmin row and the hull's ends as the two
    rows of ``hull``, elementwise in the same operations: sets the
    pseudo-deviation and dmin rows and returns whether each lane is
    admitted."""
    theta, lam, n, a = p[:4]
    p[4] = -a * (p[5] / n) if adjusted else 0.0
    e = hull - theta  # e0 and e1
    d = 1.0 + lam * e
    ok = (d > 0.0).all(0) & (1.0 + lam * p[4] > 0.0)
    # where d0 and d1 are positive, the two quotients are not NaN, and
    # np.minimum and np.maximum take Python's min and max; -e0 / d0 is
    # -(e0 / d0) exactly
    p[5] = dmin = np.minimum(d[0], d[1])
    r = e / d
    r_end = np.maximum(-r[0], r[1])
    ok &= ~((n * r_end * r_end > 1e300) | (n > 1e300 * dmin * dmin))
    return ok


def _lane_newton(p: np.ndarray, a: float, adjusted: bool, target: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, hull: np.ndarray) -> tuple:
    """``_newton`` at each lane, from the pass p, the fields of ``_Pass`` as
    rows over the lanes, with a = a_n for AEL and 0 for EL and the hull's
    ends as the two rows of ``hull``: the lanes that step, and their new
    theta and lam and the length of the full theta step.  The same
    operations, in the same order, elementwise, so the same bits."""
    theta, lam, _, _, pseudo, _, ldata, sr, sr2, sq, sq2 = p
    z = lam * pseudo
    dp = 1.0 + z
    pr = pseudo / dp
    f1 = sr + pr
    # log1p(+-0) is +-0, the EL pseudo-deviation's term
    f2 = ldata + 2.0 * (_log1p(z) if adjusted else z) - target
    a11 = -sr2 - pr * pr
    a12 = a / (dp * dp) - sq2
    a22 = 2.0 * lam * (a / dp - sq)
    f12 = 2.0 * f1
    det = a11 * a22 - f12 * a12
    dlam = (a12 * f2 - a22 * f1) / det
    dtheta = (f12 * f1 - a11 * f2) / det
    full = np.abs(dtheta)
    # the full step at every lane, then the halvings where it is refused
    th, lm = theta + dtheta, lam + dlam
    finite = np.isfinite(det) & (det != 0.0)
    ok = (finite & (lo < th) & (th < hi) & (1.0 + lm * (hull - th) > 0.0).all(0)
          & (1.0 + lm * (pseudo + a * dtheta) > 0.0))
    todo = np.flatnonzero(finite & ~ok)
    for _ in range(_MAX_HALVINGS):
        if not len(todo):
            break
        dtheta[todo] *= 0.5
        dlam[todo] *= 0.5
        t, l, d = theta[todo] + dtheta[todo], lam[todo] + dlam[todo], dtheta[todo]
        good = ((lo[todo] < t) & (t < hi[todo]) & (1.0 + l * (hull[:, todo] - t) > 0.0).all(0)
                & (1.0 + l * (pseudo[todo] + a * d) > 0.0))
        th[todo], lm[todo], ok[todo] = t, l, good
        todo = todo[~good]
    return ok, th, lm, full


def _lane_bounds(p: np.ndarray, n: int, a: float, adjusted: bool, far: np.ndarray,
                 near: np.ndarray) -> tuple:
    """``_bounds`` at each lane, from the pass p as in ``_lane_newton``: the
    lower bound at ``far`` and the upper bound at ``near``, the two that
    decide whether a joint pass closes its side.  The same operations, in
    the same order, elementwise; the shared ones over both points at once."""
    theta0, lam, _, _, pseudo, dmin, ldata, sr, sr2, sq, sq2 = p
    shift = np.stack((far, near)) - theta0
    x = lam * shift
    eps = np.abs(x) / dmin
    pseudo = pseudo + a * shift
    z = lam * pseudo
    dp = 1.0 + z
    ok = (eps < 0.01) & (dp > 0.0)
    if adjusted:  # log1p(+-0) is +-0, the EL pseudo-deviation's term
        z[ok] = _log1p(z[ok])
    x2 = 2.0 * x
    top = ldata - x2 * sq + 2.0 * z
    pr = pseudo / dp
    root, size = np.sqrt(sr2), np.abs(shift)
    # np.maximum is Python's max here but for the sign of a zero, which
    # nr * nr drops
    nr = np.maximum(root - size * np.sqrt(sq2), 0.0) / (1.0 + eps)
    h = nr * nr + pr * pr
    ok &= (_TINY <= h) & (h < math.inf)
    rest = 1.0 - eps
    low = top[0] - x2[0] * x[0] * sq2 / rest[0]
    low[~ok[0]] = -math.inf
    shift, pr, eps, rest, size, h, ok, top = (f[1] for f in (shift, pr, eps, rest, size, h, ok,
                                                             top))
    g = np.abs(sr - shift * sq + pr) + eps / rest * (math.sqrt(n) * root + size * sq)
    delta = g / np.sqrt(h)
    high = np.full(len(delta), math.inf)
    sure = np.flatnonzero(ok & (delta < 1.0))
    high[sure] = top[sure] - 2.0 * (delta[sure] + _log1p(-delta[sure]))
    return low, high


def _lockstep(V: np.ndarray, adjusted: bool, plans: list, ends: list) -> list:
    """The joint steps of every side of ``plans``, as ``_drive`` takes them,
    run as array code in lockstep: a round makes one pass at every side
    still in its joint steps, then takes one Newton step, stall test and
    close check over all of them.  Puts the end of each side that closes in
    a joint pass in ``ends``, at the side's index, and returns the others, as
    (index, row of V, ``_certified``, its arguments after v and adjusted),
    from exactly the state where ``_search_side``'s joint steps stop.

    Every step is ``_search_side``'s, bit for bit: ``_cold_lam``,
    ``_as_kind``, ``_newton``, ``_dmin`` and ``_bounds`` are taken in their
    own operations and order, elementwise (``_lane_newton``,
    ``_lane_bounds``, ``_lane_dmin``), with the scalar ``math.log1p`` at
    each lane.
    """
    n = V.shape[1]
    a = adjustment_factor(n) if adjusted else 0.0
    width = max(_PASS_VALUES // n, 1)
    m = len(plans)
    rows = np.array([row for row, _ in plans])
    hull, target, theta_hat, var, bound, seed, inner = zip(*(args for _, args in plans))
    start, lam0, sums0 = zip(*seed)
    inner = np.array([th if edge is None else edge for th, edge in zip(theta_hat, inner)])
    rest = []  # the sides that go on to certified steps

    def certify(lanes, theta, lam, probe, passes):
        for i, t, l in zip(lanes.tolist(), theta.tolist(), lam.tolist()):
            rest.append((i, plans[i][0], _certified, (
                hull[i], target[i], theta_hat[i], bound[i], float(inner[i]), t,
                None if math.isnan(l) else l, probe, passes)))

    with np.errstate(all="ignore"):
        h0, h1 = np.array(hull).T
        tg, th_hat, b, theta = map(np.array, (target, theta_hat, bound, start))
        hull_w = h1 - h0
        out = np.copysign(1.0, b - th_hat)
        # lo and hi are only compared, so a zero's sign does not matter
        lo, hi = np.minimum(th_hat, b), np.maximum(th_hat, b)
        lam = np.array([math.nan if x is None else x for x in lam0])
        # a start beyond the bound or on theta_hat moves, without its multiplier
        away = ~((lo < theta) & (theta < hi))
        if away.any():
            theta[away] = np.where(np.isfinite(b), 0.5 * (th_hat + b),
                                   th_hat + out * hull_w)[away]
            lam[away] = math.nan
        cold = np.flatnonzero(np.isnan(lam) & (lo < theta) & (theta < hi))
        if len(cold):  # _cold_lam, at each cold lane
            dev = th_hat[cold] - theta[cold]
            pseudo = -a * dev if adjusted else np.zeros(len(dev))
            lc = (n * dev + pseudo) / (n * (np.array(var)[cold] + dev * dev) + pseudo * pseudo)
            e0, e1 = h0[cold] - theta[cold], h1[cold] - theta[cold]
            for _ in range(_MAX_HALVINGS):
                ok = (1.0 + lc * e0 > 0.0) & (1.0 + lc * e1 > 0.0) & (1.0 + lc * pseudo > 0.0)
                lam[cold[ok]] = lc[ok]
                cold, lc, e0, e1, pseudo = (x[~ok] for x in (cold, lc, e0, e1, pseudo))
                if not len(cold):
                    break
                lc *= 0.5
        # per lane: theta, lam, its last two joint steps, the search range,
        # target, hull, the absolute tolerance and the signed 0.499, then the
        # fields of the pass of its last step
        st = np.empty((22, m))
        st[:2], st[2:4] = (theta, lam), math.inf
        st[4:11] = lo, hi, tg, h0, h1, 1e-15 * hull_w, out * 0.499
        st[13], st[14] = n, a
        # step 0, at the lanes with a seed's pass, which _as_kind makes a
        # pass of this kind: an EL pass gains AEL's pseudo-deviation
        live = np.array([i for i, s in enumerate(sums0) if s is not None], dtype=np.intp)
        moved = np.empty(0)  # per lane stepped, the length of its full theta step
        if len(live):
            p = np.fromiter(itertools.chain.from_iterable(sums0[i] for i in live.tolist()),
                            float, 11 * len(live)).reshape(len(live), 11).T
            if adjusted:
                el = np.flatnonzero(~(p[3] > 0.0))
                p[3, el], p[4, el] = a, -a * (th_hat[live[el]] - p[0, el])
                good = np.ones(len(live), bool)
                good[el] = 1.0 + p[1, el] * p[4, el] > 0.0
                live, p = live[good], p[:, good]
            edge, bl = inner[live], b[live]
            stepped, th, lm, moved = _lane_newton(p, a, adjusted, tg[live],
                                                  np.minimum(edge, bl), np.maximum(edge, bl),
                                                  st[7:9, live])
            live, moved = live[stepped], moved[stepped]
            st[:2, live] = th[stepped], lm[stepped]
            st[11:, live] = p[:, stepped]
        # the lanes with no multiplier and no step 0: their first joint step
        # is refused before its pass
        first = np.ones(m, bool)
        first[live] = False
        waiting = np.flatnonzero(first & ~np.isnan(st[1]))
        none = np.flatnonzero(first & np.isnan(st[1]))
        certify(none, st[0, none], st[1, none], False, 1)
        state = st[:, live]
        for passes in range(_MAX_PASSES + 1):
            theta, lam, step, prev, lo, hi, tg, _, _, slack, half = state[:11]
            if passes:
                # this round's pass, in pieces of _PASS_VALUES // n lanes,
                # and at least one
                p = state[11:]
                p[:2] = theta, lam
                at = rows[live]
                for i in range(0, len(live), width):
                    part = slice(i, i + width)
                    w = V[at[part]]
                    w -= theta[part, None]
                    if adjusted:  # sum(w), in the dmin row until _lane_dmin
                        np.add.reduce(w, axis=1, out=p[5, part])
                    p[6:, part] = _sums(w, lam[part])
                ok = _lane_dmin(p, state[7:9], adjusted)
                if not ok.all():  # refused passes: no joint step
                    certify(live[~ok], theta[~ok], lam[~ok], False, passes)
                    live, state = live[ok], state[:, ok]
                    theta, lam, step, prev, lo, hi, tg, _, _, slack, half = state[:11]
                stepped, th, lm, moved = _lane_newton(state[11:], a, adjusted, tg, lo, hi,
                                                      state[7:9])
                # a joint step that must be halved too often, or that is
                # longer than half of each of the two before it, has stalled
                # (no step is NaN, so np.maximum is Python's max)
                go = stepped & ~(moved > 0.5 * np.maximum(step, prev))
                if not go.all():
                    certify(live[~go], theta[~go], lam[~go], False, passes)
                    live, state, moved = live[go], state[:, go], moved[go]
                    th, lm = th[go], lm[go]
                state[3] = state[2]
                state[:3] = th, lm, moved
                theta, lam, step, prev, lo, hi, tg, _, _, slack, half = state[:11]
            # the close check and the probe test of _search_side
            tol = 1e-8 * np.abs(theta) + slack
            near, far = theta - half * tol, theta + half * tol
            low, high = _lane_bounds(state[11:], n, a, adjusted, far, near)
            done = (lo < near) & (near < hi) & (low > tg) & (high <= tg)
            if done.any():
                for i, x, l, s in zip(live[done].tolist(), near[done].tolist(),
                                      lam[done].tolist(),
                                      map(_Pass._make, state[11:, done].T.tolist())):
                    ends[i] = (x, l, s), passes
            probe = ~done & (moved <= tol)
            if probe.any():
                certify(live[probe], theta[probe], lam[probe], True, passes)
            keep = ~(done | probe)
            if not keep.all():
                live, state = live[keep], state[:, keep]
            if not passes:  # after step 0, the other lanes join at their first pass
                live = np.concatenate((live, waiting))
                state = np.concatenate((state, st[:, waiting]), axis=1)
            if not len(live):
                break
    # out of steps: _certified raises the budget's error at once
    certify(live, state[0], state[1], False, _MAX_PASSES)
    return rest


def _drive(V: np.ndarray, hulls: list, adjusted: bool, plans: list) -> list:
    """Search each side of ``plans``, (row of V, the arguments of
    ``_search_side`` after v and adjusted), on its row of V, whose hull is in
    ``hulls``; returns, per side, what ``_search_side`` returns or the
    LorenzELError it raised.

    A group of at least ``_LOCKSTEP_SIDES`` sides takes its joint steps in
    lockstep (``_lockstep``), and only its sides that do not close there go
    on as coroutines, from their certified steps; a smaller group runs every
    side as a ``_search_side`` coroutine.  Up to _PASS_VALUES // n
    coroutines, and at least one, are in flight at once, taken in order.
    Each round answers every open request and sends each side its answer:
    three or more in one array pass (``_passes``), fewer each with
    ``_pass``, as a pass shared by two sides costs more than their two
    passes.
    """
    ends = [None] * len(plans)
    if plans and len(plans) >= _LOCKSTEP_SIDES:
        sides = _lockstep(V, adjusted, plans, ends)
    else:
        sides = [(i, row, _search_side, args) for i, (row, args) in enumerate(plans)]
    width = max(_PASS_VALUES // V.shape[1], 1)
    taken = 0  # sides taken up so far
    flight = []  # per side in flight: [index, row, its row of V, hull, coroutine, open request]
    while True:
        while len(flight) < width and taken < len(sides):
            i, row, search, args = sides[taken]
            # each side's coroutine is made when it is taken up
            v = V[row]
            side = search(v, adjusted, *args)
            try:
                flight.append([i, row, v, hulls[row], side, next(side)])
            except StopIteration as stop:
                ends[i] = stop.value
            except LorenzELError as exc:
                ends[i] = exc.with_traceback(None)  # without its traceback, as below
            taken += 1
        if not flight:
            return ends
        lone = len(flight) < 3
        if not lone:
            replies = iter(_passes(V, hulls, adjusted, [(f[1], *f[5]) for f in flight]))
        still = []
        for f in flight:
            i, _, v, hull, side, (theta, lam) = f
            try:
                f[5] = side.send(_pass(v, theta, lam, adjusted, hull) if lone else next(replies))
            except StopIteration as stop:
                ends[i] = stop.value
                continue
            except LorenzELError as exc:
                # kept without its traceback, which holds this frame and so
                # V in a reference cycle with the error
                ends[i] = exc.with_traceback(None)
                continue
            still.append(f)
        flight = still


def _chunk_intervals(kinds: tuple, V: np.ndarray, setups: list, crit: float, level: float,
                     ) -> Iterator[list]:
    """For each kind in ``kinds``, in turn, the interval of each row of V, the
    truncated values of samples of one size, with its (theta_hat, scale
    factor, hull) in ``setups`` (``calibration._setup_from``'s other
    results), given the critical value and the level; in place of an
    interval, the LorenzELError that ruled it out.  V is taken over: it is
    scaled in place.

    Lazy: a kind is searched, on every row at once, when its list is asked
    for.  Its searches are one group: ``_drive`` runs both sides of every
    row together, so that one array pass answers many of them, and a large
    group takes its joint steps in lockstep (see "Batched passes" and
    "Lockstep joint steps").  Each search starts from its ``_SEEDS``
    kind's sides on the same row, when that kind came earlier in ``kinds``
    and produced an interval there.
    """
    n = V.shape[1]
    # each search runs on its row scaled by 2^-k, whose largest size lies in
    # [0.5, 1); the seeds stay in these units
    rows = []  # per row: k, and theta_hat, the scale factor, sigma_p^2 and the hull, scaled
    for v, (theta_hat, scale, hull) in zip(V, setups):
        k = math.frexp(max(abs(hull[0]), abs(hull[1])))[1]
        np.ldexp(v, -k, out=v)
        rows.append((k, math.ldexp(theta_hat, -k), scale, math.ldexp(scale.sigma_p_sq, -2 * k),
                     (math.ldexp(hull[0], -k), math.ldexp(hull[1], -k))))
    hulls = [row[4] for row in rows]
    # per row, per kind inverted so far, its sides as seeds: (endpoint, lam, closing pass)
    seeds = [{} for _ in rows]
    for kind in kinds:
        adjusted, transformed, source = kind.adjusted, kind.transformed, _SEEDS.get(kind)
        cis = [None] * len(rows)
        # per side to search, the lower then the upper side of each row: its
        # row and the arguments of _search_side after v and adjusted
        plans = []
        for j, (k, theta_hat, scale, var, hull) in enumerate(rows):
            # the unscaled log-ratio that r * l (r * T(l) for TEL/TAEL) must not exceed
            target = crit / scale.ratio
            if transformed:
                target = _tel_inverse(target, n)
            if adjusted:
                limit = _ael_limit(n)
                if limit <= target:
                    cis[j] = BracketFailure(
                        f"{kind.value} log-ratio is bounded by l_inf = {limit:.6g} <= its "
                        f"critical value {target:.6g}: the confidence set is the whole line")
                    continue
            # Wald half-width, from l(theta) ~ n (theta - theta_hat)^2 / sigma_p^2
            wald = math.ldexp(math.sqrt(target * scale.sigma_p_sq / n), -k)
            bounds = (-math.inf, math.inf) if adjusted else hull
            seed = seeds[j].get(source)
            # per side, (start, lam, closing pass): the seed's sides, or the Wald points
            starts = seed or ((theta_hat - wald, None, None), (theta_hat + wald, None, None))
            for bound, start in zip(bounds, starts):
                plans.append((j, (hull, target, theta_hat, var, bound, start,
                                  start[0] if seed and transformed else None)))
        ends = _drive(V, hulls, adjusted, plans)
        for i in range(0, len(ends), 2):
            j, lower, upper = plans[i][0], ends[i], ends[i + 1]
            # the lower side's failure first, as if the sides ran in turn
            if isinstance(lower, LorenzELError):
                cis[j] = lower
            elif isinstance(upper, LorenzELError):
                cis[j] = upper
            else:
                seeds[j][kind] = lower[0], upper[0]
                k = rows[j][0]
                cis[j] = ConfidenceInterval(lower=math.ldexp(lower[0][0], k),
                                            upper=math.ldexp(upper[0][0], k), level=level,
                                            kind=kind, iterations=lower[1] + upper[1])
        yield cis


def _t_major(lists: Iterator[list], count: int) -> Iterator[tuple[int, int, list]]:
    """(i, j, list j) for each t index i < ``count`` and each kind j, in (t,
    kind) order, from the kind-major lists of ``_chunk_intervals`` over rows
    stacked t-major, each drawn only when it is needed: at the first t each
    kind follows its own list, and every later t follows the last kind's."""
    drawn = []
    for cis in lists:
        drawn.append(cis)
        if count:
            yield 0, len(drawn) - 1, cis
    for i in range(1, count):
        for j, cis in enumerate(drawn):
            yield i, j, cis
