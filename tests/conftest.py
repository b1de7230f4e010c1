"""Shared fixtures, a tracker of search sides, and an independent
confidence-interval oracle.

The oracle rebuilds every quantity from scratch on top of numpy and scipy
primitives (chi2.ppf for the critical value, a dense grid plus brentq
refinement for the endpoints), so it shares no algorithmic path with the
library's Newton/bisection machinery.  The multiplier is found by brentq
at single points and by bisection, for the whole grid at once, on the grid.
"""
from __future__ import annotations

import gc
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chi2

from lorenzel import intervals, simulation
from lorenzel.calibration import _stacked_setups


def oracle_quantile_index(n: int, t: float) -> int:
    return min(max(math.ceil(round(n * t, 9)), 1), n)


def oracle_log_ratio(V: np.ndarray, theta: float, kind: str, n: int) -> float:
    """Log-likelihood ratio of any calibration, via scipy's brentq."""
    w = V - theta
    if kind in ("ael", "tael"):
        a = max(1.0, 0.5 * math.log(n))
        w = np.append(w, -a * w.mean())
    if not w.any():
        return 0.0
    if w.min() >= 0.0 or w.max() <= 0.0:
        return math.inf
    lo = -1.0 / w.max()
    hi = -1.0 / w.min()
    span = hi - lo
    g = lambda lam: float(np.mean(w / (1.0 + lam * w)))
    lam = brentq(g, lo + 1e-11 * span, hi - 1e-11 * span, xtol=1e-300, rtol=1e-15,
                 maxiter=300)
    val = max(2.0 * float(np.sum(np.log1p(lam * w))), 0.0)
    if kind in ("tel", "tael"):
        val = val * max(1.0 - val / n, 0.5)
    return val


def oracle_grid_log_ratios(V: np.ndarray, thetas: np.ndarray, kind: str, n: int) -> np.ndarray:
    """``oracle_log_ratio`` at every theta of a grid at once.

    The estimating equation mean(w / (1 + lam w)) decreases in lam, so each
    row's multiplier is bisected on brentq's bracket, all rows together;
    100 halvings narrow it to 2^-100 of its width.  The log-ratio is
    stationary in lam at the root, so the bisection's error in lam reaches
    it only squared.  A row whose bracket ends do not change sign goes to
    the scalar ``oracle_log_ratio``.
    """
    W = V[None, :] - thetas[:, None]
    if kind in ("ael", "tael"):
        a = max(1.0, 0.5 * math.log(n))
        W = np.hstack([W, -a * W.mean(axis=1, keepdims=True)])
    zero = ~W.any(axis=1)
    wmin, wmax = W.min(axis=1), W.max(axis=1)
    inside = ~zero & (wmin < 0.0) & (wmax > 0.0)
    W = W[inside]
    lo, hi = -1.0 / wmax[inside], -1.0 / wmin[inside]
    span = hi - lo
    lo, hi = lo + 1e-11 * span, hi - 1e-11 * span

    def g(lam: np.ndarray) -> np.ndarray:
        return np.mean(W / (1.0 + lam[:, None] * W), axis=1)

    bracketed = (g(lo) > 0.0) & (g(hi) < 0.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        up = g(mid) > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    lam = 0.5 * (lo + hi)
    val = np.maximum(2.0 * np.sum(np.log1p(lam[:, None] * W), axis=1), 0.0)
    if kind in ("tel", "tael"):
        val = val * np.maximum(1.0 - val / n, 0.5)
    out = np.full(thetas.size, math.inf)
    out[zero] = 0.0
    out[inside] = val
    for i in np.flatnonzero(inside)[~bracketed]:
        out[i] = oracle_log_ratio(V, float(thetas[i]), kind, n)
    return out


def oracle_ci(values, t: float, alpha: float, kind: str = "el",
              points: int = 4097) -> tuple[float, float]:
    """Endpoints of the scaled-ratio confidence set, grid + brentq."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    psi = x[oracle_quantile_index(n, t) - 1]
    V = np.where(x <= psi, x, 0.0)
    theta_hat = V.sum() / n
    shifted = np.where(x <= psi, x - psi, 0.0)
    ratio = V.var() / shifted.var()
    crit = float(chi2.ppf(1.0 - alpha, 1))
    hull_w = V.max() - V.min()
    if kind in ("el", "tel"):
        dom = (V.min() + 1e-12 * hull_w, V.max() - 1e-12 * hull_w)
    else:
        dom = (theta_hat - 10.0 * hull_w, theta_hat + 10.0 * hull_w)

    def f(th: float) -> float:
        val = oracle_log_ratio(V, th, kind, n)
        return (ratio * val - crit) if math.isfinite(val) else math.inf

    grid = np.linspace(dom[0], dom[1], points)
    vals = ratio * oracle_grid_log_ratios(V, grid, kind, n) - crit
    # bisection and brentq agree to about 1e-14 relative; where that could
    # tip a verdict, the scalar brentq value decides
    for i in np.flatnonzero(np.abs(vals) <= 1e-9 * crit):
        vals[i] = f(grid[i])
    inside = np.flatnonzero(vals <= 0.0)
    assert inside.size > 0, "oracle grid saw no acceptance region"
    i_lo, i_hi = int(inside[0]), int(inside[-1])
    if i_lo > 0 and math.isfinite(vals[i_lo - 1]):
        lower = brentq(f, grid[i_lo - 1], grid[i_lo], xtol=1e-14, maxiter=300)
    elif i_lo > 0:  # +inf just outside: bisect the finite/infinite boundary
        lower = _edge_bisect(f, grid[i_lo - 1], grid[i_lo])
    else:
        lower = grid[0]
    if i_hi < points - 1 and math.isfinite(vals[i_hi + 1]):
        upper = brentq(f, grid[i_hi], grid[i_hi + 1], xtol=1e-14, maxiter=300)
    elif i_hi < points - 1:
        upper = _edge_bisect(f, grid[i_hi + 1], grid[i_hi])
    else:
        upper = grid[-1]
    return float(lower), float(upper)


def _edge_bisect(f, bad: float, good: float) -> float:
    for _ in range(200):
        if abs(bad - good) <= 1e-13 * max(1.0, abs(good)):
            break
        mid = 0.5 * (bad + good)
        if f(mid) <= 0.0:
            good = mid
        else:
            bad = mid
    return good


def random_positive_data(rng: np.random.Generator, n: int) -> np.ndarray:
    """Income-like draws from one of three right-skewed shapes."""
    which = int(rng.integers(0, 3))
    if which == 0:
        return rng.weibull(1.5, n) * 2.0
    if which == 1:
        return rng.chisquare(3.0, n)
    return rng.lognormal(0.5, 0.6, n)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


class Sides:
    """Which side of the endpoint search runs.  ``intervals._search_side`` is
    wrapped so that, while a side runs, ``current`` is its number, in the
    order the sides were made, and ``requests[i]`` holds the passes side i
    asked for, as (theta, lam), in order.  ``_drive`` interleaves the sides
    of a group, so a hook charges what it sees to ``current``."""

    def __init__(self, monkeypatch):
        self.current = None
        self.requests = []
        true_search = intervals._search_side

        def search(*args):
            me = len(self.requests)
            self.requests.append([])
            side = true_search(*args)
            reply = None
            while True:
                self.current = me
                try:
                    request = side.send(reply)
                except StopIteration as stop:
                    return stop.value
                self.requests[me].append(request)
                reply = yield request

        monkeypatch.setattr(intervals, "_search_side", search)


@pytest.fixture
def sides(monkeypatch) -> Sides:
    return Sides(monkeypatch)


def seeded_intervals(kinds, s, t: float, crit: float, level: float = 0.95):
    """The interval of each kind of ``kinds``, in turn and lazily, or the
    LorenzELError in its place, on the one set-up of the Sample s at t, each
    kind seeded by an earlier one's sides, as ``ci`` and ``run_experiment``
    invert them.  s must have a set-up at t."""
    V, setups, _ = _stacked_setups([s.values], (t,))
    return (cis[0] for cis in intervals._chunk_intervals(tuple(kinds), V, setups, crit, level))


def record_chunks(monkeypatch, record) -> None:
    """Patch the simulation so that ``record`` is called with the kind and
    each interval it inverts, or the failure in its place, in (n, t, kind,
    replication)
    order, for designs whose every n is one chunk.  A chunk sets its rows up
    t-major (``_stacked_setups``) and inverts them kind by kind, so its
    intervals are put back in that order once its last kind is done.  A
    replication whose set-up fails is not recorded."""
    true_stack, true_chunk = simulation._stacked_setups, simulation._chunk_intervals
    latest = []  # the row index of the last stack set up

    def stacked(*args):
        out = true_stack(*args)
        latest[:] = [out[2]]
        return out

    def chunk(kinds, *args):
        (rows,), drawn = latest, []
        for cis in true_chunk(kinds, *args):
            drawn.append(cis)
            yield cis
        for at in rows:
            for kind, cis in zip(kinds, drawn):
                for row in at:
                    if isinstance(row, int):
                        record(kind, cis[row])

    monkeypatch.setattr(simulation, "_stacked_setups", stacked)
    monkeypatch.setattr(simulation, "_chunk_intervals", chunk)


def garbage_cycles(run) -> int:
    """The objects that only the cycle collector frees after a call of
    ``run``, with collection off during it; a first call fills the caches."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()
