"""Monte-Carlo harness: bias, MSE, coverage, and interval length.

The cells of one (n, t) pair form a block, the unit of parallel work.
Replication r of a block is drawn and truncated once, from the child
stream of (seed, r), for its point estimate and every method, so the
calibrations are compared on identical samples and nest replication by
replication.  A replication whose interval construction fails is counted
in ``failures`` and left out of the coverage and length denominators,
which count only the replications that produced an interval.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .calibration import _setup, chi2_crit
from .core import VariantKind, point_estimate
from .errors import BracketFailure, ConvexHullViolation, DegenerateVariance, NonFinite
from .income import _fmt, _write_table
from .intervals import _invert
from .populations import Population, SeedSpec, sample, true_ordinate

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "run_experiment",
    "write_results_csv",
]

_DEFAULT_N_GRID = (25, 50, 100, 150, 300, 500)
_DEFAULT_T_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
_ALL_METHODS = (VariantKind.EL, VariantKind.AEL, VariantKind.TEL, VariantKind.TAEL)

# per-replication interval failures that are survivable (counted, not fatal)
_CI_FAILURES = (ConvexHullViolation, DegenerateVariance, BracketFailure, NonFinite)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full factorial design over sample sizes, abscissae, and methods.

    ``methods`` may be empty, in which case only the point estimate is
    tracked (bias/MSE studies without intervals).
    """

    population: Population
    n_grid: tuple = _DEFAULT_N_GRID
    t_grid: tuple = _DEFAULT_T_GRID
    reps: int = 10_000
    alpha: float = 0.05
    methods: tuple = _ALL_METHODS
    seed: SeedSpec = field(default_factory=SeedSpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        object.__setattr__(self, "methods", tuple(VariantKind(m) for m in self.methods))
        if not self.n_grid or min(self.n_grid) < 2:
            raise ValueError("n_grid must be nonempty with every n >= 2")
        if not self.t_grid or not all(0.0 < t < 1.0 for t in self.t_grid):
            raise ValueError("t_grid entries must lie in (0, 1)")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class CellResult:
    """Summary for one (n, t, method) cell; method None means estimate-only."""

    n: int
    t: float
    method: Optional[VariantKind]
    bias: float
    mse: float
    coverage: Optional[float]
    mean_length: Optional[float]
    failures: int


def _block(cfg: ExperimentConfig, n: int, t: float) -> Iterator[CellResult]:
    """The cells of one (n, t) pair, one per method in order (or the
    estimate-only cell), from one draw, one truncation and one estimate per
    replication; each method's search starts from an earlier method's
    endpoints on the same replication where ``intervals._SEEDS`` says so."""
    theta_true = true_ordinate(cfg.population, t)
    draws = (sample(cfg.population, n, cfg.seed, replication=r) for r in range(cfg.reps))
    # per replication, what every method's interval shares: the truncation
    # and its hull, or None when the scale factor is undefined
    setups = []
    estimates = []
    for smp in draws:  # without methods, each sample is estimated and dropped
        setup = None
        if cfg.methods:
            try:
                setup = _setup(smp, t)
            except (DegenerateVariance, NonFinite):
                pass
            setups.append(setup)
        estimates.append(point_estimate(smp, t) if setup is None else setup[1])
    estimates = np.array(estimates)
    bias = float(estimates.mean() - theta_true)
    mse = float(np.mean((estimates - theta_true) ** 2))
    if not cfg.methods:
        yield CellResult(n=n, t=t, method=None, bias=bias, mse=mse,
                         coverage=None, mean_length=None, failures=0)
    crit, level = chi2_crit(cfg.alpha), 1.0 - float(cfg.alpha)
    # per replication, the endpoints of the methods inverted so far, which
    # start the later methods' searches (``intervals._SEEDS``)
    seeds = [{} for _ in setups]
    for method in cfg.methods:
        covered = failures = 0
        length_sum = 0.0
        for setup, seed in zip(setups, seeds):
            if setup is None:
                failures += 1
                continue
            try:
                ci = _invert(method, *setup, crit, level, seed)
            except _CI_FAILURES:
                failures += 1
                continue
            if ci.lower <= theta_true <= ci.upper:
                covered += 1
            length_sum += ci.length
        produced = cfg.reps - failures
        yield CellResult(n=n, t=t, method=method, bias=bias, mse=mse,
                         coverage=covered / produced if produced else math.nan,
                         mean_length=length_sum / produced if produced else math.nan,
                         failures=failures)


def _block_list(cfg: ExperimentConfig, n: int, t: float) -> list[CellResult]:
    """``_block`` as a list, which a worker process can send back."""
    return list(_block(cfg, n, t))


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   progress: Optional[Callable[[int, int, CellResult], None]] = None,
                   ) -> list[CellResult]:
    """Run every cell of the design, in deterministic (n, t, method) order.

    ``workers`` > 1 distributes the (n, t) pairs over processes, never
    more processes than pairs; results are identical to the sequential
    schedule because streams depend only on (seed, replication).
    ``progress(done, total, result)`` is called for each cell in design
    order, as soon as it and every cell before it are done.  Memory is
    O(reps * n) per process, one block's samples (40 MB at n = 500,
    10**4 reps); O(n) for an estimate-only design.
    """
    ns, ts = zip(*[(n, t) for n in cfg.n_grid for t in cfg.t_grid])
    total = len(ns) * max(len(cfg.methods), 1)
    results: list[CellResult] = []
    if workers > 1:
        # imported here, so that a sequential run and the other commands
        # never load the process pool
        from concurrent.futures import ProcessPoolExecutor
    # a pool may start all its processes at the first submit
    with (ProcessPoolExecutor(max_workers=min(workers, len(ns))) if workers > 1
          else nullcontext()) as pool:
        blocks = (pool.map(_block_list, repeat(cfg), ns, ts) if pool
                  else map(_block, repeat(cfg), ns, ts))
        for done, res in enumerate(chain.from_iterable(blocks), 1):
            results.append(res)
            if progress is not None:
                progress(done, total, res)
    return results


def write_results_csv(results: Iterable[CellResult], cfg: ExperimentConfig,
                      dest, precision: Optional[int] = None) -> None:
    """Write one CSV row per cell: population,n,t,method,bias,mse,coverage,
    mean_length,failures.  ``dest`` is a path or a text file object ('-'
    means stdout); ``precision`` rounds the float columns (None = full).
    A path is opened before the first result is drawn from ``results``."""
    pop = str(cfg.population)
    _write_table(dest, ["population", "n", "t", "method", "bias", "mse",
                        "coverage", "mean_length", "failures"],
                 ([pop, r.n, f"{r.t:.10g}", r.method.value if r.method is not None else "",
                   _fmt(r.bias, precision), _fmt(r.mse, precision),
                   _fmt(r.coverage, precision), _fmt(r.mean_length, precision),
                   r.failures] for r in results))
