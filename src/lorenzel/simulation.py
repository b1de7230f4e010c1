"""Monte-Carlo harness: bias, MSE, coverage, and interval length.

Replication r of every cell draws from the same child stream, derived
only from (seed, r), so the four calibrations are compared on identical
samples and their coverage indicators nest replication by replication.
A replication whose interval construction fails is counted in
``failures`` and left out of the coverage and length denominators, which
count only the replications that produced an interval.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Optional

import numpy as np

from .core import VariantKind, point_estimate
from .errors import BracketFailure, ConvexHullViolation, DegenerateVariance, NonFinite
from .income import _fmt, _write_table
from .intervals import invert
from .populations import Population, SeedSpec, sample, true_ordinate

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "run_cell",
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


def run_cell(cfg: ExperimentConfig, n: int, t: float,
             method: Optional[VariantKind] = None) -> CellResult:
    """Run all replications of one cell and summarize."""
    theta_true = true_ordinate(cfg.population, t)
    estimates = np.empty(cfg.reps)
    covered = 0
    failures = 0
    length_sum = 0.0
    for r in range(cfg.reps):
        smp = sample(cfg.population, n, cfg.seed, replication=r)
        estimates[r] = point_estimate(smp, t)
        if method is None:
            continue
        try:
            ci = invert(method, smp, t, cfg.alpha)
        except _CI_FAILURES:
            failures += 1
            continue
        if ci.lower <= theta_true <= ci.upper:
            covered += 1
        length_sum += ci.length
    bias = float(estimates.mean() - theta_true)
    mse = float(np.mean((estimates - theta_true) ** 2))
    if method is None:
        coverage = mean_length = None
    else:
        produced = cfg.reps - failures
        coverage = covered / produced if produced else math.nan
        mean_length = length_sum / produced if produced else math.nan
    return CellResult(n=n, t=t, method=method, bias=bias, mse=mse,
                      coverage=coverage, mean_length=mean_length, failures=failures)


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   progress: Optional[Callable[[int, int, CellResult], None]] = None,
                   ) -> list[CellResult]:
    """Run every cell of the design, in deterministic (n, t, method) order.

    ``workers`` > 1 distributes cells over processes; results are identical
    to the sequential schedule because streams depend only on (seed,
    replication).  ``progress(done, total, result)`` is called for each
    cell in design order, as soon as it and every cell before it are done.
    """
    methods = cfg.methods if cfg.methods else (None,)
    ns, ts, ms = zip(*[(n, t, m) for n in cfg.n_grid for t in cfg.t_grid for m in methods])
    results: list[CellResult] = []
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
        cells = (pool.map if pool else map)(run_cell, repeat(cfg), ns, ts, ms)
        for done, res in enumerate(cells, 1):
            results.append(res)
            if progress is not None:
                progress(done, len(ns), res)
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
