"""Monte-Carlo harness: bias, MSE, coverage, and interval length.

The cells of one n form a block, the unit of parallel work.  Replication
r of a block is drawn once, from the child stream of (seed, r), and set
up once per t, without the Sample's memo, for its point estimate and
every method, so the calibrations and abscissae are compared on identical
samples and the calibrations nest replication by replication.  A block
draws its replications in chunks of at most ``_CHUNK`` (replication, t)
rows, so its memory is O(_CHUNK * n) with methods, however many
replications there are, and O(n) for an estimate-only design, which
estimates each sample at every t and drops it.  The truncations of a
chunk have n values at every t, so those at every t are stacked in one
array (``calibration._stacked_setups``), and each method inverts them all
as one group (``intervals._chunk_intervals``), one array pass answering
the passes of many of their searches.  A replication whose interval
construction fails (any LorenzELError of its set-up or search, a search
out of steps included) is counted in ``failures`` and left out of the
coverage and length denominators, which count only the replications that
produced an interval.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .calibration import _stacked_setups, chi2_crit
from .core import VariantKind, _integer, _kind, _number, point_estimate
from .income import _fmt, _write_table
from .intervals import ConfidenceInterval, _chunk_intervals, _t_major
from .populations import Population, SeedSpec, sample, true_ordinate

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "run_experiment",
    "write_results_csv",
]

_DEFAULT_N_GRID = (25, 50, 100, 150, 300, 500)
_DEFAULT_T_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


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
    methods: tuple = tuple(VariantKind)
    seed: SeedSpec = field(default_factory=SeedSpec)

    def __post_init__(self) -> None:
        n_grid = tuple(_integer(n, "each n in n_grid") for n in self.n_grid)
        object.__setattr__(self, "n_grid", n_grid)
        object.__setattr__(self, "reps", _integer(self.reps, "reps"))
        object.__setattr__(self, "t_grid", tuple(_number(t, "each t in t_grid")
                                                 for t in self.t_grid))
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha"))
        object.__setattr__(self, "methods", tuple(_kind(m) for m in self.methods))
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


# (replication, t) rows a block sets up and holds at once, _CHUNK //
# len(t_grid) replications and at least one, which bounds its memory
# however large reps is: at n = 500 a chunk's truncations at every t take
# about 4 MB, and its samples at most as much, where the paper's 10**4
# replications at 9 t would take 360 MB.
_CHUNK = 1024


def _block(cfg: ExperimentConfig, n: int, thetas: tuple) -> Iterator[CellResult]:
    """The cells of one n, in (t, method) order (or the estimate-only cells),
    with ``thetas`` the true ordinates at ``cfg.t_grid``.

    Each replication is drawn once, and set up once per t for its point
    estimate and every method, in chunks of at most ``_CHUNK`` (replication,
    t) rows.  The methods on every row of a chunk are one
    ``intervals._chunk_intervals`` generator, drawn method by method, each
    method one group of every row's searches.  A cell is yielded as soon as
    its method's list of the last chunk is drawn and every cell before it
    is yielded: a chunk's cells at the first t follow their methods, and
    the rest follow the last method.
    """
    reps, ts = cfg.reps, cfg.t_grid
    estimates = [np.empty(reps) for _ in ts]
    if not cfg.methods:  # each sample is estimated at every t and dropped
        for r in range(reps):
            smp = sample(cfg.population, n, cfg.seed, replication=r)
            for est, t in zip(estimates, ts):
                est[r] = point_estimate(smp, t)
        for t, theta_true, est in zip(ts, thetas, estimates):
            bias, mse = _errors(est, theta_true)
            yield CellResult(n=n, t=t, method=None, bias=bias, mse=mse,
                             coverage=None, mean_length=None, failures=0)
        return
    crit, level = chi2_crit(cfg.alpha), 1.0 - float(cfg.alpha)
    # per t and method: replications covered, failures and the sum of lengths
    tallies = [[[0, 0, 0.0] for _ in cfg.methods] for _ in ts]
    per = max(_CHUNK // len(ts), 1)  # replications per chunk
    for first in range(0, reps, per):
        smps = [sample(cfg.population, n, cfg.seed, replication=r)
                for r in range(first, min(first + per, reps))]
        last = first + len(smps) == reps
        # per t, per replication: its row of V, or the failure of its set-up,
        # which rules out every method
        V, setups, rows = _stacked_setups([smp.values for smp in smps], ts)
        for t, est, at in zip(ts, estimates, rows):
            for r, (smp, row) in enumerate(zip(smps, at), first):
                est[r] = setups[row][0] if isinstance(row, int) else point_estimate(smp, t)
        if last:
            errors = [_errors(est, theta_true) for est, theta_true in zip(estimates, thetas)]
        for i, j, cis in _t_major(_chunk_intervals(cfg.methods, V, setups, crit, level), len(ts)):
            if i == 0:  # the first t of method j: its intervals are new, tally every t
                for at, theta_true, tally in zip(rows, thetas, tallies):
                    counts = tally[j]
                    for row in at:
                        ci = cis[row] if isinstance(row, int) else row
                        if not isinstance(ci, ConfidenceInterval):
                            counts[1] += 1
                            continue
                        if ci.lower <= theta_true <= ci.upper:
                            counts[0] += 1
                        counts[2] += ci.length
            if last:
                (bias, mse), (covered, failures, length_sum) = errors[i], tallies[i][j]
                produced = reps - failures
                yield CellResult(n=n, t=ts[i], method=cfg.methods[j], bias=bias, mse=mse,
                                 coverage=covered / produced if produced else math.nan,
                                 mean_length=length_sum / produced if produced else math.nan,
                                 failures=failures)
        del smps, V  # so that the next chunk is drawn with this one freed


def _errors(estimates: np.ndarray, theta_true: float) -> tuple[float, float]:
    """Bias and mean squared error of the point estimates."""
    return (float(estimates.mean() - theta_true),
            float(np.mean((estimates - theta_true) ** 2)))


def _block_list(cfg: ExperimentConfig, n: int, thetas: tuple) -> list[CellResult]:
    """``_block`` as a list, which a worker process can send back."""
    return list(_block(cfg, n, thetas))


def _workers(workers) -> int:
    """``workers`` as a Python int; ValueError naming it when it is not an
    integer or is below 1."""
    workers = _integer(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   progress: Optional[Callable[[int, int, CellResult], None]] = None,
                   ) -> list[CellResult]:
    """Run every cell of the design, in deterministic (n, t, method) order.

    The cells of one entry of ``n_grid`` form a block.  ``workers`` > 1
    distributes the blocks over processes, never more processes than
    blocks (at most one per n); results are identical to the sequential
    schedule because streams depend only on (seed, replication).
    ``progress(done, total, result)`` is called for each cell in design
    order, as soon as it and every cell before it are done.  Memory per
    process is O(min(reps * len(t_grid), 1024) * n) with methods (at most
    about 8 MB at n = 500) and O(n) for an estimate-only design.
    ``true_ordinate`` is evaluated once per t.  ``workers`` that is not an
    integer of at least 1 raises ValueError.
    """
    workers = _workers(workers)
    ordinate = {t: true_ordinate(cfg.population, t) for t in dict.fromkeys(cfg.t_grid)}
    thetas = tuple(ordinate[t] for t in cfg.t_grid)
    total = len(cfg.n_grid) * len(cfg.t_grid) * max(len(cfg.methods), 1)
    results: list[CellResult] = []
    if workers > 1:
        # imported here, so that a sequential run and the other commands
        # never load the process pool
        from concurrent.futures import ProcessPoolExecutor
    # a pool may start all its processes at the first submit
    with (ProcessPoolExecutor(max_workers=min(workers, len(cfg.n_grid))) if workers > 1
          else nullcontext()) as pool:
        blocks = (pool.map(_block_list, repeat(cfg), cfg.n_grid, repeat(thetas)) if pool
                  else map(_block, repeat(cfg), cfg.n_grid, repeat(thetas)))
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
