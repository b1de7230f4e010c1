"""Monte-Carlo harness: determinism, accounting, CSV output."""
from __future__ import annotations

import collections
import concurrent.futures
import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

import lorenzel as lz
import lorenzel.simulation as simulation
from lorenzel import intervals
from conftest import garbage_cycles, record_chunks, seeded_intervals
from lorenzel.calibration import _setup, _setup_from, _stacked_setups
from lorenzel.core import _quantile_index, _truncate

WEI = lz.Weibull(1.0, 2.0)


def small_cfg(**kw):
    base = dict(population=WEI, n_grid=(20,), t_grid=(0.5,), reps=60,
                methods=(lz.VariantKind.EL,), seed=lz.SeedSpec(5))
    base.update(kw)
    return lz.ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = lz.ExperimentConfig(population=WEI)
        assert cfg.n_grid == (25, 50, 100, 150, 300, 500)
        assert cfg.t_grid == tuple(i / 10 for i in range(1, 10))
        assert cfg.reps == 10_000
        assert cfg.alpha == 0.05
        assert cfg.methods == tuple(lz.VariantKind)
        assert cfg.seed == lz.SeedSpec(0, 0)

    def test_methods_accept_strings_and_may_be_empty(self):
        cfg = small_cfg(methods=("tael", "el"))
        assert cfg.methods == (lz.VariantKind.TAEL, lz.VariantKind.EL)
        assert small_cfg(methods=()).methods == ()

    @pytest.mark.parametrize("kw", [
        dict(n_grid=()), dict(n_grid=(1,)), dict(t_grid=(0.0,)),
        dict(t_grid=()), dict(reps=0), dict(alpha=0.0), dict(alpha=1.0),
        dict(n_grid=(10.7,)), dict(reps=2.5),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            small_cfg(**kw)


def one_block(cfg):
    """The cells of a design with one (n, t) pair."""
    assert len(cfg.n_grid) == len(cfg.t_grid) == 1
    return lz.run_experiment(cfg)


class TestRunCell:
    """Designs of a single (n, t) pair: one cell per method."""

    def test_deterministic(self):
        cfg = small_cfg()
        assert one_block(cfg) == one_block(cfg)

    def test_point_only(self):
        (res,) = one_block(small_cfg(methods=()))
        assert res.method is None
        assert res.coverage is None and res.mean_length is None
        assert res.failures == 0
        assert res.bias ** 2 <= res.mse + 1e-15

    def test_interval_cell(self):
        (res,) = one_block(small_cfg(reps=150))
        assert res.method is lz.VariantKind.EL
        assert 0.7 <= res.coverage <= 1.0
        assert res.mean_length > 0.0
        assert res.failures == 0

    def test_all_replications_failing(self):
        # n=2 with t<=0.5 keeps exactly one observation below the quantile,
        # so every replication hits DegenerateVariance
        (res,) = one_block(small_cfg(n_grid=(2,), t_grid=(0.4,), reps=7))
        assert res.failures == 7
        assert math.isnan(res.coverage) and math.isnan(res.mean_length)
        assert math.isfinite(res.bias)  # the point estimate still exists

    def test_shared_draws_nest_coverage(self):
        # identical replication streams + interval nesting force the
        # ordering with no Monte-Carlo slack at all
        cfg = small_cfg(reps=250, n_grid=(50,), methods=tuple(lz.VariantKind))
        out = {r.method: r for r in one_block(cfg)}
        assert all(r.failures == 0 for r in out.values())
        assert out[lz.VariantKind.TEL].coverage >= out[lz.VariantKind.EL].coverage
        assert out[lz.VariantKind.TAEL].coverage >= out[lz.VariantKind.AEL].coverage
        assert (out[lz.VariantKind.TEL].mean_length
                >= out[lz.VariantKind.EL].mean_length)
        # bias and MSE are method-independent (same draws, same estimator)
        biases = {r.bias for r in out.values()}
        assert len(biases) == 1


class TestRunExperiment:
    def test_cell_ordering(self):
        cfg = small_cfg(n_grid=(10, 20), t_grid=(0.3, 0.7),
                        methods=("el", "ael"), reps=3)
        res = lz.run_experiment(cfg)
        key = [(r.n, r.t, r.method) for r in res]
        assert key == [
            (10, 0.3, lz.VariantKind.EL), (10, 0.3, lz.VariantKind.AEL),
            (10, 0.7, lz.VariantKind.EL), (10, 0.7, lz.VariantKind.AEL),
            (20, 0.3, lz.VariantKind.EL), (20, 0.3, lz.VariantKind.AEL),
            (20, 0.7, lz.VariantKind.EL), (20, 0.7, lz.VariantKind.AEL),
        ]

    def test_empty_methods_yield_point_rows(self):
        cfg = small_cfg(methods=(), reps=4)
        res = lz.run_experiment(cfg)
        assert len(res) == 1 and res[0].method is None

    def test_progress_callback(self):
        seen = []
        cfg = small_cfg(t_grid=(0.4, 0.6), reps=3)
        lz.run_experiment(cfg, progress=lambda d, t, r: seen.append((d, t)))
        assert seen == [(1, 2), (2, 2)]

    def test_workers_do_not_change_results(self):
        # two methods, so every (n, t) block yields several cells
        cfg = small_cfg(n_grid=(10, 20), t_grid=(0.3, 0.6), methods=("el", "tael"), reps=6)
        calls = {1: [], 2: []}
        seq = lz.run_experiment(cfg, workers=1, progress=lambda *a: calls[1].append(a))
        par = lz.run_experiment(cfg, workers=2, progress=lambda *a: calls[2].append(a))
        assert seq == par
        # progress reports cells in design order under either schedule
        assert calls[1] == calls[2] == [(i + 1, 8, res) for i, res in enumerate(seq)]

    @pytest.mark.parametrize("n_grid,workers,started", [((10, 20), 3, 2), ((10, 20), 500, 2),
                                                         ((10,), 64, 1)])
    def test_pool_has_no_more_processes_than_blocks(self, monkeypatch, n_grid, workers,
                                                    started):
        # a pool may start every process at its first submit, so it must not
        # ask for more than there are blocks, one per n; a stub pool records
        # its size and maps in this process, so no process is started here
        sizes = []

        class StubPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        cfg = small_cfg(n_grid=n_grid, t_grid=(0.3, 0.6), methods=("el", "tael"), reps=4)
        par = lz.run_experiment(cfg, workers=workers)
        assert sizes == [started]
        assert par == lz.run_experiment(cfg, workers=1)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, 2.0, "2"])
    def test_workers_must_be_an_integer_of_at_least_1(self, monkeypatch, workers):
        # refused before any block runs or any process is started
        def started(*args, **kwargs):
            pytest.fail("the design ran")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", started)
        monkeypatch.setattr(simulation, "_block", started)
        with pytest.raises(ValueError, match="workers"):
            lz.run_experiment(small_cfg(), workers=workers)

    @pytest.mark.parametrize("methods", [(), ("el", "ael", "tel", "tael")])
    def test_each_replication_is_drawn_once(self, monkeypatch, methods):
        # one draw per (n, replication) and one ordinate per t, however
        # many abscissae and methods share them
        calls = {"sample": 0, "true_ordinate": 0}

        def counting(name):
            original = getattr(simulation, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(simulation, name, counting(name))
        cfg = small_cfg(n_grid=(10, 20), t_grid=(0.3, 0.6, 0.9), methods=methods, reps=3)
        res = lz.run_experiment(cfg)
        assert len(res) == 2 * 3 * max(len(methods), 1)
        assert calls == {"sample": 2 * 3, "true_ordinate": 3}

    def test_estimate_only_keeps_no_samples(self, monkeypatch):
        # without methods each sample is estimated as soon as it is drawn
        events = []
        for name in ("sample", "point_estimate"):
            def logged(*args, _name=name, _original=getattr(simulation, name), **kwargs):
                events.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(simulation, name, logged)
        lz.run_experiment(small_cfg(methods=(), reps=4))
        assert events == ["sample", "point_estimate"] * 4

    def test_progress_sees_a_cell_before_the_next_method_runs(self, monkeypatch):
        # a block yields its cells lazily, so progress fires per cell
        events = []
        original = simulation._chunk_intervals

        def logged(kinds, V, *args):
            cis = original(kinds, V, *args)
            for kind in kinds:  # logged, once per replication (row of V), before the search runs
                events.extend([kind.value] * len(V))
                yield next(cis)

        monkeypatch.setattr(simulation, "_chunk_intervals", logged)
        cfg = small_cfg(methods=("el", "ael"), reps=2)
        lz.run_experiment(cfg, progress=lambda d, t, r: events.append(f"cell {d}"))
        assert events == ["el", "el", "cell 1", "ael", "ael", "cell 2"]


class TestChunks:
    """A block draws its replications in chunks of ``simulation._CHUNK``
    (replication, t) rows."""

    def test_chunk_boundaries_change_nothing(self, monkeypatch):
        # reps = 7 in chunks of 3: two full chunks and a partial one
        cfg = small_cfg(n_grid=(10, 25), t_grid=(0.1, 0.5, 0.9), methods=tuple(lz.VariantKind),
                        reps=7)
        calls = {"whole": [], "chunked": []}
        whole = lz.run_experiment(cfg, progress=lambda *a: calls["whole"].append(a))
        monkeypatch.setattr(simulation, "_CHUNK", 3)
        chunked = lz.run_experiment(cfg, progress=lambda *a: calls["chunked"].append(a))
        assert chunked == whole
        assert calls["chunked"] == calls["whole"]
        assert len(whole) == 2 * 3 * 4

    @pytest.mark.parametrize("chunk", [7, 1024])
    def test_a_t_grid_gives_the_cells_of_its_single_t_runs(self, monkeypatch, chunk):
        # a chunk's rows at every t are one group, searched kind by kind;
        # with _CHUNK = 7 a chunk of the grid holds 2 replications per t (7
        # reps: chunks of 2, 2, 2 and 1), and one of a single t all 7
        monkeypatch.setattr(simulation, "_CHUNK", chunk)

        def cells(t_grid):
            cfg = small_cfg(population=lz.ChiSquare(3.0), n_grid=(10, 25, 50), t_grid=t_grid,
                            methods=tuple(lz.VariantKind), reps=7, seed=lz.SeedSpec(11))
            return [(c.n, c.t, c.method, c.bias.hex(), c.mse.hex(), c.coverage.hex(),
                     c.mean_length.hex(), c.failures) for c in lz.run_experiment(cfg)]

        ts = (0.1, 0.5, 0.9)
        grid = cells(ts)
        alone = {t: cells((t,)) for t in ts}
        assert grid == [cell for n in range(3) for t in ts for cell in alone[t][4 * n:4 * n + 4]]
        assert sum(cell[-1] for cell in grid) > 0

    def test_memory_is_bounded_by_the_chunk(self, monkeypatch):
        monkeypatch.setattr(simulation, "_CHUNK", 64)
        peaks = {}
        for reps in (64, 64, 512):  # the first run fills import and first-call caches
            tracemalloc.start()
            try:
                lz.run_experiment(small_cfg(n_grid=(400,), t_grid=(0.5,), reps=reps))
                peaks[reps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[512] < 2 * peaks[64], peaks

    def test_a_chunk_holds_one_array_per_replication(self, monkeypatch):
        # per replication, its sample and one set-up array (V, scaled in
        # place for the search), not a second scaled copy beside V
        monkeypatch.setattr(simulation, "_CHUNK", 64)
        cfg = small_cfg(n_grid=(400,), t_grid=(0.5,), reps=64)
        lz.run_experiment(cfg)  # fills import and first-call caches
        tracemalloc.start()
        try:
            lz.run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.3 * 64 * 400 * 8, peak / (64 * 400 * 8)

    @staticmethod
    def _outcome(fn, writeable=False):
        try:
            v, theta_hat, scale, hull = fn()
        except lz.LorenzELError as exc:
            return type(exc)
        assert v.flags.writeable == writeable
        return (v.tobytes(), theta_hat.hex(), scale.sigma_p_sq.hex(), scale.sigma_v_sq.hex(),
                scale.ratio.hex(), hull[0].hex(), hull[1].hex())

    @pytest.mark.parametrize("data,raised", [
        ([3, 1, 2, 2, 2, 5, 7, 2, 2, 9], {lz.DegenerateVariance}),  # integers tied at psi
        ([4.0, 4.0, 4.0, 9.0, 10.0], {lz.DegenerateVariance}),  # the first value is psi
        ([1e-160 * k for k in range(1, 6)], {lz.DegenerateVariance, lz.NonFinite}),  # underflow
        ([1e200 * k for k in range(1, 6)], {lz.DegenerateVariance, lz.NonFinite}),  # overflow
        ([-3.0, -1.0, 0.5, 2.0, -7.0, 4.0, -0.0], {lz.DegenerateVariance}),  # negative values
        ([1.0, 2.0], {lz.DegenerateVariance}),  # n = 2
        ("skew", set()),
    ])
    def test_row_setup_is_the_memo_setup(self, data, raised, rng):
        # the simulation's memo-free set-up of one row, bit for bit or the
        # same exception class as the Sample's memoized one, alone and as
        # a row of one stack over every t (which is writeable: it is scaled
        # in place for the search)
        if data == "skew":
            data = lz.SkewNormal(0.0, 1.0, 4.0).draw(rng, 25)
        x = lz.Sample(data).values
        ts = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
        V, setups, rows = _stacked_setups([x], ts)
        assert len(V) == len(setups)
        seen = set()
        for t, (at,) in zip(ts, rows):
            k = _quantile_index(x.size, t)
            row = self._outcome(lambda: _setup_from(x, *_truncate(x, float(x[k]))))
            assert row == self._outcome(lambda: _setup(lz.Sample(data), t)), t
            stacked = (type(at) if isinstance(at, Exception)
                       else self._outcome(lambda: (V[at], *setups[at]), writeable=True))
            assert stacked == row, t
            if isinstance(row, type):
                seen.add(row)
        assert seen == raised


def recorded_intervals(monkeypatch):
    """Patch the simulation to record, in (n, t, kind, replication) order,
    each interval it inverts or the class of the failure it raised instead
    (``record_chunks``)."""
    seen = []
    record_chunks(monkeypatch, lambda kind, ci: seen.append(
        type(ci) if isinstance(ci, Exception) else ci))
    return seen


class TestSeededSearches:
    """Within a replication, AEL/TEL/TAEL searches start from EL's or AEL's
    endpoints (``intervals._SEEDS``)."""

    POPS = (lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0), lz.SkewNormal(1.0, 3.0, 5.0))

    def test_agree_with_cold_invert(self, monkeypatch):
        # the same interval as a search from the Wald point, to within the
        # stopping tolerance, and the same failures
        seen = recorded_intervals(monkeypatch)
        cfgs = [lz.ExperimentConfig(population=pop, n_grid=(10, 25, 50, 300),
                                    t_grid=tuple(k / 10 for k in range(1, 10)), reps=3,
                                    seed=lz.SeedSpec(59, p))
                for p, pop in enumerate(self.POPS)]
        for cfg in cfgs:
            lz.run_experiment(cfg)
        seeded = iter(seen)
        failed = 0
        for cfg in cfgs:
            for n in cfg.n_grid:
                for t in cfg.t_grid:
                    samples = [lz.sample(cfg.population, n, cfg.seed, r) for r in range(cfg.reps)]
                    for kind in cfg.methods:
                        for s in samples:
                            try:
                                cold = lz.invert(kind, s, t, cfg.alpha)
                            except (lz.DegenerateVariance, lz.NonFinite):
                                continue  # the simulation inverts nothing
                            except lz.LorenzELError as exc:
                                cold = type(exc)
                            got = next(seeded)
                            case = (str(cfg.population), n, t, kind.value)
                            if isinstance(cold, type) or isinstance(got, type):
                                assert got is cold, case
                                failed += 1
                                continue
                            trunc = lz.truncated_values(s, t)
                            tol = 1e-15 * float(np.ptp(trunc))
                            for a, b in ((got.lower, cold.lower), (got.upper, cold.upper)):
                                assert abs(a - b) <= 1e-8 * max(abs(a), abs(b)) + tol, case
        assert next(seeded, None) is None
        assert 0 < failed < 0.1 * len(seen)

    def test_few_passes_on_the_benchmark_design(self, monkeypatch):
        # round 0 of the benchmark's coverage design (perfbench/workloads.py);
        # from n = 300 every seeded side starts at a Newton step from its
        # seed's closing pass and closes in its first pass
        seen = recorded_intervals(monkeypatch)
        by_n = {}
        for n in (50, 100, 150, 300, 500):
            for pop in self.POPS:
                lz.run_experiment(lz.ExperimentConfig(
                    population=pop, n_grid=(n,), t_grid=tuple(k / 10 for k in range(1, 10)),
                    reps=4, seed=lz.SeedSpec(83, 0)))
            by_n[n] = [ci for ci in seen if not isinstance(ci, type)]
            seen.clear()
        passes = [ci.iterations for cis in by_n.values() for ci in cis]
        assert len(passes) == 3 * 5 * 9 * 4 * 4
        assert np.mean(passes) <= 3.75
        for n in (300, 500):
            for ci in by_n[n]:
                if ci.kind is not lz.VariantKind.EL:
                    assert ci.iterations <= 2, (n, ci.kind)

    def test_large_samples_close_in_the_seeds_pass(self):
        # at n = 3,000 the bounds of the seed's closing pass, at the first
        # joint step from it, already close most seeded sides, which then
        # take no pass of their own; the intervals are cold invert's
        s = lz.Sample(np.random.default_rng(17).lognormal(10.0, 0.3, 3000))
        crit = lz.chi2_crit(0.05)
        sides = free = 0
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            setup = _setup(s, t)
            tol = 1e-15 * float(np.ptp(setup[0]))
            for kind, got in zip(lz.VariantKind, seeded_intervals(lz.VariantKind, s, t, crit)):
                cold = lz.invert(kind, s, t, 0.05)
                for a, b in ((got.lower, cold.lower), (got.upper, cold.upper)):
                    assert abs(a - b) <= 1e-8 * max(abs(a), abs(b)) + tol, (t, kind)
                if kind is not lz.VariantKind.EL:
                    sides += 2
                    free += 2 - got.iterations
        assert free >= 0.8 * sides

    def test_seed_closed_by_certified_steps_starts_from_its_endpoint(self, monkeypatch):
        # an EL side that closed through certified steps keeps no joint pass,
        # so AEL and TEL start from its endpoint and multiplier, with no
        # Newton step from a pass, and still find cold invert's interval;
        # a Newton step counts here only when it is taken from a seed's
        # pass, converted to this kind by _as_kind
        newton, converted = [], []
        true_newton = intervals._newton
        true_as_kind = intervals._as_kind
        true_joint = intervals._joint_step

        def as_kind(*args):
            converted.append(true_as_kind(*args))
            return converted[-1]

        def counted_newton(sums, *args):
            if any(sums is c for c in converted):
                newton.append(1)
            return true_newton(sums, *args)

        monkeypatch.setattr(intervals, "_as_kind", as_kind)
        monkeypatch.setattr(intervals, "_newton", counted_newton)
        crit = lz.chi2_crit(0.05)
        checked = 0
        for p, pop in enumerate(self.POPS):
            for n in (50, 300):
                s = lz.sample(pop, n, lz.SeedSpec(59, p), 0)
                for t in (0.1, 0.5, 0.9):
                    setup = _setup(s, t)
                    cis = seeded_intervals(lz.VariantKind, s, t, crit)
                    monkeypatch.setattr(intervals, "_joint_step", lambda *args: None)
                    assert isinstance(next(cis), lz.ConfidenceInterval)  # EL
                    monkeypatch.setattr(intervals, "_joint_step", true_joint)
                    tol = 1e-15 * float(np.ptp(setup[0]))
                    for kind in tuple(lz.VariantKind)[1:]:
                        before, conversions = len(newton), len(converted)
                        got = next(cis)
                        if kind is not lz.VariantKind.TAEL:  # TAEL is seeded by AEL
                            assert len(newton) == before, kind
                            # EL's sides kept no pass, so none is converted
                            assert len(converted) == conversions, kind
                        cold = lz.invert(kind, s, t, 0.05)
                        for a, b in ((got.lower, cold.lower), (got.upper, cold.upper)):
                            assert abs(a - b) <= 1e-8 * max(abs(a), abs(b)) + tol, (n, t, kind)
                        checked += 1
        assert checked == 3 * 2 * 3 * 3
        assert newton  # from AEL's closing passes

    def test_refused_first_step_takes_a_pass_at_the_seed(self, monkeypatch, sides):
        # when _newton refuses the step from the seed's pass, converted to
        # this kind by _as_kind, the side takes its first pass at the seed's
        # endpoint and multiplier, and still finds cold invert's interval
        converted, refused = [], []
        true_as_kind = intervals._as_kind
        true_newton = intervals._newton

        def as_kind(*args):
            converted.append(true_as_kind(*args))
            return converted[-1]

        def refusing_newton(sums, *args):
            if any(sums is c for c in converted):
                # the side that resumed, and the index of its next pass, its
                # first joint step
                refused.append((sides.current, len(sides.requests[sides.current])))
                return None
            return true_newton(sums, *args)

        monkeypatch.setattr(intervals, "_as_kind", as_kind)
        monkeypatch.setattr(intervals, "_newton", refusing_newton)
        crit = lz.chi2_crit(0.05)
        checked = 0
        for p, pop in enumerate(self.POPS):
            for n in (10, 25, 50, 300):
                s = lz.sample(pop, n, lz.SeedSpec(59, p), 0)
                for t in (0.1, 0.5, 0.9):
                    try:
                        setup = _setup(s, t)
                    except lz.DegenerateVariance:
                        continue
                    # the search runs on the values scaled by 2^-k, max size in [0.5, 1)
                    k = math.frexp(max(abs(setup[3][0]), abs(setup[3][1])))[1]
                    tol = 1e-15 * float(np.ptp(setup[0]))
                    gen = seeded_intervals(lz.VariantKind, s, t, crit)
                    cis = {}
                    for kind in lz.VariantKind:
                        before = len(refused)
                        got = cis[kind] = next(gen)
                        forced = refused[before:]  # the sides of this kind that were forced
                        seed = cis.get(intervals._SEEDS.get(kind))
                        try:
                            cold = lz.invert(kind, s, t, 0.05)
                        except lz.LorenzELError as exc:
                            cold = exc
                        if isinstance(cold, Exception) or isinstance(got, Exception):
                            assert type(got) is type(cold), (n, t, kind)
                            continue
                        assert got.iterations >= len(forced), (n, t, kind)
                        ends = [math.ldexp(e, -k) for e in (seed.lower, seed.upper)] if forced else []
                        for side, i in forced:
                            theta, lam = sides.requests[side][i]
                            assert theta in ends and lam is not None, (n, t, kind)
                        for a, b in ((got.lower, cold.lower), (got.upper, cold.upper)):
                            assert abs(a - b) <= 1e-8 * max(abs(a), abs(b)) + tol, (n, t, kind)
                        checked += len(forced)
        assert checked > 100


class TestSurvivableFailures:
    """Any LorenzELError of one replication's search rules out that one
    interval: it is counted in ``failures``, and the study goes on."""

    @pytest.mark.parametrize("budget", [1, 4])
    def test_an_exhausted_search_is_counted(self, monkeypatch, budget):
        # with one step per side every search runs out; with four, some do.
        # The only other failures are whole-line TAEL sets at n = 20
        monkeypatch.setattr(intervals, "_MAX_PASSES", budget)
        failed = collections.Counter()  # per (n, method)
        exhausted = 0
        original = simulation._chunk_intervals

        def recorded(kinds, V, *args):
            nonlocal exhausted
            for kind, cis in zip(kinds, original(kinds, V, *args)):
                for ci in cis:
                    if isinstance(ci, lz.LorenzELError):
                        failed[V.shape[1], kind] += 1
                        if not isinstance(ci, lz.BracketFailure):
                            assert f"did not converge in {budget} steps" in str(ci)
                            exhausted += 1
                yield cis

        monkeypatch.setattr(simulation, "_chunk_intervals", recorded)
        cfg = small_cfg(n_grid=(20, 50), t_grid=(0.3, 0.7), reps=20,
                        methods=tuple(lz.VariantKind))
        res = lz.run_experiment(cfg)
        assert len(res) == 2 * 2 * 4
        failures = collections.Counter()
        for r in res:
            failures[r.n, r.method] += r.failures
        assert failures == failed
        if budget == 1:
            assert sum(failures.values()) == len(res) * cfg.reps
            assert all(math.isnan(r.coverage) for r in res)
        else:
            assert 0 < exhausted < len(res) * cfg.reps

    def test_failures_leave_no_reference_cycle(self, monkeypatch):
        # failed set-ups (n = 10 at t = 0.1) and searches out of steps are
        # kept without their tracebacks, which would hold a chunk's stack in
        # a cycle until the collector runs
        monkeypatch.setattr(intervals, "_MAX_PASSES", 2)
        cfg = small_cfg(n_grid=(10,), t_grid=(0.1, 0.5), reps=20, methods=tuple(lz.VariantKind))
        res = []
        assert garbage_cycles(lambda: res.append(lz.run_experiment(cfg))) == 0
        assert {r.t for r in res[-1] if r.failures == cfg.reps} == {0.1, 0.5}

    def test_a_failed_search_rules_out_one_interval(self, monkeypatch):
        # the adjusted kinds' searches fail; EL, searched after AEL in each
        # replication, gives the cell it gives alone.  Every group runs as
        # coroutines, so that each side starts in the _search_side patched here
        monkeypatch.setattr(intervals, "_LOCKSTEP_SIDES", math.inf)
        (alone,) = lz.run_experiment(small_cfg(reps=30))
        true_search = intervals._search_side

        def search_side(v, adjusted, *args):
            # a side coroutine that fails at its first step
            if adjusted:
                raise lz.LorenzELError("multiplier did not converge")
            return (yield from true_search(v, adjusted, *args))

        monkeypatch.setattr(intervals, "_search_side", search_side)
        ael, el, tael = lz.run_experiment(small_cfg(reps=30, methods=("ael", "el", "tael")))
        assert ael.failures == tael.failures == 30
        assert math.isnan(ael.coverage) and math.isnan(tael.mean_length)
        assert el == alone and el.failures == 0


class TestCsv:
    def test_golden_output(self):
        cfg = small_cfg(reps=5, methods=("el",))
        results = [
            lz.CellResult(n=20, t=0.5, method=lz.VariantKind.EL, bias=0.0123456,
                          mse=0.00456789, coverage=0.9, mean_length=0.25,
                          failures=0),
            lz.CellResult(n=20, t=0.5, method=None, bias=-0.5, mse=0.25,
                          coverage=None, mean_length=None, failures=0),
            lz.CellResult(n=20, t=0.5, method=lz.VariantKind.TAEL, bias=0.0,
                          mse=0.0, coverage=math.nan, mean_length=math.nan,
                          failures=5),
        ]
        buf = io.StringIO()
        lz.write_results_csv(results, cfg, buf, precision=4)
        assert buf.getvalue() == (
            "population,n,t,method,bias,mse,coverage,mean_length,failures\n"
            '"weibull(1,2)",20,0.5,el,0.0123,0.0046,0.9000,0.2500,0\n'
            '"weibull(1,2)",20,0.5,,-0.5000,0.2500,,,0\n'
            '"weibull(1,2)",20,0.5,tael,0.0000,0.0000,nan,nan,5\n'
        )

    def test_full_precision_round_trips(self, tmp_path):
        cfg = small_cfg(reps=10)
        res = lz.run_experiment(cfg)
        path = tmp_path / "out.csv"
        lz.write_results_csv(res, cfg, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert float(rows[1][4]) == res[0].bias  # repr round-trip
