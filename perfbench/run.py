"""Benchmark command for the lorenzel package.

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Runs one workload (``coverage``, ``realdata`` or ``limit``, see
``workloads.py``) in this process with ``workers=1``: builds its inputs
from ``--seed``, repeats whole rounds until ``--seconds`` have passed,
checks the outputs, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: import of lorenzel plus input generation, the median of
  SETUP_SAMPLES set-ups (this process and fresh child processes);
* ``peak_rss_mb``: peak resident memory of this process after timing;
* ``throughput_per_s``: units of output per second spent in lorenzel
  (intervals on coverage, interval rows written on realdata, statistics
  on limit);
* ``call_ms``: median duration of the workload's unit call (one
  simulation cell, one whole-table ``ci`` call, ten replications).

The last two are in reference seconds (``workloads.HostClock``): each
timed call is summarised by its median over the rounds.

With ``--trace 1`` the run first repeats the workload for
``--seconds`` untraced, then as long again with spans around the calls
into each lorenzel module (``spans.py``), and prints the per-layer
metrics plus the tracing overhead against the untraced rounds.

``--smoke`` runs every workload, traced and untraced, with every check,
on a reduced design in a few seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("coverage", "realdata", "limit")
SETUP_SAMPLES = 3
KINDS = ("el", "ael", "tel", "tael")
FAILURE_CAUSES = {"DegenerateVariance": "degenerate", "BracketFailure": "bracket",
                  "ConvexHullViolation": "hull", "NonFinite": "nonfinite"}
PAPER_GRID_INTERVALS = 6 * 9 * 4 * 10_000


def setup(name: str, seed: int, workdir: str, smoke: bool = False):
    """Import lorenzel and build the workload's inputs; return the workload
    and the seconds this took."""
    if not os.path.isfile(os.path.join(SRC, "lorenzel", "__init__.py")):
        raise SystemExit(f"lorenzel sources not found under {SRC}")
    sys.path.insert(0, SRC)
    start = perf_counter()
    import lorenzel.cli  # noqa: F401  (the whole package, as a CLI user loads it)
    imported = perf_counter() - start
    import workloads

    cls = {"coverage": workloads.Coverage, "realdata": workloads.RealData,
           "limit": workloads.Limit}[name]
    start = perf_counter()
    work = cls(seed, workdir, workloads.HostClock(), smoke=smoke)
    return work, imported + perf_counter() - start


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(work, seconds: float, first: int = 0) -> list:
    """Whole rounds until ``seconds`` of wall time have passed (at least one)."""
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(work.round(first + len(rounds)))
        if perf_counter() - start >= seconds:
            return rounds


def install_spans(tracer) -> None:
    def interval_done(tr, args, ci):
        kind = ci.kind.value
        tr.counters[f"evals.{kind}"] += ci.iterations
        tr.counters[f"intervals.{kind}"] += 1

    def interval_failed(tr, args, exc):
        tr.counters[f"failed.{FAILURE_CAUSES.get(type(exc).__name__, 'other')}"] += 1

    def table_loaded(tr, args, table):
        tr.counters["rows_dropped"] += table.dropped

    tracer.install("lorenzel.intervals", "invert", interval_done, interval_failed)
    tracer.install("lorenzel.core", "solve_lambda")
    tracer.install("lorenzel.core", "point_estimate")
    tracer.install("lorenzel.calibration", "scale_factor")
    tracer.install("lorenzel.variants", "log_ratio")
    tracer.install("lorenzel.populations", "sample")
    tracer.install("lorenzel.populations", "true_ordinate")
    tracer.install("lorenzel.simulation", "run_cell")
    tracer.install("lorenzel.income", "load_csv", table_loaded)
    tracer.install("lorenzel.income", "curve")
    tracer.install("lorenzel.income", "write_curve_csv")
    tracer.install("lorenzel.cli", "main")


def layer_metrics(tr, rounds: int) -> dict:
    """Per-layer metrics; counts are per round of the workload."""
    c = tr.counters
    m = {}
    for kind in KINDS:
        done = c.get(f"intervals.{kind}", 0)
        m[f"intervals.evals_per_interval.{kind}"] = (
            c[f"evals.{kind}"] / done if done else 0.0, "count")
    m["intervals.invert.calls"] = (tr.calls.get("intervals.invert", 0) / rounds, "count")
    m["intervals.invert.ms"] = (tr.per_call("intervals.invert", 1e3), "ms")
    m["intervals.invert.self_ms"] = (tr.per_call("intervals.invert", 1e3, True), "ms")
    for cause in FAILURE_CAUSES.values():
        m[f"intervals.failed.{cause}"] = (c.get(f"failed.{cause}", 0) / rounds, "count")
    m["core.solve_lambda.calls"] = (tr.calls.get("core.solve_lambda", 0) / rounds, "count")
    m["core.solve_lambda.us"] = (tr.per_call("core.solve_lambda", 1e6), "us")
    m["core.point_estimate.us"] = (tr.per_call("core.point_estimate", 1e6), "us")
    m["calibration.scale_factor.calls"] = (
        tr.calls.get("calibration.scale_factor", 0) / rounds, "count")
    m["calibration.scale_factor.us"] = (tr.per_call("calibration.scale_factor", 1e6), "us")
    m["variants.log_ratio.us"] = (tr.per_call("variants.log_ratio", 1e6), "us")
    for fn in ("sample", "true_ordinate"):
        m[f"populations.{fn}.calls"] = (tr.calls.get(f"populations.{fn}", 0) / rounds, "count")
        m[f"populations.{fn}.us"] = (tr.per_call(f"populations.{fn}", 1e6), "us")
    m["simulation.run_cell.calls"] = (tr.calls.get("simulation.run_cell", 0) / rounds, "count")
    m["simulation.run_cell.s"] = (tr.per_call("simulation.run_cell", 1.0), "s")
    m["simulation.run_cell.self_s"] = (tr.per_call("simulation.run_cell", 1.0, True), "s")
    loads = tr.calls.get("income.load_csv", 0)
    m["income.load_csv.ms"] = (tr.per_call("income.load_csv", 1e3), "ms")
    m["income.rows_dropped"] = (c.get("rows_dropped", 0) / loads if loads else 0.0, "count")
    m["income.curve.ms"] = (tr.per_call("income.curve", 1e3), "ms")
    m["income.write_curve_csv.ms"] = (tr.per_call("income.write_curve_csv", 1e3), "ms")
    m["cli.main.calls"] = (tr.calls.get("cli.main", 0) / rounds, "count")
    m["cli.main.self_ms"] = (tr.per_call("cli.main", 1e3, True), "ms")
    return m


def median_ops(rounds: list) -> list:
    """Each timed call's median duration over the rounds (every round
    makes the same calls in the same order)."""
    return [statistics.median(col) for col in zip(*(r.op_s for r in rounds))]


def end_to_end_metrics(work, rounds: list, setup_s: float) -> dict:
    ops = median_ops(rounds)
    units = statistics.median(r.units for r in rounds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "throughput_per_s": (units / sum(ops), "1/s"),
        "call_ms": (statistics.median(ops[work.unit_calls]) * 1e3, "ms"),
    }


def report(work, rounds: list, metrics: dict) -> None:
    """Human-readable lines, including the workload-specific names."""
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{work.name}: {len(rounds)} rounds, {attempted} operations attempted, "
          f"{failed} failed")
    if getattr(work, "failed_tables", None):
        print(f"{work.name}: failed tables {' '.join(work.failed_tables())}")
    if "throughput_per_s" in metrics:
        rate = metrics["throughput_per_s"][0]
        call = metrics["call_ms"][0]
        clock = work.clock
        units = sum(r.units for r in rounds)
        print(f"unscaled: {units / clock.raw_s:.4g} units/s over {clock.raw_s:.1f} s in lorenzel; "
              f"reference kernel median {statistics.median(clock.ref_runs) * 1e3:.3g} ms "
              f"(nominal {clock.REF_NOMINAL_S * 1e3:.3g} ms)")
        if work.name == "coverage":
            print(f"intervals_per_s = {rate:.4g} intervals/s; {call:.4g} ms per cell; "
                  f"paper grid of {PAPER_GRID_INTERVALS:,} intervals projected at "
                  f"{PAPER_GRID_INTERVALS / rate / 3600:.3g} h on one core")
        elif work.name == "realdata":
            print(f"intervals_per_s = {rate:.4g} interval rows/s; "
                  f"table_s = {call / 1e3:.4g} s per whole-table ci")
        else:
            print(f"statistics_per_s = {rate:.4g} evaluations/s; "
                  f"{call:.4g} ms per ten replications")
    for line in getattr(work, "summary", lambda: [])():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def run(args) -> int:
    workdir = tempfile.mkdtemp(prefix=f".work-{args.workload}-", dir=HERE)
    try:
        work, own_setup = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(f"{own_setup!r}")
            return 0
        import spans

        untraced = measure(work, args.seconds)
        if args.trace:
            tracer = spans.Tracer()
            install_spans(tracer)
            try:
                traced = measure(work, args.seconds, first=len(untraced))
            finally:
                tracer.uninstall()
            rounds = traced
            metrics = layer_metrics(tracer, len(traced))
            base = sum(median_ops(untraced))
            slow = sum(median_ops(traced))
            metrics["trace.overhead_pct"] = ((slow / base - 1.0) * 100.0, "%")
            for line in tracer.edge_report():
                print(f"span edge {line}", file=sys.stderr)
        else:
            rounds = untraced
            setups = [own_setup] + [child_setup_seconds(args.workload, args.seed)
                                    for _ in range(SETUP_SAMPLES - 1)]
            metrics = end_to_end_metrics(work, rounds, statistics.median(setups))
        errors = work.check()
        report(work, rounds, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if errors else 0


def smoke() -> int:
    """Every workload and every check on a reduced design, traced and not."""
    import spans

    bad = 0
    for name in WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f".work-smoke-{name}-", dir=HERE)
        try:
            start = perf_counter()
            work, _ = setup(name, 1, workdir, smoke=True)
            plain = work.round(0)
            tracer = spans.Tracer()
            install_spans(tracer)
            try:
                work.round(1)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, 1)
            errors = work.check()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for err in errors:
            print(f"CHECK FAILED ({name}): {err}", file=sys.stderr)
        bad += bool(errors)
        print(f"smoke {name}: {'ok' if not errors else 'FAILED'} in "
              f"{perf_counter() - start:.1f} s, {plain.attempted} attempted, "
              f"{plain.failed} failed, {len(metrics)} layer metrics")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and check on a reduced design")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
