"""Command-line interface: interval construction, simulation, curves.

Exit codes: 0 success, 2 usage error, 3 unreadable or malformed input
data or unwritable output, 4 numerical failure (degenerate variance,
unbounded interval, ...), 141 standard output closed early (a broken
pipe, as in ``lorenzel ci ... | head -1``).
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Optional

from .calibration import _stacked_setups, chi2_crit
from .core import VariantKind, _kind
from .errors import FileError, LorenzELError, SchemaError
from .income import _fmt, _write_table, curve, load_csv, write_curve_csv
from .intervals import _PASS_VALUES, _chunk_intervals, _t_major
from .populations import ChiSquare, SeedSpec, SkewNormal, Weibull
from .simulation import ExperimentConfig, _workers, run_experiment, write_results_csv

# Points a stepped grid may hold; a finer step is refused before any is built.
_MAX_GRID_POINTS = 10**6


def _stepped_grid(a: float, b: float, step: float) -> list[float]:
    """round(a + i * step, 12) for i = 0 .. round((b - a) / step), which
    may end just beyond b.  The point count is worked out first: a step
    that is not finite and positive, or more than _MAX_GRID_POINTS points,
    raise ValueError."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"the grid step must be finite and positive, got {step}")
    span = (b - a) / step
    if not (math.isfinite(span) and round(span) < _MAX_GRID_POINTS):
        raise ValueError(f"a grid step of {step} from {a} to {b} gives more than "
                         f"{_MAX_GRID_POINTS} points")
    return [round(a + i * step, 12) for i in range(int(round(span)) + 1)]


def _parse_t_spec(spec: str) -> list[float]:
    """Grid spec: 'a..b:step' (step optional, default 0.1) or 'a,b,c'."""
    spec = spec.strip()
    try:
        if ".." in spec:
            rng, _, step_s = spec.partition(":")
            a_s, _, b_s = rng.partition("..")
            a, b = float(a_s), float(b_s)
            step = float(step_s) if step_s else 0.1
            if b < a:
                raise ValueError
            ts = [t for t in _stepped_grid(a, b, step) if t <= b + 1e-12]
        else:
            ts = [round(float(p), 12) for p in spec.split(",") if p.strip()]
    except ValueError as exc:
        detail = f": {exc}" if str(exc) else ""
        raise argparse.ArgumentTypeError(f"bad t spec {spec!r}{detail}")
    if not ts or not all(0.0 < t < 1.0 for t in ts):
        raise argparse.ArgumentTypeError(f"t values must lie strictly in (0, 1): {spec!r}")
    return ts


def _parse_population(spec: str):
    """'weibull:1,2' | 'chisquare:3' | 'skewnormal:1,3,5'."""
    name, _, args_s = spec.strip().partition(":")
    try:
        args = [float(a) for a in args_s.split(",")] if args_s else []
        name = name.lower()
        if name == "weibull" and len(args) == 2:
            return Weibull(*args)
        if name in ("chisquare", "chisq") and len(args) == 1:
            return ChiSquare(*args)
        if name == "skewnormal" and len(args) == 3:
            return SkewNormal(*args)
    except (ValueError, LorenzELError):
        pass
    raise argparse.ArgumentTypeError(
        f"bad population {spec!r} (try weibull:1,2 chisquare:3 skewnormal:1,3,5)")


def _parse_alpha(spec: str) -> float:
    try:
        alpha = float(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha {spec!r}")
    if not 0.0 < alpha < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie strictly in (0, 1), got {spec}")
    return alpha


def _parse_methods(spec: str) -> tuple:
    spec = spec.strip().lower()
    if spec == "none":
        return ()
    if spec == "all":
        return tuple(VariantKind)
    out = []
    for part in spec.split(","):
        part = part.strip()
        try:
            out.append(_kind(part))
        except ValueError:
            names = ", ".join(kind.value for kind in VariantKind)
            raise argparse.ArgumentTypeError(
                f"unknown method {part!r} (choose from {names} | all | none)") from None
    return tuple(dict.fromkeys(out))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lorenzel`` parser, built once per process and shared by every
    ``main`` call.  Its defaults are strings or immutable, so that no call
    can change what a later one reads: argparse converts a string default
    afresh on every parse."""
    parser = argparse.ArgumentParser(
        prog="lorenzel",
        description="Empirical-likelihood confidence intervals for generalized "
                    "Lorenz ordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("ci", help="intervals for ordinates of an income CSV")
    ci.add_argument("--input", required=True, help="CSV file of incomes")
    ci.add_argument("--value-column", required=True)
    ci.add_argument("--group-column", default=None)
    ci.add_argument("--group", default=None, help="keep only rows with this label")
    ci.add_argument("--t", type=_parse_t_spec, default="0.1..0.9:0.1",
                    help="abscissae: 'a..b:step' or comma list (default 0.1..0.9:0.1)")
    ci.add_argument("--methods", type=_parse_methods, default=tuple(VariantKind),
                    help="comma list of el,ael,tel,tael | all | none (default all)")
    ci.add_argument("--alpha", type=_parse_alpha, default=0.05)
    ci.add_argument("--output", default="-", help="output CSV path, '-' = stdout")
    ci.add_argument("--raw", action="store_true", help="full float precision")

    sim = sub.add_parser("simulate", help="Monte-Carlo bias/MSE/coverage study")
    sim.add_argument("--population", type=_parse_population,
                     default=Weibull(1.0, 2.0),
                     help="weibull:a,b | chisquare:k | skewnormal:loc,scale,shape")
    sim.add_argument("--n", default="25,50,100,150,300,500",
                     help="comma list of sample sizes")
    sim.add_argument("--t", type=_parse_t_spec, default="0.1..0.9:0.1")
    sim.add_argument("--reps", type=int, default=10_000)
    sim.add_argument("--alpha", type=_parse_alpha, default=0.05)
    sim.add_argument("--methods", type=_parse_methods, default=tuple(VariantKind))
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--output", default="-")
    sim.add_argument("--raw", action="store_true")
    sim.add_argument("--quiet", action="store_true", help="suppress progress lines")

    cur = sub.add_parser("curve", help="empirical Lorenz curve points")
    cur.add_argument("--input", required=True)
    cur.add_argument("--value-column", required=True)
    cur.add_argument("--group-column", default=None)
    cur.add_argument("--groups", default=None,
                     help="comma list of group labels (default: whole table only)")
    cur.add_argument("--grid-step", type=float, default=0.01)
    cur.add_argument("--output-dir", default=".")
    cur.add_argument("--raw", action="store_true")

    return parser


def _cmd_ci(args) -> int:
    if not args.methods:
        print("lorenzel ci: at least one method is required", file=sys.stderr)
        return 2
    if args.group is not None and args.group_column is None:
        print("lorenzel ci: --group requires --group-column", file=sys.stderr)
        return 2
    table = load_csv(args.input, args.value_column, args.group_column)
    if args.group is not None:
        table = table.filter(args.group)
    if table.n < 2:
        raise FileError(f"{args.input}: need at least 2 usable rows, got {table.n}")
    smp = table.sample()
    prec = None if args.raw else 4

    failure = []  # the first failure, which ends the table after the rows before it

    def rows():
        crit, level, kinds = chi2_crit(args.alpha), 1.0 - args.alpha, args.methods
        # the t grid in groups of rows that one array pass covers; each t's
        # methods share its truncation and start from each other's
        # endpoints, as in run_experiment
        per = max(_PASS_VALUES // smp.n, 1)
        for first in range(0, len(args.t), per):
            ts = args.t[first:first + per]
            V, setups, at = _stacked_setups([smp.values], ts)
            # the t before the first whose set-up fails, row i for the i-th
            good = next((i for i, (row,) in enumerate(at) if not isinstance(row, int)), len(ts))
            for i, j, cis in _t_major(_chunk_intervals(kinds, V[:good], setups[:good], crit,
                                                       level), good):
                ci = cis[i]
                if isinstance(ci, Exception):
                    failure.append(ci)
                    return
                # the estimate is the truncation's theta_hat, bit for bit
                yield [f"{ts[i]:.10g}", _fmt(setups[i][0], prec), kinds[j].value,
                       _fmt(ci.lower, prec), _fmt(ci.upper, prec), _fmt(ci.length, prec)]
            if good < len(ts):
                failure.append(at[good][0])
                return

    _write_table(args.output, ["t", "estimate", "method", "lower", "upper", "length"], rows())
    if failure:
        # raised here, not in rows(), so that no frame of its traceback
        # holds it in a reference cycle
        raise failure.pop()
    return 0


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig(
        population=args.population,
        n_grid=tuple(int(x) for x in args.n.split(",")),
        t_grid=tuple(args.t),
        reps=args.reps,
        alpha=args.alpha,
        methods=args.methods,
        seed=SeedSpec(master_seed=args.seed),
    )
    workers = _workers(args.workers)  # refused before the output is opened
    progress = None
    if not args.quiet:
        def progress(done, total, res):
            meth = res.method.value if res.method else "point"
            print(f"cell {done}/{total}: n={res.n} t={res.t:g} method={meth}",
                  file=sys.stderr, flush=True)

    def results():  # drawn lazily, so the output is opened before the study runs
        yield from run_experiment(cfg, workers=workers, progress=progress)

    write_results_csv(results(), cfg, args.output, precision=None if args.raw else 4)
    return 0


def _sanitize(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in str(label)) or "group"


def _cmd_curve(args) -> int:
    step = args.grid_step
    if not 0.0 < step < 1.0:
        print("lorenzel curve: --grid-step must lie in (0, 1)", file=sys.stderr)
        return 2
    grid = [t for t in _stepped_grid(0.0, 1.0, step)[1:] if t < 1.0]
    groups = []
    if args.groups is not None:
        if args.group_column is None:
            print("lorenzel curve: --groups requires --group-column", file=sys.stderr)
            return 2
        groups = [label.strip() for label in args.groups.split(",")]
    # _sanitize is not one-to-one, so two labels can ask for one file
    names = ["curve_ALL.csv"] + [f"curve_{_sanitize(label)}.csv" for label in groups]
    labels = ["the pooled table"] + [f"group {label!r}" for label in groups]
    for i, name in enumerate(names):
        if name in names[:i]:
            print(f"lorenzel curve: {labels[names.index(name)]} and {labels[i]} "
                  f"would both be written to {name}", file=sys.stderr)
            return 2
    table = load_csv(args.input, args.value_column, args.group_column)
    subs = [table] + [table.filter(label) for label in groups]
    prec = None if args.raw else 4
    # every group is computed before any file is written, so a failing
    # group leaves no partial set of files behind
    curves = []
    for label, sub in zip(labels, subs):
        if sub.n < 2:
            raise FileError(f"{label}: need at least 2 usable rows, got {sub.n}")
        curves.append(curve(sub.sample(), grid))
    try:
        os.makedirs(args.output_dir, exist_ok=True)
    except OSError as exc:
        raise FileError(f"cannot write {args.output_dir}: {exc}")
    for name, pts in zip(names, curves):
        path = os.path.join(args.output_dir, name)
        write_curve_csv(pts, path, precision=prec)
        print(path)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe shows here at the latest
        return code
    except BrokenPipeError:
        # the reader stopped early (``lorenzel ci ... | head -1``); point
        # stdout at devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a shell reports for a killed writer


def _run(args) -> int:
    try:
        if args.command == "ci":
            return _cmd_ci(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_curve(args)
    except (FileError, SchemaError) as exc:
        print(f"lorenzel {args.command}: {exc}", file=sys.stderr)
        return 3
    except LorenzELError as exc:
        print(f"lorenzel {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # bad config values surfaced past argparse
        print(f"lorenzel {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
