"""The three benchmark workloads: ``coverage``, ``realdata`` and ``limit``.

A workload is built from the seed (that is the set-up the benchmark
times as ``setup_s``) and then repeats identical rounds of operations.
``round`` times only the calls into lorenzel and returns a ``Round``;
``check`` runs after timing and compares the outputs with computations
made apart from the program, or with properties the method must have.
It returns one message per failed check.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import math
import os
import warnings
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np
from scipy import integrate, stats

import lorenzel as lz
import lorenzel.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("el", "ael", "tel", "tael")
ALPHA = 0.05
DECILES = tuple(k / 10 for k in range(1, 10))


@dataclass
class Round:
    """What one round did: operations attempted and failed, units of
    output produced (intervals, interval rows or statistics), and the
    seconds spent in lorenzel by each timed call, in the same order in
    every round."""

    attempted: int = 0
    failed: int = 0
    units: int = 0
    op_s: list = field(default_factory=list)


class HostClock:
    """Times calls into lorenzel in reference seconds.

    This host's speed swings by up to 2x within seconds, as other tenants
    come and go, and the swings hit a reference kernel of small numpy
    operations in a Python loop about as hard as they hit lorenzel.  At
    most every REF_EVERY seconds, before and after timed calls, the clock
    times that kernel; a call's duration is divided by the mean duration
    of the kernel runs just before and after it (or the latest one) and
    multiplied by REF_NOMINAL_S.  The result is the call's
    duration on a host where the kernel takes REF_NOMINAL_S, which repeats
    from run to run where raw seconds do not.
    """

    REF_EVERY = 0.2
    REF_NOMINAL_S = 2.5e-3  # the kernel's typical duration on the 2-core reference host

    def __init__(self) -> None:
        self._x = np.linspace(0.0, 1.0, 500)
        self._last = -math.inf
        self._ref_s = math.nan
        self.raw_s = 0.0  # unscaled seconds of all timed calls
        self.ref_runs: list[float] = []

    def _reference(self) -> float:
        start = perf_counter()
        acc = 0.0
        for i in range(300):
            y = self._x * 1.0001 + i
            acc += float(np.mean(y / (1.0 + 0.1 * y)))
        return perf_counter() - start

    def _refresh(self) -> bool:
        if perf_counter() - self._last < self.REF_EVERY:
            return False
        self._ref_s = self._reference()
        self.ref_runs.append(self._ref_s)
        self._last = perf_counter()
        return True

    def start(self) -> float:
        self._refresh()
        return perf_counter()

    def stop(self, start: float) -> float:
        """Reference seconds since ``start``."""
        took = perf_counter() - start
        self.raw_s += took
        before = self._ref_s
        ref = 0.5 * (before + self._ref_s) if self._refresh() else before
        return took * self.REF_NOMINAL_S / ref


def load_oracle():
    """The scipy brentq/grid interval oracle kept with the test suite."""
    path = os.path.join(ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("lorenzel_interval_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_ci


def exact_ordinate(pop, t: float) -> float:
    """theta(t) from closed forms, or scipy's own densities and quantiles."""
    if isinstance(pop, lz.Weibull) and pop.shape == 1.0:
        b = pop.scale  # exponential with mean b
        return b - b * (1.0 - t) * (1.0 - math.log1p(-t))
    if isinstance(pop, lz.ChiSquare):
        k = pop.df
        return k * float(stats.chi2.cdf(stats.chi2.ppf(t, k), k + 2))
    if isinstance(pop, lz.SkewNormal):
        dist = stats.skewnorm(pop.shape, loc=pop.location, scale=pop.scale)
        val, _ = integrate.quad(lambda x: x * dist.pdf(x), -math.inf, dist.ppf(t),
                                epsabs=1e-13, epsrel=1e-11, limit=200)
        return float(val)
    raise TypeError(f"no independent ordinate for {pop}")


def truncated_mean(sorted_values: np.ndarray, t_text: str) -> float:
    """Generalized Lorenz ordinate from the exact type-1 quantile index."""
    n = sorted_values.size
    k = math.ceil(Fraction(n) * Fraction(t_text))
    psi = sorted_values[min(max(k, 1), n) - 1]
    return float(sorted_values[sorted_values <= psi].sum() / n)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------- coverage

POPULATIONS = (lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0), lz.SkewNormal(1.0, 3.0, 5.0))
# n = 25 is left out: TAEL raises BracketFailure there on some seeds only
COVERAGE_N = (50, 100, 150, 300, 500)
COVERAGE_REPS = 4
# (population index, n, t, method): cells re-inverted by the oracle
ORACLE_CELLS = ((0, 50, 0.1, "el"), (1, 50, 0.5, "ael"), (2, 50, 0.9, "tael"),
                (1, 300, 0.9, "tel"), (2, 300, 0.1, "el"))
ORACLE_POINTS = 1025
BAND_Z = 5.0
BAND_BIAS = 0.02  # finite-n coverage error allowed at n >= 300


class Coverage:
    """The paper's simulation design through ``run_experiment``.

    One round runs every population over n x t x method with
    ``COVERAGE_REPS`` replications per cell; round i draws from stream i.
    """

    name = "coverage"
    unit_calls = slice(None)  # every timed call is one simulation cell

    def __init__(self, seed: int, workdir: str, clock: HostClock,
                 smoke: bool = False) -> None:
        self.clock = clock
        self.seed = seed
        self.n_grid = (50, 300) if smoke else COVERAGE_N
        self.t_grid = (0.1, 0.5, 0.9) if smoke else DECILES
        self.first_round: dict = {}  # (pop index, n, t, method) -> CellResult
        self.errors: list[str] = []
        # per method: [covered, produced] in the large-n central cells
        self.band = {kind: [0, 0] for kind in KINDS}
        self.band_samples = 0

    def config(self, pop, stream: int):
        return lz.ExperimentConfig(
            population=pop, n_grid=self.n_grid, t_grid=self.t_grid,
            reps=COVERAGE_REPS, alpha=ALPHA, methods=KINDS,
            seed=lz.SeedSpec(master_seed=self.seed, stream_id=stream))

    def round(self, index: int) -> Round:
        out = Round()
        for p, pop in enumerate(POPULATIONS):
            cfg = self.config(pop, index)
            mark = [self.clock.start()]

            def lap(done, total, res):
                out.op_s.append(self.clock.stop(mark[0]))
                mark[0] = self.clock.start()

            results = lz.run_experiment(cfg, workers=1, progress=lap)
            cells = {(c.n, c.t, c.method.value): c for c in results}
            for cell in results:
                out.attempted += cfg.reps
                out.failed += cell.failures
            self._tally(index, p, cells)
        out.units = out.attempted - out.failed
        return out

    def _tally(self, index: int, p: int, cells: dict) -> None:
        """Nesting and band bookkeeping, kept as counts so that memory does
        not grow with the number of rounds."""
        if index == 0:
            self.first_round.update({(p, *key): c for key, c in cells.items()})
        for (n, t, kind), c in cells.items():
            produced = COVERAGE_REPS - c.failures
            if n >= 300 and 0.3 <= t <= 0.7 and produced:
                self.band[kind][0] += round(c.coverage * produced)
                self.band[kind][1] += produced
            if kind in ("tel", "tael"):
                inner = cells[n, t, kind[1:]]
                if c.failures or inner.failures:
                    continue
                if (c.coverage < inner.coverage
                        or c.mean_length < inner.mean_length * (1.0 - 1e-7)):
                    self.errors.append(f"{kind} does not nest {kind[1:]} in round {index}, "
                                       f"{POPULATIONS[p]} n={n} t={t}")
        # the t values of one replication share a sample, so the band
        # counts distinct samples, not intervals
        self.band_samples += sum(n >= 300 for n in self.n_grid) * COVERAGE_REPS

    def check(self) -> list[str]:
        errors = list(self.errors)
        thetas = {}
        for p, pop in enumerate(POPULATIONS):
            for t in self.t_grid:
                got = lz.true_ordinate(pop, t)
                want = exact_ordinate(pop, t)
                thetas[p, t] = want
                if abs(got - want) > 1e-8 * max(1.0, abs(want)):
                    errors.append(f"true_ordinate({pop}, {t}) = {got!r}, expected {want!r}")

        for kind, (covered, produced) in self.band.items():
            if not produced:
                continue
            cov = covered / produced
            half = BAND_Z * math.sqrt(ALPHA * (1 - ALPHA) / self.band_samples) + BAND_BIAS
            if abs(cov - (1 - ALPHA)) > half:
                errors.append(f"{kind} coverage {cov:.4f} at n>=300, 0.3<=t<=0.7 lies "
                              f"outside 0.95 +/- {half:.4f} ({self.band_samples} samples)")

        oracle_ci = load_oracle()
        for p, n, t, kind in ORACLE_CELLS:
            if n not in self.n_grid or t not in self.t_grid:
                continue
            pop = POPULATIONS[p]
            cell = self.first_round[p, n, t, kind]
            if cell.failures:
                continue
            cfg = self.config(pop, 0)
            theta = thetas[p, t]
            covered, lengths = 0, []
            for r in range(COVERAGE_REPS):
                values = lz.sample(pop, n, cfg.seed, replication=r).values
                lo, hi = oracle_ci(values, t, ALPHA, kind, points=ORACLE_POINTS)
                covered += lo <= theta <= hi
                lengths.append(hi - lo)
                ci = lz.invert(kind, lz.Sample(values), t, ALPHA)
                scale = max(abs(lo), abs(hi), hi - lo)
                if max(abs(ci.lower - lo), abs(ci.upper - hi)) > 1e-6 * scale:
                    errors.append(f"{kind} interval [{ci.lower!r}, {ci.upper!r}] differs from "
                                  f"the oracle's [{lo!r}, {hi!r}] ({pop} n={n} t={t} rep {r})")
            if cell.coverage != covered / COVERAGE_REPS:
                errors.append(f"cell {pop} n={n} t={t} {kind}: coverage {cell.coverage} "
                              f"but the oracle covers {covered}/{COVERAGE_REPS}")
            if not _close(cell.mean_length, float(np.mean(lengths)), 1e-6):
                errors.append(f"cell {pop} n={n} t={t} {kind}: mean length "
                              f"{cell.mean_length!r}, oracle {np.mean(lengths)!r}")
        return errors


# --------------------------------------------------------------- realdata

# County count per state: state sizes run from 3 to 254 rows, as in a
# county-level income table.  States with 10 or fewer rows make `ci`
# exit 4 (DegenerateVariance at t = 0.1), whatever the seed.
STATE_SIZES = {
    "AL": 67, "AK": 30, "AZ": 15, "AR": 75, "CA": 58, "CO": 64, "CT": 8, "DE": 3,
    "FL": 67, "GA": 159, "HI": 5, "ID": 44, "IL": 102, "IN": 92, "IA": 99, "KS": 105,
    "KY": 120, "LA": 64, "ME": 16, "MD": 24, "MA": 14, "MI": 83, "MN": 87, "MS": 82,
    "MO": 115, "MT": 56, "NE": 93, "NV": 17, "NH": 10, "NJ": 21, "NM": 33, "NY": 62,
    "NC": 100, "ND": 53, "OH": 88, "OK": 77, "OR": 36, "PA": 67, "RI": 5, "SC": 46,
    "SD": 66, "TN": 95, "TX": 254, "UT": 29, "VT": 14, "VA": 133, "WA": 39, "WV": 55,
    "WI": 72, "WY": 23,
}
SMOKE_STATES = ("DE", "NH", "MA", "AZ", "OR", "TX")
VALUE_COLUMN = "Median_Household_Income_2020"
MALFORMED = ("", "N/A", "nan", "inf", "(X)", "-", "41,250")
WHOLE_TABLE_CALLS = 10


def write_income_csv(path: str, seed: int) -> dict:
    """Synthetic county table: log-normal incomes around a per-state level,
    whole dollars, distinct within a state, plus the malformed rows of
    MALFORMED at seeded positions.  Returns the values of each state."""
    rng = np.random.default_rng([seed, 2020])
    values = {}
    rows = []
    for s_idx, (state, size) in enumerate(STATE_SIZES.items()):
        level = rng.normal(math.log(57_000.0), 0.15)
        vals = np.round(np.exp(rng.normal(level, 0.22, size)))
        while np.unique(vals).size < size:
            dup = np.ones(size, bool)
            dup[np.unique(vals, return_index=True)[1]] = False
            vals[dup] = np.round(np.exp(rng.normal(level, 0.22, int(dup.sum()))))
        values[state] = np.sort(vals)
        for j, v in enumerate(vals):
            rows.append((f"{s_idx + 1:02d}{2 * j + 1:03d}", f"County {j + 1}", state, f"{v:.0f}"))
    states = list(STATE_SIZES)
    for text in MALFORMED:
        at = int(rng.integers(0, len(rows) + 1))
        state = states[int(rng.integers(0, len(states)))]
        rows.insert(at, ("99999", "Unmatched", state, text))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"FIPS,County,State,{VALUE_COLUMN}\n")
        for fips, county, state, text in rows:
            cell = f'"{text}"' if "," in text else text
            fh.write(f"{fips},{county},{state},{cell}\n")
    return values


def read_csv_rows(path: str) -> list[list[str]]:
    """Rows of a CSV that lorenzel wrote; none if it wrote no file."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


class RealData:
    """The income pipeline in-process through ``lorenzel.cli.main``.

    One round: ``ci`` on the whole table WHOLE_TABLE_CALLS times, ``ci``
    on each state's rows, and one ``curve`` call for the pooled table and
    every state.  An operation is one CLI call; it fails when the exit
    code is not 0.
    """

    name = "realdata"
    unit_calls = slice(0, WHOLE_TABLE_CALLS)  # the whole-table ci calls

    def __init__(self, seed: int, workdir: str, clock: HostClock,
                 smoke: bool = False) -> None:
        self.clock = clock
        self.workdir = workdir
        self.csv = os.path.join(workdir, "incomes.csv")
        self.values = write_income_csv(self.csv, seed)
        self.states = SMOKE_STATES if smoke else tuple(STATE_SIZES)
        self.curve_dir = os.path.join(workdir, "curves")
        self.codes: dict = {}
        self.digests: set = set()
        warnings.filterwarnings("ignore", message=r"dropped \d+ unusable row")

    def _ci_out(self, label: str) -> str:
        return os.path.join(self.workdir, f"ci_{label}.csv")

    def jobs(self):
        base = ["--input", self.csv, "--value-column", VALUE_COLUMN]
        whole = ["ci", *base, "--output", self._ci_out("ALL"), "--raw"]
        for _ in range(WHOLE_TABLE_CALLS):
            yield "ALL", whole
        for state in self.states:
            yield state, ["ci", *base, "--group-column", "State", "--group", state,
                          "--output", self._ci_out(state), "--raw"]
        yield "curve", ["curve", *base, "--group-column", "State",
                        "--groups", ",".join(self.states),
                        "--output-dir", self.curve_dir, "--raw"]

    def round(self, index: int) -> Round:
        out = Round()
        sink = io.StringIO()
        codes = {}
        for label, argv in self.jobs():
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = self.clock.start()
                code = lorenzel.cli.main(argv)
                out.op_s.append(self.clock.stop(start))
            out.attempted += 1
            out.failed += code != 0
            codes[label] = code
            sink.seek(0)
            sink.truncate()
        self.codes = codes
        digest = hashlib.sha256()
        for label in ("ALL", *self.states):
            rows = read_csv_rows(self._ci_out(label))
            written = max(len(rows) - 1, 0)
            out.units += written * (WHOLE_TABLE_CALLS if label == "ALL" else 1)
            digest.update("\n".join(map(",".join, rows)).encode())
        self.digests.add(digest.hexdigest())
        return out

    def failed_tables(self) -> list[str]:
        return [f"{label}({STATE_SIZES.get(label, '-')} rows)"
                for label, code in self.codes.items() if code != 0]

    def check(self) -> list[str]:
        errors = []
        table = lz.load_csv(self.csv, VALUE_COLUMN, "State")
        expected_rows = sum(STATE_SIZES.values())
        if table.dropped != len(MALFORMED) or table.n != expected_rows:
            errors.append(f"load_csv kept {table.n} rows and dropped {table.dropped}; "
                          f"the table has {expected_rows} good and {len(MALFORMED)} malformed")
        if len(self.digests) > 1:
            errors.append("ci outputs differ between rounds on the same input")

        pooled = np.sort(np.concatenate(list(self.values.values())))
        samples = {"ALL": pooled, **{s: self.values[s] for s in self.states}}
        for label, code in self.codes.items():
            if code not in (0, 4):
                errors.append(f"{label}: exit code {code}")
        for label in ("ALL", *self.states):
            rows = read_csv_rows(self._ci_out(label))
            if self.codes[label] != 0:
                if len(rows) > 1:
                    errors.append(f"{label}: failed run left {len(rows) - 1} rows")
                continue
            errors += self._check_ci(label, samples[label], rows)
        if self.codes["curve"] == 0:
            for label, values in samples.items():
                path = os.path.join(self.curve_dir, f"curve_{label}.csv")
                errors += self._check_curve(label, values, read_csv_rows(path))
        return errors

    def _check_ci(self, label: str, values: np.ndarray, rows) -> list[str]:
        if not rows:
            return [f"{label}: ci exited 0 but wrote no file"]
        errors = []
        header, body = rows[0], rows[1:]
        if header != ["t", "estimate", "method", "lower", "upper", "length"]:
            return [f"{label}: unexpected ci header {header}"]
        expected = {(f"{t:.10g}", k) for t in DECILES for k in KINDS}
        got = {(r[0], r[2]) for r in body}
        if got != expected or len(body) != len(expected):
            return [f"{label}: ci rows {sorted(got)} do not cover 9 deciles x 4 methods"]
        ends = {}
        for t_text, est, kind, lower, upper, length in body:
            est, lower, upper, length = map(float, (est, lower, upper, length))
            ends[t_text, kind] = (lower, upper)
            want = truncated_mean(values, t_text)
            if not _close(est, want, 1e-9):
                errors.append(f"{label} t={t_text}: estimate {est!r}, numpy gives {want!r}")
            if not lower <= est <= upper:
                errors.append(f"{label} t={t_text} {kind}: {est!r} outside [{lower!r}, {upper!r}]")
            if length != upper - lower:
                errors.append(f"{label} t={t_text} {kind}: length {length!r} != upper - lower")
        for t_text in {r[0] for r in body}:
            for outer, inner in (("tel", "el"), ("tael", "ael")):
                (olo, ohi), (ilo, ihi) = ends[t_text, outer], ends[t_text, inner]
                if (olo > ilo + 2e-8 * abs(ilo) + 1e-12
                        or ohi < ihi - 2e-8 * abs(ihi) - 1e-12):
                    errors.append(f"{label} t={t_text}: {outer} does not contain {inner}")
        return errors

    def _check_curve(self, label: str, values: np.ndarray, rows) -> list[str]:
        if rows[:1] != [["t", "lorenz", "generalized", "diagonal"]] or len(rows) != 100:
            return [f"curve {label}: expected a header and 99 rows, got {len(rows)} lines"]
        n = values.size
        t_text = [r[0] for r in rows[1:]]
        lorenz = np.array([float(r[1]) for r in rows[1:]])
        general = np.array([float(r[2]) for r in rows[1:]])
        errors = []
        if np.any(np.diff(general) < 0.0):
            errors.append(f"curve {label}: generalized ordinates decrease in t")
        # the poorest k = ceil(n t) of n rows hold at most k/n of the total
        steps = np.array([math.ceil(Fraction(n) * Fraction(t)) / n for t in t_text])
        if np.any(lorenz > steps * (1.0 + 1e-12)):
            errors.append(f"curve {label}: Lorenz ordinate above the diagonal")
        want = np.array([truncated_mean(values, t) for t in t_text])
        if not np.allclose(general, want, rtol=1e-9, atol=0.0):
            errors.append(f"curve {label}: generalized ordinates differ from numpy")
        return errors


# ------------------------------------------------------------------ limit

LIMIT_POPULATION = lz.Weibull(1.0, 2.0)
LIMIT_N = 500
LIMIT_T = (0.5, 0.9)
LIMIT_BLOCK = 100  # replications per round
LIMIT_OP = 10  # replications per timed call
LIMIT_KEEP = 50_000  # replications kept for the distribution checks
# finite-n distance from chi-square(1) allowed at n = 500, on top of the
# sampling error of R replications
KS_BIAS = 0.02
P95_BIAS = 0.01
FALSE_ALARM = 1e-7


class Limit:
    """The chi-square(1) limit: ``sample`` then ``scaled_statistic`` at the
    true ordinate for every kind, t in LIMIT_T, n = LIMIT_N."""

    name = "limit"
    unit_calls = slice(None)  # every timed call is LIMIT_OP replications

    def __init__(self, seed: int, workdir: str, clock: HostClock,
                 smoke: bool = False) -> None:
        self.clock = clock
        self.seed = lz.SeedSpec(master_seed=seed)
        self.theta = {t: lz.true_ordinate(LIMIT_POPULATION, t) for t in LIMIT_T}
        self.values = {(k, t): array("d") for k in KINDS for t in LIMIT_T}
        self.errors: list[str] = []

    def round(self, index: int) -> Round:
        out = Round()
        first = index * LIMIT_BLOCK
        for op in range(first, first + LIMIT_BLOCK, LIMIT_OP):
            rows = []
            start = self.clock.start()
            for rep in range(op, op + LIMIT_OP):
                smp = lz.sample(LIMIT_POPULATION, LIMIT_N, self.seed, replication=rep)
                row = {}
                for kind, t in self.values:
                    try:
                        row[kind, t] = lz.scaled_statistic(kind, smp, t, self.theta[t])
                    except lz.LorenzELError:
                        row[kind, t] = None
                rows.append(row)
            out.op_s.append(self.clock.stop(start))
            for rep, row in enumerate(rows, op):
                out.attempted += len(row)
                out.failed += sum(v is None for v in row.values())
                self._check_row(rep, row)
        out.units = out.attempted - out.failed
        return out

    def _check_row(self, rep: int, row: dict) -> None:
        """Per-replication checks; the distribution checks keep the first
        LIMIT_KEEP replications, so memory does not grow with the run."""
        for (kind, t), v in row.items():
            if v is None:
                continue
            if not (math.isfinite(v) and v >= 0.0):
                self.errors.append(f"rep {rep} {kind} t={t}: statistic {v!r}")
            if rep < LIMIT_KEEP:
                self.values[kind, t].append(v)
        for t in LIMIT_T:
            for outer, inner in (("tel", "el"), ("tael", "ael")):
                a, b = row[outer, t], row[inner, t]
                if a is not None and b is not None and a > b:
                    self.errors.append(f"rep {rep} t={t}: {outer} {a!r} exceeds {inner} {b!r}")

    def check(self) -> list[str]:
        errors = self.errors[:20]
        for t in LIMIT_T:
            want = exact_ordinate(LIMIT_POPULATION, t)
            if abs(self.theta[t] - want) > 1e-8 * max(1.0, abs(want)):
                errors.append(f"true_ordinate at t={t} is {self.theta[t]!r}, expected {want!r}")
        vals = {key: np.asarray(v) for key, v in self.values.items()}
        chi2 = stats.chi2(1)
        for (kind, t), v in vals.items():
            r = v.size
            # Dvoretzky-Kiefer-Wolfowitz bound and a normal bound on the
            # empirical 95th percentile's cdf level, both at FALSE_ALARM
            ks_tol = math.sqrt(math.log(2.0 / FALSE_ALARM) / (2.0 * r)) + KS_BIAS
            z = stats.norm.isf(FALSE_ALARM / 2.0)
            p_tol = z * math.sqrt(0.95 * 0.05 / r) + P95_BIAS
            ks = float(stats.kstest(v, chi2.cdf).statistic)
            level = float(chi2.cdf(np.percentile(v, 95)))
            if ks > ks_tol:
                errors.append(f"{kind} t={t}: KS distance {ks:.4f} to chi2(1) > {ks_tol:.4f}")
            if abs(level - 0.95) > p_tol:
                errors.append(f"{kind} t={t}: 95th percentile sits at chi2(1) level "
                              f"{level:.4f}, outside 0.95 +/- {p_tol:.4f}")
        return errors

    def summary(self) -> list[str]:
        chi2 = stats.chi2(1)
        lines = []
        for (kind, t), v in self.values.items():
            v = np.asarray(v)
            lines.append(f"limit {kind} t={t}: {v.size} reps, pct95 {np.percentile(v, 95):.3f} "
                         f"(chi2(1) 3.841), KS {stats.kstest(v, chi2.cdf).statistic:.4f}")
        return lines
