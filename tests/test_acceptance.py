"""Acceptance gate: end-to-end checks of the library's headline claims.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints a single ``acceptance N (...): PASS/FAIL`` line
directly on the terminal (bypassing pytest's capture), so a full run
always shows one verdict per criterion.

Criterion 9 needs the real median-household-income snapshot and is
skipped unless ``LORENZEL_INCOME_CSV`` points at the file (the value
column defaults to ``Median_Household_Income_2020`` and can be
overridden via ``LORENZEL_INCOME_VALUE``).
"""
from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest
from scipy import stats as sps

import lorenzel as lz
from conftest import oracle_ci, random_positive_data

ALPHA = 0.05
POPULATIONS = (
    lz.Weibull(1.0, 2.0),
    lz.ChiSquare(3.0),
    lz.SkewNormal(1.0, 3.0, 5.0),
)


def _report(capfd, num: int, desc: str, verdict: str) -> None:
    with capfd.disabled():
        print(f"acceptance {num} ({desc}): {verdict}", flush=True)


def _check(capfd, num: int, desc: str, ok: bool, detail: str) -> None:
    _report(capfd, num, desc, "PASS" if ok else "FAIL")
    assert ok, f"acceptance {num} ({desc}): {detail}"


def test_criterion_1_weibull_bias_mse(capfd):
    """Point-estimate benchmark: Weibull(1,2), n=50, t=0.5, 10^4 reps.

    Bias and MSE are interval-free summaries, so the cell runs in
    estimate-only mode; the wall-clock budget covers the whole cell.
    """
    cfg = lz.ExperimentConfig(population=lz.Weibull(1.0, 2.0), n_grid=(50,),
                              t_grid=(0.5,), reps=10_000, methods=(), seed=lz.SeedSpec(0))
    start = time.perf_counter()
    (cell,) = lz.run_experiment(cfg)
    elapsed = time.perf_counter() - start
    ok = (abs(cell.bias - 0.0109) <= 0.003
          and abs(cell.mse - 0.0050) <= 0.2 * 0.0050
          and elapsed < 120.0)
    _check(capfd, 1, "Weibull bias/MSE benchmark", ok,
           f"bias={cell.bias:.5f} mse={cell.mse:.5f} elapsed={elapsed:.1f}s")


def test_criterion_2_chisquare_bias_mse(capfd):
    """Point-estimate benchmark: chi-square(3), n=500, t=0.9, 10^4 reps."""
    cfg = lz.ExperimentConfig(population=lz.ChiSquare(3.0), n_grid=(500,),
                              t_grid=(0.9,), reps=10_000, methods=(), seed=lz.SeedSpec(0))
    (cell,) = lz.run_experiment(cfg)
    ok = (abs(cell.bias - 0.0024) <= 0.002
          and abs(cell.mse - 0.0072) <= 0.2 * 0.0072)
    _check(capfd, 2, "chi-square bias/MSE benchmark", ok,
           f"bias={cell.bias:.5f} mse={cell.mse:.5f}")


def test_criterion_3_chi_square_limit(capfd):
    """The scaled log-ratio at the true ordinate is chi-square(1).

    n=500 draws from Weibull(1,2), t=0.5, 5000 replications: the
    empirical 95th percentile sits near 3.84 and the KS distance to
    the chi-square(1) cdf stays small.
    """
    pop = lz.Weibull(1.0, 2.0)
    theta = lz.true_ordinate(pop, 0.5)
    seed = lz.SeedSpec(0)
    vals = np.empty(5000)
    for r in range(vals.size):
        smp = lz.sample(pop, 500, seed, replication=r)
        vals[r] = lz.scaled_statistic("el", smp, 0.5, theta)
    pct95 = float(np.percentile(vals, 95))
    ks = float(sps.kstest(vals, sps.chi2(1).cdf).statistic)
    ok = abs(pct95 - 3.84) <= 0.25 and ks < 0.03
    _check(capfd, 3, "chi-square(1) limit of the scaled statistic", ok,
           f"pct95={pct95:.4f} ks={ks:.4f}")


def test_criterion_4_coverage_bands(capfd):
    """All four calibrations hold 95% nominal coverage at n=300.

    Each population, t=0.5, 2000 replications, alpha=0.05: every
    coverage lands in [0.93, 0.975].
    """
    rows = []
    for pop in POPULATIONS:
        cfg = lz.ExperimentConfig(population=pop, n_grid=(300,), t_grid=(0.5,),
                                  reps=2000, alpha=0.05, seed=lz.SeedSpec(0))
        for cell in lz.run_experiment(cfg):
            rows.append((str(pop), cell.method.value, cell.coverage,
                         cell.failures))
    ok = all(0.93 <= cov <= 0.975 for _, _, cov, _ in rows)
    _check(capfd, 4, "nominal 95% coverage bands", ok, f"rows={rows}")


def test_criterion_5_transform_nesting(capfd):
    """Transformed intervals contain their untransformed counterparts.

    Part one compares endpoints on 500 random datasets (slack is twice
    the documented root tolerance); part two checks the implied
    coverage ordering in every simulated cell of a shared-draw study.
    """
    rng = np.random.default_rng(55)
    endpoint_ok = True
    detail = ""
    for i in range(500):
        n = int(rng.choice((25, 100)))
        data = random_positive_data(rng, n)
        t = float(rng.choice((0.2, 0.5, 0.8)))
        s = lz.Sample(data)
        for outer_kind, inner_kind in (("tel", "el"), ("tael", "ael")):
            try:
                inner = lz.invert(inner_kind, s, t, ALPHA)
                outer = lz.invert(outer_kind, s, t, ALPHA)
            except lz.BracketFailure:
                # the bounded statistic stayed under the critical value:
                # its acceptance region is a superset by construction
                continue
            slack_lo = 2.0 * (1e-8 * abs(inner.lower) + 1e-12)
            slack_hi = 2.0 * (1e-8 * abs(inner.upper) + 1e-12)
            if (outer.lower > inner.lower + slack_lo
                    or outer.upper < inner.upper - slack_hi):
                endpoint_ok = False
                detail = (f"dataset {i}: {outer_kind} does not contain "
                          f"{inner_kind} (n={n}, t={t})")

    ordering_ok = True
    for pop in (lz.Weibull(1.0, 2.0), lz.ChiSquare(3.0)):
        cfg = lz.ExperimentConfig(population=pop, n_grid=(50, 100),
                                  t_grid=(0.5,), reps=400, alpha=0.05,
                                  seed=lz.SeedSpec(5))
        cells = {(c.n, c.method): c for c in lz.run_experiment(cfg)}
        for n in cfg.n_grid:
            quartet = [cells[(n, m)] for m in lz.VariantKind]
            if any(c.failures for c in quartet):
                ordering_ok = False
                detail = f"failures in cell {pop} n={n}"
                continue
            el, ael, tel, tael = quartet
            if (tel.coverage < el.coverage or tael.coverage < ael.coverage):
                ordering_ok = False
                detail = f"coverage ordering broken for {pop} n={n}"

    _check(capfd, 5, "transform nesting and coverage ordering",
           endpoint_ok and ordering_ok, detail)


def test_criterion_6_oracle_equivalence(capfd):
    """Bisection endpoints match a dense-grid sub-level-set oracle.

    100 random datasets with n <= 50: worst relative endpoint
    disagreement stays below 1e-4.
    """
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 51))
        data = random_positive_data(rng, n)
        t = float(rng.choice((0.2, 0.5, 0.8)))
        ci = lz.invert("el", lz.Sample(data), t, ALPHA)
        lo, hi = oracle_ci(data, t, 0.05, "el")
        worst = max(worst,
                    abs(ci.lower - lo) / max(abs(lo), 1e-12),
                    abs(ci.upper - hi) / max(abs(hi), 1e-12))
    ok = worst <= 1e-4
    _check(capfd, 6, "grid-oracle endpoint agreement", ok,
           f"worst relative disagreement {worst:.3g}")


def test_criterion_7_solver_contract(capfd):
    """Multiplier solver: tight residuals, feasible weights, hull guard.

    10^4 mixed-sign deviation vectors across twelve orders of magnitude
    of scale; every one-signed vector raises ConvexHullViolation.
    """
    rng = np.random.default_rng(77)
    count = 0
    worst = 0.0
    feasible = True
    while count < 10_000:
        m = int(rng.integers(2, 61))
        scale = 10.0 ** rng.uniform(-6, 6)
        shape = int(rng.integers(0, 3))
        if shape == 0:
            w = rng.normal(0.0, 1.0, m)
        elif shape == 1:
            w = rng.lognormal(0.0, 1.0, m) - float(rng.uniform(0.5, 3.0))
        else:
            w = rng.uniform(-1.0, 1.0, m) ** 3
        w = w * scale
        if not (w.min() < 0.0 < w.max()):
            continue
        lam = lz.solve_lambda(w)
        resid = float(np.mean(w / (1.0 + lam * w)))
        worst = max(worst, abs(resid) / (1e-10 * (1.0 + float(np.abs(w).max()))))
        feasible = feasible and bool(np.all(1.0 + lam * w > 0.0))
        count += 1
    one_signed = ([0.5, 1.0, 2.0], [-3.0, -0.1], [0.0, 1.0, 2.0],
                  [-1.0, 0.0], [0.0, 0.0])
    rejected = True
    for vec in one_signed:
        try:
            lz.solve_lambda(np.asarray(vec, dtype=float))
            rejected = False
        except lz.ConvexHullViolation:
            pass
    ok = worst <= 1.0 and feasible and rejected
    _check(capfd, 7, "multiplier solver contract", ok,
           f"worst_resid_ratio={worst:.3g} feasible={feasible} "
           f"one_signed_rejected={rejected}")


def test_criterion_8_closed_form_ordinate(capfd):
    """Exact ordinate matches the exponential closed form.

    Weibull with shape 1 and scale 2 is Exp(mean 2), whose truncated
    mean is 2 - 2(1-t)(1 - ln(1-t)).
    """
    pop = lz.Weibull(1.0, 2.0)
    worst = max(
        abs(lz.true_ordinate(pop, t)
            - (2.0 - 2.0 * (1.0 - t) * (1.0 - math.log(1.0 - t))))
        for t in [k / 10 for k in range(1, 10)])
    ok = worst <= 1e-8
    _check(capfd, 8, "closed-form exponential ordinate", ok,
           f"worst abs error {worst:.3g}")


def test_criterion_9_income_snapshot(capfd):
    """Reproduce the reference values for the income-data snapshot."""
    path = os.environ.get("LORENZEL_INCOME_CSV")
    if not path:
        _report(capfd, 9, "income snapshot reproduction",
                "SKIP (set LORENZEL_INCOME_CSV to run)")
        pytest.skip("income data snapshot not supplied")
    column = os.environ.get("LORENZEL_INCOME_VALUE",
                            "Median_Household_Income_2020")
    s = lz.load_csv(path, column).sample()
    theta = lz.point_estimate(s, 0.5)
    el = lz.invert("el", s, 0.5, ALPHA)
    tael = lz.invert("tael", s, 0.9, ALPHA)
    ok = (f"{theta:.3f}" == "23514.140"
          and abs(el.lower - 23312.6016) <= 1e-3 * 23312.6016
          and abs(el.upper - 23715.7678) <= 1e-3 * 23715.7678
          and abs(tael.length - 1100.1697) <= 1e-3 * 1100.1697)
    _check(capfd, 9, "income snapshot reproduction", ok,
           f"theta={theta:.3f} el=({el.lower:.4f}, {el.upper:.4f}) "
           f"tael_length={tael.length:.4f}")
