"""Watch the scaled log-ratios converge to their chi-square(1) limit.

The central distributional fact behind every interval in this package:
evaluate each calibration's scaled statistic (EL, AEL, TEL, TAEL) at the
*true* ordinate across many replications and its distribution
approaches chi-square with one degree of freedom.

Run:  python3 demos/02_chisquare_limit.py
"""
import numpy as np
from scipy import stats

import lorenzel as lz

POP = lz.ChiSquare(3.0)
N = 400
T = 0.5
REPS = 2000
KINDS = ("el", "ael", "tel", "tael")

theta_true = lz.true_ordinate(POP, T)
print(f"population {POP}, true theta({T}) = {theta_true:.6f}")
print(f"simulating {REPS} replications at n = {N} ...")

# All four statistics come from the same samples; on one sample they share
# its truncation, EL and TEL one profile, and AEL and TAEL another.
seed = lz.SeedSpec(master_seed=7)
vals = {kind: np.empty(REPS) for kind in KINDS}
for r in range(REPS):
    smp = lz.sample(POP, N, seed, replication=r)
    for kind in KINDS:
        vals[kind][r] = lz.scaled_statistic(kind, smp, T, theta_true)

# Compare empirical quantiles against the chi-square(1) reference.
print(f"\n{'level':>6}  " + "  ".join(f"{kind:>8}" for kind in KINDS) + f"  {'chi2(1)':>8}")
for q in (0.50, 0.90, 0.95, 0.99):
    emp = "  ".join(f"{float(np.quantile(vals[kind], q)):8.4f}" for kind in KINDS)
    print(f"{q:6.2f}  {emp}  {float(stats.chi2.ppf(q, 1)):8.4f}")

print("\nKS distance to chi-square(1):")
for kind in KINDS:
    ks = stats.kstest(vals[kind], stats.chi2(1).cdf)
    print(f"  {kind:>4}: {ks.statistic:.4f} (p = {ks.pvalue:.3f})")

# The same critical value the intervals use, straight from the normal
# quantile identity:
print(f"\n95% critical value used by invert(): {lz.chi2_crit(0.05):.6f}")
