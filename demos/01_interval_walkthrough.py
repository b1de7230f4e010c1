"""From raw data to four confidence intervals, one step at a time.

Run:  python3 demos/01_interval_walkthrough.py
"""
import numpy as np

import lorenzel as lz

# A right-skewed "income-like" dataset.  Everything downstream is
# deterministic given this seed.
rng = np.random.default_rng(42)
data = rng.lognormal(mean=0.8, sigma=0.5, size=60)
s = lz.Sample(data)
t = 0.4

print(f"n = {s.n} observations, abscissa t = {t}")

# Step 1: the empirical t-quantile.  With n = 60 and t = 0.4 this is
# the 24th order statistic.
psi = lz.sample_quantile(s, t)
print(f"sample quantile psi_hat        = {psi:.6f}")

# Step 2: truncate.  Values above the quantile are zeroed out, values
# at or below it are kept; the mean of the result is the generalized
# Lorenz ordinate estimate.
V = lz.truncated_values(s, t)
theta_hat = lz.point_estimate(s, t)
print(f"kept {int(np.count_nonzero(V))} of {s.n} values")
print(f"point estimate theta_hat       = {theta_hat:.6f}")

# Step 3: the profile log-likelihood ratio.  It is zero at the point
# estimate and grows as the hypothesized ordinate moves away.
print("\nlog-ratio profiles (rows: hypothesized theta):")
print(f"{'theta':>8}  {'EL':>10}  {'AEL':>10}  {'TEL':>10}  {'TAEL':>10}")
for theta in (theta_hat, 0.9 * theta_hat, 1.1 * theta_hat, 1.3 * theta_hat):
    vals = [lz.log_ratio(kind, s, t, theta) for kind in lz.VariantKind]
    print(f"{theta:8.4f}  " + "  ".join(f"{v:10.5f}" for v in vals))

# Step 4: the scale factor that turns the ratio into a chi-square(1)
# statistic.  It compares the variance of the truncated values with
# the variance of the quantile-shifted ones.
sf = lz.scale_factor(s, t)
print(f"\nscale factor = {sf.ratio:.6f} "
      f"(sigma_p^2 = {sf.sigma_p_sq:.6f}, sigma_v^2 = {sf.sigma_v_sq:.6f})")

# Step 5: invert the scaled statistic at the 95% level.  TEL contains
# EL and TAEL contains AEL by construction.
print(f"\n95% confidence intervals for theta({t}):")
for kind in lz.VariantKind:
    ci = lz.invert(kind, s, t, 0.05)
    print(f"  {kind.value:>4}: [{ci.lower:.6f}, {ci.upper:.6f}] "
          f"length {ci.length:.6f}")
