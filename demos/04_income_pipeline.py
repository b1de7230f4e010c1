"""The full income-data pipeline: CSV in, curves and intervals out.

Uses the real median-household-income snapshot when the environment
variable LORENZEL_INCOME_CSV points at it (value column overridable
via LORENZEL_INCOME_VALUE); otherwise it fabricates a plausible
stand-in so the demo always runs.

Run:  python3 demos/04_income_pipeline.py
"""
import os
import pathlib
import tempfile

import numpy as np

import lorenzel as lz

# holds the synthetic table, if one is written; removed at the end
tmpdir = tempfile.TemporaryDirectory()
csv_path = os.environ.get("LORENZEL_INCOME_CSV")
value_col = os.environ.get("LORENZEL_INCOME_VALUE",
                           "Median_Household_Income_2020")

if csv_path is None:
    # Fabricate a county-style table: lognormal incomes, a few state
    # codes, and some unusable rows that the loader must drop.
    rng = np.random.default_rng(2020)
    rows = ["state,income"]
    for _ in range(2500):
        state = rng.choice(["AZ", "CA", "NV", "OR"])
        rows.append(f"{state},{rng.lognormal(10.0, 0.45):.2f}")
    rows += ["CA,", "NV,n/a"]  # blank and non-numeric: dropped, counted
    csv_path = os.path.join(tmpdir.name, "incomes.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    value_col, group_col = "income", "state"
    print(f"no snapshot supplied; wrote synthetic table to {csv_path} "
          "(removed when the demo ends)")
else:
    group_col = os.environ.get("LORENZEL_INCOME_GROUP")  # optional

table = lz.load_csv(csv_path, value_col, group_col)
print(f"loaded {table.n} usable rows ({table.dropped} dropped)")
if table.groups is not None:
    print(f"groups: {', '.join(table.group_labels())}")

s = table.sample()

# Generalized Lorenz and Lorenz curves on a fine grid.
grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
pts = lz.curve(s, grid)
out = pathlib.Path("demo_curve.csv")
lz.write_curve_csv(pts, out, precision=6)
print(f"curve written to {out.resolve()} (mean income {pts.mu_hat:,.2f})")

# Interval table at the deciles, EL vs TAEL.
print(f"\n{'t':>4} {'estimate':>12} {'EL interval':>28} {'TAEL length':>12}")
for t in (0.1, 0.25, 0.5, 0.75, 0.9):
    theta = lz.point_estimate(s, t)
    el = lz.invert("el", s, t, 0.05)
    tael = lz.invert("tael", s, t, 0.05)
    print(f"{t:4.2f} {theta:12.3f} "
          f"[{el.lower:12.3f}, {el.upper:12.3f}] {tael.length:12.3f}")

# The command-line equivalents of everything above:
print("\nsame results via the CLI:")
print(f"  lorenzel curve --input {csv_path} --value-column {value_col}"
      + (f" --group-column {group_col}" if group_col else ""))
print(f"  lorenzel ci --input {csv_path} --value-column {value_col} "
      f"--t 0.1,0.25,0.5,0.75,0.9 --methods el,tael --alpha 0.05")

tmpdir.cleanup()
