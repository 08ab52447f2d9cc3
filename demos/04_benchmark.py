"""
Benchmarking rejection against its alternatives
===============================================

The bench module compares three ways of using the same fitted detector:

- ``noreject``  -- always answer with the base label,
- ``rejex``     -- reject by the fitted count rule k_lo <= j < k_hi
                   (no labels needed),
- ``oracle``    -- cost-optimal confidence threshold chosen with labels.

This demo runs a small slice of the synthetic suite and prints the
aggregate cost table.  The full suite is ``adreject bench --synthetic``.
"""

import tempfile
from pathlib import Path

from adreject import (
    aggregate,
    run_benchmark,
    synthetic_suite,
    write_report_files,
)

# Two datasets x two detectors x 3 folds keeps this under a minute.
datasets = [d for d in synthetic_suite(seed=0) if d.name.startswith("gauss")][:2]
for ds in datasets:
    print(
        f"dataset {ds.name}: {ds.n} rows, {ds.X.shape[1]} features,"
        f" gamma = {ds.gamma:g}"
    )

results = run_benchmark(
    datasets,
    detector_kinds=("knn", "hbos"),
    preset="q1",
    T=32.0,
    n_folds=3,
    seed=0,
)
report = aggregate(results)

print(f"\n{len(results)} trials; Q1 costs (c_fp = c_fn = 1, c_r = gamma)")
print(f"{'method':>10} {'mean cost':>10} {'mean rank':>10}")
for method in report["methods"]:
    row = report["overall"][method]
    print(f"{method:>10} {row['cost_mean']:10.4f} {row['mean_rank']:10.2f}")

gap = report["oracle_gap_pct"]["overall"]
viol = report["bound_violations"]
print(f"\nrejex vs label-informed oracle: {gap:+.2f}% mean cost")
print(
    f"certificate violations: {viol['rejection_rate_over_h']} rate, "
    f"{viol['cost_over_bound']} cost (out of {viol['trials']} rejex trials)"
)

# The same tables the CLI writes: report.json, trials.csv,
# rates_and_bounds.csv (deterministic) and timings.csv (wall clock).
with tempfile.TemporaryDirectory() as tmp:
    paths = write_report_files(results, report, tmp)
    print("\nreport files written:")
    for key, path in sorted(paths.items()):
        print(f"  {key:>16}: {Path(path).name}")
