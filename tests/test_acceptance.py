"""Acceptance gate: the ten release criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``.  Each criterion emits
a ``[PASS]``/``[FAIL]`` line: live on the real stdout when capture is
off (``-s``), and always in the "acceptance criteria" terminal-summary
section via ``conftest``.  The benchmark-based criteria share one
module-scoped run of the full synthetic suite.
"""

import csv
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from adreject.bench import (
    COST_PRESETS,
    aggregate,
    compute_fold_scores,
    cost_preset,
    make_folds,
    run_trial,
    synthetic_suite,
)
from adreject.core import ToleranceSpec
from adreject.detectors import DETECTOR_KINDS
from adreject.verification import (
    band_cover_check,
    band_shape_check,
    cost_bound_check,
    degenerate_check,
    exact_binomial_check,
    rate_bound_check,
    rate_estimator_check,
    threshold_speed_check,
)

N_FOLDS = 5
BENCH_SEED = 0


def _criterion(num, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    line = f"[{verdict}] criterion {num}: {name} -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line, file=sys.__stdout__, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def bench_reports():
    """Full synthetic benchmark: 9 datasets x 4 detectors x 5 folds.

    Each dataset's detector scores are computed for all folds at once,
    as in ``run_benchmark``, and shared across the four cost presets; each
    fold fits one rejector for all three methods, exactly as
    ``run_benchmark`` does per preset.
    """
    t0 = time.perf_counter()
    suite = synthetic_suite(seed=BENCH_SEED)
    tol = ToleranceSpec(32.0)
    folds, cache = {}, {}
    for ds in suite:
        folds[ds.name] = make_folds(ds.n, N_FOLDS, BENCH_SEED, ds.name)
        scores = compute_fold_scores(ds, DETECTOR_KINDS, folds[ds.name], BENCH_SEED)
        for fold in range(N_FOLDS):
            for kind in DETECTOR_KINDS:
                cache[(ds.name, kind, fold)] = scores[fold][kind]
    reports = {}
    for preset in COST_PRESETS:
        results = []
        for ds in suite:
            costs = cost_preset(preset, ds.gamma)
            for kind in DETECTOR_KINDS:
                for fold in range(N_FOLDS):
                    results += run_trial(
                        ds,
                        folds[ds.name][fold],
                        fold,
                        cache[(ds.name, kind, fold)],
                        kind,
                        costs,
                        tol,
                    )
        reports[preset] = aggregate(results)
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_01_exact_tail_agreement():
    check = exact_binomial_check(n_max=200, rtol=1e-10)
    ok = check.passed and check.elapsed_s < 60.0
    _criterion(1, "fast tail matches exact rational tail",
               ok, f"{check.detail}; elapsed {check.elapsed_s:.1f}s < 60s")


def test_criterion_02_band_cover_grid():
    check = band_cover_check()
    ok = check.passed and check.elapsed_s < 120.0
    _criterion(2, "rejection band covers all rejected frequencies",
               ok, f"{check.detail}; elapsed {check.elapsed_s:.1f}s < 120s")


def test_criterion_03_band_shape_properties():
    check = band_shape_check()
    _criterion(3, "band contains 1-gamma, shrinks in T, width <= 0.01 at n=1e6",
               check.passed, check.detail)


def test_criterion_04_rate_estimator_accuracy():
    check = rate_estimator_check(n=5000, trials=50, tol=0.02, min_frac=0.9)
    _criterion(4, "rate estimate within 0.02 of empirical in >= 90% of trials",
               check.passed, check.detail)


def test_criterion_05_rate_bound_holds():
    check = rate_bound_check(trials=200, n=2000, min_frac=0.95)
    _criterion(5, "empirical rejection rate <= h in >= 95% of 200 trials",
               check.passed, check.detail)


def test_criterion_06_cost_bound_holds():
    check = cost_bound_check(trials=200, n=2000, min_frac=0.99)
    _criterion(6, "empirical cost <= cost bound in >= 99% of 200 trials",
               check.passed, check.detail)


def test_criterion_07_rejection_beats_no_rejection(bench_reports):
    reports, elapsed = bench_reports
    details = []
    ok = elapsed < 600.0
    for preset in COST_PRESETS:
        overall = reports[preset]["overall"]
        cost_ok = overall["rejex"]["cost_mean"] < overall["noreject"]["cost_mean"]
        rank_ok = overall["rejex"]["mean_rank"] <= overall["noreject"]["mean_rank"]
        ok = ok and cost_ok and rank_ok
        details.append(
            f"{preset}: cost {overall['rejex']['cost_mean']:.4f}"
            f"<{overall['noreject']['cost_mean']:.4f}"
            f" rank {overall['rejex']['mean_rank']:.2f}"
            f"<={overall['noreject']['mean_rank']:.2f}"
        )
    _criterion(7, "rejection lowers mean cost and rank on every preset",
               ok, "; ".join(details) + f"; elapsed {elapsed:.0f}s < 600s")


def test_criterion_08_oracle_gap(bench_reports):
    reports, _ = bench_reports
    gap = reports["q1"]["oracle_gap_pct"]["overall"]
    _criterion(8, "mean cost within 5% of label-informed oracle",
               gap <= 5.0, f"relative gap {gap:.2f}% <= 5%")


def test_criterion_09_threshold_speed():
    check = threshold_speed_check(n=20000, repeats=10, min_ratio=100.0)
    _criterion(9, "constant-threshold step >= 100x faster than oracle sweep",
               check.passed, check.detail)


def test_criterion_10_degenerate_inputs(tmp_path):
    check = degenerate_check()
    failures = [] if check.passed else [check.detail]

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "adreject", *args],
            capture_output=True, text=True, timeout=300,
        )

    # gamma = 0 through fit and predict: degenerate model, all normal.
    train = tmp_path / "train.csv"
    rng = np.random.default_rng(0)
    with train.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["score"])
        for s in rng.normal(size=200):
            w.writerow([repr(float(s))])
    model = tmp_path / "model.json"
    proc = cli("fit", "--train", str(train), "--gamma", "0",
               "--model-out", str(model))
    if proc.returncode != 0:
        failures.append(f"fit gamma=0 exited {proc.returncode}")
    elif not json.loads(proc.stdout)["degenerate"]:
        failures.append("fit gamma=0 did not mark the model degenerate")
    proc = cli("predict", "--model", str(model), "--test", str(train))
    if proc.returncode != 0:
        failures.append(f"predict on degenerate model exited {proc.returncode}")
    else:
        decisions = {r.rsplit(",", 1)[-1] for r in proc.stdout.splitlines()[1:]}
        if decisions != {"normal"}:
            failures.append(f"degenerate predict produced {sorted(decisions)}")

    # All-tied features and gamma = 0 datasets through bench.
    data = tmp_path / "data"
    data.mkdir()
    with (data / "ties.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "label"])
        for i in range(60):
            w.writerow(["2.5", int(i < 6)])
    with (data / "clean.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "label"])
        for s in rng.normal(size=60):
            w.writerow([repr(float(s)), 0])
    proc = cli("bench", "--data-dir", str(data), "--detectors", "hbos,knn",
               "--folds", "2", "--t-tolerance", "8",
               "--out-dir", str(tmp_path / "bench-out"))
    if proc.returncode != 0:
        failures.append(
            f"bench on degenerate datasets exited {proc.returncode}: {proc.stderr}"
        )
    # verify exercises the remaining command end to end.
    proc = cli("verify", "--quick")
    if proc.returncode != 0:
        failures.append(f"verify --quick exited {proc.returncode}")

    _criterion(10, "gamma=0 and all-tied inputs run every command cleanly",
               not failures, "; ".join(failures) or
               "fit/predict/bench/verify all exited 0 with sentinel behavior")
