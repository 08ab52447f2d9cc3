"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

# The metric names README.md documents, by layer.
DOCUMENTED_PER_LAYER = [
    "stability.tails_ms", "stability.tails_points", "stability.fallback_share",
    "stability.inverse_ms", "stability.inverse_calls",
    "stability.training_frequency_ms",
    "bounds.rate_estimate_ms", "bounds.rate_estimate_calls",
    "bounds.rejection_band_ms",
    "rejector.fit_ms", "rejector.fit_calls", "rejector.predict_batch_self_ms",
    "rejector.predict_batch_points", "rejector.oracle_sweep_self_ms",
    "rejector.oracle_sweep_calls", "rejector.model_save_ms",
    "rejector.model_load_ms", "rejector.model_bytes",
    *[f"detectors.{k}.{m}" for k in ("knn", "lof", "iforest", "hbos")
      for m in ("fit_ms", "score_ms", "rows_scored")],
    "bench.run_trial_self_ms", "bench.make_folds_calls", "bench.fits_per_fold",
    "bench.compute_fold_scores_ms", "bench.aggregate_ms", "bench.write_report_ms",
    "bench.synthetic_suite_ms", "bench.csv_parse_ms", "bench.csv_bytes",
    "cli.fit_self_ms", "cli.predict_self_ms", "cli.startup_ms", "cli.output_bytes",
]
DOCUMENTED_END_TO_END = ["setup_s", "scores_per_s", "batch_p50_ms", "batch_tail_ms",
                    "peak_rss_mb"]


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_generators_are_deterministic_per_seed(tmp_path):
    a_train, a_pool = gen.score_stream(7)
    b_train, b_pool = gen.score_stream(7)
    assert np.array_equal(a_train, b_train) and np.array_equal(a_pool, b_pool)
    assert not np.array_equal(a_train, gen.score_stream(8)[0])
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        gen.write_inputs("cli-roundtrip", seed, tmp_path / sub)
    for name in ("train.csv", "test.csv"):
        a, b, c = ((tmp_path / sub / name).read_bytes() for sub in "abc")
        assert a == b and a != c


def test_metric_names_match_the_readme_and_benchmark_json():
    assert set(DOCUMENTED_PER_LAYER) <= set(spans.PER_LAYER_UNITS)
    assert _declared("per_layer") == spans.PER_LAYER_UNITS
    assert list(run.END_TO_END) == DOCUMENTED_END_TO_END
    assert _declared("end_to_end") == run.END_TO_END
    empty = spans.layer_metrics([], 0, 0.0)
    assert list(empty) == list(spans.PER_LAYER_UNITS)


def test_report_prints_every_documented_metric(capsys):
    args = type("Args", (), {"workload": "cv-sweep", "seed": 0, "trace": 0})()
    res = {"attempted": 3, "failed": 1, "errors": ["op 1: boom"], "walls": [2.0, 2.0],
           "trials": 360, "setup_walls": [1.0], "scores": 10}
    metrics = run.end_to_end(res, [type("P", (), {"rss_mb": 100.0})()])
    run.report(args, res, metrics, {})
    out = capsys.readouterr().out
    for name in DOCUMENTED_END_TO_END + ["trials_per_s", "error_rate"]:
        assert f"\n{name} " in out
    assert "0.333333 ratio" in out


def test_failures_count_in_error_rate_without_ending_the_run():
    def op(state, i):
        if i == 1:
            raise ValueError("boom")
        return i

    def check(state, i, out):
        if i == 2:
            raise checks.CheckFailed("forced")
        return str(i), 1

    res = worker.closed_loop(None, op, check, 0.0, 5)
    assert (res["attempted"], res["failed"]) == (5, 2)
    assert len(res["walls"]) == 3 and res["scores"] == 3


@pytest.fixture(scope="module")
def score_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("score-stream")
    gen.write_inputs("score-stream", 3, work / "inputs")
    return work


def test_wrong_recorded_digest_fails_the_operation(score_inputs, monkeypatch):
    monkeypatch.setattr(checks, "recorded", lambda workload, seed: ["0" * 64] * 2)
    setup, op, check, _ = worker.score_stream(score_inputs, 3)
    res = worker.closed_loop(setup(), op, check, 0.0, 3)
    # Batches 0 and 1 have a (wrong) recorded digest; batch 2 has none.
    assert (res["attempted"], res["failed"]) == (3, 2)
    assert "digest" in res["errors"][0]


def test_traced_run_matches_untraced_and_reports_every_layer(score_inputs, monkeypatch):
    monkeypatch.setattr(checks, "recorded", lambda workload, seed: None)
    setup, op, check, cells = worker.score_stream(score_inputs, 3)
    res = worker.traced_run(setup, op, check, setup(), 2, cells)
    assert res["failed"] == 0, res["errors"]
    layers = res["layers"]
    assert list(layers) == list(spans.PER_LAYER_UNITS)
    assert layers["rejector.predict_batch_points"]["value"] == 2 * gen.BATCH
    assert layers["rejector.fit_calls"]["value"] == 1
    assert 0.0 < layers["stability.fallback_share"]["value"] < 1.0
    assert layers["trace.self_sum_error"]["value"] < 0.01
    import adreject.rejector  # tracing is uninstalled after the run
    assert not hasattr(adreject.rejector.predict_batch, "__wrapped__")


def test_self_time_subtracts_children():
    s = [["op", "op", 0.0, 10.0, None, 0, {}],
         ["a", "a", 1.0, 4.0, 0, 0, {}],
         ["b", "b", 2.0, 3.0, 1, 0, {}],
         ["c", "c", 5.0, 9.0, 0, 0, {}]]
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 4.0]
    assert spans.self_sum_error(s, spans.self_times(s)) == 0.0


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(300)))[0] == 95.0
    assert run.tail([1.0, 5.0, 2.0]) == (100.0, 5.0)
