"""Runs an in-process workload against the package; writes result.json.

    python3 perfbench/worker.py setup WORKLOAD WORKDIR SEED
    python3 perfbench/worker.py run WORKLOAD WORKDIR SEED SECONDS TRACE

``setup`` builds the workload's state and exits, so that its parent can
time import plus set-up as one process.  ``run`` builds the state, then
runs one closed-loop client: each operation starts when the previous
one has returned and its output has been checked.  With TRACE=1 it runs
a fixed number of operations, each untraced and then traced.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
import gen
import spans

N_FOLDS = 5
T_TOLERANCE = 32.0
DELTA = 0.05
# Operations per pass of a traced run; untraced runs are timed instead.
TRACED_OPS = {"score-stream": 100, "cv-sweep": 1}
# score-stream runs at least the batches whose digests are recorded;
# cv-sweep at least two sweeps, so its figures are medians of two.
MIN_OPS = {"score-stream": checks.RECORDED_BATCHES, "cv-sweep": 2}
MAX_ERRORS_KEPT = 5


def score_stream(work: Path, seed: int):
    import adreject.core as core
    import adreject.rejector as rejector

    inputs = work / "inputs"
    pool = np.load(inputs / "pool.npy")
    expected = checks.recorded("score-stream", seed)

    def setup():
        train = core.ScoreSet(np.load(inputs / "train.npy"), gen.SCORE_GAMMA)
        return rejector.fit(train, core.ToleranceSpec(T_TOLERANCE), DELTA)

    def op(state, i):
        return rejector.predict_batch(state, pool[i % len(pool)])

    def check(state, i, preds):
        j = i % len(pool)
        digest = checks.score_batch(state, pool[j], preds)
        return checks.compare(digest, expected, j), pool.shape[1]

    return setup, op, check, lambda state: 0


def cv_sweep(work: Path, seed: int):
    import adreject.bench as bench

    report_dir = work / "report"
    expected = checks.recorded("cv-sweep", seed)

    def setup():
        return [d for d in bench.synthetic_suite(seed) if d.name.startswith("gauss-")]

    def op(datasets, i):
        results = bench.run_benchmark(
            datasets, detector_kinds=spans.DETECTOR_KINDS, preset="q1",
            T=T_TOLERANCE, delta=DELTA, n_folds=N_FOLDS, seed=seed,
        )
        report = bench.aggregate(results)
        report["cost_preset"] = "q1"
        bench.write_report_files(results, report, report_dir)
        return results

    def cells(datasets):
        return len(datasets) * len(spans.DETECTOR_KINDS) * N_FOLDS

    def check(datasets, i, results):
        digest = checks.cv_report(report_dir, len(results), 3 * cells(datasets))
        return checks.compare(digest, expected, 0), sum(r.n_test for r in results)

    return setup, op, check, cells


WORKLOADS = {"score-stream": score_stream, "cv-sweep": cv_sweep}


def new_result() -> dict:
    return {"attempted": 0, "failed": 0, "walls": [], "digests": {}, "scores": 0,
            "errors": []}


def run_op(res: dict, state, op, check, i: int, tracer=None) -> None:
    """Run and check operation ``i``.  It fails if it raises or its check
    fails; a failure is counted in ``res`` and the run goes on."""
    res["attempted"] += 1
    try:
        t0 = time.perf_counter()
        with tracer.operation(i) if tracer else nullcontext() as root:
            out = op(state, i)
        wall = time.perf_counter() - t0
        if root is not None:
            root[spans.ATTRS]["wall"] = wall
        digest, scores = check(state, i, out)
    except Exception as exc:  # one failed operation must not end the run
        res["failed"] += 1
        if len(res["errors"]) < MAX_ERRORS_KEPT:
            res["errors"].append(f"op {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
    else:
        res["walls"].append(wall)
        res["digests"][i] = digest
        res["scores"] += scores


def closed_loop(state, op, check, seconds: float, min_ops: int) -> dict:
    """Run operations back to back for ``seconds``, at least ``min_ops``."""
    res = new_result()
    deadline = time.monotonic() + seconds
    i = 0
    while i < min_ops or time.monotonic() < deadline:
        run_op(res, state, op, check, i)
        i += 1
    return res


def traced_run(setup, op, check, state, n_ops: int, cells) -> dict:
    """Operations 0..n_ops-1, each run untraced and then traced, so that
    the two passes see the same inputs and the same machine state."""
    plain, traced = new_result(), new_result()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.operation("setup"):
            traced_state = setup()
    finally:
        tracer.uninstall()
    for i in range(n_ops):
        run_op(plain, state, op, check, i)
        tracer.install()
        try:
            run_op(traced, traced_state, op, check, i, tracer)
        finally:
            tracer.uninstall()
    res = {k: plain[k] + traced[k] for k in ("attempted", "failed", "errors")}
    for i, digest in traced["digests"].items():
        if plain["digests"].get(i) != digest:
            res["failed"] += 1
            res["errors"].append(f"op {i}: traced output differs from untraced")
    overhead = (statistics.median(traced["walls"]) - statistics.median(plain["walls"])
                if plain["walls"] and traced["walls"] else 0.0)
    res["layers"] = spans.layer_metrics(
        tracer.finish(), cells(state) * len(traced["walls"]), overhead * 1e3
    )
    res["spans"] = tracer.spans
    return res


def main(argv: list[str]) -> int:
    mode, workload, work, seed = argv[0], argv[1], Path(argv[2]), int(argv[3])
    setup, op, check, cells = WORKLOADS[workload](work, seed)
    state = setup()
    if mode == "setup":
        return 0
    seconds, trace = float(argv[4]), argv[5] == "1"
    if trace:
        res = traced_run(setup, op, check, state, TRACED_OPS[workload], cells)
        (work / "spans.json").write_text(json.dumps(res.pop("spans")))
    else:
        res = closed_loop(state, op, check, seconds, MIN_OPS[workload])
        res["digests"] = [res["digests"].get(i) for i in range(res["attempted"])]
        res["trials"] = 3 * cells(state) * len(res["walls"])
    (work / "result.json").write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
