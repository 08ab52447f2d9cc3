"""
Timing one large score-mode predict
===================================

Fits a rejector on a column of training scores, then runs
``adreject predict`` on a test CSV of ``--rows`` scores in a fresh
process, ``--repeats`` times.  Each run reports, in milliseconds, the
layers of ``cmd_predict``:

- ``load_ms``   -- ``load_model`` (read and verify the model file),
- ``parse_ms``  -- ``read_csv_table`` on the test CSV,
- ``decide_ms`` -- ``predict_batch``,
- ``write_ms``  -- the rest of ``cmd_predict``: formatting and writing,

plus the predict process's wall time (start-up included) and peak RSS,
and the sha256 of the output file, which must not change between
versions.  Both CSVs are drawn from fixed seeds::

    PYTHONPATH=src python demos/predict_large.py --rows 1000000 --seed 0

Point ``PYTHONPATH`` at another checkout's ``src`` to time that one on
the same inputs.  The last line printed is one JSON object.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def write_scores(path: Path, scores: np.ndarray) -> None:
    path.write_text("score\n" + "".join(f"{s!r}\n" for s in scores.tolist()))


def child(model: str, test: str, out: str) -> None:
    """One predict in this process, with its layers timed."""
    import adreject.cli as cli

    times = {}

    def timed(name, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] = (time.perf_counter() - t0) * 1e3
        return call

    cli.load_model = timed("load_ms", cli.load_model)
    cli.read_csv_table = timed("parse_ms", cli.read_csv_table)
    cli.predict_batch = timed("decide_ms", cli.predict_batch)
    args = cli.build_parser().parse_args(
        ["predict", "--model", model, "--test", test, "--out", out])
    t0 = time.perf_counter()
    cli.cmd_predict(args)
    total = (time.perf_counter() - t0) * 1e3
    times["write_ms"] = total - times["load_ms"] - times["parse_ms"] - times["decide_ms"]
    times["predict_ms"] = total
    print(json.dumps(times))


def run_once(work: Path) -> dict:
    out = work / "pred.csv"
    cmd = [sys.executable, __file__, "--child", str(work / "model.json"),
           str(work / "test.csv"), str(out)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"predict failed with exit status {status}")
    run = json.loads(stdout.decode().strip().splitlines()[-1])
    run["process_wall_ms"] = wall * 1e3
    run["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    run["output_sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    return run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("--rows", type=int, default=100_000, help="test scores")
    parser.add_argument("--train-rows", type=int, default=20_000, help="training scores")
    parser.add_argument("--gamma", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(*args.child)
        return
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        rng = np.random.default_rng(args.seed)
        write_scores(work / "train.csv", rng.standard_normal(args.train_rows))
        write_scores(work / "test.csv", rng.standard_normal(args.rows))
        subprocess.run([sys.executable, "-m", "adreject", "fit", "--train",
                        str(work / "train.csv"), "--gamma", str(args.gamma),
                        "--model-out", str(work / "model.json")],
                       check=True, stdout=subprocess.DEVNULL)
        runs = [run_once(work) for _ in range(args.repeats)]
    digests = {r.pop("output_sha256") for r in runs}
    if len(digests) != 1:
        raise SystemExit("predict output changed between runs")
    summary = {"rows": args.rows, "train_rows": args.train_rows, "gamma": args.gamma,
               "seed": args.seed, "output_sha256": digests.pop(), "runs": runs,
               "median": {k: statistics.median(r[k] for r in runs) for k in runs[0]}}
    for key, value in summary["median"].items():
        print(f"{key:16s} {value:10.1f}")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
