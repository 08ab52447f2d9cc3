"""The adreject benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (``PYTHONPATH=src``), exactly as an installed copy would be.
Prints a human-readable report, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("score-stream", "cv-sweep", "cli-roundtrip")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUPS = 5  # set-ups per run; setup_s is their median
TRACED_PREDICTS = 3  # predict commands per pass of a traced cli-roundtrip run
PROCESS_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "scores_per_s": "1/s", "batch_p50_ms": "ms",
              "batch_tail_ms": "ms", "peak_rss_mb": "MB"}


def child_env() -> dict:
    """Environment of every process the benchmark starts: the package on
    the path, and BLAS / OpenMP threads capped at the CPU count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in THREAD_VARS:
        cur = env.get(var, "")
        capped = cur.isdigit() and 0 < int(cur) < NPROC
        env[var] = cur if capped else str(NPROC)
    return env


class Process:
    """Outcome of one child process: wall time, exit code, peak RSS."""

    def __init__(self, cmd: list[str], log: Path):
        with log.open("wb") as fh:
            self.spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.monotonic() - self.spawn
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.log = log


def git_rev() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(workload: str | None, seed: int | None, seconds: float,
             trace: int | None) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    env = child_env()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_rev": git_rev(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "nproc": NPROC, "cpu_model": cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def tail(walls: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of a fixed set of percentiles that
    has at least ten samples beyond it; the maximum when none has."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(walls) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(walls, p))
    return 100.0, max(walls)


def in_process(work: Path, args) -> tuple[dict, list[Process]]:
    """score-stream and cv-sweep: set-up processes, then one worker."""
    worker = [sys.executable, str(HERE / "worker.py")]
    common = [args.workload, str(work), str(args.seed)]
    procs = []
    if not args.trace:
        for k in range(SETUPS):
            procs.append(Process(worker + ["setup"] + common, work / f"setup-{k}.log"))
    procs.append(Process(worker + ["run"] + common + [str(args.seconds), str(args.trace)],
                         work / "worker.log"))
    res = {"attempted": len(procs) - 1, "failed": 0, "errors": []}
    for p in procs:
        if p.code != 0:
            res["failed"] += 1
            res["errors"].append(f"{p.log.name}: exit code {p.code}")
    if procs[-1].code == 0:
        out = json.loads((work / "result.json").read_text())
        for key in ("attempted", "failed", "errors"):
            out[key] = res[key] + out[key]
        res = out
    res["setup_walls"] = [p.wall for p in procs[:-1]]
    return res, procs


def cli_roundtrip(work: Path, seed: int, seconds: float, trace: bool,
                  setups: int = SETUPS) -> tuple[dict, list[Process]]:
    """Each command is its own process: ``fit`` is the set-up, then
    ``predict`` runs back to back."""
    inputs = work / "inputs"
    rel = lambda p: str(p.relative_to(ROOT))  # noqa: E731
    model, pred = work / "model.json", work / "pred.csv"
    fit_args = ["fit", "--train", rel(inputs / "train.csv"),
                "--gamma", str(gen.CLI_GAMMA), "--detector", "iforest",
                "--model-out", rel(model)]
    predict_args = ["predict", "--model", rel(model), "--test", rel(inputs / "test.csv"),
                    "--out", rel(pred)]
    expected = checks.recorded("cli-roundtrip", seed)
    res = {"attempted": 0, "failed": 0, "errors": [], "walls": [], "digests": [],
           "scores": 0, "setup_walls": []}
    procs: list[Process] = []

    def command(cli_args: list[str], label: str, tracer=None, op=None) -> Process:
        res["attempted"] += 1
        log = work / f"{label}.log"
        if tracer is None:
            p = Process([sys.executable, "-m", "adreject"] + cli_args, log)
        else:
            out = work / f"spans-{label}.json"
            with tracer.operation(op) as root:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(out),
                       repr(time.monotonic()), "--"] + cli_args
                p = Process(cmd, log)
            root[spans.ATTRS]["wall"] = p.wall
            if p.code == 0:
                tracer.adopt(json.loads(out.read_text()), root)
        procs.append(p)
        if p.code != 0:
            res["failed"] += 1
            res["errors"].append(f"{label}: exit code {p.code}")
        return p

    def predict(label: str, tracer=None, op=None) -> tuple[Process, str | None]:
        p = command(predict_args, label, tracer, op)
        if p.code != 0:
            return p, None
        try:
            digest = checks.compare(
                checks.cli_predictions(pred, gen.CLI_TEST_ROWS), expected, 0)
        except checks.CheckFailed as exc:
            res["failed"] += 1
            res["errors"].append(f"{label}: {exc}")
            return p, None
        res["walls"].append(p.wall)
        res["scores"] += gen.CLI_TEST_ROWS
        return p, digest

    if not trace:
        for k in range(setups):
            res["setup_walls"].append(command(fit_args, f"fit-{k}").wall)
        deadline = time.monotonic() + seconds
        i = 0
        while i < 1 or time.monotonic() < deadline:
            res["digests"].append(predict(f"predict-{i}")[1])
            i += 1
        return res, procs

    # Untraced and traced commands alternate, so both see the same machine.
    tracer = spans.Tracer()
    command(fit_args, "fit-plain")
    command(fit_args, "fit-traced", tracer, "setup")
    plain, traced = [], []
    for i in range(TRACED_PREDICTS):
        plain.append(predict(f"predict-plain-{i}"))
        traced.append(predict(f"predict-traced-{i}", tracer, i))
    if any(a[1] != b[1] for a, b in zip(plain, traced)):
        res["failed"] += 1
        res["errors"].append("traced predict output differs from untraced")
    overhead = (statistics.median(p.wall for p, _ in traced)
                - statistics.median(p.wall for p, _ in plain))
    res["layers"] = spans.layer_metrics(tracer.finish(), 0, overhead * 1e3)
    (work / "spans.json").write_text(json.dumps(tracer.spans))
    return res, procs


def end_to_end(res: dict, procs: list[Process]) -> dict:
    walls = res.get("walls") or [0.0]
    p, tail_ms = tail([w * 1e3 for w in walls])
    res["tail_percentile"] = p
    values = {
        "setup_s": statistics.median(res["setup_walls"]) if res["setup_walls"] else 0.0,
        "scores_per_s": res.get("scores", 0) / sum(walls) if sum(walls) else 0.0,
        "batch_p50_ms": statistics.median(walls) * 1e3,
        "batch_tail_ms": tail_ms,
        "peak_rss_mb": max(p.rss_mb for p in procs),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def report(args, res: dict, metrics: dict, meta: dict) -> None:
    """Human-readable lines; every metric is printed with its unit."""
    attempted, failed = res["attempted"], res["failed"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    if checks.recorded(args.workload, args.seed) is None:
        print(f"checks: no digests recorded for seed {args.seed}; invariant checks only")
    else:
        print(f"checks: invariants and digests recorded for seed {args.seed}")
    for err in res["errors"]:
        print(f"error: {err}")
    n = len(res.get("walls", []))
    for name, m in metrics.items():
        extra = ""
        if name == "batch_tail_ms":
            extra = f"  (p{res['tail_percentile']:g} of {n} operations)"
        elif name == "setup_s":
            extra = f"  (median of {len(res['setup_walls'])} set-ups)"
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}{extra}")
    if not args.trace:
        walls = res.get("walls", [])
        if args.workload == "cv-sweep" and walls:
            print(f"{'trials_per_s':34s} {res['trials'] / sum(walls):14.6g} 1/s")
        if args.workload == "cli-roundtrip" and walls:
            print(f"{'predict_cmd_s':34s} {statistics.median(walls):14.6g} s")
    print(f"{'error_rate':34s} {failed / attempted if attempted else 0.0:14.6g} ratio"
          f"  ({failed} of {attempted} operations failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "adreject" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'adreject'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    work = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    gen.write_inputs(args.workload, args.seed, work / "inputs")
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    if args.workload == "cli-roundtrip":
        res, procs = cli_roundtrip(work, args.seed, args.seconds, bool(args.trace))
    else:
        res, procs = in_process(work, args)
    if args.trace:
        if "layers" not in res:
            print(f"error: traced run failed: {res['errors']}", file=sys.stderr)
            return 1
        metrics = res["layers"]
    else:
        metrics = end_to_end(res, procs)
    (work / "summary.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "attempted": res["attempted"],
         "failed": res["failed"], "errors": res["errors"],
         "tail_percentile": res.get("tail_percentile"),
         "operations": len(res.get("walls", []))}, indent=1))
    report(args, res, metrics, meta)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
