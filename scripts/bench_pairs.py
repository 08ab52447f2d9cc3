"""Before/after evidence for a change, on fixed seeds.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_NAME.json

Run from the root of a git checkout.  Writes one JSON file with two
parts:

- ``pairs``: ``perfbench/run.py --workload W --seed S --seconds 20
  --trace 0`` on a copy of REV (``git archive``) and on a copy of this
  working tree (``src/``, ``perfbench/``, ``demos/``, ``BENCHMARK.json``),
  on seeds 0-9 of every workload, alternating which side runs first
  (REV first on even seeds).  Per metric: each side's [median, q1, q3]
  (``statistics.quantiles``, n=4), the pairs the change wins, the
  change's median over REV's, minus 1, and whether the change's median
  lies within REV's quartiles.
- ``predict_1m_rows``: ``demos/predict_large.py --rows 1000000 --seed 0
  --repeats 3`` with each side's ``src/``, five times per side,
  alternating which side runs first.  Per layer time, wall time and
  peak RSS: each side's [median, q1, q3] over all its runs, and the
  same quartile check.

The runs go one after another.  The file records the machine,
Python and numpy it ran on; compare numbers within one file only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
WORKLOADS = ("score-stream", "cv-sweep", "cli-roundtrip")
SEEDS = range(10)
LOWER_IS_BETTER = {"setup_s", "batch_p50_ms", "batch_tail_ms", "peak_rss_mb"}
PREDICT_ROUNDS = 5


def checkouts(parent: str, work: Path) -> dict:
    sides = {"parent": work / "parent", "change": work / "change"}
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                             capture_output=True).stdout
    tar = work / "parent.tar"
    tar.write_bytes(archive)
    with tarfile.open(tar) as fh:
        fh.extractall(sides["parent"])
    for part in ("src", "perfbench", "demos"):
        shutil.copytree(ROOT / part, sides["change"] / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", sides["change"])
    return sides


def run(side: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "20", "--trace", "0"]
    out = subprocess.run(cmd, cwd=side, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [med, q1, q3]


def compare(values: dict) -> dict:
    """Each side's quartiles of one metric, and whether the change's
    median lies within the parent's."""
    parent, change = quartiles(values["parent"]), quartiles(values["change"])
    return {"parent": parent, "change": change,
            "change_vs_parent_median": change[0] / parent[0] - 1,
            "change_median_within_parent_quartiles": parent[1] <= change[0] <= parent[2],
            "values": values}


def pairs(sides: dict) -> dict:
    summary = {}
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for seed in SEEDS:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for name in order:
                runs[name].append(run(sides[name], workload, seed))
            print(workload, seed, {name: round(r[-1]["metrics"]["batch_p50_ms"]["value"], 1)
                                   for name, r in runs.items()}, flush=True)
        table = {"seeds": list(SEEDS),
                 "failed": {n: sum(r["failed"] for r in rs) for n, rs in runs.items()},
                 "attempted": {n: sum(r["attempted"] for r in rs) for n, rs in runs.items()},
                 "correct": {n: all(r["correct"] for r in rs) for n, rs in runs.items()}}
        for metric in runs["parent"][0]["metrics"]:
            values = {n: [r["metrics"][metric]["value"] for r in rs] for n, rs in runs.items()}
            sign = 1 if metric in LOWER_IS_BETTER else -1
            table[metric] = {
                **compare(values),
                "change_wins": sum(sign * (c - p) < 0
                                   for p, c in zip(values["parent"], values["change"])),
            }
        summary[workload] = table
    return summary


def predict_1m(sides: dict) -> dict:
    runs = {"parent": [], "change": []}
    for rnd in range(PREDICT_ROUNDS):
        for name in ("parent", "change") if rnd % 2 == 0 else ("change", "parent"):
            env = dict(os.environ, PYTHONPATH=str(sides[name] / "src"))
            out = subprocess.run(
                [sys.executable, str(sides["change"] / "demos" / "predict_large.py"),
                 "--rows", "1000000", "--seed", "0", "--repeats", "3"],
                env=env, capture_output=True, text=True, check=True)
            runs[name].append(json.loads(out.stdout.strip().splitlines()[-1]))
        print("predict_1m_rows", rnd, {name: round(r[-1]["median"]["process_wall_ms"])
                                       for name, r in runs.items()}, flush=True)
    layers = list(runs["parent"][0]["runs"][0])
    return {"output_sha256": {name: sorted({r["output_sha256"] for r in rs})
                              for name, rs in runs.items()},
            **{key: compare({name: [one[key] for r in rs for one in r["runs"]]
                             for name, rs in runs.items()}) for key in layers}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    result = {"parent": args.parent, "command": " ".join(sys.argv),
              "machine": f"{cpu}, {len(os.sched_getaffinity(0))} usable CPUs",
              "python": platform.python_version(), "numpy": np.__version__}
    with tempfile.TemporaryDirectory() as tmp:
        sides = checkouts(args.parent, Path(tmp))
        result["predict_1m_rows"] = predict_1m(sides)
        result["pairs"] = pairs(sides)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
