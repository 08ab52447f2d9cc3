"""Before/after evidence for a change to the research loop.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_NAME.json

Run from the root of a git checkout.  Writes one JSON file with three
parts, all on fixed seeds:

- ``leaf_size_grid``: single-thread CPU ms (minimum and median of 5
  rounds) of ``cKDTree(X, leafsize=L).query(X, k=23)`` over the leaf
  sizes ``L`` and six matrices, with whether the distances equal those
  at the default leaf size bit for bit.  k=23 is the shared neighbour
  query of k=10 over 5 folds.
- ``pairs``: ``perfbench/run.py --workload W --seed S --seconds 20
  --trace 0`` on a copy of REV (``git archive``) and on a copy of this
  working tree (``src/``, ``perfbench/``, ``demos/``, ``BENCHMARK.json``),
  alternating which side runs first (REV first on even seeds):
  ``cv-sweep`` on seeds 0-9, ``score-stream`` and ``cli-roundtrip`` on
  seeds 0-4.  Per metric: each side's [median, q1, q3]
  (``statistics.quantiles``, n=4), the pairs the change wins, and the
  change's median over REV's, minus 1.
- ``predict_1m_rows``: ``demos/predict_large.py --rows 1000000 --seed 0
  --repeats 3`` with each side's ``src/``, twice per side, alternating.

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
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
LEAF_SIZES = (16, 32, 64, 128, 256)
PAIRS = {"cv-sweep": range(10), "score-stream": range(5), "cli-roundtrip": range(5)}
LOWER_IS_BETTER = {"setup_s", "batch_p50_ms", "batch_tail_ms", "peak_rss_mb"}


def leaf_size_grid() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from scipy.spatial import cKDTree

    from adreject.bench import synthetic_suite

    suite = {d.name.split("-")[0]: d.X for d in synthetic_suite(0) if d.X.shape[1] == 32}
    rng = np.random.default_rng(0)
    matrices = {
        "gauss 5000x32": suite["gauss"],
        "clusters 5000x32": suite["clusters"],
        "moons 5000x32": suite["moons"],
        "gauss 2000x8": rng.normal(size=(2000, 8)),
        "normal 20000x8": rng.normal(size=(20000, 8)),
        "normal 20000x2": rng.normal(size=(20000, 2)),
    }
    grid = {}
    for name, X in matrices.items():
        reference = cKDTree(X).query(X, k=23)[0]
        times = {leaf: [] for leaf in LEAF_SIZES}
        equal = {}
        # Five rounds, alternating the order of the leaf sizes.
        for rnd in range(5):
            for leaf in LEAF_SIZES[::1 if rnd % 2 == 0 else -1]:
                t0 = time.process_time()
                dist, _ = cKDTree(X, leafsize=leaf).query(X, k=23)
                times[leaf].append((time.process_time() - t0) * 1e3)
                equal[leaf] = dist.tobytes() == reference.tobytes()
        grid[name] = {str(leaf): {"cpu_ms_min": min(times[leaf]),
                                  "cpu_ms_median": statistics.median(times[leaf]),
                                  "dist_equal_default": equal[leaf]}
                      for leaf in LEAF_SIZES}
        print(name, {leaf: round(min(t)) for leaf, t in times.items()}, flush=True)
    return grid


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


def pairs(sides: dict) -> dict:
    summary = {}
    for workload, seeds in PAIRS.items():
        runs = {"parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for name in order:
                runs[name].append(run(sides[name], workload, seed))
            print(workload, seed, {name: round(r[-1]["metrics"]["batch_p50_ms"]["value"], 1)
                                   for name, r in runs.items()}, flush=True)
        table = {"seeds": list(seeds),
                 "failed": {n: sum(r["failed"] for r in rs) for n, rs in runs.items()},
                 "attempted": {n: sum(r["attempted"] for r in rs) for n, rs in runs.items()},
                 "correct": {n: all(r["correct"] for r in rs) for n, rs in runs.items()}}
        for metric in runs["parent"][0]["metrics"]:
            values = {n: [r["metrics"][metric]["value"] for r in rs] for n, rs in runs.items()}
            sign = 1 if metric in LOWER_IS_BETTER else -1
            table[metric] = {
                "parent": quartiles(values["parent"]),
                "change": quartiles(values["change"]),
                "change_wins": sum(sign * (c - p) < 0
                                   for p, c in zip(values["parent"], values["change"])),
                "change_vs_parent_median": (statistics.median(values["change"])
                                            / statistics.median(values["parent"]) - 1),
                "values": values,
            }
        summary[workload] = table
    return summary


def predict_1m(sides: dict) -> dict:
    runs = {"parent": [], "change": []}
    for _ in range(2):
        for name in ("parent", "change"):
            env = dict(os.environ, PYTHONPATH=str(sides[name] / "src"))
            out = subprocess.run(
                [sys.executable, str(sides["change"] / "demos" / "predict_large.py"),
                 "--rows", "1000000", "--seed", "0", "--repeats", "3"],
                env=env, capture_output=True, text=True, check=True)
            runs[name].append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {name: {"output_sha256": sorted({r["output_sha256"] for r in rs}),
                   "median_ms": [r["median"] for r in rs]} for name, rs in runs.items()}


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
    result["leaf_size_grid"] = leaf_size_grid()
    with tempfile.TemporaryDirectory() as tmp:
        sides = checkouts(args.parent, Path(tmp))
        result["predict_1m_rows"] = predict_1m(sides)
        result["pairs"] = pairs(sides)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
