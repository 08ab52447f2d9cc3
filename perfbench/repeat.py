"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py FIRST_SEED LAST_SEED SECONDS OUT_JSON [WORKLOAD...]

For each workload (default: all), runs ``run.py --trace 0`` once per
seed, then ``run.py --trace 1`` once on FIRST_SEED.  Prints, per
end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median; writes all of it, with every run's values, to OUT_JSON.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import run


def one(workload: str, seed: int, seconds: str, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    first, last, seconds, out_path = int(argv[0]), int(argv[1]), argv[2], argv[3]
    workloads = argv[4:] or list(run.WORKLOADS)
    summary = {"meta": run.metadata(None, None, float(seconds), None),
               "seeds": [first, last], "workloads": {}}
    for workload in workloads:
        runs = [one(workload, seed, seconds, 0) for seed in range(first, last + 1)]
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            table[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                           "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
                           "values": values}
            print(f"{workload:14s} {name:14s} median {med:12.6g} "
                  f"iqr/median {(q3 - q1) / med:.4f}", flush=True)
        traced = one(workload, first, seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": table,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
        print(f"{workload:14s} failed {summary['workloads'][workload]['failed']} of "
              f"{summary['workloads'][workload]['attempted']}; traced run correct: "
              f"{traced['correct']}", flush=True)
        with open(out_path, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
