"""Record the reference output digests of a range of seeds.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

Runs each workload's operations untraced, as few as cover every
recorded output, and adds the digests to
perfbench/digests.json.  A seed that already has digests is checked
against them, so a run at a commit whose outputs changed fails here;
delete digests.json first to record a new reference on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import gen
import run
import worker


def digests_of(workload: str, seed: int) -> list[str]:
    work = run.HERE / "out" / f"record-{workload}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    gen.write_inputs(workload, seed, work / "inputs")
    if workload == "cli-roundtrip":
        res, _ = run.cli_roundtrip(work, seed, 0.0, False, setups=1)
        digests = res["digests"]
    else:
        keep = checks.RECORDED_BATCHES if workload == "score-stream" else 1
        setup, op, check, _ = worker.WORKLOADS[workload](work, seed)
        res = worker.closed_loop(setup(), op, check, 0.0, keep)
        digests = [res["digests"].get(i) for i in range(keep)]
    if res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {res['errors']}")
    return digests


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    first, last = int(argv[0]), int(argv[1])
    table = json.loads(checks.DIGESTS.read_text()) if checks.DIGESTS.exists() else {}
    for workload in run.WORKLOADS:
        for seed in range(first, last + 1):
            table.setdefault(workload, {})[str(seed)] = digests_of(workload, seed)
            print(f"{workload} seed {seed}: recorded", flush=True)
            checks.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
