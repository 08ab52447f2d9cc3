"""Output checks: invariants on every operation, digests where recorded.

``digests.json`` holds, per workload and seed, the digests this
benchmark computed from the package's outputs when the seed was
recorded (``record_digests.py``).  A seed with no entry gets the
invariant checks only.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).with_name("digests.json")
# score-stream records the first RECORDED_BATCHES batches of the pool.
RECORDED_BATCHES = 8
CV_FILES = ("report.json", "trials.csv", "rates_and_bounds.csv")


class CheckFailed(Exception):
    """An operation's output broke an invariant or its recorded digest."""


def recorded(workload: str, seed: int) -> list[str] | None:
    """Recorded digests for a seed, indexed like the operations' inputs."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def compare(digest: str, expected: list[str] | None, index: int) -> str:
    if expected is not None and index < len(expected) and digest != expected[index]:
        raise CheckFailed(f"digest {digest[:12]} != recorded {expected[index][:12]}")
    return digest


def score_batch(rejector, batch: np.ndarray, preds) -> str:
    """Invariants of one ``predict_batch`` result; returns its digest over
    the decision and ``psi_n`` columns."""
    psi = np.asarray(preds.psi_n, dtype=float)
    rejected = np.asarray(preds.rejected, dtype=bool)
    base = np.asarray(preds.base_anomaly, dtype=bool)
    p = np.asarray(preds.p_anomaly, dtype=float)
    conf = np.asarray(preds.confidence, dtype=float)
    if not (psi.size == rejected.size == conf.size == batch.size):
        raise CheckFailed(f"{psi.size} predictions for {batch.size} scores")
    band = rejector.band
    out = psi[rejected]
    if np.any((out < band.t1) | (out > band.t2)):
        raise CheckFailed("a rejected query has psi_n outside [t1, t2]")
    if not np.array_equal(conf, np.abs(2.0 * p - 1.0)):
        raise CheckFailed("confidence != |2p - 1|")
    if np.any(conf < 0.0) or np.any(conf > 1.0):
        raise CheckFailed("confidence outside [0, 1]")
    codes = np.where(rejected, 2, np.where(base, 1, 0)).astype(np.int8)
    return hashlib.sha256(codes.tobytes() + psi.astype("<f8").tobytes()).hexdigest()


def cv_report(out_dir: Path, n_trials: int, expected_trials: int) -> str:
    """Digest over the three deterministic report files of one sweep."""
    if n_trials != expected_trials:
        raise CheckFailed(f"{n_trials} trials, expected {expected_trials}")
    h = hashlib.sha256()
    for name in CV_FILES:
        h.update(f"{name}:{hashlib.sha256((out_dir / name).read_bytes()).hexdigest()}\n"
                 .encode())
    return h.hexdigest()


def cli_predictions(path: Path, rows: int) -> str:
    """Digest over the ``psi_n`` and ``decision`` columns of a predict CSV."""
    h = hashlib.sha256()
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        n = 0
        for row in reader:
            h.update(f"{row['psi_n']},{row['decision']}\n".encode())
            n += 1
    if n != rows:
        raise CheckFailed(f"{n} predicted rows, expected {rows}")
    return h.hexdigest()
