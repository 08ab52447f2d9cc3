"""Deterministic workload inputs, made from the workload seed alone.

Only numpy is used here: the inputs are written to files, and the
program under test receives those files, never the seed.  The one
exception is ``cv-sweep``, whose set-up is the package's own
``synthetic_suite(seed)``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# score-stream: one rejector on N_TRAIN scores, queried in batches.
N_TRAIN = 20_000
BATCH = 1_000
POOL_BATCHES = 1_000  # the loop cycles the pool if it ever runs past it
SCORE_GAMMA = 0.1

# cli-roundtrip: fit on a small table, predict on a large one.
CLI_TRAIN_ROWS = 2_000
CLI_TEST_ROWS = 20_000
CLI_DIM = 8
CLI_GAMMA = 0.1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def score_stream(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Training scores and a (POOL_BATCHES, BATCH) pool of query scores,
    all i.i.d. standard normal: the queries share the training
    distribution, as served scores do."""
    train = _rng(seed, 0).standard_normal(N_TRAIN)
    pool = _rng(seed, 1).standard_normal((POOL_BATCHES, BATCH))
    return train, pool


def feature_table(seed: int, stream: int, rows: int) -> np.ndarray:
    """Gaussian rows with a CLI_GAMMA share of rows widened threefold."""
    rng = _rng(seed, stream)
    X = rng.standard_normal((rows, CLI_DIM))
    wide = rng.random(rows) < CLI_GAMMA
    X[wide] *= 3.0
    return X


def write_csv(path: Path, X: np.ndarray) -> None:
    lines = [",".join(f"f{j}" for j in range(X.shape[1]))]
    lines += [",".join(repr(float(v)) for v in row) for row in X]
    path.write_text("\n".join(lines) + "\n")


def write_inputs(workload: str, seed: int, inputs: Path) -> None:
    """Write the inputs of one workload into ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "score-stream":
        train, pool = score_stream(seed)
        np.save(inputs / "train.npy", train)
        np.save(inputs / "pool.npy", pool)
    elif workload == "cli-roundtrip":
        write_csv(inputs / "train.csv", feature_table(seed, 2, CLI_TRAIN_ROWS))
        write_csv(inputs / "test.csv", feature_table(seed, 3, CLI_TEST_ROWS))
