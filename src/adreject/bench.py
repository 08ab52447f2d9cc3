"""Benchmark harness: datasets, cross-validated trials, reports.

Each dataset is split into cross-validation folds once.  A detector is
fitted on each training fold and scores train and test; each trial
fits the rejector on the training scores and charges the test fold
``c_fp`` per accepted false positive, ``c_fn`` per accepted false
negative, and ``c_r`` per rejection.  Three methods are compared:

* ``rejex``: reject by the fitted rejector's label-free count rule
  ``k_lo <= j < k_hi``;
* ``noreject``: always keep the base prediction;
* ``oracle``: exhaustive label-informed threshold search on the
  training fold (a ceiling, not a competitor).

The contamination factor comes from the full dataset's labels; the
decision threshold is recomputed on every training fold.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import zlib
from collections import Counter
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .bounds import expected_cost_upper_bound, rejection_rate_estimate
from .core import (
    CostSpec,
    DegenerateStabilityMap,
    DomainError,
    EmptyResults,
    InsufficientData,
    MissingGamma,
    ParseError,
    ScoreSet,
    ToleranceSpec,
    _as_float,
    _check_labels,
    validate_cost_spec,
    validate_domain,
)
from .detectors import (DETECTOR_KINDS, _NEIGHBOUR_KINDS, DetectorSpec, _check_folds,
                        _check_kinds, _check_matrix, _fold_neighbours, fit_detector)
from .rejector import empirical_cost, fit, oracle_sweep, predict_batch

__all__ = [
    "METHODS",
    "COST_PRESETS",
    "Dataset",
    "TrialResult",
    "cost_preset",
    "read_csv_table",
    "load_csv",
    "synthetic_suite",
    "make_folds",
    "detector_seed",
    "compute_fold_scores",
    "run_trial",
    "rank_auc",
    "aggregate",
    "write_report_files",
    "run_benchmark",
]

METHODS = ("rejex", "noreject", "oracle")
COST_PRESETS = ("q1", "case1", "case2", "case3")
MAX_ROWS = 20000
REPORT_SCHEMA_VERSION = 1


def cost_preset(name: str, gamma: float) -> CostSpec:
    """Named cost triples; each sets ``c_r`` to its admissibility cap.

    ``q1``: (1, 1, gamma) — uniform error costs.
    ``case1``: (10, 1, min(10 (1-gamma), gamma)) — dear false alarms.
    ``case2``: (1, 10, min(1-gamma, 10 gamma)) — dear missed anomalies.
    ``case3``: (5, 5, gamma) — dear errors of both kinds.
    """
    if name == "q1":
        spec = CostSpec(1.0, 1.0, gamma)
    elif name == "case1":
        spec = CostSpec(10.0, 1.0, min(10.0 * (1.0 - gamma), gamma))
    elif name == "case2":
        spec = CostSpec(1.0, 10.0, min(1.0 - gamma, 10.0 * gamma))
    elif name == "case3":
        spec = CostSpec(5.0, 5.0, gamma)
    else:
        raise DomainError(f"unknown cost preset {name!r}, expected one of {COST_PRESETS}")
    validate_cost_spec(spec, gamma)
    return spec


@dataclass(frozen=True, eq=False)
class Dataset:
    """A labeled (or score-only) benchmark dataset.

    ``X`` holds features, or one column of precomputed scores; it must
    pass ``_check_matrix`` and have 1 to ``MAX_ROWS`` rows.  Labels must
    pass ``_check_labels`` and are stored as 0/1 ints.  ``gamma``, the
    declared contamination, is stored as a ``float``; it must lie in
    ``[0, 0.5)`` and, with labels, equal their mean.
    """

    name: str
    X: np.ndarray
    labels: np.ndarray | None
    gamma: float
    feature_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        X = _check_matrix(self.X)
        if X.shape[0] == 0:
            raise InsufficientData(f"dataset {self.name}: no rows")
        if X.shape[0] > MAX_ROWS:
            raise DomainError(
                f"dataset {self.name}: {X.shape[0]} rows exceeds cap {MAX_ROWS}"
            )
        labels = (None if self.labels is None
                  else _check_labels(self.labels, X.shape[0]).astype(int))
        gamma = _as_float(self.gamma, "gamma")
        validate_domain(gamma=gamma)
        if labels is not None and abs(float(labels.mean()) - gamma) > 1.0 / X.shape[0]:
            raise DomainError(f"dataset {self.name}: gamma {gamma} is not the label mean")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return int(self.X.shape[0])


def read_csv_table(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV with a header row.

    The body is first read in blocks of lines (``_read_blocks``); a file
    that path does not take is read again cell by cell, which gives the
    same table and raises every error.

    Raises
    ------
    ParseError
        On a header that repeats a column name (after stripping), and on
        a non-numeric cell or ragged row, with 1-based coordinates (the
        header is row 1).
    """
    path = Path(path)
    try:
        table = _read_blocks(path)
    except (ValueError, csv.Error):
        table = None
    return table if table is not None else _read_cells(path)


# Bytes of body lines the block reader holds at once.
_BLOCK_BYTES = 1 << 18


def _header(path: Path, reader) -> list[str]:
    """The stripped column names of a CSV's first row; ``ParseError`` on
    an empty file, or on a name given twice, which would make a column
    taken by name ambiguous."""
    try:
        row = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected a header row") from None
    names = [h.strip() for h in row]
    twice = [name for name, count in Counter(names).items() if count > 1]
    if twice:
        raise ParseError(f"{path}: header repeats column name {twice[0]!r}")
    return names


def _read_blocks(path: Path) -> tuple[list[str], np.ndarray] | None:
    """The table of a CSV whose body rows are each a line of plain
    ``float`` cells, one per header column; ``None`` when the file has
    no body row or its last line no line end, and ``ValueError`` when a
    cell does not parse.  The header is read as in ``_read_cells``.

    ``csv.reader`` takes the header.  A body line with no quote splits
    into the cells ``csv.reader`` finds, its line end left on the last
    cell, which ``float()`` strips as whitespace; a quote never parses
    as a float.  So every cell goes through the same ``float()`` as in
    ``_read_cells``, and a table read here is the one read there.
    """
    limit = csv.field_size_limit()
    with path.open(newline="") as fh:
        header = _header(path, csv.reader(fh))
        commas = len(header) - 1
        blocks = []
        last = ""
        # Splitting on "," needs each line to be one row of the header's
        # width; a line longer than the field limit makes csv.reader fail.
        while lines := fh.readlines(_BLOCK_BYTES):
            if (set(map(str.count, lines, repeat(","))) != {commas}
                    or max(map(len, lines)) > limit):
                return None
            cells = ",".join(lines).split(",")
            blocks.append(np.fromiter(map(float, cells), dtype=float,
                                      count=len(cells)).reshape(len(lines), -1))
            last = lines[-1]
    if not blocks or not last.endswith(("\n", "\r")):
        return None
    return header, np.concatenate(blocks)


def _read_cells(path: Path) -> tuple[list[str], np.ndarray]:
    """The table read cell by cell; raises ``read_csv_table``'s errors."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = _header(path, reader)
        rows: list[list[float]] = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {i} has {len(row)} cells, header has {len(header)}"
                )
            out = []
            for j, cell in enumerate(row, start=1):
                try:
                    out.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {i}, column {j}: could not parse {cell.strip()!r}"
                    ) from None
            rows.append(out)
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(header)))
    return header, data


def _split_label(header: list[str], data: np.ndarray, label_column: str):
    """Feature names, feature columns and the label column (``None`` when
    ``label_column`` is not in ``header``) of a table."""
    if label_column not in header:
        return list(header), data, None
    li = header.index(label_column)
    keep = [j for j in range(len(header)) if j != li]
    return [header[j] for j in keep], data[:, keep], data[:, li]


def load_csv(path, label_column: str = "label") -> Dataset:
    """Load a labeled benchmark dataset from CSV; gamma is the label mean.

    Files longer than 20000 rows are subsampled without replacement
    (seeded, so loading is a pure function of the inputs).
    """
    path = Path(path)
    header, data = read_csv_table(path)
    if data.shape[0] == 0:
        raise InsufficientData(f"{path}: no data rows")
    names, X, labels = _split_label(header, data, label_column)
    if labels is None:
        raise MissingGamma(f"{path}: no {label_column!r} column to take gamma from")
    if X.shape[0] > MAX_ROWS:
        rng = np.random.default_rng(0)
        keep = np.sort(rng.choice(X.shape[0], size=MAX_ROWS, replace=False))
        X, labels = X[keep], labels[keep]
    return Dataset(name=path.stem, X=X, labels=labels, gamma=float(labels.mean()),
                   feature_names=tuple(names))


def _moons(rng: np.random.Generator, m: int, noise: float) -> np.ndarray:
    t = rng.uniform(0.0, math.pi, m)
    upper = rng.random(m) < 0.5
    x = np.where(upper, np.cos(t), 1.0 - np.cos(t))
    y = np.where(upper, np.sin(t), 0.5 - np.sin(t))
    pts = np.column_stack([x, y])
    return pts + rng.normal(0.0, noise, pts.shape)


def _severity_ladder(
    rng: np.random.Generator, m: int, lo: float, hi: float
) -> np.ndarray:
    # Evenly spaced severities (shuffled) give every set a continuum from
    # borderline to obvious anomalies, even when m is small.
    s = lo + (np.arange(m) + 0.5) / m * (hi - lo)
    return rng.permutation(s)[:, None]


def _make_family(rng: np.random.Generator, family: str, n: int, d: int,
                 gamma: float) -> tuple[np.ndarray, np.ndarray]:
    # Anomalies reuse the inlier generator and are pushed outward by a
    # per-example severity factor, so detector mistakes concentrate near
    # the decision boundary instead of vanishing for clean geometries.
    n_anom = round(gamma * n)
    n_norm = n - n_anom
    if family == "gauss":
        smax = 1.0 + 2.4 / d ** 0.25
        inliers = rng.normal(0.0, 1.0, (n_norm, d))
        s = _severity_ladder(rng, n_anom, 1.0, smax)
        anomalies = rng.normal(0.0, 1.0, (n_anom, d)) * s
    elif family == "clusters":
        smax = 1.0 + 2.3 / d ** 0.25
        centers = rng.uniform(-2.0, 2.0, (3, d))
        which = rng.integers(3, size=n_norm)
        inliers = centers[which] + rng.normal(0.0, 0.8, (n_norm, d))
        assigned = rng.integers(3, size=n_anom)
        s = _severity_ladder(rng, n_anom, 1.0, smax)
        anomalies = centers[assigned] + rng.normal(0.0, 0.8, (n_anom, d)) * s
    elif family == "moons":
        m_scale = math.sqrt(d - 2) if d > 2 else 1.0

        def _block(m: int) -> np.ndarray:
            base = _moons(rng, m, 0.25) * m_scale
            if d > 2:
                return np.hstack([base, rng.normal(0.0, 0.5, (m, d - 2))])
            return base

        inliers = _block(n_norm)
        anomalies = _block(n_anom)
        direction = rng.normal(size=(n_anom, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        s = _severity_ladder(rng, n_anom, 1.0, 3.5)
        anomalies = anomalies + direction * (s - 1.0) * 2.0
        if d > 2:
            # A random orthogonal rotation spreads the planar structure
            # across all features; it leaves pairwise distances unchanged.
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            inliers = inliers @ q
            anomalies = anomalies @ q
    else:
        raise DomainError(f"unknown synthetic family {family!r}")
    X = np.vstack([inliers, anomalies])
    y = np.concatenate([np.zeros(n_norm, int), np.ones(n_anom, int)])
    perm = rng.permutation(n)
    return X[perm], y[perm]


# One configuration per (n, d, gamma) axis value for each family keeps
# the full suite within a desk-scale time budget.
_SUITE_CONFIGS = ((500, 2, 0.02), (2000, 8, 0.1), (5000, 32, 0.3))
_SUITE_FAMILIES = ("gauss", "clusters", "moons")


def synthetic_suite(seed: int = 0) -> list[Dataset]:
    """Deterministic labeled datasets varying family, n, d, and gamma."""
    out = []
    idx = 0
    for family in _SUITE_FAMILIES:
        for n, d, gamma in _SUITE_CONFIGS:
            rng = np.random.default_rng([seed, idx])
            X, y = _make_family(rng, family, n, d, gamma)
            name = f"{family}-n{n}-d{d}-g{gamma:g}"
            out.append(
                Dataset(name=name, X=X, labels=y, gamma=float(y.mean()),
                        feature_names=tuple(f"f{j}" for j in range(X.shape[1])))
            )
            idx += 1
    return out


def _dataset_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def detector_seed(seed: int, dataset_name: str, kind: str, fold: int) -> int:
    """Stable per-trial detector seed derived from the run seed."""
    return zlib.crc32(f"{seed}|{dataset_name}|{kind}|{fold}".encode("utf-8"))


def make_folds(
    n: int, n_folds: int, split_seed: int, dataset_name: str = ""
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic partition into cross-validation folds.

    The permutation depends only on ``(split_seed, dataset_name, n)``;
    fold ``i`` uses part ``i`` as test and the rest as training.
    """
    if n_folds < 2 or n_folds > n:
        raise DomainError(f"need 2 <= n_folds <= n, got {n_folds} for n={n}")
    rng = np.random.default_rng([split_seed, _dataset_key(dataset_name), n])
    perm = rng.permutation(n)
    parts = np.array_split(perm, n_folds)
    folds = []
    for i in range(n_folds):
        test = np.sort(parts[i])
        train = np.sort(np.concatenate([parts[j] for j in range(n_folds) if j != i]))
        folds.append((train, test))
    return folds


def _fit_fold(X, folds, spec: DetectorSpec, fold: int) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) scores of ``spec`` fitted on training fold ``fold``."""
    train_idx, test_idx = folds[fold]
    det = fit_detector(spec, X[train_idx])
    return det.train_scores(), det.score(X[test_idx])


# A pool worker's datasets, ``{job: (X, folds)}``, set once by the
# pool's initializer: a forked worker inherits them without pickling.
_worker_data: dict = {}


def _inherit(data: dict) -> None:
    global _worker_data
    _worker_data = data


def _fit_inherited(job: int, spec: DetectorSpec, fold: int) -> tuple[np.ndarray, np.ndarray]:
    return _fit_fold(*_worker_data[job], spec, fold)


def _fold_fitter(data: dict, n_tasks: int):
    """A pool of forked workers, one per CPU this process may use (at
    most ``n_tasks``), that share ``data`` (``{job: (X, folds)}``);
    ``None`` when that is one worker or the platform cannot fork."""
    # Imported here: only the research loop pays for them.
    import multiprocessing

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_workers = min(cpus, n_tasks)
    if n_workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor

    # Fork, so the workers inherit the data instead of unpickling a
    # copy.  The executor forks them all before it starts its own thread.
    return ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_inherit, initargs=(data,))


def _scores_in_turn(jobs: list, seed: int, evaluate, skippable: tuple = ()) -> list:
    """Score and evaluate every job on one pool of forked workers.

    ``jobs[i]`` is a checked ``(dataset, kinds, folds)`` or the exception
    its checks raised; ``evaluate(i, fold_scores)`` gets job i's
    :func:`compute_fold_scores` result.  Returns, in job order, what
    ``evaluate`` returned, the exception that stopped the job, or
    ``None`` for a job not run.

    Jobs run largest first (rows times columns, ties in job order), so
    this process ends on the smallest job while the workers fit ahead.
    A failure that is not ``skippable`` cancels only the later jobs in
    job order: the first failure in job order is the one a loop over the
    jobs would meet first.
    """
    stop = next((i for i, job in enumerate(jobs)
                 if isinstance(job, Exception) and not isinstance(job, skippable)), len(jobs))
    outcomes = [job if isinstance(job, Exception) else None for job in jobs]
    order = sorted((i for i in range(stop) if outcomes[i] is None),
                   key=lambda i: -jobs[i][0].X.size)
    tasks = {i: [(DetectorSpec(kind=kind, seed=detector_seed(seed, jobs[i][0].name, kind, fold)),
                  fold) for fold in range(len(jobs[i][2]))
                 for kind in jobs[i][1] if kind not in _NEIGHBOUR_KINDS]
             for i in order}
    pool = _fold_fitter({i: (jobs[i][0].X, jobs[i][2]) for i in order},
                        sum(map(len, tasks.values())))
    try:
        if pool is not None:
            futures = {i: [pool.submit(_fit_inherited, i, *task) for task in tasks[i]]
                       for i in order}
        for i in order:
            if i > stop:
                continue
            dataset, kinds, folds = jobs[i]
            X = dataset.X
            try:
                if pool is None:
                    # Lazy: the fits run, and raise, after the neighbour query.
                    fits = (_fit_fold(X, folds, *task) for task in tasks[i])
                else:
                    fits = (future.result() for future in futures[i])
                near = [kind for kind in kinds if kind in _NEIGHBOUR_KINDS]
                per_fold = (_fold_neighbours(X, folds, near, DetectorSpec(near[0]).k)
                            if near else [{} for _ in folds])
                for (spec, fold), scores in zip(tasks[i], fits):
                    per_fold[fold][spec.kind] = scores
                outcomes[i] = evaluate(i, [{kind: scores[kind] for kind in kinds}
                                           for scores in per_fold])
            except Exception as exc:
                outcomes[i] = exc
                if not isinstance(exc, skippable):
                    stop = i
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return outcomes


def _result(outcome):
    """An outcome of :func:`_scores_in_turn`; raises it if it is an
    exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def compute_fold_scores(
    dataset: Dataset, kinds: tuple[str, ...], folds: list, seed: int
) -> list[dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Each fold's detector scores, ``{kind: (train, test)}`` in fold
    order: bit for bit what ``fit_detector`` on the training fold
    returns from ``train_scores()`` and ``score`` of the test fold.
    ``folds`` is the dataset's fold plan as :func:`make_folds` returns
    it; ``seed`` seeds each fold's detector (:func:`detector_seed`).

    kNN and LOF answer every fold from one kd-tree over the dataset and
    one neighbour query of its rows (``_fold_neighbours``).  The
    other kinds are fitted and scored per fold in forked worker
    processes, one per CPU this process may use, which inherit the
    dataset instead of receiving it pickled; they run while the parent
    makes the neighbour query.  With one usable CPU, or without a
    ``fork`` start method or ``os.sched_getaffinity``, the same fits
    run in this process.  An unknown or repeated kind and every
    fold-size refusal come before any worker starts; a failing fit
    raises its own exception, the first in fold order, and no worker
    outlives the call.  This is one dataset of :func:`run_benchmark`'s
    schedule: with its folds and seed, callers can precompute a score
    cache and replay trials for several cost presets without refitting
    detectors or changing any output.
    """
    _check_kinds(kinds)
    _check_folds(kinds, folds, dataset.X.shape[1])
    [outcome] = _scores_in_turn([(dataset, kinds, folds)], seed, lambda i, scores: scores)
    return _result(outcome)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one (dataset, detector, fold, method) evaluation."""

    dataset: str
    detector: str
    method: str
    fold: int
    n_train: int
    n_test: int
    gamma: float
    cost_per_example: float
    rejection_rate: float
    fp_rate: float
    fn_rate: float
    r_hat: float
    bound_h: float
    cost_bound: float
    wall_time_threshold_ms: float


def _check_costable(dataset: Dataset, costs: CostSpec) -> None:
    """Refuse a dataset whose trials cannot be costed: it has no labels,
    or ``costs`` is inadmissible at its contamination."""
    if dataset.labels is None:
        raise MissingGamma(
            f"dataset {dataset.name}: labels are required to evaluate cost"
        )
    validate_cost_spec(costs, dataset.gamma)


def run_trial(
    dataset: Dataset,
    split: tuple[np.ndarray, np.ndarray],
    fold: int,
    scores: tuple[np.ndarray, np.ndarray],
    detector_name: str,
    costs: CostSpec,
    tol: ToleranceSpec,
    delta: float = 0.05,
) -> list[TrialResult]:
    """Evaluate one cross-validation fold: one trial per method of
    :data:`METHODS`, in order, recorded under ``detector_name`` and
    ``fold``.

    ``split`` is the fold's ``(train_idx, test_idx)`` and ``scores`` the
    detector's ``(train, test)`` scores on it, as :func:`make_folds` and
    :func:`compute_fold_scores` give them.  The rejector fit and the test
    predictions are shared by all methods.
    """
    _check_costable(dataset, costs)
    train_idx, test_idx = split
    s_train, s_test = scores
    train_set = ScoreSet(s_train, dataset.gamma)
    rej = fit(train_set, tol, delta)
    y_train = dataset.labels[train_idx].astype(bool)
    y_test = dataset.labels[test_idx].astype(bool)
    batch = predict_batch(rej, s_test)
    m = y_test.size
    est = rej.estimate
    cost_bound = float(
        expected_cost_upper_bound(est.below_band, est.up_to_band, dataset.gamma, costs)
    )

    results = []
    for method in METHODS:
        if method == "rejex":
            # Times the label-free threshold step on its own; the
            # decision itself comes from the shared fit.
            t0 = time.perf_counter()
            _ = ToleranceSpec(tol.T)
            try:
                rejection_rate_estimate(train_set, tol)
            except DegenerateStabilityMap:
                pass
            wall_ms = (time.perf_counter() - t0) * 1000.0
            rejected = batch.rejected
        elif method == "oracle":
            t0 = time.perf_counter()
            theta, _ = oracle_sweep(rej, y_train, costs)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            rejected = batch.confidence <= theta
        else:
            wall_ms = 0.0
            rejected = np.zeros(len(batch), dtype=bool)
        cost = empirical_cost(batch.base_anomaly, rejected, y_test, costs)
        kept = ~rejected
        fp = np.count_nonzero(kept & batch.base_anomaly & ~y_test) / m
        fn = np.count_nonzero(kept & ~batch.base_anomaly & y_test) / m
        results.append(TrialResult(
            dataset=dataset.name,
            detector=detector_name,
            method=method,
            fold=fold,
            n_train=int(train_idx.size),
            n_test=int(test_idx.size),
            gamma=dataset.gamma,
            cost_per_example=float(cost),
            rejection_rate=float(np.count_nonzero(rejected) / m),
            fp_rate=float(fp),
            fn_rate=float(fn),
            r_hat=float(est.r_hat),
            bound_h=float(rej.band.h),
            cost_bound=cost_bound,
            wall_time_threshold_ms=float(wall_ms),
        ))
    return results


def _average_ranks(values) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their ranks.

    Bit for bit ``scipy.stats.rankdata(values)``: the ranks are exact
    half-integers, and any NaN makes every rank NaN.
    """
    a = np.asarray(values, dtype=float)
    if np.isnan(a).any():
        return np.full(a.size, np.nan)
    order = np.argsort(a, kind="stable")
    s = a[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[starts, a.size])
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(starts + 0.5 * (counts + 1), counts)
    return ranks


def rank_auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic (ties averaged)."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels).astype(bool)
    n_pos = int(np.count_nonzero(y))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DomainError("AUC needs both classes present")
    ranks = _average_ranks(s)
    return (ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def aggregate(results: list[TrialResult]) -> dict:
    """Summarize trials: per-detector method means, ranks, violations.

    Ranks: within each (dataset, detector, fold) group the methods are
    ranked by cost, 1 = cheapest, ties averaged.  Every mean is taken
    over its trials in result order.
    """
    if not results:
        raise EmptyResults("no trial results to aggregate")
    methods = sorted({r.method for r in results})
    detectors = sorted({r.detector for r in results})
    groups: dict[tuple[str, str, int], list[TrialResult]] = {}
    cells: dict[tuple[str, str], list[TrialResult]] = {}
    by_method: dict[str, list[TrialResult]] = {}
    for r in results:
        groups.setdefault((r.dataset, r.detector, r.fold), []).append(r)
        cells.setdefault((r.detector, r.method), []).append(r)
        by_method.setdefault(r.method, []).append(r)
    ranks: dict[str, list[float]] = {m: [] for m in methods}
    det_ranks: dict[tuple[str, str], list[float]] = {}
    for rs in groups.values():
        rs = sorted(rs, key=lambda r: r.method)
        rk = _average_ranks([r.cost_per_example for r in rs])
        for r, rank in zip(rs, rk):
            ranks[r.method].append(float(rank))
            det_ranks.setdefault((r.detector, r.method), []).append(float(rank))
    per_detector: dict[str, dict] = {det: {} for det in detectors}
    for (det, m), rows in sorted(cells.items()):
        cost_mean, cost_std = _mean_std([r.cost_per_example for r in rows])
        rate_mean, rate_std = _mean_std([r.rejection_rate for r in rows])
        per_detector[det][m] = {
            "trials": len(rows),
            "cost_mean": cost_mean,
            "cost_std": cost_std,
            "rejection_rate_mean": rate_mean,
            "rejection_rate_std": rate_std,
            "mean_rank": float(np.mean(det_ranks[det, m])),
        }
    overall = {}
    for m in methods:
        rows = by_method[m]
        cost_mean, cost_std = _mean_std([r.cost_per_example for r in rows])
        overall[m] = {
            "trials": len(rows),
            "cost_mean": cost_mean,
            "cost_std": cost_std,
            "mean_rank": float(np.mean(ranks[m])),
        }
    rejex_rows = by_method.get("rejex", [])
    violations = {
        "trials": len(rejex_rows),
        "rejection_rate_over_h": sum(
            1 for r in rejex_rows if r.rejection_rate > r.bound_h
        ),
        "cost_over_bound": sum(
            1 for r in rejex_rows if r.cost_per_example > r.cost_bound
        ),
    }
    oracle_gap = {}
    if "rejex" in methods and "oracle" in methods:
        pairs = {det: (cells.get((det, "rejex"), []), cells.get((det, "oracle"), []))
                 for det in detectors}
        pairs["overall"] = (by_method["rejex"], by_method["oracle"])
        for det, (rx_rows, orc_rows) in pairs.items():
            rx = np.mean([r.cost_per_example for r in rx_rows])
            orc = np.mean([r.cost_per_example for r in orc_rows])
            if orc > 0:
                oracle_gap[det] = float((rx - orc) / orc * 100.0)
            else:
                oracle_gap[det] = math.inf if rx > 0 else 0.0
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "methods": methods,
        "detectors": detectors,
        "n_trials": len(results),
        "datasets": sorted({r.dataset for r in results}),
        "per_detector": per_detector,
        "overall": overall,
        "bound_violations": violations,
        "oracle_gap_pct": oracle_gap,
    }


_TRIAL_COLUMNS = [f.name for f in fields(TrialResult) if f.name != "wall_time_threshold_ms"]


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: Path, header: list[str], rows) -> str:
    """Write a header and rows of cells, each through :func:`_fmt`."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)
    return str(path)


def write_report_files(results: list[TrialResult], report: dict, out_dir) -> dict:
    """Write report.json, trials.csv, rates_and_bounds.csv, timings.csv.

    All files except timings.csv are byte-deterministic for a fixed
    seed; timings.csv carries the wall-clock threshold-step column.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(results, key=lambda r: (r.dataset, r.detector, r.fold, r.method))
    timing_columns = ["dataset", "detector", "fold", "method", "wall_time_threshold_ms"]
    rejex_by_ds: dict[str, list[TrialResult]] = {}
    for r in ordered:
        if r.method == "rejex":
            rejex_by_ds.setdefault(r.dataset, []).append(r)
    means = ["r_hat", "rejection_rate", "bound_h", "cost_per_example", "cost_bound"]
    paths = {
        "trials": _write_csv(out / "trials.csv", _TRIAL_COLUMNS,
                             ([getattr(r, c) for c in _TRIAL_COLUMNS] for r in ordered)),
        "rates_and_bounds": _write_csv(
            out / "rates_and_bounds.csv",
            ["dataset", "r_hat_mean", "rejection_rate_mean", "bound_h_mean", "cost_mean",
             "cost_bound_mean"],
            ([ds, *(float(np.mean([getattr(r, m) for r in rows])) for m in means)]
             for ds, rows in sorted(rejex_by_ds.items())),
        ),
        "timings": _write_csv(out / "timings.csv", timing_columns,
                              ([getattr(r, c) for c in timing_columns] for r in ordered)),
    }
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return {"report": str(report_path), **paths}


def run_benchmark(
    datasets: list[Dataset],
    detector_kinds: tuple[str, ...] = DETECTOR_KINDS,
    preset: str = "q1",
    T: float = 32.0,
    delta: float = 0.05,
    n_folds: int = 5,
    seed: int = 0,
    custom_costs: CostSpec | None = None,
    scores_only: bool = False,
) -> list[TrialResult]:
    """Run the full trial grid: each dataset's fold plan made once
    (:func:`make_folds`), its detectors scored on every fold at once
    (as :func:`compute_fold_scores` scores them), then one
    :func:`run_trial` per fold and detector; results in dataset order.

    Every dataset is checked before any detector work.  The detectors
    of all datasets are then fitted on one pool of forked workers,
    largest dataset first, while this process scores and evaluates the
    datasets in that order.  The exception raised is the one a loop over
    the datasets in order would raise first.

    With ``scores_only`` each dataset's single feature column is taken
    as a precomputed anomaly score and no detectors are fitted.
    """
    results = []
    for outcome in _benchmark_outcomes(datasets, detector_kinds, preset, T, delta, n_folds,
                                       seed, custom_costs, scores_only):
        results += _result(outcome)
    return results


def _benchmark_outcomes(datasets, detector_kinds, preset, T, delta, n_folds, seed,
                        custom_costs, scores_only, skippable: tuple = ()) -> list:
    """:func:`run_benchmark`'s trials of each dataset, or the exception
    that stopped it, in dataset order (:func:`_scores_in_turn`); a
    failure that is not ``skippable`` stops every later dataset."""
    tol = ToleranceSpec(T)
    jobs, costs = [], {}
    for dataset in datasets:
        try:
            cost = custom_costs if custom_costs is not None else cost_preset(
                preset, dataset.gamma
            )
            # run_trial's own checks, made before any detector work.
            _check_costable(dataset, cost)
            folds = make_folds(dataset.n, n_folds, seed, dataset.name)
            if scores_only:
                if dataset.X.shape[1] != 1:
                    raise DomainError(
                        f"dataset {dataset.name}: scores-only mode needs exactly one "
                        f"score column, found {dataset.X.shape[1]}"
                    )
            else:
                _check_kinds(detector_kinds)
                _check_folds(detector_kinds, folds, dataset.X.shape[1])
        except Exception as exc:
            jobs.append(exc)
            if not isinstance(exc, skippable):
                break
            continue
        costs[len(jobs)] = cost
        jobs.append((dataset, () if scores_only else detector_kinds, folds))

    def trials(i: int, fold_scores: list) -> list[TrialResult]:
        dataset, kinds, folds = jobs[i]
        if scores_only:
            kinds = ("precomputed",)
            fold_scores = [{kinds[0]: (dataset.X[train_idx, 0], dataset.X[test_idx, 0])}
                           for train_idx, test_idx in folds]
        results = []
        # Kind-major: the report's float means are summed in result order.
        for kind in kinds:
            for fold, (split, scores) in enumerate(zip(folds, fold_scores)):
                results += run_trial(dataset, split, fold, scores[kind], kind,
                                     costs[i], tol, delta)
        return results

    return _scores_in_turn(jobs, seed, trials, skippable)
