"""Minimal unsupervised anomaly scorers for the benchmark harness.

Four detectors over real-valued feature matrices, all returning scores
where higher means more anomalous:

* ``knn``: Euclidean distance to the k-th nearest training point;
* ``lof``: local outlier factor (mean local-reachability-density ratio);
* ``iforest``: isolation forest with expected-path-length scores;
* ``hbos``: per-feature equal-width histograms, summed negative log
  density.

kNN and LOF treat a query that coincides exactly with a training row
as that row: one zero-distance match is discarded, so scoring the
training set itself behaves like leave-one-out.  The forest sorts rows
lexicographically before seeded subsampling, making its scores
invariant to training row order.

Every fitted detector also has ``train_scores()``: the scores of its
own training matrix, bit for bit what ``score`` returns on a copy of
it.  LOF answers from the neighbourhoods it found at fit; the others
score the matrix again.  LOF is kNN plus densities, so a fitted LOF
also gives the scores of kNN with the same ``k`` (``neighbour_scores``)
from the one kd-tree and neighbour query they would both make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    DomainError,
    InsufficientData,
    NonFiniteInput,
    _as_real_array,
)

__all__ = ["DETECTOR_KINDS", "DetectorSpec", "fit_detector"]

DETECTOR_KINDS = ("knn", "lof", "iforest", "hbos")

_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class DetectorSpec:
    """Detector kind plus hyperparameters (unused ones are ignored)."""

    kind: str
    k: int = 10
    n_trees: int = 100
    subsample: int = 256
    n_bins: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DETECTOR_KINDS:
            raise DomainError(
                f"unknown detector kind {self.kind!r}, expected one of {DETECTOR_KINDS}"
            )
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.n_trees < 1:
            raise DomainError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.subsample < 2:
            raise DomainError(f"subsample must be >= 2, got {self.subsample}")
        if self.n_bins < 1:
            raise DomainError(f"n_bins must be >= 1, got {self.n_bins}")


def _check_matrix(X, dim: int | None = None) -> np.ndarray:
    arr = _as_real_array(X, "features")
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DomainError(f"features must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("features must be finite")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatch(
            f"query has {arr.shape[1]} features, fitted on {dim}"
        )
    return arr


def _query_loo(tree, Q: np.ndarray, k: int):
    """k nearest training rows of a ``cKDTree`` per query, discarding
    one exact match.

    Returns distances and indices of shape (m, k).  When the nearest
    neighbour sits at distance exactly zero (the query equals a
    training row) it is skipped, so train and test scoring share one
    code path.
    """
    # Each query is answered on its own, so spreading them over all cores
    # returns the same distances and indices.
    dist, idx = tree.query(Q, k=k + 1, workers=-1)
    dist = np.atleast_2d(dist)
    idx = np.atleast_2d(idx)
    exact = dist[:, :1] == 0.0
    dsel = np.where(exact, dist[:, 1 : k + 1], dist[:, 0:k])
    isel = np.where(exact, idx[:, 1 : k + 1], idx[:, 0:k])
    return dsel, isel


class _Detector:
    def __init__(self, spec: DetectorSpec, X: np.ndarray):
        self.spec = spec
        self.dim = X.shape[1]
        self._X = X

    def train_scores(self) -> np.ndarray:
        return self.score(self._X)


class _KnnDetector(_Detector):
    def __init__(self, spec: DetectorSpec, X: np.ndarray):
        super().__init__(spec, X)
        # Imported here: only kNN and LOF pay scipy.spatial's import.
        from scipy.spatial import cKDTree

        self._tree = cKDTree(X)

    def _neighbours(self, Q):
        return _query_loo(self._tree, _check_matrix(Q, self.dim), self.spec.k)

    def score(self, Q) -> np.ndarray:
        dsel, _ = self._neighbours(Q)
        return dsel[:, -1].copy()


class _LofDetector(_KnnDetector):
    """kNN plus densities: a row's kNN score is its LOF k-distance."""

    def __init__(self, spec: DetectorSpec, X: np.ndarray):
        super().__init__(spec, X)
        # Training neighbourhoods exclude the point itself: every row is
        # at distance 0 from itself, which is what _query_loo drops.
        ndist, self._nidx = _query_loo(self._tree, X, spec.k)
        self._kdist = ndist[:, -1]
        reach = np.maximum(self._kdist[self._nidx], ndist)
        self._lrd = 1.0 / (reach.mean(axis=1) + 1e-10)

    def _lof(self, dsel: np.ndarray, isel: np.ndarray) -> np.ndarray:
        reach = np.maximum(self._kdist[isel], dsel)
        lrd_q = 1.0 / (reach.mean(axis=1) + 1e-10)
        return self._lrd[isel].mean(axis=1) / lrd_q

    def score(self, Q) -> np.ndarray:
        return self._lof(*self._neighbours(Q))

    def train_scores(self) -> np.ndarray:
        # score() of the training matrix finds the neighbourhoods and
        # densities computed at fit, so it reduces to their ratio.
        return self._lrd[self._nidx].mean(axis=1) / self._lrd

    def neighbour_scores(self, Q) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """``{"lof": (train, test), "knn": (train, test)}`` from this fit
        and one neighbour query of ``Q``.

        The kNN pair is bit for bit what a kNN detector with this ``k``,
        fitted on the same matrix, returns from ``train_scores()`` and
        ``score(Q)``: the same tree answers the same queries, and a kNN
        score is the k-distance LOF already holds.
        """
        dsel, isel = self._neighbours(Q)
        return {
            "lof": (self.train_scores(), self._lof(dsel, isel)),
            "knn": (self._kdist.copy(), dsel[:, -1].copy()),
        }


def _path_norm(m: float) -> float:
    """Expected path length of an unsuccessful search in a BST of m keys."""
    if m <= 1.0:
        return 0.0
    if m == 2.0:
        return 1.0
    return 2.0 * (math.log(m - 1.0) + _EULER_GAMMA) - 2.0 * (m - 1.0) / m


# Largest number of (tree, row) pairs walked at once: bounds the scratch
# arrays of one scoring step to a few megabytes at any query size.
_SCORE_BLOCK = 1 << 16


class _IForestDetector(_Detector):
    def __init__(self, spec: DetectorSpec, X: np.ndarray):
        super().__init__(spec, X)
        n = X.shape[0]
        # Canonical row order: scores must not depend on how the caller
        # happened to order the training rows.
        order = np.lexsort(X.T[::-1])
        Xs = X[order]
        sub = min(spec.subsample, n)
        max_depth = int(math.ceil(math.log2(sub))) if sub > 1 else 1
        rng = np.random.default_rng(spec.seed)
        # All trees share one set of node arrays.  A leaf splits on
        # feature 0 at +inf and is its own left child, so a walk of
        # max_depth steps from any root ends on the leaf it reaches.
        feat, thr, left, right, depths, size = [], [], [], [], [], []
        roots = []
        for _ in range(spec.n_trees):
            pick = rng.choice(n, size=sub, replace=False)
            sample = Xs[pick]
            roots.append(len(feat))
            # Depth first, left before right: the random draws come in
            # the order of the node numbers.  A child links itself into
            # its parent's ``left`` or ``right`` entry.
            todo = [(np.arange(sub), 0, left, 0)]
            while todo:
                rows, depth, link, parent = todo.pop()
                node = len(feat)
                if depth:
                    link[parent] = node
                feat.append(0)
                thr.append(math.inf)
                left.append(node)
                right.append(node)
                depths.append(depth)
                size.append(rows.size)
                if depth >= max_depth or rows.size <= 1:
                    continue
                part = sample[rows]
                mins = np.minimum.reduce(part)
                maxs = np.maximum.reduce(part)
                usable = (maxs > mins).nonzero()[0]
                if usable.size == 0:
                    continue
                f = int(usable[rng.integers(usable.size)])
                split = float(rng.uniform(mins[f], maxs[f]))
                if split == mins[f]:
                    # uniform() may return its lower edge; keep both children
                    # nonempty by moving the split just above the minimum.
                    split = float(np.nextafter(split, maxs[f]))
                go_left = part[:, f] < split
                feat[node] = f
                thr[node] = split
                todo.append((rows[~go_left], depth + 1, right, node))
                todo.append((rows[go_left], depth + 1, left, node))
        self._roots = np.asarray(roots, dtype=np.intp)
        self._max_depth = max_depth
        self._feature = np.asarray(feat, dtype=np.intp)
        self._threshold = np.asarray(thr, dtype=float)
        # children[2 i] is node i's left child, children[2 i + 1] its right.
        self._children = np.column_stack([left, right]).astype(np.intp).ravel()
        # A query's path in a tree is its leaf's depth plus the expected
        # depth of an unsuccessful search among the leaf's m training
        # rows, m in 0..sub; one float add per leaf, done here.
        norms = np.asarray([_path_norm(float(m)) for m in range(sub + 1)])
        self._leaf_path = (np.asarray(depths, dtype=float)
                           + norms[np.asarray(size, dtype=np.intp)])
        self._norm = _path_norm(float(sub))

    def _paths(self, roots: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Path length of every query in every tree, shape (trees, rows)."""
        rows, dim = Q.shape
        flat = Q.ravel()
        node = np.repeat(roots, rows)
        offset = np.tile(np.arange(rows) * dim, roots.size)
        for _ in range(self._max_depth):
            cell = self._feature.take(node)
            cell += offset
            # vals < threshold goes left, as the split was drawn.
            go_right = flat.take(cell) >= self._threshold.take(node)
            node *= 2
            node += go_right
            node = self._children.take(node)
        return self._leaf_path.take(node).reshape(roots.size, rows)

    def score(self, Q) -> np.ndarray:
        Q = np.ascontiguousarray(_check_matrix(Q, self.dim))
        m = Q.shape[0]
        n_trees = self._roots.size
        rows_step = max(1, _SCORE_BLOCK // n_trees)
        trees_step = max(1, _SCORE_BLOCK // rows_step)
        total = np.zeros(m)
        for r0 in range(0, m, rows_step):
            part = total[r0:r0 + rows_step]
            for t0 in range(0, n_trees, trees_step):
                # Tree order, one tree at a time: the sum's rounding does
                # not depend on the block sizes.
                for path in self._paths(self._roots[t0:t0 + trees_step],
                                        Q[r0:r0 + rows_step]):
                    part += path
        mean_path = total / n_trees
        return np.power(2.0, -mean_path / self._norm)


class _HbosDetector(_Detector):
    def __init__(self, spec: DetectorSpec, X: np.ndarray):
        super().__init__(spec, X)
        n = X.shape[0]
        b = spec.n_bins
        self._edges: list[np.ndarray | None] = []
        self._log_density: list[np.ndarray] = []
        for j in range(self.dim):
            col = X[:, j]
            lo, hi = float(col.min()), float(col.max())
            if lo == hi:
                # Single occupied bin: identical contribution everywhere.
                self._edges.append(None)
                self._log_density.append(np.zeros(1))
                continue
            edges = np.linspace(lo, hi, b + 1)
            counts, _ = np.histogram(col, bins=edges)
            self._edges.append(edges)
            self._log_density.append(np.log((counts + 1.0) / (n + b)))

    def score(self, Q) -> np.ndarray:
        Q = _check_matrix(Q, self.dim)
        if Q.shape[0] == 0:
            return np.empty(0)
        total = np.zeros(Q.shape[0], dtype=float)
        for j in range(self.dim):
            edges = self._edges[j]
            logd = self._log_density[j]
            if edges is None:
                total -= logd[0]
                continue
            # Out-of-range queries fall into the nearest edge bin.
            bins = np.searchsorted(edges, Q[:, j], side="right") - 1
            bins = np.clip(bins, 0, logd.size - 1)
            total -= logd[bins]
        return total


_FITTERS = {
    "knn": _KnnDetector,
    "lof": _LofDetector,
    "iforest": _IForestDetector,
    "hbos": _HbosDetector,
}


def fit_detector(spec: DetectorSpec, X):
    """Fit a detector on a feature matrix.

    Returns an object with ``spec``, ``dim``, ``score(Q)`` and
    ``train_scores()``; scores are finite for any finite query.  The
    detector keeps its own copy of ``X``.

    Raises
    ------
    DomainError
        A matrix with no feature columns, or a complex one (``score``
        refuses a complex query the same way).
    InsufficientData
        Fewer than 2 rows, or fewer than ``k + 1`` rows for the
        neighbour-based detectors.
    """
    arr = _check_matrix(X).copy()
    n, d = arr.shape
    if d == 0:
        raise DomainError("features must have at least one column, got 0")
    if n < 2:
        raise InsufficientData(f"need at least 2 training rows, got {n}")
    if spec.kind in ("knn", "lof") and n < spec.k + 1:
        raise InsufficientData(
            f"{spec.kind} with k={spec.k} needs at least {spec.k + 1} rows, got {n}"
        )
    return _FITTERS[spec.kind](spec, arr)
