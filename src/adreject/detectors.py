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
score the matrix again.

``DetectorSpec`` checks its own fields.  Cross-validation scores come
from ``bench.compute_fold_scores``, which answers kNN and LOF for every
fold from one neighbour query (``_fold_neighbours``).
"""

from __future__ import annotations

import math
import numbers
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
_NEIGHBOUR_KINDS = ("knn", "lof")

_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class DetectorSpec:
    """Detector kind plus hyperparameters (unused ones are ignored):
    ``kind`` is one of :data:`DETECTOR_KINDS`, and ``k``, ``n_trees``,
    ``subsample``, ``n_bins`` and ``seed`` are integers (not ``bool``;
    stored as ``int``) of at least 1, 1, 2, 1 and 0.  Anything else
    raises ``DomainError``."""

    kind: str
    k: int = 10
    n_trees: int = 100
    subsample: int = 256
    n_bins: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in DETECTOR_KINDS:
            raise DomainError(
                f"unknown detector kind {self.kind!r}, expected one of {DETECTOR_KINDS}"
            )
        for name, least in (("k", 1), ("n_trees", 1), ("subsample", 2), ("n_bins", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise DomainError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, int(value))


def _check_kinds(kinds) -> None:
    """Refuse a list of detector kinds naming an unknown kind or one twice."""
    for i, kind in enumerate(kinds):
        DetectorSpec(kind)
        if kind in kinds[:i]:
            raise DomainError(f"detector kind {kind!r} is named twice")


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


def _drop_exact(dist: np.ndarray, idx: np.ndarray, k: int):
    """The first k of at least k+1 ascending neighbours, or the k after
    the first when that one sits at distance exactly zero (the query
    equals a training row), so train and test scoring share one code
    path."""
    exact = dist[:, :1] == 0.0
    dsel = np.where(exact, dist[:, 1 : k + 1], dist[:, 0:k])
    isel = np.where(exact, idx[:, 1 : k + 1], idx[:, 0:k])
    return dsel, isel


def _query_loo(tree, Q: np.ndarray, k: int):
    """k nearest training rows of a ``cKDTree`` per query, discarding
    one exact match (``_drop_exact``); distances and indices of shape
    (m, k).  Refuses a neighbour whose distance overflows a float."""
    # Each query is answered on its own, so spreading them over all cores
    # returns the same distances and indices.
    dist, idx = tree.query(Q, k=k + 1, workers=-1)
    dsel, isel = _drop_exact(np.atleast_2d(dist), np.atleast_2d(idx), k)
    # cKDTree reports a neighbour at an overflowing distance as missing:
    # distance inf at index n.
    if np.isinf(dsel).any():
        raise DomainError("a nearest-neighbour distance overflows a float")
    return dsel, isel


def _reach_density(kdist: np.ndarray, dsel: np.ndarray, isel: np.ndarray) -> np.ndarray:
    """Local reachability density of each row from its neighbourhood
    (distances ``dsel`` to training rows ``isel``)."""
    reach = np.maximum(kdist[isel], dsel)
    return 1.0 / (reach.mean(axis=1) + 1e-10)


def _lof_fit(ndist: np.ndarray, nidx: np.ndarray):
    """LOF's k-distances, densities and scores of the training rows,
    from their neighbourhoods within the training set."""
    kdist = ndist[:, -1]
    lrd = _reach_density(kdist, ndist, nidx)
    return kdist, lrd, lrd[nidx].mean(axis=1) / lrd


def _lof_score(kdist, lrd, dsel: np.ndarray, isel: np.ndarray) -> np.ndarray:
    """LOF of queries with neighbourhoods ``(dsel, isel)`` in a training
    set of k-distances ``kdist`` and densities ``lrd``."""
    return lrd[isel].mean(axis=1) / _reach_density(kdist, dsel, isel)


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
        self._kdist, self._lrd, self._train = _lof_fit(
            *_query_loo(self._tree, X, spec.k)
        )

    def score(self, Q) -> np.ndarray:
        return _lof_score(self._kdist, self._lrd, *self._neighbours(Q))

    def train_scores(self) -> np.ndarray:
        # score() of the training matrix finds the neighbourhoods and
        # densities computed at fit, so it reduces to _lof_fit's scores.
        return self._train.copy()


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
        d = X.shape[1]
        for _ in range(spec.n_trees):
            pick = rng.choice(n, size=sub, replace=False)
            sample = Xs[pick]
            # When no column of the sample repeats a value (-0.0 and 0.0
            # count as one), every node of two or more rows can split on
            # every feature.  The draw usable[rng.integers(usable.size)]
            # is then rng.integers(d), the same draw from the same
            # stream, and the node needs only that column's min and max.
            ordered = np.sort(sample, axis=0)
            distinct = bool((ordered[1:] > ordered[:-1]).all())
            columns = np.ascontiguousarray(sample.T)
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
                if distinct:
                    f = int(rng.integers(d))
                    values = columns[f].take(rows)
                    lo, hi = float(values.min()), float(values.max())
                else:
                    part = sample[rows]
                    mins = np.minimum.reduce(part)
                    maxs = np.maximum.reduce(part)
                    usable = (maxs > mins).nonzero()[0]
                    if usable.size == 0:
                        continue
                    f = int(usable[rng.integers(usable.size)])
                    lo, hi = float(mins[f]), float(maxs[f])
                    values = part[:, f]
                # Bit for bit rng.uniform(lo, hi): fit_detector refused
                # any column whose range overflows, so hi - lo is finite.
                split = lo + (hi - lo) * rng.random()
                if split == lo:
                    # The draw may return its lower edge; keep both children
                    # nonempty by moving the split just above the minimum.
                    split = math.nextafter(lo, hi)
                go_left = values < split
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


def _check_rows(spec: DetectorSpec, n: int, d: int) -> None:
    if d == 0:
        raise DomainError("features must have at least one column, got 0")
    if n < 2:
        raise InsufficientData(f"need at least 2 training rows, got {n}")
    if spec.kind in _NEIGHBOUR_KINDS and n < spec.k + 1:
        raise InsufficientData(
            f"{spec.kind} with k={spec.k} needs at least {spec.k + 1} rows, got {n}"
        )


def _check_ranges(spec: DetectorSpec, X: np.ndarray) -> None:
    # The forest draws its splits and HBOS its bin edges across a
    # column's range, which must be a finite float.
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(np.isinf(X.max(axis=0) - X.min(axis=0)))
    if wide.size:
        raise DomainError(
            f"{spec.kind}: the range of feature column {int(wide[0])} "
            "overflows a float (max - min is infinite)"
        )


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
        For ``iforest`` and ``hbos``, also a column whose range
        ``max - min`` overflows a float; for ``knn`` and ``lof``, a
        row whose distance to a neighbour overflows (``score`` refuses
        such a query the same way).
    InsufficientData
        Fewer than 2 rows, or fewer than ``k + 1`` rows for the
        neighbour-based detectors.
    """
    arr = _check_matrix(X).copy()
    _check_rows(spec, *arr.shape)
    if spec.kind not in _NEIGHBOUR_KINDS:
        _check_ranges(spec, arr)
    return _FITTERS[spec.kind](spec, arr)


def _check_folds(kinds, folds, d: int) -> None:
    """Refuse the first training fold too small for a detector of
    ``kinds``, as ``fit_detector`` on that fold would.  kNN and LOF are
    answered together from one neighbour query, so they refuse first
    and once, as LOF when both are asked for; the other kinds follow in
    the order given."""
    near = [kind for kind in kinds if kind in _NEIGHBOUR_KINDS]
    speakers = ["lof" if "lof" in near else "knn"] if near else []
    for kind in speakers + [kind for kind in kinds if kind not in near]:
        spec = DetectorSpec(kind)
        for train_idx, _ in folds:
            _check_rows(spec, train_idx.size, d)


# Leaf size of the one tree _fold_neighbours queries for every row.  A
# larger leaf visits fewer nodes and prunes less: at d=32 the query takes
# a quarter to two fifths less CPU at 64 than at cKDTree's default 16,
# and at d=2 about the same, where larger leaves lose
# (BENCH_research_schedule.json).  Only a proven row keeps this tree's
# answer, and a proven neighbourhood has no tie whose order the tree's
# shape could pick, so no score depends on it.  Fitted detectors and
# the per-fold fallback trees keep the default, which fixes LOF's order
# among tied neighbours.
_SHARED_LEAFSIZE = 64


def _fold_neighbours(X: np.ndarray, folds, kinds, k: int) -> list[dict]:
    """kNN and/or LOF (``kinds``) scores of every fold of a checked
    matrix from one kd-tree over all its rows and one query of them.

    ``folds`` partitions the rows as ``bench.make_folds`` does, each
    training fold of at least k+1 rows.  Returns one ``{kind: (train,
    test)}`` per fold, bit for bit what ``fit_detector(DetectorSpec(kind,
    k=k), X[train_idx])`` returns from ``train_scores()`` and
    ``score(X[test_idx])``; an overflowing distance raises as there.

    A row keeps the shared answer for a fold only when the fold's own
    tree provably gives the same neighbourhood: at least k+2 of its
    queried neighbours are in the training fold, the first k+2 of them
    at strictly increasing distances.  Any other row (ties, repeated
    rows, too few kept) is queried again on the fold's own tree.
    """
    from scipy.spatial import cKDTree

    n = X.shape[0]
    # A row keeps about (f-1)/f of its neighbours in a training fold of
    # f folds; asking for 1.5 times the k+2 it needs on average leaves
    # few rows to fall back.
    f = len(folds)
    n_query = min(n, -(-3 * (k + 2) * f // (2 * (f - 1))))
    dist, idx = cKDTree(X, leafsize=_SHARED_LEAFSIZE).query(X, k=n_query, workers=-1)
    # 32-bit row numbers halve the n x n_query index arrays, which set
    # the research loop's peak memory.
    idx = idx.astype(np.int32)
    out = []
    for train_idx, test_idx in folds:
        # Index n, a neighbour the query reports missing, is in no fold.
        pos = np.full(n + 1, -1, dtype=np.int32)
        pos[train_idx] = np.arange(train_idx.size)
        fidx = pos[idx]
        kept = fidx >= 0
        # The first k+2 neighbours inside the training fold, nearest first.
        first = np.argsort(~kept, axis=1, kind="stable")[:, : k + 2]
        near = np.take_along_axis(dist, first, axis=1)
        dsel, isel = _drop_exact(near, np.take_along_axis(fidx, first, axis=1), k)
        # Rows outside the query lie no nearer than its last, and so no
        # nearer than the (k+2)-th kept row: strict steps up to that row
        # fix the fold's k+1 nearest and their order.
        proven = (kept.sum(axis=1) >= k + 2) & (near[:, 1:] > near[:, :-1]).all(axis=1)
        redo = np.flatnonzero(~proven)
        if redo.size:
            dsel[redo], isel[redo] = _query_loo(cKDTree(X[train_idx]), X[redo], k)
        ndist, nidx = dsel[train_idx], isel[train_idx]
        tdist, tidx = dsel[test_idx], isel[test_idx]
        scores = {}
        if "knn" in kinds:
            scores["knn"] = ndist[:, -1].copy(), tdist[:, -1].copy()
        if "lof" in kinds:
            kdist, lrd, train = _lof_fit(ndist, nidx)
            scores["lof"] = train, _lof_score(kdist, lrd, tdist, tidx)
        out.append(scores)
    return out
