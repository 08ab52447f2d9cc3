import re

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adreject.core import (AdrejectError, DimensionMismatch, DomainError, InsufficientData,
                           NonFiniteInput)
import adreject.detectors as detectors
from adreject.bench import Dataset, compute_fold_scores, detector_seed, make_folds
from adreject.detectors import DETECTOR_KINDS, DetectorSpec, fit_detector

from oracles import brute_hbos_scores, brute_knn_scores, reference_iforest_scores


def _grid(n_side=6):
    xs = np.arange(n_side, dtype=float)
    return np.asarray([(x, y) for x in xs for y in xs])


class TestDetectorSpec:
    def test_kinds_tuple(self):
        assert DETECTOR_KINDS == ("knn", "lof", "iforest", "hbos")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="nope"),
            dict(kind="knn", k=0),
            dict(kind="iforest", n_trees=0),
            dict(kind="iforest", subsample=1),
            dict(kind="hbos", n_bins=0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(DomainError):
            DetectorSpec(**kwargs)

    def test_defaults(self):
        spec = DetectorSpec(kind="knn")
        assert (spec.k, spec.n_trees, spec.subsample, spec.n_bins, spec.seed) == (
            10,
            100,
            256,
            10,
            0,
        )


# A spec field's edge values: only 0 (for seed) and np.int64(5) are valid.
_SPEC_EDGES = st.sampled_from([0, -1, True, 2.5, 64.0, "3", None, np.int64(5)])
_SPEC_LEAST = {"k": 1, "n_trees": 1, "subsample": 2, "n_bins": 1, "seed": 0}


class TestSpecContract:
    """Every spec DetectorSpec accepts can be fitted and scored; every
    other value is refused where it enters, with DomainError."""

    @pytest.mark.parametrize("kwargs", [
        dict(kind="knn", k=2.5),
        dict(kind="knn", k=True),
        dict(kind="iforest", subsample=64.0),
        dict(kind="iforest", seed=-1),
        dict(kind=1),
        dict(kind="knn", k="3"),
        dict(kind="hbos", n_bins=None),
        dict(kind="hbos", n_bins=np.bool_(True)),
        dict(kind="iforest", n_trees=np.float64(5.0)),
    ], ids=["k-float", "k-bool", "subsample-float", "seed-negative", "kind-int",
            "k-str", "n_bins-none", "n_bins-numpy-bool", "n_trees-numpy-float"])
    def test_refused(self, kwargs):
        with pytest.raises(DomainError):
            DetectorSpec(**kwargs)

    def test_numpy_integers_stored_as_int(self):
        spec = DetectorSpec("iforest", k=np.int64(5), n_trees=np.int32(3),
                            subsample=np.uint8(64), n_bins=np.int16(4), seed=np.uint64(7))
        assert [type(getattr(spec, name)) for name in _SPEC_LEAST] == [int] * 5
        assert spec == DetectorSpec("iforest", 5, 3, 64, 4, 7)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(DETECTOR_KINDS + ("zap",)),
        fields=st.fixed_dictionaries({
            "k": st.integers(1, 6), "n_trees": st.integers(1, 8),
            "subsample": st.integers(2, 64), "n_bins": st.integers(1, 12),
            "seed": st.integers(0, 2**32 - 1),
        }),
        edges=st.lists(st.tuples(st.sampled_from(list(_SPEC_LEAST)), _SPEC_EDGES),
                       max_size=2),
        data_seed=st.integers(0, 2**16),
    )
    def test_accepted_specs_fit_and_others_refused(self, kind, fields, edges, data_seed):
        fields.update(edges)
        valid = kind in DETECTOR_KINDS and all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and v >= _SPEC_LEAST[name] for name, v in fields.items())
        X = np.random.default_rng(data_seed).normal(size=(30, 3))
        try:
            det = fit_detector(DetectorSpec(kind, **fields), X)
            train, test = det.train_scores(), det.score(X[:5] + 0.5)
        except AdrejectError:
            # Only the spec can be at fault: 30 rows fit every valid spec.
            assert not valid
            return
        assert valid
        assert train.shape == (30,) and test.shape == (5,)
        assert np.isfinite(train).all() and np.isfinite(test).all()


class TestMatrixValidation:
    def test_non_finite_rows(self):
        with pytest.raises(NonFiniteInput):
            fit_detector(DetectorSpec(kind="knn", k=1), [[0.0], [np.nan], [1.0]])

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_complex_matrix_refused(self, kind):
        with pytest.raises(DomainError, match="must be real"):
            fit_detector(DetectorSpec(kind=kind, k=1), _grid().astype(complex))
        det = fit_detector(DetectorSpec(kind=kind, k=1), _grid())
        with pytest.raises(DomainError, match="must be real"):
            det.score(_grid()[:3] + 0j)

    def test_query_dimension_mismatch(self):
        det = fit_detector(DetectorSpec(kind="knn", k=1), _grid())
        with pytest.raises(DimensionMismatch):
            det.score(np.zeros((3, 5)))

    def test_one_dimensional_input_is_column(self):
        det = fit_detector(DetectorSpec(kind="knn", k=1), [0.0, 1.0, 10.0])
        assert det.dim == 1
        assert det.score([0.5]).tolist() == [0.5]

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_too_few_rows(self, kind):
        with pytest.raises(InsufficientData):
            fit_detector(DetectorSpec(kind=kind), [[1.0]])

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_no_feature_columns(self, kind):
        with pytest.raises(DomainError, match="at least one column"):
            fit_detector(DetectorSpec(kind=kind, k=2), np.empty((20, 0)))

    def test_knn_needs_k_plus_one_rows(self):
        with pytest.raises(InsufficientData):
            fit_detector(DetectorSpec(kind="knn", k=3), [[0.0], [1.0], [2.0]])

    @pytest.mark.parametrize("kind", ["iforest", "hbos"])
    def test_overflowing_range_refused(self, kind):
        # Both ends are finite, but max - min = 2e308 is not.
        X = np.column_stack([np.arange(4.0), [1e308, -1e308, 0.0, 1.0]])
        message = (f"{kind}: the range of feature column 1 overflows a float "
                   "(max - min is infinite)")
        with pytest.raises(DomainError, match=re.escape(message)):
            fit_detector(DetectorSpec(kind=kind), X)
        # A range of 1.1e308 stays finite and is accepted.
        X[0, 1] = 1e307
        assert np.isfinite(fit_detector(DetectorSpec(kind=kind), X).train_scores()).all()

    @staticmethod
    def _far_apart(big):
        # Every row at +big but one at -big, in fold 2's test part: a
        # distance of 2 big, whose square overflows even where 2 big does
        # not (big = 1e200).
        X = np.random.default_rng(67).normal(size=(60, 2))
        X[:, 1] = big
        folds = make_folds(60, 3, 0, "wide")
        X[folds[2][1][0], 1] = -big
        return X, folds

    @pytest.mark.parametrize("big", [1e308, 1e200])
    @pytest.mark.parametrize("kind", ["knn", "lof"])
    def test_overflowing_distance_refused(self, kind, big):
        X, folds = self._far_apart(big)
        message = "a nearest-neighbour distance overflows a float"
        with pytest.raises(DomainError, match=f"^{message}$"):
            fit_detector(DetectorSpec(kind=kind), X).train_scores()
        with pytest.raises(DomainError, match=f"^{message}$"):
            detectors._fold_neighbours(X, folds, (kind,), 10)

    @pytest.mark.parametrize("kind", ["knn", "lof"])
    def test_overflowing_query_distance_refused(self, kind):
        train = np.random.default_rng(68).normal(size=(60, 2))
        det = fit_detector(DetectorSpec(kind=kind), train)
        with pytest.raises(DomainError, match="overflows a float"):
            det.score([[1e200, 0.0]])
        assert np.isfinite(det.score([[1e150, 0.0]])).all()


class TestKnn:
    def test_frozen_values(self):
        det = fit_detector(DetectorSpec(kind="knn", k=1), [[0.0], [1.0], [10.0]])
        assert det.score([[0.5]]).tolist() == [0.5]
        # In-sample query: the exact zero match is excluded once.
        assert det.score([[10.0]]).tolist() == [9.0]

    def test_duplicate_training_rows_keep_zero_distance(self):
        det = fit_detector(DetectorSpec(kind="knn", k=1), [[0.0], [0.0], [5.0]])
        # One exact match is dropped, the duplicate remains at distance 0.
        assert det.score([[0.0]]).tolist() == [0.0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        train = rng.normal(size=(40, 3))
        queries = np.vstack([rng.normal(size=(10, 3)), train[:5]])
        det = fit_detector(DetectorSpec(kind="knn", k=4), train)
        got = det.score(queries)
        want = brute_knn_scores(train, queries, 4)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_scores_finite_and_nonnegative(self):
        det = fit_detector(DetectorSpec(kind="knn", k=2), _grid())
        s = det.score(np.asarray([[1e6, -1e6], [2.5, 2.5]]))
        assert np.all(np.isfinite(s)) and np.all(s >= 0)


class TestLof:
    def test_uniform_grid_interior_near_one(self):
        det = fit_detector(DetectorSpec(kind="lof", k=4), _grid(8))
        interior = np.asarray([[3.0, 3.0], [4.0, 4.0], [3.0, 4.0]])
        s = det.score(interior)
        assert np.allclose(s, 1.0, atol=0.05)

    def test_outlier_scores_higher(self):
        det = fit_detector(DetectorSpec(kind="lof", k=4), _grid(8))
        assert det.score([[20.0, 20.0]])[0] > det.score([[3.5, 3.5]])[0] + 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        train = rng.normal(size=(60, 2))
        queries = rng.normal(size=(12, 2))
        shift = np.asarray([100.0, -50.0])
        a = fit_detector(DetectorSpec(kind="lof", k=5), train).score(queries)
        b = fit_detector(DetectorSpec(kind="lof", k=5), train + shift).score(
            queries + shift
        )
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9)

    def test_duplicate_heavy_data_stays_finite(self):
        train = np.vstack([np.zeros((30, 2)), np.ones((5, 2))])
        det = fit_detector(DetectorSpec(kind="lof", k=3), train)
        s = det.score(np.asarray([[0.0, 0.0], [0.5, 0.5]]))
        assert np.all(np.isfinite(s))


class TestIforest:
    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(31)
        train = rng.normal(size=(200, 4))
        queries = rng.normal(size=(20, 4))
        a = fit_detector(DetectorSpec(kind="iforest", seed=7), train).score(queries)
        b = fit_detector(DetectorSpec(kind="iforest", seed=7), train).score(queries)
        assert np.array_equal(a, b)

    def test_seed_changes_scores(self):
        rng = np.random.default_rng(31)
        train = rng.normal(size=(200, 4))
        queries = rng.normal(size=(20, 4))
        a = fit_detector(DetectorSpec(kind="iforest", seed=7), train).score(queries)
        b = fit_detector(DetectorSpec(kind="iforest", seed=8), train).score(queries)
        assert not np.array_equal(a, b)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(33)
        train = rng.normal(size=(150, 3))
        queries = rng.normal(size=(10, 3))
        perm = rng.permutation(len(train))
        a = fit_detector(DetectorSpec(kind="iforest", seed=3), train).score(queries)
        b = fit_detector(DetectorSpec(kind="iforest", seed=3), train[perm]).score(
            queries
        )
        assert np.allclose(a, b, rtol=1e-12, atol=0)

    def test_extreme_point_scores_above_mode(self):
        rng = np.random.default_rng(35)
        train = rng.normal(size=(400, 2))
        det = fit_detector(DetectorSpec(kind="iforest", seed=1), train)
        dense = det.score(np.asarray([[0.0, 0.0]]))[0]
        extreme = det.score(np.asarray([[8.0, 8.0]]))[0]
        assert extreme > dense

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(37)
        train = rng.normal(size=(100, 2))
        s = fit_detector(DetectorSpec(kind="iforest", seed=0), train).score(
            rng.normal(size=(50, 2)) * 3
        )
        assert np.all((s > 0.0) & (s < 1.0))


class TestIforestKernel:
    """The flat, blocked forest against the per-tree scorer, bit for bit."""

    @staticmethod
    def _check(train, queries, **kw):
        spec = DetectorSpec(kind="iforest", **kw)
        got = fit_detector(spec, train).score(queries)
        want = reference_iforest_scores(
            train, queries, spec.n_trees, spec.subsample, spec.seed
        )
        assert got.dtype == np.float64 and got.shape == (queries.shape[0],)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 8, 32])
    @pytest.mark.parametrize("rows", ["0", "1", "block-1", "block", "block+1", "20000"])
    def test_query_sizes_and_dimensions(self, rows, d):
        # Ten trees: a block holds _SCORE_BLOCK // 10 query rows.
        block = detectors._SCORE_BLOCK // 10
        m = {"0": 0, "1": 1, "block-1": block - 1, "block": block,
             "block+1": block + 1, "20000": 20000}[rows]
        rng = np.random.default_rng(d)
        train = rng.normal(size=(300, d))
        self._check(train, rng.normal(size=(m, d)) * 1.5, n_trees=10, seed=d)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_single_tree_at_the_block_edge(self, extra):
        rng = np.random.default_rng(5)
        train = rng.normal(size=(200, 3))
        queries = rng.normal(size=(detectors._SCORE_BLOCK + extra, 3))
        self._check(train, queries, n_trees=1, seed=5)

    @pytest.mark.parametrize("n_trees", [1, 6, 7, 20])
    def test_blocks_split_rows_and_trees(self, monkeypatch, n_trees):
        # A 7-pair block splits the rows, and with more trees than pairs
        # the trees as well.
        monkeypatch.setattr(detectors, "_SCORE_BLOCK", 7)
        rng = np.random.default_rng(n_trees)
        train = rng.normal(size=(120, 4))
        self._check(train, rng.normal(size=(23, 4)), n_trees=n_trees, seed=2)

    def test_default_forest(self):
        rng = np.random.default_rng(8)
        train = rng.normal(size=(1000, 8))
        self._check(train, rng.normal(size=(2000, 8)) * 2.0, seed=8)

    def test_queries_on_the_split_values(self):
        # A query equal to a split goes right in both scorers.
        rng = np.random.default_rng(11)
        train = rng.normal(size=(200, 3))
        det = fit_detector(DetectorSpec(kind="iforest", n_trees=5, seed=11), train)
        splits = det._threshold[np.isfinite(det._threshold)]
        self._check(train, np.repeat(splits[:, None], 3, axis=1), n_trees=5, seed=11)

    def test_subsample_above_row_count(self):
        rng = np.random.default_rng(9)
        train = rng.normal(size=(40, 2))
        self._check(train, rng.normal(size=(50, 2)), subsample=256, seed=9)

    def test_duplicate_rows(self):
        base = np.random.default_rng(10).integers(0, 3, size=(30, 2)).astype(float)
        train = np.vstack([base, base, base])
        self._check(train, np.vstack([train, [[1.5, 1.5], [9.0, -9.0]]]),
                    n_trees=25, subsample=64, seed=10)


class _RecordingRng:
    """A generator that keeps every subsample ``choice`` draws."""

    def __init__(self, rng):
        self._rng = rng
        self.picks = []

    def choice(self, *args, **kwargs):
        pick = self._rng.choice(*args, **kwargs)
        self.picks.append(pick)
        return pick

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestIforestDistinctSamples:
    """A tree whose subsample repeats no value in any column is built on
    the one-column path; any other tree on the full one.  Both give the
    per-tree reference's scores bit for bit."""

    @staticmethod
    def _distinct_trees(monkeypatch, train, spec):
        """The forest of ``spec`` on ``train``, and per tree whether its
        subsample holds distinct values in every column."""
        rngs, seeded = [], np.random.default_rng

        def recording(seed):
            rngs.append(_RecordingRng(seeded(seed)))
            return rngs[-1]

        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", recording)
            det = fit_detector(spec, train)
        Xs = train[np.lexsort(train.T[::-1])]
        ordered = (np.sort(Xs[pick], axis=0) for pick in rngs[0].picks)
        return det, [bool((np.diff(s, axis=0) > 0).all()) for s in ordered]

    @pytest.mark.parametrize("repeat", ["row", "signed-zero"])
    def test_both_paths_equal_the_reference(self, monkeypatch, repeat):
        # Eight equal rows: a subsample of 64 of the 300 holds two or
        # more of them in about half the trees.  No split can part them,
        # so a node of only those rows must stay a leaf.
        rng = np.random.default_rng(12)
        train = rng.normal(size=(300, 3))
        if repeat == "row":
            train[10:18] = train[10]
        else:
            # Eight rows apart from the rest, that differ in columns 0 and
            # 2 but hold -0.0 or 0.0 in column 1: one value to a split.
            train[10:18] = 6.0 + 1e-3 * rng.normal(size=(8, 3))
            train[10:18, 1] = [-0.0, 0.0] * 4
        queries = np.vstack([rng.normal(size=(500, 3)) * 2.0, train[10:18]])
        spec = DetectorSpec(kind="iforest", n_trees=40, subsample=64, seed=4)
        det, distinct = self._distinct_trees(monkeypatch, train, spec)
        assert 0 < sum(distinct) < len(distinct)
        for Q in (queries, train):
            want = reference_iforest_scores(train, Q, spec.n_trees, spec.subsample,
                                            spec.seed)
            assert det.score(Q).tobytes() == want.tobytes()
        assert det.train_scores().tobytes() == det.score(train).tobytes()

    def test_repeated_columns_take_the_full_path(self, monkeypatch):
        rng = np.random.default_rng(13)
        train = np.column_stack([rng.normal(size=200), rng.integers(0, 4, 200)])
        spec = DetectorSpec(kind="iforest", n_trees=10, subsample=64, seed=5)
        det, distinct = self._distinct_trees(monkeypatch, train, spec)
        assert not any(distinct)
        queries = rng.normal(size=(50, 2)) * 3.0
        want = reference_iforest_scores(train, queries, spec.n_trees, spec.subsample,
                                        spec.seed)
        assert det.score(queries).tobytes() == want.tobytes()


class TestTrainScores:
    @staticmethod
    def _train_sets():
        rng = np.random.default_rng(61)
        grid = _grid(5)
        return {
            "normal": rng.normal(size=(400, 5)),
            "wide": rng.normal(size=(600, 32)),
            # Every row three times: ties in distance and in neighbours.
            "tied-grid": np.vstack([grid, grid, grid]),
            # Small integers: duplicate rows and many equal distances.
            "int-ties": rng.integers(0, 4, size=(500, 3)).astype(float),
        }

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    @pytest.mark.parametrize("data", ["normal", "wide", "tied-grid", "int-ties"])
    def test_equal_to_scoring_the_training_matrix(self, kind, data):
        X = self._train_sets()[data]
        det = fit_detector(DetectorSpec(kind=kind, k=5, n_trees=20), X)
        got = det.train_scores()
        assert got.tobytes() == det.score(X.copy()).tobytes()

    def test_detector_keeps_its_own_training_matrix(self):
        X = np.random.default_rng(62).normal(size=(50, 2))
        det = fit_detector(DetectorSpec(kind="knn", k=3), X)
        before = det.train_scores()
        X[:] = 0.0
        assert det.train_scores().tobytes() == before.tobytes()


def _assert_fold_fits(got, X, folds, k):
    """``got`` holds, per fold, what kNN/LOF fitted on the training fold
    return, bit for bit."""
    assert len(got) == len(folds)
    for scores, (train_idx, test_idx) in zip(got, folds):
        for kind, (train, test) in scores.items():
            det = fit_detector(DetectorSpec(kind=kind, k=k), X[train_idx])
            assert train.tobytes() == det.train_scores().tobytes()
            assert test.tobytes() == det.score(X[test_idx]).tobytes()


class TestSharedNeighbourScores:
    """kNN and LOF of every fold from one kd-tree and one neighbour query
    of the whole matrix must equal detectors fitted on each training
    fold, bit for bit."""

    @pytest.mark.parametrize("data", ["normal", "wide", "tied-grid", "int-ties"])
    @pytest.mark.parametrize(
        "kinds", [DETECTOR_KINDS, ("lof", "knn"), ("knn",), ("lof",)],
        ids=["all", "lof-knn", "knn", "lof"],
    )
    def test_compute_fold_scores_equal_separate_fits(self, data, kinds):
        X = TestTrainScores._train_sets()[data]
        ds = Dataset(name=data, X=X, labels=None, gamma=0.1)
        folds = make_folds(ds.n, 4, 5, ds.name)
        got = compute_fold_scores(ds, kinds, folds, seed=5)
        assert len(got) == len(folds)
        for fold, (train_idx, test_idx) in enumerate(folds):
            assert list(got[fold]) == list(kinds)
            for kind in kinds:
                spec = DetectorSpec(kind=kind, seed=detector_seed(5, ds.name, kind, fold))
                det = fit_detector(spec, X[train_idx])
                train, test = got[fold][kind]
                assert train.tobytes() == det.train_scores().tobytes()
                assert test.tobytes() == det.score(X[test_idx]).tobytes()

    @pytest.mark.parametrize("knn_k, lof_k", [(5, 5), (5, 8), (8, 5)])
    def test_shared_only_at_equal_k(self, monkeypatch, knn_k, lof_k):
        # One tree over the whole matrix answers both kinds at one k; at
        # two values of k each kind makes its own query.
        X = TestTrainScores._train_sets()["int-ties"]
        folds = make_folds(X.shape[0], 3, 0)
        whole_trees = []
        real_tree = scipy.spatial.cKDTree

        def counting_tree(data, *args, **kwargs):
            whole_trees.append(len(data) == len(X))
            return real_tree(data, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", counting_tree)
        if knn_k == lof_k:
            got = detectors._fold_neighbours(X, folds, ("knn", "lof"), knn_k)
        else:
            knn = detectors._fold_neighbours(X, folds, ("knn",), knn_k)
            lof = detectors._fold_neighbours(X, folds, ("lof",), lof_k)
            got = [{**a, **b} for a, b in zip(knn, lof)]
        monkeypatch.undo()
        assert sum(whole_trees) == (1 if knn_k == lof_k else 2)
        for scores, (train_idx, test_idx) in zip(got, folds):
            assert list(scores) == ["knn", "lof"]
            for kind, k in (("knn", knn_k), ("lof", lof_k)):
                det = fit_detector(DetectorSpec(kind=kind, k=k), X[train_idx])
                assert scores[kind][0].tobytes() == det.train_scores().tobytes()
                assert scores[kind][1].tobytes() == det.score(X[test_idx]).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(
        # Up to 600 rows: the shared tree has several leaves at its leaf
        # size; up to 40 columns: pruning at high d, ties on the grids.
        n=st.integers(3, 600),
        d=st.integers(1, 40),
        k=st.integers(1, 8),
        n_folds=st.integers(2, 6),
        grid=st.sampled_from([None, 2, 3, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_to_fold_fits(self, n, d, k, n_folds, grid, seed):
        # grid=None: continuous rows; otherwise integers 0..grid-1, with
        # repeated rows and tied distances.
        assume(n >= k + 2 and n_folds <= n and n - -(-n // n_folds) >= k + 1)
        rng = np.random.default_rng(seed)
        if grid is None:
            X = rng.normal(size=(n, d))
        else:
            X = rng.integers(0, grid, size=(n, d)).astype(float)
        folds = make_folds(n, n_folds, seed)
        got = detectors._fold_neighbours(X, folds, ("knn", "lof"), k)
        _assert_fold_fits(got, X, folds, k)

    def test_only_the_shared_tree_is_shallower(self, monkeypatch):
        # The fold fallback trees and a fitted LOF detector keep cKDTree's
        # default leaf size, which fixes LOF's order among tied neighbours.
        # Each row three times: every fold has rows to query again.
        X = np.repeat(np.random.default_rng(62).normal(size=(60, 3)), 3, axis=0)
        folds = make_folds(len(X), 3, 0)
        real_tree, trees = scipy.spatial.cKDTree, []

        def recording_tree(data, *args, **kwargs):
            tree = real_tree(data, *args, **kwargs)
            trees.append((len(data), tree.leafsize))
            return tree

        monkeypatch.setattr(scipy.spatial, "cKDTree", recording_tree)
        got = detectors._fold_neighbours(X, folds, ("knn", "lof"), 5)
        fit_detector(DetectorSpec("lof", k=5), X)
        monkeypatch.undo()
        default = real_tree(X).leafsize
        assert detectors._SHARED_LEAFSIZE != default
        assert trees == ([(len(X), detectors._SHARED_LEAFSIZE)]
                         + [(train_idx.size, default) for train_idx, _ in folds]
                         + [(len(X), default)])
        _assert_fold_fits(got, X, folds, 5)

    @staticmethod
    def _fallback_rows(monkeypatch, X, folds, k):
        """Scores, and how many rows were queried again on a fold's tree."""
        rows = []
        real_query = detectors._query_loo

        def counting_query(tree, Q, k):
            rows.append(len(Q))
            return real_query(tree, Q, k)

        monkeypatch.setattr(detectors, "_query_loo", counting_query)
        got = detectors._fold_neighbours(X, folds, ("knn", "lof"), k)
        monkeypatch.undo()
        return got, sum(rows)

    def test_every_row_falls_back(self, monkeypatch):
        # Four points, each 15 times: every row has several training rows
        # at distance 0 in every fold, so no shared answer is proven.
        X = np.repeat(np.random.default_rng(63).normal(size=(4, 2)), 15, axis=0)
        folds = make_folds(len(X), 5, 0)
        got, requeried = self._fallback_rows(monkeypatch, X, folds, 3)
        assert requeried == len(X) * len(folds)
        _assert_fold_fits(got, X, folds, 3)

    def test_no_row_falls_back(self, monkeypatch):
        # k=8 over 2 folds asks for 30 neighbours: of 30 distinct rows
        # every row sees every training row, 15 of them, at distinct
        # distances, so every neighbourhood is proven.
        X = np.random.default_rng(64).normal(size=(30, 2))
        folds = make_folds(len(X), 2, 0)
        got, requeried = self._fallback_rows(monkeypatch, X, folds, 8)
        assert requeried == 0
        _assert_fold_fits(got, X, folds, 8)

    @pytest.mark.parametrize(
        "kinds, speaker",
        [
            (("knn",), "knn"),
            (("lof",), "lof"),
            (("knn", "lof"), "lof"),
            (("lof", "knn"), "lof"),
            (("iforest", "knn"), "knn"),
            (("hbos", "lof", "knn"), "lof"),
            (DETECTOR_KINDS, "lof"),
        ],
    )
    def test_small_training_fold_refused_as_a_fold_fit(self, kinds, speaker):
        # 12 rows in 2 folds leave 6 training rows for k=10: the error a
        # detector fitted on that fold raises (LOF's when both kinds are
        # asked for), before any neighbour query.
        ds = Dataset(name="small", X=np.random.default_rng(65).normal(size=(12, 2)),
                     labels=None, gamma=0.1)
        message = f"{speaker} with k=10 needs at least 11 rows, got 6"
        with pytest.raises(InsufficientData, match=f"^{message}$"):
            compute_fold_scores(ds, kinds, make_folds(ds.n, 2, 0, ds.name), seed=0)

    def test_small_training_fold_left_to_other_kinds(self):
        ds = Dataset(name="small", X=np.random.default_rng(65).normal(size=(12, 2)),
                     labels=None, gamma=0.1)
        got = compute_fold_scores(ds, ("iforest", "hbos"), make_folds(ds.n, 2, 0, ds.name),
                                  seed=0)
        assert [list(scores) for scores in got] == [["iforest", "hbos"]] * 2


class TestHbos:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        train = rng.normal(size=(80, 3))
        queries = np.vstack([rng.normal(size=(15, 3)), train[:3]])
        det = fit_detector(DetectorSpec(kind="hbos", n_bins=10), train)
        got = det.score(queries)
        want = brute_hbos_scores(train, queries, 10)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_constant_feature_contributes_nothing(self):
        rng = np.random.default_rng(43)
        base = rng.normal(size=(60, 2))
        padded = np.column_stack([base, np.full(60, 7.0)])
        queries = rng.normal(size=(10, 2))
        q_padded = np.column_stack([queries, np.full(10, 7.0)])
        a = fit_detector(DetectorSpec(kind="hbos"), base).score(queries)
        b = fit_detector(DetectorSpec(kind="hbos"), padded).score(q_padded)
        assert np.allclose(a, b, rtol=1e-12, atol=0)

    def test_additive_over_features(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(70, 1))
        y = rng.normal(size=(70, 1))
        queries = rng.normal(size=(8, 2))
        joint = fit_detector(DetectorSpec(kind="hbos"), np.hstack([x, y])).score(
            queries
        )
        sx = fit_detector(DetectorSpec(kind="hbos"), x).score(queries[:, :1])
        sy = fit_detector(DetectorSpec(kind="hbos"), y).score(queries[:, 1:])
        assert np.allclose(joint, sx + sy, rtol=1e-10, atol=1e-12)

    def test_out_of_range_clips_to_edge_bins(self):
        train = np.linspace(0.0, 1.0, 50).reshape(-1, 1)
        det = fit_detector(DetectorSpec(kind="hbos"), train)
        assert det.score([[-100.0]])[0] == det.score([[0.0]])[0]
        assert det.score([[100.0]])[0] == det.score([[1.0]])[0]

    def test_rare_bin_scores_higher(self):
        rng = np.random.default_rng(49)
        train = np.concatenate([rng.normal(0, 0.5, 195), np.asarray([4.9] * 5)])
        det = fit_detector(DetectorSpec(kind="hbos"), train.reshape(-1, 1))
        assert det.score([[4.9]])[0] > det.score([[0.0]])[0]


class TestScoreShapes:
    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_scores_are_1d_float(self, kind):
        rng = np.random.default_rng(51)
        train = rng.normal(size=(64, 2))
        det = fit_detector(DetectorSpec(kind=kind, k=3), train)
        s = det.score(rng.normal(size=(9, 2)))
        assert s.shape == (9,)
        assert s.dtype == np.float64
        assert np.all(np.isfinite(s))

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_empty_query(self, kind):
        train = np.random.default_rng(52).normal(size=(64, 2))
        s = fit_detector(DetectorSpec(kind=kind, k=3), train).score(np.empty((0, 2)))
        assert s.shape == (0,)
        assert s.dtype == np.float64
