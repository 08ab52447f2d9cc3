import numpy as np
import pytest

from adreject.core import DimensionMismatch, DomainError, InsufficientData, NonFiniteInput
import adreject.bench as bench
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


class TestSharedNeighbourScores:
    """kNN answered from LOF's kd-tree and neighbour query must equal a
    kNN detector of its own, and LOF must not change."""

    @pytest.mark.parametrize("data", ["normal", "wide", "tied-grid", "int-ties"])
    @pytest.mark.parametrize(
        "kinds", [DETECTOR_KINDS, ("lof", "knn"), ("knn",), ("lof",)],
        ids=["all", "lof-knn", "knn", "lof"],
    )
    def test_compute_fold_scores_equal_separate_fits(self, data, kinds):
        X = TestTrainScores._train_sets()[data]
        ds = Dataset(name=data, X=X, labels=None, gamma=0.1)
        got = compute_fold_scores(ds, kinds, fold=1, n_folds=4, seed=5)
        assert list(got) == list(kinds)
        train_idx, test_idx = make_folds(ds.n, 4, 5, ds.name)[1]
        for kind in kinds:
            spec = DetectorSpec(kind=kind, seed=detector_seed(5, ds.name, kind, 1))
            det = fit_detector(spec, X[train_idx])
            train, test = got[kind]
            assert train.tobytes() == det.train_scores().tobytes()
            assert test.tobytes() == det.score(X[test_idx]).tobytes()

    @pytest.mark.parametrize("knn_k, lof_k", [(5, 5), (5, 8), (8, 5)])
    def test_shared_only_at_equal_k(self, monkeypatch, knn_k, lof_k):
        X = TestTrainScores._train_sets()["int-ties"]
        train, queries = X[:400], X[400:]
        fitted = []

        def counting_fit(spec, X):
            fitted.append(spec.kind)
            return fit_detector(spec, X)

        monkeypatch.setattr(bench, "fit_detector", counting_fit)
        specs = [DetectorSpec(kind="knn", k=knn_k), DetectorSpec(kind="lof", k=lof_k)]
        got = bench._score_fold(specs, train, queries)
        assert fitted == (["lof"] if knn_k == lof_k else ["knn", "lof"])
        for spec, (s_train, s_test) in zip(specs, got):
            det = fit_detector(spec, train)
            assert s_train.tobytes() == det.train_scores().tobytes()
            assert s_test.tobytes() == det.score(queries).tobytes()


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
