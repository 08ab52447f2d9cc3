import csv
import multiprocessing
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import adreject.bench as bench
from adreject.bench import (
    COST_PRESETS,
    MAX_ROWS,
    METHODS,
    Dataset,
    EmptyResults,
    MissingGamma,
    ParseError,
    TrialResult,
    aggregate,
    compute_fold_scores,
    cost_preset,
    detector_seed,
    load_csv,
    make_folds,
    rank_auc,
    _average_ranks,
    read_csv_table,
    run_benchmark,
    run_trial,
    synthetic_suite,
    write_report_files,
)
from adreject.core import (
    AdrejectError,
    CostSpec,
    DomainError,
    InsufficientData,
    LabelLengthMismatch,
    NonBinaryLabels,
    NonFiniteInput,
    ScoreSet,
    ToleranceSpec,
)
from adreject.detectors import DETECTOR_KINDS, DetectorSpec, fit_detector
from adreject.rejector import empirical_cost, fit, oracle_sweep, predict_batch


def _toy_dataset(n=300, gamma=0.1, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    n_anom = int(round(n * gamma))
    X = np.vstack(
        [rng.normal(0.0, 1.0, (n - n_anom, 2)), rng.normal(4.0, 1.0, (n_anom, 2))]
    )
    labels = np.concatenate([np.zeros(n - n_anom), np.ones(n_anom)]).astype(int)
    return Dataset(name=name, X=X, labels=labels, gamma=n_anom / n)


class TestCostPresets:
    @pytest.mark.parametrize(
        "name,gamma,expected",
        [
            ("q1", 0.1, (1.0, 1.0, 0.1)),
            ("case1", 0.1, (10.0, 1.0, 0.1)),
            ("case2", 0.1, (1.0, 10.0, 0.9)),
            ("case3", 0.1, (5.0, 5.0, 0.1)),
            ("case2", 0.3, (1.0, 10.0, 0.7)),
        ],
    )
    def test_values(self, name, gamma, expected):
        c = cost_preset(name, gamma)
        assert (c.c_fp, c.c_fn, c.c_r) == expected

    @pytest.mark.parametrize("name", COST_PRESETS)
    def test_gamma_zero_free_rejection_cap(self, name):
        assert cost_preset(name, 0.0).c_r == 0.0

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            cost_preset("case9", 0.1)


class TestDataset:
    def test_gamma_must_match_labels(self):
        ds = _toy_dataset()
        with pytest.raises(DomainError):
            Dataset(name="bad", X=ds.X, labels=ds.labels, gamma=0.4)

    def test_non_binary_labels(self):
        ds = _toy_dataset()
        labels = ds.labels.copy()
        labels[0] = 2
        with pytest.raises(NonBinaryLabels):
            Dataset(name="bad", X=ds.X, labels=labels, gamma=ds.gamma)

    def test_row_cap(self):
        n = MAX_ROWS + 1
        with pytest.raises(DomainError):
            Dataset(
                name="big",
                X=np.zeros((n, 1)),
                labels=np.zeros(n, dtype=int),
                gamma=0.0,
            )

    def test_one_dimensional_features_reshaped(self):
        ds = Dataset(
            name="one",
            X=np.arange(10.0),
            labels=np.asarray([0] * 9 + [1]),
            gamma=0.1,
        )
        assert ds.X.shape == (10, 1)

    def test_non_finite_features(self):
        X = np.zeros((10, 2))
        X[3, 1] = np.inf
        with pytest.raises(NonFiniteInput):
            Dataset(name="nf", X=X, labels=np.zeros(10, dtype=int), gamma=0.0)


class TestDatasetRefusals:
    """Dataset asks the owners of the feature, label and gamma rules
    (``_check_matrix``, ``_check_labels``, ``_as_float`` with
    ``validate_domain``) instead of restating them; ``gamma`` values
    that are not real numbers are in ``test_core.TestScalarParameters``."""

    _X = np.random.default_rng(3).normal(size=(32, 2))
    _Y = np.array([0] * 29 + [1] * 3)

    @pytest.mark.parametrize("kwargs,error", [
        (dict(X=_X + 1j), DomainError),
        (dict(X=_X.reshape(32, 2, 1)), DomainError),
        (dict(X=np.zeros((0, 2)), labels=np.zeros(0, dtype=int), gamma=0.0),
         InsufficientData),
        (dict(X=np.zeros((0, 2)), labels=None, gamma=0.0), InsufficientData),
        (dict(labels=_Y + 0j), DomainError),
        (dict(labels=_Y[:, None]), LabelLengthMismatch),
        (dict(labels=None, gamma=0.5), DomainError),
    ], ids=["complex-X", "3d-X", "no-rows-labelled", "no-rows", "complex-labels",
            "2d-labels", "gamma-half"])
    def test_refused(self, kwargs, error):
        args = {**dict(name="d", X=self._X, labels=self._Y, gamma=3 / 32), **kwargs}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as info:
                Dataset(**args)
        assert isinstance(info.value, AdrejectError)

    def test_stored_types(self):
        ds = Dataset(name="d", X=self._X.tolist(), labels=self._Y.astype(bool),
                     gamma=np.float32(3 / 32))
        assert ds.X.dtype == float and ds.labels.dtype.kind == "i"
        assert ds.labels.tolist() == self._Y.tolist() and type(ds.gamma) is float

    @pytest.mark.parametrize("labels", [
        _Y[:-1], _Y[:, None], np.r_[_Y[:-1], 2], np.r_[_Y[:-1], 0.5], np.r_[_Y[:-1], np.nan],
        _Y + 0j,
    ], ids=["short", "2d", "two", "half", "nan", "complex"])
    def test_same_label_refusal_as_oracle_sweep(self, labels):
        rej = fit(ScoreSet(self._X[:, 0], 3 / 32), ToleranceSpec(8.0))
        with pytest.raises(AdrejectError) as by_sweep:
            oracle_sweep(rej, labels, CostSpec(1.0, 1.0, 0.05))
        with pytest.raises(AdrejectError) as by_dataset:
            Dataset(name="d", X=self._X, labels=labels, gamma=3 / 32)
        assert type(by_dataset.value) is type(by_sweep.value)


class TestCsvLoading:
    def test_read_csv_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        header, arr = read_csv_table(p)
        assert header == ["a", "b"]
        assert arr.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_parse_error_coordinates(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,zap\n")
        with pytest.raises(ParseError, match=r"row 3, column 2: could not parse 'zap'"):
            read_csv_table(p)

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 3"):
            read_csv_table(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            read_csv_table(p)

    def test_blank_line_mid_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n\n3,4\n")
        with pytest.raises(ParseError, match="row 3 has 0 cells, header has 2"):
            read_csv_table(p)

    def _write_labeled(self, tmp_path, n=40, gamma=0.1):
        rng = np.random.default_rng(0)
        p = tmp_path / "data.csv"
        lines = ["x1,x2,label"]
        n_anom = int(round(n * gamma))
        for i in range(n):
            y = 1 if i < n_anom else 0
            lines.append(f"{rng.normal()},{rng.normal()},{y}")
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_load_csv_with_labels(self, tmp_path):
        p = self._write_labeled(tmp_path)
        ds = load_csv(p)
        assert ds.X.shape == (40, 2)
        assert ds.gamma == pytest.approx(0.1)
        assert ds.feature_names == ("x1", "x2")

    def test_load_csv_missing_gamma(self, tmp_path):
        p = tmp_path / "nolabel.csv"
        p.write_text("x1,x2\n1,2\n3,4\n5,6\n")
        with pytest.raises(MissingGamma):
            load_csv(p)

    def test_load_csv_subsample_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        p = tmp_path / "big.csv"
        rows = ["x,label"]
        rows += [f"{rng.normal()},{int(rng.random() < 0.1)}" for _ in range(200)]
        p.write_text("\n".join(rows) + "\n")
        a = load_csv(p)
        b = load_csv(p)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.labels, b.labels)


def _outcome(read, path):
    """A reader's table as (header, shape, bits), or its error as
    (type, message)."""
    try:
        header, data = read(path)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return header, data.shape, data.view("u8").tobytes()


# Cells float() reads, and cells csv.reader or float() treats apart.
_GOOD_CELLS = st.one_of(
    st.floats().map(repr),
    st.floats(width=32).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_000", " 1.5 ", "\t-2e-3", "nan", "-inf", "Infinity", "-0.0",
                     "5e-324", "2.2250738585072014e-308", "1e999", "0x1p3"]),
)
_BAD_CELLS = st.sampled_from(['"1.5"', '"1,5"', '"2\n3"', "#", "# 1", "", " ", "zap",
                              "1__0", "1.5.", "\x00", "\x0c", "é"])


@st.composite
def _csv_files(draw):
    """CSV text: a header, then rows of the header's width; in one file
    of four the header may repeat a name, in one of four the cells may
    be odd, and in one of four the rows ragged or blank.  Line ends are
    mixed, and in one file of four the last one is missing, so the block
    reader reads about half of them itself."""
    width = draw(st.integers(1, 4))
    # " c " and "c" are one name once stripped.
    names = st.lists(st.sampled_from(["a", "b", "c", " c ", "x y", '"q"', "label"]),
                     min_size=width, max_size=width,
                     unique_by=str.strip if draw(st.integers(0, 3)) else None)
    names = draw(names)
    cells = _GOOD_CELLS
    if draw(st.integers(0, 3)) == 0:
        cells = st.one_of(_GOOD_CELLS, _BAD_CELLS)
    row = st.lists(cells, min_size=width, max_size=width)
    if draw(st.integers(0, 3)) == 0:
        row = st.one_of(row, st.lists(cells, max_size=width + 1))
    rows = draw(st.lists(row, max_size=12))
    lines = [",".join(names)] + [",".join(r) for r in rows]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.integers(0, 3)) == 0:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestBlockReader:
    """``read_csv_table`` (block reader first) against the cell-by-cell
    loop it falls back to: the same table bit for bit, or the same
    error."""

    @staticmethod
    def _same(tmp_dir, text, block_bytes):
        p = Path(tmp_dir) / "t.csv"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        with mock.patch.object(bench, "_BLOCK_BYTES", block_bytes):
            got = _outcome(read_csv_table, p)
        assert got == _outcome(bench._read_cells, p)
        return got

    @settings(max_examples=300, deadline=None)
    @given(text=_csv_files(), block_bytes=st.sampled_from([1, 24, 1 << 18]))
    def test_equal_to_cell_loop(self, text, block_bytes):
        with tempfile.TemporaryDirectory() as tmp_dir:
            self._same(tmp_dir, text, block_bytes)

    @staticmethod
    def _plain(rows, width=3, seed=0):
        X = np.random.default_rng(seed).normal(size=(rows, width))
        X[::7] *= 1e-310
        return X, "a,b,c\n" + "".join(",".join(map(repr, r)) + "\n" for r in X.tolist())

    def test_fast_path_reads_many_blocks(self, tmp_path):
        # Over 1 MB: several 256 KiB blocks.
        X, text = self._plain(20000)
        p = tmp_path / "t.csv"
        p.write_text(text)
        header, data = bench._read_blocks(p)
        assert header == ["a", "b", "c"]
        assert data.view("u8").tobytes() == X.view("u8").tobytes()
        self._same(tmp_path, text, 1 << 18)

    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n3\n",           # a row one cell short
        "a,b\n1,2\n3,4,5\n",       # a row one cell long
        "a,b\n1\n2,3,4\n",          # short then long: the cell total fits
        'a,b\n1,"2,5"\n',          # a quoted comma, one cell to csv.reader
        "a,b\n1,2\n\n3,4\n",       # a blank line mid-file
        "a,b\n1,2\n3,4\n\n",       # a blank line at EOF
        "a,b\n",                   # header only
        "a,b\n1,2\n3,4",           # no line end on the last line
        "a,b\r\n1,2\r\n3,4",       # the same with CRLF
    ])
    def test_fallback_without_a_cell_error(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text, newline="")
        assert bench._read_blocks(p) is None
        self._same(tmp_path, text, 1 << 18)

    @pytest.mark.parametrize("text", [
        'a,b\n1,"2"\n',            # a quoted cell: csv.reader unquotes it
        "a,b\n1,2\n3,zap\n",       # a cell float() refuses
        "a,b\n1,#\n",
        "a\n\n",                   # a blank line of a one-column table
    ])
    def test_fallback_on_a_cell_error(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text, newline="")
        with pytest.raises(ValueError):
            bench._read_blocks(p)
        self._same(tmp_path, text, 1 << 18)

    @pytest.mark.parametrize("text", [
        "a,a\n1,2\n",             # the block reader would take the body
        "a, a \n1,2\n",           # one name once stripped
        'a,"a"\n1,2\n',           # csv.reader unquotes the second
        "a,b,a\n",                # header only
        "a,a\n1,2",               # no line end on the last line
        "a,a\n1,zap\n",           # a cell float() refuses
    ])
    def test_repeated_column_name_refused(self, tmp_path, text):
        got = self._same(tmp_path, text, 1 << 18)
        assert got == (ParseError, f"{tmp_path / 't.csv'}: header repeats column name 'a'")

    def test_quoted_cells_read_as_csv_reader_reads_them(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text('a,b\n1,"2"\n"3",4\n')
        assert read_csv_table(p)[1].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_cell_over_the_field_limit(self, tmp_path):
        # float() reads the long cell, but csv.reader refuses it.
        text = "a\n" + "0" * (csv.field_size_limit() + 1) + "1\n"
        p = tmp_path / "t.csv"
        p.write_text(text)
        assert bench._read_blocks(p) is None
        with pytest.raises(csv.Error, match="field larger than field limit"):
            read_csv_table(p)

    def test_error_row_in_a_later_block(self, tmp_path):
        X, text = self._plain(50)
        text += "1,2,zap\n"
        p = tmp_path / "t.csv"
        p.write_text(text)
        with mock.patch.object(bench, "_BLOCK_BYTES", 100):
            with pytest.raises(ParseError, match=r"row 52, column 3: could not parse 'zap'"):
                read_csv_table(p)

    @pytest.mark.parametrize("rows", [1, 5000])
    def test_undecodable_byte(self, tmp_path, rows):
        # UnicodeDecodeError is a ValueError: the cell loop reads the file
        # again and raises it, at the same byte.
        text = b"a,b\n" + b"1,2\n" * rows + b"3,\xff\n"
        got = self._same(tmp_path, text, 1 << 18)
        assert got[0] is UnicodeDecodeError


class TestSyntheticSuite:
    def test_nine_datasets_with_expected_names(self):
        suite = synthetic_suite(seed=0)
        assert len(suite) == 9
        names = [d.name for d in suite]
        assert "gauss-n2000-d8-g0.1" in names
        assert "clusters-n500-d2-g0.02" in names
        assert "moons-n5000-d32-g0.3" in names

    def test_deterministic(self):
        a = synthetic_suite(seed=3)
        b = synthetic_suite(seed=3)
        for da, db in zip(a, b):
            assert da.name == db.name
            assert np.array_equal(da.X, db.X)
            assert np.array_equal(da.labels, db.labels)

    def test_seed_changes_data(self):
        a = synthetic_suite(seed=0)[0]
        b = synthetic_suite(seed=1)[0]
        assert not np.array_equal(a.X, b.X)

    def test_label_fractions_match_gamma(self):
        for ds in synthetic_suite(seed=0):
            assert abs(ds.labels.mean() - ds.gamma) <= 1.0 / len(ds.labels)

    def test_knn_separates_gauss_dataset(self):
        ds = next(d for d in synthetic_suite(seed=0) if d.name == "gauss-n2000-d8-g0.1")
        from adreject.detectors import fit_detector

        det = fit_detector(DetectorSpec(kind="knn"), ds.X)
        auc = rank_auc(det.score(ds.X), ds.labels)
        assert auc > 0.8


class TestFolds:
    def test_partition(self):
        folds = make_folds(103, 5, split_seed=0, dataset_name="x")
        assert len(folds) == 5
        all_test = np.concatenate([te for _, te in folds])
        assert np.array_equal(np.sort(all_test), np.arange(103))
        for tr, te in folds:
            assert np.intersect1d(tr, te).size == 0
            assert tr.size + te.size == 103
            assert abs(te.size - 103 / 5) <= 1

    def test_sorted_and_deterministic(self):
        a = make_folds(50, 5, split_seed=2, dataset_name="abc")
        b = make_folds(50, 5, split_seed=2, dataset_name="abc")
        for (tra, tea), (trb, teb) in zip(a, b):
            assert np.array_equal(tra, trb) and np.array_equal(tea, teb)
            assert np.all(np.diff(tra) > 0) and np.all(np.diff(tea) > 0)

    def test_name_changes_split(self):
        a = make_folds(50, 5, split_seed=2, dataset_name="abc")
        b = make_folds(50, 5, split_seed=2, dataset_name="xyz")
        assert any(
            not np.array_equal(tea, teb) for (_, tea), (_, teb) in zip(a, b)
        )

    def test_too_few_rows(self):
        with pytest.raises(DomainError):
            make_folds(4, 5, split_seed=0)

    def test_detector_seed_distinct(self):
        seeds = {
            detector_seed(0, ds, k, f)
            for ds in ("a", "b")
            for k in ("knn", "lof")
            for f in range(3)
        }
        assert len(seeds) == 12


def _fold_trials(ds, spec, costs, tol, split_seed, fold, n_folds=5):
    """``run_trial`` of one fold of ``ds``, scored by ``spec`` fitted on
    the fold's training part."""
    split = make_folds(ds.n, n_folds, split_seed, ds.name)[fold]
    train_idx, test_idx = split
    det = fit_detector(spec, ds.X[train_idx])
    scores = det.train_scores(), det.score(ds.X[test_idx])
    return run_trial(ds, split, fold, scores, spec.kind, costs, tol)


class TestRunTrial:
    def _common(self):
        ds = _toy_dataset(n=250, gamma=0.1, seed=4)
        spec = DetectorSpec(kind="knn", k=5)
        costs = cost_preset("q1", ds.gamma)
        tol = ToleranceSpec(8.0)
        return ds, spec, costs, tol

    def test_noreject_rate_zero(self):
        ds, spec, costs, tol = self._common()
        trials = _fold_trials(ds, spec, costs, tol, split_seed=0, fold=0)
        r = trials[METHODS.index("noreject")]
        assert r.rejection_rate == 0.0
        assert r.method == "noreject"
        assert r.n_train + r.n_test == 250

    def test_oracle_not_worse_than_rejex_on_average(self):
        ds, spec, costs, tol = self._common()
        diffs = []
        for fold in range(5):
            by_method = {
                r.method: r.cost_per_example
                for r in _fold_trials(ds, spec, costs, tol, split_seed=0, fold=fold)
            }
            diffs.append(by_method["rejex"] - by_method["oracle"])
        assert np.mean(diffs) >= -0.01


class TestRunFold:
    """``run_trial`` evaluates a whole fold: one rejector fit on the given
    scores, shared by one trial per method."""

    @pytest.mark.parametrize("kind", ["knn", "iforest"])
    @pytest.mark.parametrize("preset", ["q1", "case2"])
    def test_equals_one_trial_per_method(self, kind, preset):
        ds = _toy_dataset(n=250, gamma=0.1, seed=4)
        spec = DetectorSpec(kind=kind, k=5, n_trees=20, seed=3)
        costs = cost_preset(preset, ds.gamma)
        tol = ToleranceSpec(8.0)
        for fold in (0, 3):
            trials = _fold_trials(ds, spec, costs, tol, split_seed=1, fold=fold)
            assert [r.method for r in trials] == list(METHODS)
            # Each method evaluated on its own, from a fresh fit.
            train_idx, test_idx = make_folds(ds.n, 5, 1, ds.name)[fold]
            det = fit_detector(spec, ds.X[train_idx])
            rej = fit(ScoreSet(det.train_scores(), ds.gamma), tol)
            batch = predict_batch(rej, det.score(ds.X[test_idx]))
            y_train = ds.labels[train_idx].astype(bool)
            y_test = ds.labels[test_idx].astype(bool)
            theta, _ = oracle_sweep(rej, y_train, costs)
            rejected = {
                "rejex": batch.rejected,
                "noreject": np.zeros(len(batch), dtype=bool),
                "oracle": batch.confidence <= theta,
            }
            for r in trials:
                mask = rejected[r.method]
                assert r.detector == kind
                assert r.cost_per_example == empirical_cost(
                    batch.base_anomaly, mask, y_test, costs
                )
                assert r.rejection_rate == np.count_nonzero(mask) / y_test.size
                assert r.r_hat == rej.estimate.r_hat
                assert r.bound_h == rej.band.h


class TestAggregateAndReports:
    def _tiny_results(self):
        ds = _toy_dataset(n=200, gamma=0.1, seed=8, name="tiny")
        return run_benchmark(
            [ds], detector_kinds=("hbos",), T=8.0, n_folds=2, seed=0
        )

    def test_empty_results(self):
        with pytest.raises(EmptyResults):
            aggregate([])

    def test_rank_computation_handcrafted(self):
        def trial(method, cost):
            return TrialResult(
                dataset="d",
                detector="knn",
                method=method,
                fold=0,
                n_train=80,
                n_test=20,
                gamma=0.1,
                cost_per_example=cost,
                rejection_rate=0.0,
                fp_rate=0.0,
                fn_rate=0.0,
                r_hat=0.0,
                bound_h=1.0,
                cost_bound=1.0,
                wall_time_threshold_ms=0.0,
            )

        rep = aggregate(
            [trial("oracle", 0.1), trial("rejex", 0.2), trial("noreject", 0.3)]
        )
        assert rep["per_detector"]["knn"]["oracle"]["mean_rank"] == 1.0
        assert rep["per_detector"]["knn"]["rejex"]["mean_rank"] == 2.0
        assert rep["per_detector"]["knn"]["noreject"]["mean_rank"] == 3.0

    def test_tied_costs_average_ranks(self):
        def trial(method, cost):
            return TrialResult(
                dataset="d",
                detector="knn",
                method=method,
                fold=0,
                n_train=80,
                n_test=20,
                gamma=0.1,
                cost_per_example=cost,
                rejection_rate=0.0,
                fp_rate=0.0,
                fn_rate=0.0,
                r_hat=0.0,
                bound_h=1.0,
                cost_bound=1.0,
                wall_time_threshold_ms=0.0,
            )

        rep = aggregate([trial("oracle", 0.1), trial("rejex", 0.1)])
        assert rep["per_detector"]["knn"]["oracle"]["mean_rank"] == 1.5
        assert rep["per_detector"]["knn"]["rejex"]["mean_rank"] == 1.5

    def test_report_files(self, tmp_path):
        results = self._tiny_results()
        report = aggregate(results)
        assert report["schema_version"] == 1
        paths = write_report_files(results, report, tmp_path)
        trials = (tmp_path / "trials.csv").read_text().splitlines()
        header = trials[0].split(",")
        assert "wall_time_threshold_ms" not in header
        assert header[:4] == ["dataset", "detector", "method", "fold"]
        assert len(trials) == 1 + len(results)
        timings = (tmp_path / "timings.csv").read_text().splitlines()
        assert "wall_time_threshold_ms" in timings[0]
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "rates_and_bounds.csv").exists()
        assert set(paths) >= {"report", "trials", "timings", "rates_and_bounds"}

    def test_deterministic_outputs(self, tmp_path):
        ds = _toy_dataset(n=200, gamma=0.1, seed=8, name="tiny")
        texts = []
        for d in ("a", "b"):
            results = run_benchmark(
                [ds], detector_kinds=("hbos",), T=8.0, n_folds=2, seed=0
            )
            out = tmp_path / d
            write_report_files(results, aggregate(results), out)
            texts.append(
                (
                    (out / "trials.csv").read_text(),
                    (out / "report.json").read_text(),
                    (out / "rates_and_bounds.csv").read_text(),
                )
            )
        assert texts[0] == texts[1]

    def test_scores_only_benchmark(self):
        rng = np.random.default_rng(17)
        scores = np.concatenate([rng.normal(0, 1, 180), rng.normal(4, 1, 20)])
        labels = np.concatenate([np.zeros(180), np.ones(20)]).astype(int)
        ds = Dataset(name="scored", X=scores, labels=labels, gamma=0.1)
        results = run_benchmark([ds], T=8.0, n_folds=2, seed=0, scores_only=True)
        assert {r.detector for r in results} == {"precomputed"}
        assert {r.method for r in results} == set(METHODS)


class TestRunBenchmarkRefusesBeforeWork:
    """run_benchmark makes run_trial's label and cost checks, in the same
    order and with the same messages, before any detector is fitted."""

    @staticmethod
    def _spy(monkeypatch, tmp_path):
        # The fold fits run in forked workers, which inherit the patches:
        # each call appends a line to one file, so the log sees every
        # process.  The pool maker logs how many fits it was given.
        log = tmp_path / "calls.log"
        log.touch()
        real_fit, real_fitter = bench.fit_detector, bench._fold_fitter

        def record(name):
            with log.open("a") as fh:
                fh.write(name + "\n")

        def fit_spy(*args, **kwargs):
            record("fit_detector")
            return real_fit(*args, **kwargs)

        def fitter_spy(data, n_tasks):
            record(f"_fold_fitter({n_tasks})")
            return real_fitter(data, n_tasks)

        monkeypatch.setattr(bench, "fit_detector", fit_spy)
        monkeypatch.setattr(bench, "_fold_fitter", fitter_spy)
        return lambda: log.read_text().splitlines()

    @staticmethod
    def _dataset(labelled=True):
        rng = np.random.default_rng(18)
        labels = np.r_[np.zeros(90, int), np.ones(10, int)]
        return Dataset(name="d", X=rng.normal(size=(100, 2)),
                       labels=labels if labelled else None, gamma=0.1)

    def _refusal(self, ds, costs):
        split = make_folds(ds.n, 5, 0, ds.name)[0]
        scores = tuple(ds.X[idx, 0] for idx in split)
        with pytest.raises(AdrejectError) as trial:
            run_trial(ds, split, 0, scores, "iforest", costs, ToleranceSpec(8.0))
        return type(trial.value), str(trial.value)

    @pytest.mark.parametrize(
        "labelled, costs",
        [(True, CostSpec(1.0, 1.0, 5.0)), (False, CostSpec(1.0, 1.0, 0.05)),
         (False, CostSpec(1.0, 1.0, 5.0))],
        ids=["inadmissible-cost", "no-labels", "no-labels-and-inadmissible-cost"],
    )
    def test_no_detector_fitted(self, monkeypatch, tmp_path, labelled, costs):
        ds = self._dataset(labelled)
        expected = self._refusal(ds, costs)
        calls = self._spy(monkeypatch, tmp_path)
        with pytest.raises(expected[0], match=f"^{re.escape(expected[1])}$"):
            run_benchmark([ds], detector_kinds=DETECTOR_KINDS, T=8.0,
                          custom_costs=costs)
        assert calls() == ["_fold_fitter(0)"]

    def test_repeated_kind_fits_nothing(self, monkeypatch, tmp_path):
        calls = self._spy(monkeypatch, tmp_path)
        with pytest.raises(DomainError, match="^detector kind 'hbos' is named twice$"):
            run_benchmark([self._dataset()], detector_kinds=("hbos", "hbos"), T=8.0)
        assert calls() == ["_fold_fitter(0)"]

    def test_accepted_costs_still_fit(self, monkeypatch, tmp_path):
        calls = self._spy(monkeypatch, tmp_path)
        run_benchmark([self._dataset()], detector_kinds=("iforest",), T=8.0, n_folds=2,
                      custom_costs=CostSpec(1.0, 1.0, 0.05))
        assert calls() == ["_fold_fitter(2)", "fit_detector", "fit_detector"]


@pytest.mark.parametrize("scores_only", [False, True], ids=["detectors", "scores-only"])
def test_run_benchmark_makes_one_fold_plan_per_dataset(monkeypatch, scores_only):
    # The plan is handed to every fold's scores and trials, not remade.
    real, calls = bench.make_folds, []

    def spy(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "make_folds", spy)
    rng = np.random.default_rng(19)
    labels = np.r_[np.zeros(90, int), np.ones(10, int)]
    datasets = [Dataset(name=name, X=rng.normal(size=(100, 1 if scores_only else 2)),
                        labels=labels, gamma=0.1) for name in ("a", "b")]
    results = run_benchmark(datasets, detector_kinds=("hbos", "knn"), T=8.0, n_folds=3,
                            scores_only=scores_only)
    assert calls == ["a", "b"]
    assert len(results) == 2 * (1 if scores_only else 2) * 3 * len(METHODS)


class TestFoldWorkers:
    """compute_fold_scores fits iforest and HBOS in forked workers, one per
    usable CPU, or in this process with one CPU: the same scores and the
    same errors either way, and no worker left behind."""

    @staticmethod
    def _pools(monkeypatch):
        """Records, per call, whether compute_fold_scores made a pool."""
        real, made = bench._fold_fitter, []

        def fitter(*args):
            pool = real(*args)
            made.append(pool is not None)
            return pool

        monkeypatch.setattr(bench, "_fold_fitter", fitter)
        return made

    @staticmethod
    def _scores(monkeypatch, cpus, *args):
        # Two usable CPUs make a pool whatever the machine has.
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        try:
            return compute_fold_scores(*args)
        finally:
            assert multiprocessing.active_children() == []

    def _raised(self, monkeypatch, cpus, *args):
        with pytest.raises(AdrejectError) as info:
            self._scores(monkeypatch, cpus, *args)
        return type(info.value), str(info.value)

    @staticmethod
    def _data(name):
        rng = np.random.default_rng(66)
        X = {
            "normal": rng.normal(size=(400, 5)),
            # Small integers: repeated rows and tied distances.
            "tied": rng.integers(0, 4, size=(500, 3)).astype(float),
        }[name]
        return Dataset(name=name, X=X, labels=None, gamma=0.1)

    @pytest.mark.parametrize("data", ["normal", "tied"])
    @pytest.mark.parametrize("kinds", [DETECTOR_KINDS, ("iforest", "hbos")],
                             ids=["all", "iforest-hbos"])
    def test_pool_scores_equal_in_process(self, monkeypatch, data, kinds):
        made = self._pools(monkeypatch)
        ds = self._data(data)
        args = (ds, kinds, make_folds(ds.n, 4, 7, ds.name), 7)
        serial = self._scores(monkeypatch, 1, *args)
        pooled = self._scores(monkeypatch, 2, *args)
        assert made == [False, True]
        assert len(pooled) == len(serial) == 4
        for a, b in zip(serial, pooled):
            assert list(a) == list(b) == list(kinds)
            for kind in kinds:
                assert a[kind][0].tobytes() == b[kind][0].tobytes()
                assert a[kind][1].tobytes() == b[kind][1].tobytes()

    @pytest.mark.parametrize("kinds, first", [
        (("iforest", "hbos"), "iforest"),
        (("hbos", "iforest"), "hbos"),
    ])
    def test_overflowing_column_raises_as_in_process(self, monkeypatch, kinds, first):
        # The row at -1e308 is in fold 2's test part, so training folds 0
        # and 1 span a range of 2e308, which overflows.
        X = np.random.default_rng(67).normal(size=(60, 2))
        X[:, 1] = 1e308
        folds = make_folds(60, 3, 0, "wide")
        X[folds[2][1][0], 1] = -1e308
        made = self._pools(monkeypatch)
        args = (Dataset(name="wide", X=X, labels=None, gamma=0.1), kinds, folds, 0)
        expected = self._raised(monkeypatch, 1, *args)
        assert expected == (DomainError, f"{first}: the range of feature column 1 "
                            "overflows a float (max - min is infinite)")
        assert self._raised(monkeypatch, 2, *args) == expected
        assert made == [False, True]

    @pytest.mark.parametrize("kinds", [("iforest", "hbos"), ("hbos", "knn")])
    def test_small_fold_refused_before_any_worker(self, monkeypatch, kinds):
        # Two rows in two folds leave one training row per fold.
        made = self._pools(monkeypatch)
        ds = Dataset(name="tiny", X=[[0.0], [1.0]], labels=None, gamma=0.0)
        folds = make_folds(ds.n, 2, 0, ds.name)
        expected = self._raised(monkeypatch, 1, ds, kinds, folds, 0)
        assert expected[0] is InsufficientData
        assert self._raised(monkeypatch, 2, ds, kinds, folds, 0) == expected
        assert made == []

    @pytest.mark.parametrize("kinds, message", [
        (("hbos", "hbos"), "detector kind 'hbos' is named twice"),
        (("knn", "iforest", "knn"), "detector kind 'knn' is named twice"),
        (("iforest", "zap"), "unknown detector kind 'zap'"),
    ], ids=["hbos-twice", "knn-twice", "unknown"])
    def test_bad_kinds_refused_before_any_worker(self, monkeypatch, kinds, message):
        # The folds are too small as well: the kinds are refused first.
        made = self._pools(monkeypatch)
        ds = Dataset(name="tiny", X=[[0.0], [1.0]], labels=None, gamma=0.0)
        folds = make_folds(ds.n, 2, 0, ds.name)
        error, text = self._raised(monkeypatch, 2, ds, kinds, folds, 0)
        assert error is DomainError and text.startswith(message)
        assert made == []


class TestRunSchedule:
    """run_benchmark checks every dataset first, then fits all their
    detectors on one fork pool, largest dataset first: the results are
    the per-dataset runs in input order, the exception is the one a loop
    over the datasets in order meets first, and no worker outlives a
    call; with one usable CPU or two."""

    @staticmethod
    def _dataset(name, n, d, wide_column=None):
        # gamma 0.1; a wide column holds 1e308 but -1e308 in one row of
        # fold 2's test part, so training folds 0 and 1 overflow.
        rng = np.random.default_rng(n + d)
        labels = (np.arange(n) % 10 == 0).astype(int)
        X = rng.normal(size=(n, d)) + 2.0 * labels[:, None]
        if wide_column is not None:
            X[:, wide_column] = 1e308
            X[make_folds(n, 3, 0, name)[2][1][0], wide_column] = -1e308
        return Dataset(name=name, X=X, labels=labels, gamma=0.1)

    _LAYOUTS = {
        "ok": lambda: TestRunSchedule._dataset("ok", 60, 2),
        "mid": lambda: TestRunSchedule._dataset("mid", 150, 2),
        "large": lambda: TestRunSchedule._dataset("large", 240, 3),
        "overflow": lambda: TestRunSchedule._dataset("overflow", 90, 2, wide_column=1),
        "large-overflow": lambda: TestRunSchedule._dataset("large-overflow", 300, 2,
                                                           wide_column=0),
        "refused": lambda: Dataset(name="refused", X=np.zeros((200, 2)), labels=None,
                                   gamma=0.1),
    }

    @staticmethod
    def _run(monkeypatch, cpus, datasets, kinds):
        """run_benchmark with ``cpus`` usable CPUs, checking that it made
        one pool (or none, with one worker) and left no worker behind."""
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        real, pools = bench._fold_fitter, []

        def fitter(data, n_tasks):
            pool = real(data, n_tasks)
            pools.append(pool is not None)
            return pool

        monkeypatch.setattr(bench, "_fold_fitter", fitter)
        try:
            return run_benchmark(datasets, detector_kinds=kinds, T=8.0, n_folds=3, seed=4)
        finally:
            monkeypatch.setattr(bench, "_fold_fitter", real)
            assert multiprocessing.active_children() == []
            fits = any(kind in ("iforest", "hbos") for kind in kinds)
            assert pools == [cpus > 1 and fits]

    @staticmethod
    def _rows(results):
        # Every field but the threshold step's wall time, floats by repr.
        return [tuple(repr(getattr(r, c)) for c in bench._TRIAL_COLUMNS) for r in results]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kinds", [DETECTOR_KINDS, ("knn", "lof"), ("hbos", "iforest")],
                             ids=["all", "knn-lof", "hbos-iforest"])
    def test_equal_to_the_per_dataset_runs(self, monkeypatch, cpus, kinds):
        # Input order is not size order, so the schedule reorders them.
        datasets = [self._LAYOUTS[name]() for name in ("mid", "ok", "large")]
        together = self._run(monkeypatch, cpus, datasets, kinds)
        apart = [r for ds in datasets for r in self._run(monkeypatch, cpus, [ds], kinds)]
        assert self._rows(together) == self._rows(apart)
        assert [r.dataset for r in together][::len(together) // 3] == ["mid", "ok", "large"]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("layout, error, message", [
        (("ok", "overflow", "refused"), DomainError,
         "hbos: the range of feature column 1 overflows a float (max - min is infinite)"),
        (("ok", "refused", "overflow"), MissingGamma,
         "dataset refused: labels are required to evaluate cost"),
        (("ok", "overflow", "large-overflow"), DomainError,
         "hbos: the range of feature column 1 overflows a float (max - min is infinite)"),
        (("large", "large-overflow", "overflow"), DomainError,
         "hbos: the range of feature column 0 overflows a float (max - min is infinite)"),
    ], ids=["fit-then-check", "check-then-fit", "small-fit-then-large-fit",
            "large-fit-then-small-fit"])
    def test_first_error_in_input_order(self, monkeypatch, cpus, layout, error, message):
        datasets = [self._LAYOUTS[name]() for name in layout]
        # What a loop over the datasets, one run each, raises first.
        with pytest.raises(AdrejectError) as first:
            for ds in datasets:
                self._run(monkeypatch, 1, [ds], ("hbos", "iforest"))
        assert (type(first.value), str(first.value)) == (error, message)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            self._run(monkeypatch, cpus, datasets, ("hbos", "iforest"))


class TestRankAuc:
    def test_frozen_example(self):
        # scores (1,2,3,4), positives at the top two: AUC = 1.
        assert rank_auc([1, 2, 3, 4], [0, 0, 1, 1]) == 1.0
        # positives {2, 4} vs negatives {1, 3}: 3 of 4 pairs ordered.
        assert rank_auc([1, 2, 3, 4], [0, 1, 0, 1]) == 0.75

    def test_ties_average(self):
        assert rank_auc([1.0, 1.0], [0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            rank_auc([1.0, 2.0], [1, 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_tied_scores_equal_pair_counting(self, seed):
        # Mann-Whitney: each (positive, negative) pair counts 1 when
        # ordered and 1/2 when tied.  Both sides are exact half-integers
        # over the same product, so they agree exactly.
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 5, size=60).astype(float)
        labels = rng.random(60) < 0.3
        pos, neg = scores[labels], scores[~labels]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        assert rank_auc(scores, labels) == wins / (pos.size * neg.size)


def _assert_ranks_equal_rankdata(values):
    got, want = _average_ranks(values), rankdata(values)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)


class TestAverageRanks:
    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 3.0, 2.0, 1.0, 3.0],
        [7.0] * 5,
        [4.2],
        [],
        [0.0, -0.0, 1.0, -0.0, -1.0],
        [np.inf, -np.inf, 0.0, np.inf, -np.inf],
    ], ids=["ties", "all-equal", "single", "empty", "signed-zeros", "infinities"])
    def test_equal_to_rankdata(self, values):
        _assert_ranks_equal_rankdata(values)

    def test_nan_gives_all_nan(self):
        got = _average_ranks([1.0, np.nan, 0.5])
        assert got.dtype == np.float64
        assert np.isnan(got).all() and got.size == 3
        _assert_ranks_equal_rankdata([1.0, np.nan, 0.5])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf]),
            st.floats(allow_nan=False),
        ),
        max_size=60,
    ))
    def test_heavy_ties_equal_rankdata(self, values):
        _assert_ranks_equal_rankdata(values)
