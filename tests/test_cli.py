import csv
import io
import json
import math
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "adreject", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def write_scores_csv(path, scores, header="score"):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([header])
        for s in scores:
            w.writerow([repr(float(s))])


@pytest.fixture()
def train_csv(tmp_path):
    rng = np.random.default_rng(0)
    scores = np.concatenate([rng.normal(0, 1, 900), rng.normal(4, 1, 100)])
    path = tmp_path / "train.csv"
    write_scores_csv(path, scores)
    return path


class TestFit:
    def test_fit_summary_keys_and_model(self, tmp_path, train_csv):
        model = tmp_path / "model.json"
        proc = run_cli(
            "fit",
            "--train",
            str(train_csv),
            "--gamma",
            "0.1",
            "--t-tolerance",
            "8",
            "--model-out",
            str(model),
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        for key in (
            "schema_version",
            "lambda",
            "t1",
            "t2",
            "epsilon",
            "r_hat",
            "h",
            "n",
            "gamma",
            "t_tolerance",
            "delta",
            "degenerate",
            "model",
        ):
            assert key in summary, key
        assert summary["n"] == 1000
        assert summary["epsilon"] == 2.0 * math.exp(-8.0)
        assert model.exists()
        state = json.loads(model.read_text())
        assert state["lambda"] == summary["lambda"]

    def test_bad_t_tolerance_exit_2(self, tmp_path, train_csv):
        proc = run_cli(
            "fit",
            "--train",
            str(train_csv),
            "--gamma",
            "0.1",
            "--t-tolerance",
            "3",
            "--model-out",
            str(tmp_path / "m.json"),
        )
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert "T must be >= 4" in err["error"]["message"]

    def test_t_tolerance_beyond_trust_floor_exit_2(self, tmp_path, train_csv):
        proc = run_cli(
            "fit",
            "--train",
            str(train_csv),
            "--gamma",
            "0.1",
            "--t-tolerance",
            "600",
            "--model-out",
            str(tmp_path / "m.json"),
        )
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert "T must be at most" in err["error"]["message"]

    def test_bad_gamma_exit_2(self, tmp_path, train_csv):
        proc = run_cli(
            "fit",
            "--train",
            str(train_csv),
            "--gamma",
            "0.6",
            "--model-out",
            str(tmp_path / "m.json"),
        )
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert "gamma" in err["error"]["message"]

    def test_ambiguous_columns_exit_2(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        proc = run_cli(
            "fit",
            "--train",
            str(path),
            "--gamma",
            "0.1",
            "--model-out",
            str(tmp_path / "m.json"),
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"]["type"]

    def test_missing_file_exit_2(self, tmp_path):
        proc = run_cli(
            "fit",
            "--train",
            str(tmp_path / "nope.csv"),
            "--gamma",
            "0.1",
            "--model-out",
            str(tmp_path / "m.json"),
        )
        assert proc.returncode == 2


class TestPredict:
    def _fit(self, tmp_path, train_csv, T="8"):
        model = tmp_path / "model.json"
        proc = run_cli(
            "fit",
            "--train",
            str(train_csv),
            "--gamma",
            "0.1",
            "--t-tolerance",
            T,
            "--model-out",
            str(model),
        )
        assert proc.returncode == 0, proc.stderr
        return model, json.loads(proc.stdout)

    def test_round_trip_rejection_fraction(self, tmp_path, train_csv):
        model, summary = self._fit(tmp_path, train_csv)
        out = tmp_path / "pred.csv"
        proc = run_cli(
            "predict", "--model", str(model), "--test", str(train_csv), "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1000
        frac = sum(r["decision"] == "reject" for r in rows) / len(rows)
        assert frac == pytest.approx(summary["r_hat"], abs=2.0 / 1000)

    @pytest.mark.parametrize("T", ["38", "64", "256"])
    def test_large_tolerance_round_trip(self, tmp_path, train_csv, T):
        # 1 - exp(-T) rounds to 1.0 from T ~ 37.5 on; fit and predict
        # must still work and agree on the in-sample rejection rate.
        model, summary = self._fit(tmp_path, train_csv, T=T)
        out = tmp_path / "pred.csv"
        proc = run_cli(
            "predict", "--model", str(model), "--test", str(train_csv), "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        frac = sum(r["decision"] == "reject" for r in rows) / len(rows)
        assert 0.0 < frac < 1.0
        assert frac == pytest.approx(summary["r_hat"], abs=1e-12)

    def test_output_columns_and_values(self, tmp_path, train_csv):
        model, _ = self._fit(tmp_path, train_csv)
        proc = run_cli("predict", "--model", str(model), "--test", str(train_csv))
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "score,psi_n,p_anomaly,confidence,decision"
        first = lines[1].split(",")
        assert len(first) == 5
        # repr round-trip: parsing the text reproduces the float exactly.
        assert repr(float(first[1])) == first[1]
        assert first[4] in ("normal", "anomaly", "reject")

    @staticmethod
    def _predict_bytes(model, test, out=None):
        """predict's bytes on standard output, or in ``out`` when given."""
        args = ["predict", "--model", str(model), "--test", str(test)]
        if out is not None:
            args += ["--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "adreject", *args],
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes() if out is not None else proc.stdout

    def test_stdout_equals_out_file(self, tmp_path, train_csv):
        model, _ = self._fit(tmp_path, train_csv)
        out = tmp_path / "pred.csv"
        got = self._predict_bytes(model, train_csv, out)
        assert got.startswith(b"score,psi_n,p_anomaly,confidence,decision\r\n")
        assert got == self._predict_bytes(model, train_csv)

    def test_bytes_equal_csv_writer(self, tmp_path, train_csv):
        # Every training score twice (repeated counts), and scores below
        # and above all of them (counts 0 and n).
        from adreject.rejector import load_model, predict_batch
        from adreject.tables import read_csv_table

        model, _ = self._fit(tmp_path, train_csv)
        train = read_csv_table(train_csv)[1][:, 0]
        scores = np.concatenate([[train.min() - 1.0], train, train[::-1],
                                 [train.max() + 1.0, 0.5, -0.0]])
        test = tmp_path / "test.csv"
        write_scores_csv(test, scores)
        batch = predict_batch(load_model(model)[0], scores)
        assert {str(d) for d in batch.decisions} == {"normal", "anomaly", "reject"}
        assert {0.0, 1.0} <= set(batch.psi_n.tolist())
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["score", "psi_n", "p_anomaly", "confidence", "decision"])
        writer.writerows(zip(scores.tolist(), batch.psi_n.tolist(),
                             batch.p_anomaly.tolist(), batch.confidence.tolist(),
                             [str(d) for d in batch.decisions]))
        want = want.getvalue().encode()
        assert self._predict_bytes(model, test, tmp_path / "pred.csv") == want
        assert self._predict_bytes(model, test) == want

    def test_reader_leaving_early_exits_0(self, tmp_path, train_csv):
        # As in `adreject predict ... | head -1`: about 2 MB of output, far
        # more than a pipe holds, so writing fails once the reader leaves.
        model, _ = self._fit(tmp_path, train_csv)
        test = tmp_path / "test.csv"
        write_scores_csv(test, np.random.default_rng(1).normal(size=20000))
        proc = subprocess.Popen(
            [sys.executable, "-m", "adreject", "predict", "--model", str(model),
             "--test", str(test)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"score,psi_n,p_anomaly,confidence,decision\r\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 0, stderr
        assert stderr == b""

    def test_empty_input_header_only(self, tmp_path, train_csv):
        model, _ = self._fit(tmp_path, train_csv)
        empty = tmp_path / "empty.csv"
        empty.write_text("score\n")
        proc = run_cli("predict", "--model", str(model), "--test", str(empty))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "score,psi_n,p_anomaly,confidence,decision"

    def test_column_mismatch_exit_2(self, tmp_path, train_csv):
        model, _ = self._fit(tmp_path, train_csv)
        other = tmp_path / "other.csv"
        other.write_text("value\n1.0\n2.0\n")
        proc = run_cli("predict", "--model", str(model), "--test", str(other))
        assert proc.returncode == 2
        assert "error" in json.loads(proc.stderr)

    def test_tampered_model_exit_2(self, tmp_path, train_csv):
        model, _ = self._fit(tmp_path, train_csv)
        state = json.loads(model.read_text())
        state["lambda"] = state["lambda"] + 0.5
        model.write_text(json.dumps(state))
        proc = run_cli("predict", "--model", str(model), "--test", str(train_csv))
        assert proc.returncode == 2
        assert "threshold" in json.loads(proc.stderr)["error"]["message"]

    def test_tampered_band_exit_2(self, tmp_path, train_csv):
        model, _ = self._fit(tmp_path, train_csv)
        state = json.loads(model.read_text())
        state["band"]["h"] = state["band"]["h"] / 2
        model.write_text(json.dumps(state))
        proc = run_cli("predict", "--model", str(model), "--test", str(train_csv))
        assert proc.returncode == 2
        assert "'band'" in json.loads(proc.stderr)["error"]["message"]

    @pytest.mark.parametrize("field,value", [("schema_version", True), ("t_tolerance", 8)])
    def test_mistyped_field_exit_2(self, tmp_path, train_csv, field, value):
        # Equal under Python ``==`` to what fit wrote, but not the same JSON.
        model, _ = self._fit(tmp_path, train_csv)
        state = json.loads(model.read_text())
        state[field] = value
        model.write_text(json.dumps(state))
        proc = run_cli("predict", "--model", str(model), "--test", str(train_csv))
        assert proc.returncode == 2, proc.stderr
        assert field in json.loads(proc.stderr)["error"]["message"]

    @pytest.mark.parametrize("payload", [[], "model"], ids=["list", "string"])
    def test_non_object_model_exit_2(self, tmp_path, train_csv, payload):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        proc = run_cli("predict", "--model", str(model), "--test", str(train_csv))
        assert proc.returncode == 2, proc.stderr
        assert "JSON object" in json.loads(proc.stderr)["error"]["message"]

    def test_incomplete_detector_block_exit_2(self, tmp_path, train_csv):
        model, _ = self._fit(tmp_path, train_csv)
        state = json.loads(model.read_text())
        state["detector"] = {"kind": "knn"}
        model.write_text(json.dumps(state))
        proc = run_cli("predict", "--model", str(model), "--test", str(train_csv))
        assert proc.returncode == 2, proc.stderr
        assert "model detector" in json.loads(proc.stderr)["error"]["message"]

    def test_gamma_zero_never_rejects(self, tmp_path, train_csv):
        model = tmp_path / "m0.json"
        proc = run_cli(
            "fit",
            "--train",
            str(train_csv),
            "--gamma",
            "0",
            "--model-out",
            str(model),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["degenerate"] is True
        out = run_cli("predict", "--model", str(model), "--test", str(train_csv))
        assert out.returncode == 0
        decisions = {line.rsplit(",", 1)[-1] for line in out.stdout.splitlines()[1:]}
        assert decisions == {"normal"}


class TestFeatureMode:
    def test_fit_and_predict_with_detector(self, tmp_path):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 1, (270, 2)), rng.normal(5, 1, (30, 2))])
        labels = [0] * 270 + [1] * 30
        train = tmp_path / "features.csv"
        with train.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "label"])
            for row, y in zip(X, labels):
                w.writerow([repr(float(row[0])), repr(float(row[1])), y])
        model = tmp_path / "model.json"
        proc = run_cli(
            "fit",
            "--train",
            str(train),
            "--gamma",
            "0.1",
            "--detector",
            "knn",
            "--t-tolerance",
            "8",
            "--model-out",
            str(model),
        )
        assert proc.returncode == 0, proc.stderr
        state = json.loads(model.read_text())
        assert state["detector"]["kind"] == "knn"
        assert len(state["detector"]["train_matrix"]) == 300
        test = tmp_path / "test.csv"
        with test.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2"])
            w.writerow(["0.0", "0.0"])
            w.writerow(["9.0", "9.0"])
        out = run_cli("predict", "--model", str(model), "--test", str(test))
        assert out.returncode == 0, out.stderr
        rows = out.stdout.splitlines()[1:]
        assert rows[0].endswith("normal")
        assert rows[1].endswith(("anomaly", "reject"))


    @staticmethod
    def _fit_detector_model(tmp_path, kind):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 1, (90, 3)), rng.normal(4, 1, (10, 3))])
        train = tmp_path / "features.csv"
        with train.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "x3"])
            w.writerows([repr(float(v)) for v in row] for row in X)
        model = tmp_path / "model.json"
        proc = run_cli("fit", "--train", str(train), "--gamma", "0.1", "--detector",
                       kind, "--t-tolerance", "8", "--model-out", str(model))
        assert proc.returncode == 0, proc.stderr
        return model, train

    @pytest.mark.parametrize("kind", ["knn", "lof", "iforest", "hbos"])
    def test_untampered_detector_model_predicts(self, tmp_path, kind):
        model, train = self._fit_detector_model(tmp_path, kind)
        out = run_cli("predict", "--model", str(model), "--test", str(train))
        assert out.returncode == 0, out.stderr
        assert len(out.stdout.splitlines()) == 1 + 100

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("knn", "k", 50),
            ("lof", "k", 5),
            ("iforest", "seed", 1),
            ("iforest", "n_trees", 99),
            ("knn", "train_matrix", None),
            ("hbos", "train_matrix", None),
        ],
        ids=["knn-k", "lof-k", "iforest-seed", "iforest-n_trees",
             "knn-train_matrix", "hbos-train_matrix"],
    )
    def test_tampered_detector_exit_2(self, tmp_path, kind, field, value):
        # The block is well formed, so only re-scoring the training matrix
        # can tell that the rejector was not fitted on this detector.
        model, train = self._fit_detector_model(tmp_path, kind)
        state = json.loads(model.read_text())
        if field == "train_matrix":
            state["detector"]["train_matrix"][7][1] += 100.0
        else:
            state["detector"][field] = value
        model.write_text(json.dumps(state))
        proc = run_cli("predict", "--model", str(model), "--test", str(train))
        assert proc.returncode == 2, proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "ValueError"
        assert "does not reproduce scores_sorted" in error["message"]
        assert proc.stdout == ""

    def test_missing_columns_named_in_one_error(self, tmp_path):
        model, _ = self._fit_detector_model(tmp_path, "knn")
        table = tmp_path / "other.csv"
        table.write_text("x2,y\n1.0,2.0\n")
        proc = run_cli("predict", "--model", str(model), "--test", str(table))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stderr)["error"] == {
            "type": "DomainError",
            "message": f"{table} is missing columns ['x1', 'x3']: columns are ['x2', 'y']"}
        proc = run_cli("fit", "--train", str(table), "--gamma", "0.1", "--score-column",
                       "s", "--model-out", str(tmp_path / "m.json"))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stderr)["error"]["message"] == (
            f"{table} is missing columns ['s']: columns are ['x2', 'y']")

    def test_empty_test_header_only(self, tmp_path):
        model, _ = self._fit_detector_model(tmp_path, "iforest")
        empty = tmp_path / "empty.csv"
        empty.write_text("x3,x1,x2\n")
        proc = run_cli("predict", "--model", str(model), "--test", str(empty))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "score,psi_n,p_anomaly,confidence,decision\n"

    def test_tampered_detector_refused_on_empty_test(self, tmp_path):
        model, _ = self._fit_detector_model(tmp_path, "knn")
        state = json.loads(model.read_text())
        state["detector"]["k"] = 3
        model.write_text(json.dumps(state))
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2,x3\n")
        proc = run_cli("predict", "--model", str(model), "--test", str(empty))
        assert proc.returncode == 2, proc.stderr
        assert "scores_sorted" in json.loads(proc.stderr)["error"]["message"]

    @pytest.mark.parametrize("kind", ["iforest", "hbos"])
    def test_overflowing_range_exit_2(self, tmp_path, kind):
        train = tmp_path / "wide.csv"
        train.write_text("x1,x2\n" + "".join(f"{i},{v}\n" for i, v in
                                             enumerate([1e308, -1e308] * 10)))
        proc = run_cli("fit", "--train", str(train), "--gamma", "0.1",
                       "--detector", kind, "--model-out", str(tmp_path / "m.json"))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stderr)["error"] == {
            "type": "DomainError",
            "message": f"{kind}: the range of feature column 1 overflows a float "
                       "(max - min is infinite)",
        }

    @pytest.mark.parametrize("kind", ["knn", "lof"])
    def test_overflowing_distance_exit_2(self, tmp_path, kind):
        # The range 2e200 is finite; the squared distance 4e400 is not.
        train = tmp_path / "far.csv"
        train.write_text("x1,x2\n" + "".join(f"{i},{v}\n" for i, v in
                                             enumerate([1e200] * 19 + [-1e200])))
        proc = run_cli("fit", "--train", str(train), "--gamma", "0.1",
                       "--detector", kind, "--model-out", str(tmp_path / "m.json"))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stderr)["error"] == {
            "type": "DomainError",
            "message": "a nearest-neighbour distance overflows a float",
        }

    @pytest.mark.parametrize("kind", ["knn", "iforest"])
    def test_negative_seed_exit_2(self, tmp_path, kind):
        _, train = self._fit_detector_model(tmp_path, kind)
        model = tmp_path / "negative.json"
        proc = run_cli("fit", "--train", str(train), "--gamma", "0.1", "--detector",
                       kind, "--seed", "-1", "--model-out", str(model))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stderr)["error"] == {
            "type": "DomainError", "message": "seed must be >= 0, got -1"}
        assert not model.exists()

    def test_repeated_column_name_exit_2(self, tmp_path):
        # A repeated name would make predict take one column for both.
        model, train = self._fit_detector_model(tmp_path, "knn")
        text = train.read_text()
        repeated = tmp_path / "repeated.csv"
        repeated.write_text(text.replace("x1,x2,x3", "x1,x2,x1", 1))
        expected = {"type": "ParseError",
                    "message": f"{repeated}: header repeats column name 'x1'"}
        proc = run_cli("fit", "--train", str(repeated), "--gamma", "0.1", "--detector",
                       "knn", "--model-out", str(tmp_path / "m.json"))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stderr)["error"] == expected
        proc = run_cli("predict", "--model", str(model), "--test", str(repeated))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stderr)["error"] == expected
        assert proc.stdout == ""

    def test_label_column_only_exit_2(self, tmp_path):
        train = tmp_path / "labels.csv"
        train.write_text("label\n" + "0\n" * 30 + "1\n" * 3)
        proc = run_cli("fit", "--train", str(train), "--gamma", "0.1",
                       "--detector", "knn", "--model-out", str(tmp_path / "m.json"))
        assert proc.returncode == 2, proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "DomainError"
        assert "at least one column" in error["message"]


class TestVerify:
    def test_quick_passes(self):
        proc = run_cli("verify", "--quick", "--trials", "10")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert all(l.startswith("[PASS]") for l in lines[:-1])
        assert "properties passed" in lines[-1]

    def test_t_min_below_4_exit_2(self):
        proc = run_cli("verify", "--quick", "--t-min", "2")
        assert proc.returncode == 2
        assert "T must be >= 4" in json.loads(proc.stderr)["error"]["message"]

    @pytest.mark.parametrize("flags", [("--trials", "0"), ("--quick", "--trials", "-3")])
    def test_trials_below_1_exit_2(self, flags):
        proc = run_cli("verify", *flags)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--trials must be >= 1" in json.loads(proc.stderr)["error"]["message"]

    def test_negative_seed_exit_2(self):
        proc = run_cli("verify", "--quick", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == {
            "type": "DomainError", "message": "seed must be >= 0, got -1"}


class TestBench:
    def _write_dataset(self, tmp_path):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(0, 1, (180, 2)), rng.normal(4, 1, (20, 2))])
        labels = [0] * 180 + [1] * 20
        path = tmp_path / "data"
        path.mkdir()
        f = path / "toy.csv"
        with f.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "label"])
            for row, y in zip(X, labels):
                w.writerow([repr(float(row[0])), repr(float(row[1])), y])
        return path

    def test_data_dir_bench(self, tmp_path):
        data = self._write_dataset(tmp_path)
        out = tmp_path / "out"
        proc = run_cli(
            "bench",
            "--data-dir",
            str(data),
            "--detectors",
            "hbos,knn",
            "--folds",
            "2",
            "--t-tolerance",
            "8",
            "--out-dir",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["cost_preset"] == "q1"
        assert set(report["methods"]) == {"noreject", "oracle", "rejex"}
        trials = (out / "trials.csv").read_text().splitlines()
        # 1 dataset x 2 detectors x 2 folds x 3 methods + header
        assert len(trials) == 1 + 12

    def test_synthetic_bench_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = run_cli(
                "bench",
                "--synthetic",
                "--detectors",
                "hbos",
                "--folds",
                "2",
                "--t-tolerance",
                "8",
                "--seed",
                "1",
                "--out-dir",
                str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for fname in ("trials.csv", "report.json", "rates_and_bounds.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_unknown_detector_exit_2(self, tmp_path):
        proc = run_cli(
            "bench",
            "--synthetic",
            "--detectors",
            "zap",
            "--out-dir",
            str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert "zap" in json.loads(proc.stderr)["error"]["message"]

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--folds", "1", "--folds must be >= 2"),
            ("--t-tolerance", "3", "T must be >= 4"),
            ("--delta", "2", "delta must lie in (0, 1)"),
            ("--detectors", ",", "--detectors names no detector"),
            ("--detectors", "hbos,hbos", "detector kind 'hbos' is named twice"),
            ("--seed", "-1", "seed must be >= 0, got -1"),
        ],
        ids=["folds", "t-tolerance", "delta", "detectors", "detectors-repeated", "seed"],
    )
    def test_folds_below_2_exit_2(self, tmp_path, flag, value, message):
        # Bad bench flags are refused before any dataset loads.
        proc = run_cli(
            "bench", "--synthetic", flag, value, "--out-dir", str(tmp_path / "o")
        )
        assert proc.returncode == 2
        # One error object, no per-dataset "skipping" lines before it.
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "DomainError"
        assert message in error["message"]
        assert not (tmp_path / "o").exists()

    def test_inadmissible_costs_skip_the_dataset(self, tmp_path):
        data = self._write_dataset(tmp_path)
        proc = run_cli("bench", "--data-dir", str(data), "--costs", "1,1,5",
                       "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert proc.stderr == (
            "skipping toy: c_r=5.0 exceeds min((1-gamma)*c_fp, gamma*c_fn)=0.1\n"
            "all datasets failed\n"
        )

    def test_overflowing_range_skips_the_dataset(self, tmp_path):
        data = self._write_dataset(tmp_path)
        rows = "".join(f"{i % 3},{v},{i % 10 == 0:d}\n"
                       for i, v in enumerate([1e308, -1e308] * 50))
        (data / "wide.csv").write_text("x1,x2,label\n" + rows)
        out = tmp_path / "o"
        proc = run_cli("bench", "--data-dir", str(data), "--detectors", "hbos",
                       "--folds", "2", "--t-tolerance", "8", "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ("skipping wide: hbos: the range of feature column 1 "
                               "overflows a float (max - min is infinite)\n")
        assert json.loads((out / "report.json").read_text())["datasets"] == ["toy"]

    def test_overflowing_distance_skips_the_dataset(self, tmp_path):
        data = self._write_dataset(tmp_path)
        rows = "".join(f"{i % 3},{v},{i % 10 == 0:d}\n"
                       for i, v in enumerate([1e200] * 99 + [-1e200]))
        (data / "far.csv").write_text("x1,x2,label\n" + rows)
        out = tmp_path / "o"
        proc = run_cli("bench", "--data-dir", str(data), "--detectors", "knn",
                       "--folds", "2", "--t-tolerance", "8", "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ("skipping far: a nearest-neighbour distance overflows "
                               "a float\n")
        assert json.loads((out / "report.json").read_text())["datasets"] == ["toy"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_skip_lines_in_input_order(self, tmp_path, monkeypatch, capsys, cpus):
        # The schedule runs d_big first and c_tiny last; the skip lines
        # still follow the file order.
        import adreject.bench as bench
        from adreject.cli import main

        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        data = self._write_dataset(tmp_path)
        wide = [1e308, -1e308]
        (data / "b_wide.csv").write_text("x1,x2,label\n" + "".join(
            f"{i % 3},{wide[i % 2]},{i % 10 == 0:d}\n" for i in range(100)))
        (data / "c_tiny.csv").write_text("x1,x2,label\n1,2,0\n3,4,0\n5,6,0\n")
        (data / "d_big.csv").write_text("x1,x2,label\n" + "".join(
            f"{wide[i % 2]},{i % 3},{i % 10 == 0:d}\n" for i in range(300)))
        out = tmp_path / "o"
        code = main(["bench", "--data-dir", str(data), "--detectors", "hbos",
                     "--folds", "2", "--t-tolerance", "8", "--out-dir", str(out)])
        assert multiprocessing.active_children() == []
        assert code == 0
        overflow = "hbos: the range of feature column {} overflows a float (max - min is infinite)"
        assert capsys.readouterr().err == (
            f"skipping b_wide: {overflow.format(1)}\n"
            "skipping c_tiny: need at least 2 training rows, got 1\n"
            f"skipping d_big: {overflow.format(0)}\n"
        )
        assert json.loads((out / "report.json").read_text())["datasets"] == ["toy"]

    def test_repeated_column_name_skips_the_file(self, tmp_path):
        data = self._write_dataset(tmp_path)
        bad = data / "twice.csv"
        bad.write_text((data / "toy.csv").read_text().replace("x1,x2", "x1,x1", 1))
        out = tmp_path / "o"
        proc = run_cli("bench", "--data-dir", str(data), "--detectors", "hbos",
                       "--folds", "2", "--t-tolerance", "8", "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (f"skipping {bad}: {bad}: header repeats column "
                               "name 'x1'\n")
        assert json.loads((out / "report.json").read_text())["datasets"] == ["toy"]

    def test_empty_data_dir_exit_2(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        proc = run_cli(
            "bench", "--data-dir", str(empty), "--out-dir", str(tmp_path / "o")
        )
        assert proc.returncode == 2
        assert "no CSV datasets" in json.loads(proc.stderr)["error"]["message"]


class TestTopLevel:
    def test_no_subcommand_exit_2(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_version_like_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for sub in ("fit", "predict", "verify", "bench"):
            assert sub in proc.stdout
