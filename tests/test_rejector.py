import json
import math

import numpy as np
import pytest

from adreject.bounds import rejection_rate_estimate
from adreject.core import (
    CostSpec,
    Decision,
    DomainError,
    LabelLengthMismatch,
    NonBinaryLabels,
    ScoreSet,
    ToleranceSpec,
    anomaly_count,
)
from adreject.rejector import (
    SCHEMA_VERSION,
    decision_threshold,
    empirical_cost,
    fit,
    from_dict,
    load_model,
    oracle_sweep,
    predict_batch,
    save_model,
    to_dict,
)
from adreject.stability import (
    confidence,
    rejection_cutoffs,
    stability_tails,
    training_frequency,
)

from oracles import brute_cost, reject_from_tails


def _fit(scores, gamma, T=8.0):
    return fit(ScoreSet(scores, gamma), ToleranceSpec(T))


class TestDecisionThreshold:
    def test_kth_largest(self):
        train = ScoreSet(np.arange(1.0, 101.0), 0.1)
        # ceil(100 * 0.1) = 10; the 10th largest of 1..100 is 91.
        assert decision_threshold(train) == 91.0

    def test_gamma_zero_is_infinite(self):
        assert decision_threshold(ScoreSet([1.0, 2.0, 3.0], 0.0)) == math.inf

    def test_rank_snapping(self):
        # 30 * 0.1 is 3.0000000000000004 in floats; the snapped rank is
        # still 3, so the threshold is the 3rd largest score.
        train = ScoreSet(np.arange(1.0, 31.0), 0.1)
        assert decision_threshold(train) == 28.0

    def test_duplicates(self):
        train = ScoreSet([5.0, 5.0, 5.0, 1.0, 2.0, 6.0, 7.0, 8.0, 9.0, 10.0], 0.2)
        # 2nd largest is 9.
        assert decision_threshold(train) == 9.0


class TestPredict:
    def test_scalar_matches_batch(self):
        rej = _fit(np.arange(1.0, 201.0), 0.1)
        grid = [0.0, 91.3, 180.0, 250.0]
        batch = predict_batch(rej, grid)
        for i, s in enumerate(grid):
            one = predict_batch(rej, s)
            assert len(one) == 1
            for name in ("psi_n", "p_anomaly", "confidence", "base_anomaly", "rejected"):
                assert getattr(one, name)[0] == getattr(batch, name)[i], name
            want = (
                Decision.REJECT
                if batch.rejected[i]
                else (Decision.ANOMALY if batch.base_anomaly[i] else Decision.NORMAL)
            )
            assert one.decisions == [want]

    def test_complex_scores_refused(self):
        rej = _fit(np.arange(1.0, 101.0), 0.1)
        with pytest.raises(DomainError, match="must be real"):
            predict_batch(rej, np.array([50.0 + 0j, 95.0 + 2j]))

    def test_decisions_from_rejected_then_base_label(self):
        rng = np.random.default_rng(3)
        rej = _fit(rng.normal(size=500), 0.1, T=8.0)
        batch = predict_batch(rej, np.linspace(-4.0, 4.0, 2001))
        want = [
            Decision.REJECT if r else (Decision.ANOMALY if a else Decision.NORMAL)
            for r, a in zip(batch.rejected, batch.base_anomaly)
        ]
        assert set(want) == set(Decision)
        assert batch.decisions == want

    def test_base_rule_is_threshold_comparison(self):
        rej = _fit(np.arange(1.0, 101.0), 0.1)
        batch = predict_batch(rej, [90.9, 91.0, 91.1, 200.0, -5.0])
        assert batch.base_anomaly.tolist() == [False, True, True, True, False]

    def test_rejections_contiguous_in_score(self):
        rng = np.random.default_rng(5)
        rej = _fit(rng.normal(size=2000), 0.1, T=8.0)
        grid = np.linspace(-4.0, 4.0, 4001)
        rejected = predict_batch(rej, grid).rejected
        idx = np.flatnonzero(rejected)
        assert idx.size > 0
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))

    def test_confidence_definition(self):
        rej = _fit(np.arange(1.0, 101.0), 0.1)
        batch = predict_batch(rej, np.linspace(0.0, 120.0, 50))
        assert np.allclose(
            batch.confidence, np.abs(2.0 * batch.p_anomaly - 1.0), rtol=0, atol=0
        )

    def test_degenerate_never_rejects_never_flags(self):
        rej = _fit([3.0, 1.0, 2.0], 0.0)
        assert rej.degenerate
        assert rej.estimate.r_hat == 0.0
        batch = predict_batch(rej, [0.0, 2.0, 99.0])
        assert not batch.base_anomaly.any()
        assert not batch.rejected.any()
        assert predict_batch(rej, 99.0).decisions == [Decision.NORMAL]


class TestCountTable:
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 400, 2000, 20000])
    @pytest.mark.parametrize("gamma", [0.0, 0.01, 0.1, 0.3, 0.49])
    @pytest.mark.parametrize("T", [4.0, 8.0, 32.0])
    def test_matches_per_query_tails_bitwise(self, n, gamma, T):
        rng = np.random.default_rng(n)
        scores = rng.normal(size=n)
        scores[: n // 3] = np.round(scores[: n // 3], 1)  # a block of ties
        rej = _fit(scores, gamma, T)
        lo, hi = scores.min(), scores.max()
        queries = np.concatenate([
            rng.choice(scores, min(n, 300)),
            rng.uniform(lo - 1.0, hi + 1.0, 300),
            [lo - 5.0, lo, hi, hi + 5.0],
        ])
        psi = training_frequency(rej.train, queries)
        upper, lower = stability_tails(psi, n, gamma)
        want = {
            "psi_n": psi,
            "p_anomaly": upper,
            "confidence": confidence(upper),
            "base_anomaly": queries >= rej.threshold,
            "rejected": reject_from_tails(upper, lower, T),
        }
        got = predict_batch(rej, queries)
        for name, value in want.items():
            field = getattr(got, name)
            assert field.dtype == value.dtype, name
            assert field.tobytes() == value.tobytes(), name

    def test_table_is_read_only_and_sized_by_count(self):
        rej = _fit(np.arange(50.0), 0.1)
        assert rej.p_table.shape == (51,)
        assert not rej.p_table.flags.writeable
        assert 0 <= rej.k_lo <= rej.k_hi <= 51

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 99, 100, 101, 1000, 5000, 20000])
    def test_cutoffs_equal_rejection_cutoffs(self, n):
        # fit counts its table; rejection_cutoffs searches the same tails.
        scores = np.random.default_rng(n).normal(size=n)
        for gamma in (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.49):
            train = ScoreSet(scores, gamma)
            for T in (4.0, 5.5, 8.0, 16.0, 32.0, 38.5, 64.0, 128.0, 256.0, 575.0):
                tol = ToleranceSpec(T)
                rej = fit(train, tol)
                got = (rej.k_lo, rej.k_hi)
                if anomaly_count(n, gamma) == 0:
                    assert rej.degenerate and got == (n + 1, n + 1)
                    continue
                assert not rej.degenerate
                assert got == rejection_cutoffs(n, gamma, tol), (n, gamma, T)
                assert rej.estimate == rejection_rate_estimate(train, tol)

    def test_degenerate_cutoffs_reject_nothing(self):
        rej = _fit(np.arange(9.0), 0.1)  # floor(9 * 0.1) == 0
        assert rej.degenerate
        assert rej.k_lo == rej.k_hi == 10


class TestLargeTolerance:
    @pytest.mark.parametrize("T", [38.0, 64.0, 256.0])
    def test_fit_and_predict(self, T):
        rng = np.random.default_rng(int(T))
        train = ScoreSet(rng.normal(size=2000), 0.1)
        rej = fit(train, ToleranceSpec(T))
        batch = predict_batch(rej, train.scores)
        assert batch.rejected.any() and not batch.rejected.all()
        assert rej.estimate.r_hat == pytest.approx(batch.rejected.mean(), abs=1e-12)
        assert predict_batch(rej, float(train.scores[0])).psi_n[0] == batch.psi_n[0]

    def test_rejections_grow_with_T(self):
        train = ScoreSet(np.random.default_rng(3).normal(size=2000), 0.1)
        counts = [
            int(predict_batch(fit(train, ToleranceSpec(T)), train.scores).rejected.sum())
            for T in (32.0, 38.0, 64.0, 256.0)
        ]
        assert counts == sorted(counts)

    def test_beyond_trust_floor_refused(self):
        with pytest.raises(DomainError, match="T must be at most"):
            _fit(np.arange(100.0), 0.1, T=600.0)


class TestEmpiricalCost:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        m = 500
        base = rng.random(m) < 0.3
        rejected = rng.random(m) < 0.2
        labels = rng.random(m) < 0.1
        costs = CostSpec(1.0, 10.0, 0.5)
        got = empirical_cost(base, rejected, labels, costs)
        want = brute_cost(base, rejected, labels, 1.0, 10.0, 0.5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_decomposition(self):
        base = np.asarray([True, True, False, False, True])
        rejected = np.asarray([False, True, False, True, False])
        labels = np.asarray([False, False, True, True, True])
        costs = CostSpec(c_fp=2.0, c_fn=3.0, c_r=0.25)
        # kept: fp at index 0, fn at index 2; rejected: indices 1 and 3.
        want = (2.0 * 1 + 3.0 * 1 + 0.25 * 2) / 5
        assert empirical_cost(base, rejected, labels, costs) == pytest.approx(
            want, rel=1e-15
        )


class TestOracleSweep:
    def _setup(self, seed=0, n=60, gamma=0.2):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        labels = rng.random(n) < gamma
        rej = _fit(scores, gamma)
        return rej, labels

    def test_matches_exhaustive_search(self):
        rej, labels = self._setup()
        costs = CostSpec(1.0, 1.0, 0.15)
        theta, cost = oracle_sweep(rej, labels, costs)
        batch = predict_batch(rej, rej.train.scores)
        best = None
        for cand in sorted(set(batch.confidence.tolist()) | {0.0, 1.0, rej.tol.tau}):
            c = brute_cost(
                batch.base_anomaly, batch.confidence <= cand, labels, 1.0, 1.0, 0.15
            )
            if best is None or c < best[1] - 1e-15:
                best = (cand, c)
        assert theta == pytest.approx(best[0], abs=0.0)
        assert cost == pytest.approx(best[1], abs=1e-12)

    def test_tie_prefers_smallest_threshold(self):
        rej, labels = self._setup(seed=1)
        # With free rejection every threshold >= max confidence costs 0,
        # and so do many others; the sweep must return the smallest.
        costs = CostSpec(1.0, 1.0, 0.0)
        theta, cost = oracle_sweep(rej, labels, costs)
        batch = predict_batch(rej, rej.train.scores)
        cheaper = [
            c
            for c in np.unique(np.concatenate([batch.confidence, [0.0]]))
            if c < theta
            and empirical_cost(
                batch.base_anomaly, batch.confidence <= c, labels, costs
            )
            <= cost
        ]
        assert cheaper == []

    def test_oracle_never_worse_than_fixed_threshold(self):
        for seed in range(5):
            rej, labels = self._setup(seed=seed, n=200, gamma=0.1)
            costs = CostSpec(1.0, 1.0, 0.1)
            _, oracle_cost = oracle_sweep(rej, labels, costs)
            batch = predict_batch(rej, rej.train.scores)
            fixed = empirical_cost(batch.base_anomaly, batch.rejected, labels, costs)
            assert oracle_cost <= fixed + 1e-12

    def test_rejection_beats_no_rejection_on_adversarial_labels(self):
        # Labels disagree with the base rule exactly on the rejected
        # points, so keeping them costs 1 each while rejecting costs c_r.
        rej, _ = self._setup(seed=2, n=300, gamma=0.1)
        batch = predict_batch(rej, rej.train.scores)
        labels = np.where(batch.rejected, ~batch.base_anomaly, batch.base_anomaly)
        costs = CostSpec(1.0, 1.0, 0.05)
        with_reject = empirical_cost(batch.base_anomaly, batch.rejected, labels, costs)
        without = empirical_cost(
            batch.base_anomaly, np.zeros_like(batch.rejected), labels, costs
        )
        assert batch.rejected.any()
        assert with_reject < without

    def test_label_length_mismatch(self):
        rej, labels = self._setup()
        with pytest.raises(LabelLengthMismatch):
            oracle_sweep(rej, labels[:-1], CostSpec(1.0, 1.0, 0.1))

    def test_non_binary_labels(self):
        rej, labels = self._setup()
        bad = labels.astype(float)
        bad[0] = 0.5
        with pytest.raises(NonBinaryLabels):
            oracle_sweep(rej, bad, CostSpec(1.0, 1.0, 0.1))


class TestSerialization:
    def test_round_trip_identical_predictions(self, tmp_path):
        rng = np.random.default_rng(9)
        rej = _fit(rng.normal(size=500), 0.1, T=16.0)
        path = tmp_path / "model.json"
        save_model(rej, path, score_column="score")
        loaded, extras = load_model(path)
        assert extras["score_column"] == "score"
        queries = rng.normal(size=100)
        a = predict_batch(rej, queries)
        b = predict_batch(loaded, queries)
        assert np.array_equal(a.p_anomaly, b.p_anomaly)
        assert np.array_equal(a.base_anomaly, b.base_anomaly)
        assert np.array_equal(a.rejected, b.rejected)
        assert loaded.threshold == rej.threshold

    def test_json_payload_round_trips_floats(self, tmp_path):
        rej = _fit(np.random.default_rng(2).normal(size=64), 0.25)
        path = tmp_path / "model.json"
        save_model(rej, path)
        state = json.loads(path.read_text())
        assert state["schema_version"] == SCHEMA_VERSION
        assert state["lambda"] == rej.threshold
        assert state["scores_sorted"] == [float(s) for s in rej.train.sorted_scores]

    def test_lambda_none_when_gamma_zero(self, tmp_path):
        rej = _fit([1.0, 2.0, 3.0], 0.0)
        path = tmp_path / "model.json"
        save_model(rej, path)
        state = json.loads(path.read_text())
        assert state["lambda"] is None
        loaded, _ = load_model(path)
        assert loaded.threshold == math.inf
        assert loaded.degenerate

    def test_schema_mismatch_rejected(self):
        rej = _fit(np.arange(20.0), 0.2)
        state = to_dict(rej)
        state["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            from_dict(state)

    def test_tampered_threshold_rejected(self):
        rej = _fit(np.arange(20.0), 0.2)
        state = to_dict(rej)
        state["lambda"] = state["lambda"] + 1.0
        with pytest.raises(ValueError, match="threshold"):
            from_dict(state)

    @pytest.mark.parametrize("gamma", [0.0, 0.02, 0.1, 0.3])
    @pytest.mark.parametrize("T", [4.0, 32.0, 256.0, 575.0])
    def test_saved_state_is_reproduced_exactly(self, gamma, T):
        rng = np.random.default_rng(int(T))
        rej = _fit(np.round(rng.normal(size=300), 2), gamma, T)
        state = json.loads(json.dumps(to_dict(rej, "score")))
        assert to_dict(from_dict(state), "score") == state

    @pytest.mark.parametrize(
        "field,edit",
        [
            ("band", lambda s: s["band"].update(h=s["band"]["h"] + 0.01)),
            ("band", lambda s: s["band"].update(t1=s["band"]["t1"] - 0.01)),
            ("estimate", lambda s: s["estimate"].update(r_hat=s["estimate"]["r_hat"] + 0.01)),
            ("estimate", lambda s: s["estimate"].update(below_band=0.0)),
            ("degenerate", lambda s: s.update(degenerate=True)),
            # Out of order, with the top ranks (and so lambda) unchanged.
            ("scores_sorted", lambda s: s["scores_sorted"].__setitem__(0, 1.5)),
        ],
        ids=["band.h", "band.t1", "estimate.r_hat", "estimate.below_band",
             "degenerate", "scores_sorted"],
    )
    def test_tampered_field_rejected(self, field, edit):
        rej = _fit(np.arange(20.0), 0.2)
        state = json.loads(json.dumps(to_dict(rej)))
        edit(state)
        with pytest.raises(ValueError, match=f"'{field}'"):
            from_dict(state)

    @pytest.mark.parametrize(
        "field,value", [("gamma", None), ("delta", "0.05"), ("t_tolerance", [32.0])]
    )
    def test_missing_or_mistyped_field_rejected(self, field, value):
        state = to_dict(_fit(np.arange(20.0), 0.2))
        if value is None:
            del state[field]
        else:
            state[field] = value
        with pytest.raises(ValueError, match="missing or of the wrong type"):
            from_dict(state)

    @pytest.mark.parametrize("field", ["gamma", "t_tolerance", "delta"])
    def test_null_scalar_field_rejected(self, tmp_path, field):
        # The constructors refuse None with DomainError; the loader keeps
        # reporting a mistyped field as a ValueError.
        state = to_dict(_fit(np.arange(20.0), 0.2))
        state[field] = None
        path = tmp_path / "model.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="missing or of the wrong type"):
            load_model(path)

    @pytest.mark.parametrize(
        "field,edit",
        [
            ("schema_version", lambda s: s.update(schema_version=True)),
            ("schema_version", lambda s: s.update(schema_version=1.0)),
            ("degenerate", lambda s: s.update(degenerate=0)),
            ("t_tolerance", lambda s: s.update(t_tolerance=8)),
            ("band", lambda s: s["band"].update(n=20.0)),
        ],
        ids=["schema-true", "schema-float", "degenerate-0", "T-int", "band.n-float"],
    )
    def test_json_type_must_match(self, field, edit):
        # Each edit keeps the value equal under Python ``==``.
        state = json.loads(json.dumps(to_dict(_fit(np.arange(20.0), 0.2))))
        edit(state)
        with pytest.raises(ValueError, match=field):
            from_dict(state)

    def test_key_order_inside_a_block_is_free(self):
        state = json.loads(json.dumps(to_dict(_fit(np.arange(20.0), 0.2))))
        state["band"] = dict(reversed(state["band"].items()))
        from_dict(state)

    def test_detector_extras_preserved(self, tmp_path):
        rej = _fit(np.arange(30.0), 0.1)
        det = _detector_block()
        path = tmp_path / "model.json"
        save_model(rej, path, detector=det)
        _, extras = load_model(path)
        assert extras["detector"] == det

    @pytest.mark.parametrize("state", [[], "model", 3, None])
    def test_non_object_state_rejected(self, state):
        with pytest.raises(ValueError, match="JSON object"):
            from_dict(state)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: {"kind": "knn"},
            lambda d: [d],
            lambda d: d.update(extra=1),
            lambda d: d.update(kind=1),
            lambda d: d.update(k=5.0),
            lambda d: d.update(seed=True),
            lambda d: d.update(feature_names="x1"),
            lambda d: d.update(feature_names=["x1", 2]),
            lambda d: d.update(train_matrix=[]),
            lambda d: d.update(train_matrix=[1.0, 2.0]),
            lambda d: d.update(train_matrix=[[1.0, 2.0], [3.0]]),
            lambda d: d.update(train_matrix=[[1.0, "2"], [3.0, 4.0]]),
            lambda d: d.update(train_matrix=[[1.0, None], [3.0, 4.0]]),
        ],
        ids=["keys-missing", "not-object", "extra-key", "kind", "k-float",
             "seed-bool", "names-str", "names-int", "matrix-empty",
             "matrix-1d", "matrix-ragged", "matrix-str", "matrix-null"],
    )
    def test_malformed_detector_block_rejected(self, edit):
        state = json.loads(json.dumps(to_dict(_fit(np.arange(30.0), 0.1))))
        det = _detector_block()
        state["detector"] = edit(det) or det
        with pytest.raises(ValueError, match="model detector"):
            from_dict(state)

    @pytest.mark.parametrize("field, value", [
        ("k", 0), ("seed", -1), ("subsample", 64.0), ("k", 2.5), ("k", True),
        ("kind", 1), ("k", "3"),
    ], ids=["k-zero", "seed-negative", "subsample-float", "k-float", "k-bool",
            "kind-int", "k-str"])
    def test_detector_spec_refused_on_load(self, tmp_path, field, value):
        # DetectorSpec refuses these, so the model file is refused when it
        # loads, not at predict.
        path = tmp_path / "model.json"
        save_model(_fit(np.arange(30.0), 0.1), path, detector=_detector_block())
        state = json.loads(path.read_text())
        state["detector"][field] = value
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="^model detector: "):
            load_model(path)

    def test_repeated_feature_names_refused(self):
        # predict would score the column of the repeated name twice.
        state = json.loads(json.dumps(to_dict(_fit(np.arange(30.0), 0.1))))
        state["detector"] = {**_detector_block(), "feature_names": ["x1", "x1"]}
        with pytest.raises(ValueError, match="feature_names must be distinct strings"):
            from_dict(state)


def _detector_block():
    return {
        "kind": "knn", "k": 2, "n_trees": 100, "subsample": 256, "n_bins": 10,
        "seed": 0, "feature_names": ["x1", "x2"],
        "train_matrix": [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]],
    }
