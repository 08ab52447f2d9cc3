import math

import numpy as np
import pytest

from adreject.core import (
    CostSpec,
    Decision,
    DomainError,
    InadmissibleRejectionCost,
    InsufficientData,
    NonFiniteInput,
    ScoreSet,
    ToleranceSpec,
    anomaly_count,
    anomaly_rank,
    validate_cost_spec,
)


class TestScoreSet:
    def test_sorted_scores_and_n(self):
        train = ScoreSet([3.0, 1.0, 2.0], 0.1)
        assert train.n == 3
        assert train.sorted_scores.tolist() == [1.0, 2.0, 3.0]
        assert train.scores.tolist() == [3.0, 1.0, 2.0]

    def test_arrays_are_write_protected(self):
        train = ScoreSet([1.0, 2.0], 0.1)
        with pytest.raises(ValueError):
            train.scores[0] = 9.0
        with pytest.raises(ValueError):
            train.sorted_scores[0] = 9.0

    def test_input_array_not_aliased(self):
        raw = np.array([1.0, 2.0, 3.0])
        train = ScoreSet(raw, 0.1)
        raw[0] = 42.0
        assert train.scores[0] == 1.0

    def test_empty_scores(self):
        with pytest.raises(InsufficientData):
            ScoreSet([], 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores(self, bad):
        with pytest.raises(NonFiniteInput):
            ScoreSet([1.0, bad], 0.1)

    def test_complex_scores_refused(self):
        # A float cast would keep only the real part, with a warning.
        with pytest.raises(DomainError, match="must be real"):
            ScoreSet(np.array([1.0 + 0j, 2.0 + 1j]), 0.1)

    @pytest.mark.parametrize("gamma", [-0.01, 0.5, 0.75, np.nan])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(DomainError):
            ScoreSet([1.0, 2.0], gamma)

    def test_gamma_zero_allowed(self):
        assert ScoreSet([1.0], 0.0).gamma == 0.0


class TestAnomalyCountAndRank:
    @pytest.mark.parametrize(
        "n,gamma,count,rank",
        [
            (100, 0.1, 10, 10),
            (10, 0.25, 2, 3),
            (5, 0.49, 2, 3),
            (100, 0.0, 0, 0),
            (1, 0.49, 0, 1),
            (2000, 0.1, 200, 200),
        ],
    )
    def test_values(self, n, gamma, count, rank):
        assert anomaly_count(n, gamma) == count
        assert anomaly_rank(n, gamma) == rank

    def test_snap_absorbs_float_dust(self):
        # 100 * 0.07 = 7.000000000000001 in doubles; the intent is 7.
        assert 100 * 0.07 > 7.0
        assert anomaly_count(100, 0.07) == 7
        assert anomaly_rank(100, 0.07) == 7
        # 3 * 0.1 = 0.30000000000000004; 10 * that intent is 3 at n=10.
        assert anomaly_count(10, 3 * 0.1) == 3


class TestToleranceSpec:
    def test_t32_constants(self):
        tol = ToleranceSpec(32.0)
        assert tol.epsilon == 2.532833109818835e-14
        assert tol.epsilon == 2.0 * math.exp(-32.0)
        assert tol.tau + tol.epsilon == 1.0
        assert tol.band_edge == math.exp(-32.0)

    @pytest.mark.parametrize("T", [4.0, 8.0, 575.0])
    def test_tau_epsilon_complementary(self, T):
        tol = ToleranceSpec(T)
        assert tol.tau + tol.epsilon == 1.0
        assert 0.0 < tol.epsilon < 1.0

    @pytest.mark.parametrize("T", [576.0, 700.0, 1e6])
    def test_refuses_T_beyond_trust_floor(self, T):
        # exp(-T) below 1e-250, where the tails are not trusted.
        with pytest.raises(DomainError, match="T must be at most 575.6"):
            ToleranceSpec(T)

    @pytest.mark.parametrize("T", [3, 3.999999, -1.0, np.nan, np.inf])
    def test_rejects_bad_T(self, T):
        with pytest.raises(DomainError, match="T must be >= 4"):
            ToleranceSpec(T)

    def test_minimum_T(self):
        assert ToleranceSpec(4.0).T == 4.0


class TestCostSpec:
    def test_fields(self):
        costs = CostSpec(2.0, 3.0, 0.5)
        assert (costs.c_fp, costs.c_fn, costs.c_r) == (2.0, 3.0, 0.5)

    @pytest.mark.parametrize("bad", [(0.0, 1, 0), (1, 0.0, 0), (-1, 1, 0), (1, 1, -0.1)])
    def test_invalid_costs(self, bad):
        with pytest.raises(DomainError):
            CostSpec(*bad)

    def test_zero_rejection_cost_allowed(self):
        assert CostSpec(1.0, 1.0, 0.0).c_r == 0.0

    def test_admissibility_boundary(self):
        validate_cost_spec(CostSpec(1.0, 1.0, 0.1), gamma=0.1)
        with pytest.raises(InadmissibleRejectionCost):
            validate_cost_spec(CostSpec(1.0, 1.0, 0.1000001), gamma=0.1)

    def test_admissibility_uses_both_caps(self):
        # cap = min((1-gamma) c_fp, gamma c_fn) = min(0.2, 3.2) = 0.2
        validate_cost_spec(CostSpec(0.25, 16.0, 0.2), gamma=0.2)
        with pytest.raises(InadmissibleRejectionCost):
            validate_cost_spec(CostSpec(0.25, 16.0, 0.21), gamma=0.2)


class TestDecision:
    def test_string_values(self):
        assert str(Decision.NORMAL) == "normal"
        assert str(Decision.ANOMALY) == "anomaly"
        assert str(Decision.REJECT) == "reject"
        assert {d.value for d in Decision} == {"normal", "anomaly", "reject"}
