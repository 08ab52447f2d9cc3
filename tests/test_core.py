import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adreject.bench import MAX_ROWS, Dataset
from adreject.bounds import expected_cost_upper_bound
from adreject.core import (
    AdrejectError,
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


# Values ``float`` refuses, or would cut to their real part.
_NOT_REAL = [None, "x", "", 0.1 + 0j, np.complex128(0.1), [0.1], np.zeros(1), 10**400]


class TestScalarParameters:
    """ScoreSet.gamma, ToleranceSpec.T, the CostSpec fields and
    Dataset.gamma go through one conversion, ``core._as_float``."""

    _MAKERS = {
        "ScoreSet.gamma": lambda v: ScoreSet([1.0, 2.0], v),
        "ToleranceSpec.T": ToleranceSpec,
        "CostSpec.c_fp": lambda v: CostSpec(v, 1.0, 0.0),
        "CostSpec.c_fn": lambda v: CostSpec(1.0, v, 0.0),
        "CostSpec.c_r": lambda v: CostSpec(1.0, 1.0, v),
        "Dataset.gamma": lambda v: Dataset(name="d", X=[[0.0], [1.0]], labels=None,
                                           gamma=v),
    }

    @pytest.mark.parametrize("value", _NOT_REAL, ids=["None", "str", "empty-str", "complex",
                                                      "numpy-complex", "list", "array",
                                                      "int-beyond-float"])
    @pytest.mark.parametrize("maker", sorted(_MAKERS))
    def test_not_a_real_number_refused(self, maker, value):
        with pytest.raises(DomainError, match="must be a real number"):
            self._MAKERS[maker](value)

    def test_numeric_strings_and_bool_taken_as_float_takes_them(self):
        assert ScoreSet([1.0], "0.1").gamma == 0.1
        assert ToleranceSpec("32").T == 32.0
        assert CostSpec(True, 1, False).c_fp == 1.0
        assert CostSpec(True, 1, False).c_r == 0.0
        ds = Dataset(name="d", X=[[0.0], [1.0]], labels=None, gamma=np.float32(0.25))
        assert type(ds.gamma) is float and ds.gamma == 0.25


class TestCostBoundEstimateRule:
    """expected_cost_upper_bound checks ``0 <= A <= B <= 1`` by building a
    RateEstimate, so both refuse the same pairs with the same message."""

    @pytest.mark.parametrize("A,B", [(0.5, 0.2), (-0.1, 0.5), (0.2, 1.5), (np.nan, 0.5)])
    def test_refused(self, A, B):
        with pytest.raises(DomainError, match=r"need 0 <= A <= B <= 1"):
            expected_cost_upper_bound(A, B, 0.1, CostSpec(1.0, 1.0, 0.1))


_EDGE_SCALARS = [None, "0.1", "32", "x", True, False, 0.1 + 0j, np.complex128(0.1),
                 math.nan, math.inf, -math.inf, -0.0, 0.0, 0.5, 4.0, 575.6, 10**400,
                 [0.1], np.zeros((0,)), np.zeros((1, 1, 1)), np.float32(0.1), np.int64(8)]
_SCALARS = st.one_of(st.sampled_from(_EDGE_SCALARS), st.floats(), st.floats(0.0, 0.5),
                     st.floats(3.9, 600.0), st.integers(-2, 1000))
_ARRAYS = st.one_of(
    hnp.arrays(st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
               elements=st.floats(-1e300, 1e300)),
)


def _holds(value) -> None:
    """The invariants of a value one of the four constructors returned."""
    if isinstance(value, ScoreSet):
        assert type(value.gamma) is float and 0.0 <= value.gamma < 0.5
        assert value.scores.dtype == float and value.scores.ndim == 1 and value.n >= 1
        assert np.isfinite(value.scores).all()
        assert value.sorted_scores.tolist() == sorted(value.scores.tolist())
    elif isinstance(value, ToleranceSpec):
        assert type(value.T) is float and 4.0 <= value.T <= 575.7
        assert 0.0 < value.epsilon < 1.0 and value.tau + value.epsilon == 1.0
    elif isinstance(value, CostSpec):
        c = (value.c_fp, value.c_fn, value.c_r)
        assert all(type(v) is float and math.isfinite(v) for v in c)
        assert value.c_fp > 0.0 and value.c_fn > 0.0 and value.c_r >= 0.0
    else:
        X, labels = value.X, value.labels
        assert X.dtype == float and X.ndim == 2 and 1 <= value.n <= MAX_ROWS
        assert np.isfinite(X).all()
        assert type(value.gamma) is float and 0.0 <= value.gamma < 0.5
        if labels is not None:
            assert labels.dtype.kind == "i" and labels.shape == (value.n,)
            assert set(labels.tolist()) <= {0, 1}
            assert abs(labels.mean() - value.gamma) <= 1.0 / value.n


class TestInputContract:
    """Every draw of edge values either builds a value whose invariants
    hold or is refused with an AdrejectError: never a TypeError, and
    never a complex value cut to its real part."""

    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["ScoreSet", "ToleranceSpec", "CostSpec", "Dataset"]),
           data=st.data())
    def test_builds_or_refuses(self, kind, data):
        if kind == "ScoreSet":
            args, make = (data.draw(_ARRAYS), data.draw(_SCALARS)), ScoreSet
        elif kind == "ToleranceSpec":
            args, make = (data.draw(_SCALARS),), ToleranceSpec
        elif kind == "CostSpec":
            args, make = tuple(data.draw(_SCALARS) for _ in range(3)), CostSpec
        else:
            X = data.draw(_ARRAYS)
            rows = X.shape[0] if X.ndim else 1
            shape = (rows,) if data.draw(st.booleans()) else data.draw(
                st.sampled_from([(rows, 1), (rows + 1,), ()]))
            values = data.draw(hnp.arrays(np.int64, shape,
                                          elements=st.sampled_from([0, 0, 0, 1, 1, 2])))
            labels = data.draw(st.none() | st.sampled_from(
                [values.astype(t) for t in (np.int64, np.float64, np.complex128)]))
            consistent = labels is not None and values.size and data.draw(st.booleans())
            gamma = float(values.mean()) if consistent else data.draw(_SCALARS)
            args = ("d", X, labels, gamma)
            make = Dataset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = make(*args)
            except AdrejectError as exc:
                event(f"{kind} refused: {type(exc).__name__}")
                return
        event(f"{kind} built")
        _holds(value)
