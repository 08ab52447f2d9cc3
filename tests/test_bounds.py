import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adreject.bounds import (
    RateEstimate,
    band_edges,
    expected_cost_upper_bound,
    raw_band_edges,
    rejection_band,
    rejection_rate_estimate,
)
from adreject.core import (
    CostSpec,
    DegenerateStabilityMap,
    DomainError,
    ScoreSet,
    ToleranceSpec,
)
from adreject.rejector import fit, predict_batch
from adreject.stability import rejection_cutoffs

from oracles import bisection_rate_estimate, decimal_band_edges


class TestBandEdges:
    @pytest.mark.parametrize(
        "n,gamma,T",
        [
            (100, 0.1, 8.0),
            (1000, 0.3, 32.0),
            (10000, 0.1, 16.0),
            (5, 0.49, 4.0),
            (50000, 0.02, 4.0),
            (200, 0.25, 12.5),
        ],
    )
    def test_matches_high_precision_reference(self, n, gamma, T):
        e1, e2 = decimal_band_edges(n, gamma, T)
        r1, r2 = raw_band_edges(n, gamma, T)
        assert r1 == pytest.approx(float(e1), rel=1e-13, abs=1e-15)
        assert r2 == pytest.approx(float(e2), rel=1e-13, abs=1e-15)
        t1, t2 = band_edges(n, gamma, T)
        assert t1 == min(max(r1, 0.0), 1.0)
        assert t2 == min(max(r2, 0.0), 1.0)

    def test_clamping_small_n(self):
        # At n=5, gamma=0.49, T=4 the raw upper edge exceeds 1.
        r1, r2 = raw_band_edges(5, 0.49, 4.0)
        assert r2 > 1.0
        t1, t2 = band_edges(5, 0.49, 4.0)
        assert 0.0 <= t1 <= t2 <= 1.0
        assert t2 == 1.0

    def test_clamping_low_edge(self):
        # Wide band at tiny n pushes the raw lower edge below 0.
        r1, _ = raw_band_edges(3, 0.49, 32.0)
        assert r1 < 0.0
        t1, t2 = band_edges(3, 0.49, 32.0)
        assert t1 == 0.0
        assert 0.0 <= t2 <= 1.0

    def test_edges_ordered_and_bracket_one_minus_gamma(self):
        for n, gamma, T in [(500, 0.1, 8.0), (5000, 0.3, 16.0)]:
            t1, t2 = band_edges(n, gamma, T)
            assert t1 < 1.0 - gamma < t2

    def test_width_shrinks_with_n(self):
        widths = [np.subtract(*reversed(band_edges(n, 0.1, 8.0))) for n in (100, 1000, 10000)]
        assert widths[0] > widths[1] > widths[2]

    @pytest.mark.parametrize("bad", [dict(n=0, gamma=0.1, T=8.0), dict(n=10, gamma=0.6, T=8.0), dict(n=10, gamma=0.1, T=3.0)])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            band_edges(bad["n"], bad["gamma"], bad["T"])

    def test_implication_spot_check(self):
        # Every rejected count j in [k_lo, k_hi) has j / n inside the band.
        n = 1000
        t1, t2 = band_edges(n, 0.1, 8.0)
        k_lo, k_hi = rejection_cutoffs(n, 0.1, ToleranceSpec(8.0))
        assert k_lo < k_hi
        assert t1 <= k_lo / n and (k_hi - 1) / n <= t2


class TestRejectionBand:
    def test_frozen_dkw_term(self):
        # 2 * sqrt(ln(2/0.05) / (2*100)) with ln(40) = 3.6888794541139363.
        band = rejection_band(100, 0.1, 8.0, delta=0.05)
        t1, t2 = band_edges(100, 0.1, 8.0)
        slack = band.h - (t2 - t1)
        assert slack == pytest.approx(0.2716203031481239, rel=1e-12)

    def test_h_clipped_to_one(self):
        band = rejection_band(5, 0.49, 4.0, delta=0.05)
        assert band.h == 1.0

    def test_h_decreases_with_n(self):
        hs = [rejection_band(n, 0.1, 32.0).h for n in (100, 1000, 10000, 100000)]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1])
    def test_delta_domain(self, delta):
        with pytest.raises(DomainError):
            rejection_band(100, 0.1, 8.0, delta=delta)


class TestRateEstimate:
    def test_fields_and_r_hat(self):
        est = RateEstimate(below_band=0.2, up_to_band=0.5)
        assert est.r_hat == pytest.approx(0.3, rel=1e-15)

    def test_rejects_inverted_order(self):
        with pytest.raises(DomainError):
            RateEstimate(below_band=0.6, up_to_band=0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            RateEstimate(below_band=-0.1, up_to_band=0.5)

    def test_estimate_matches_in_sample_rejections(self):
        # On distinct scores the plug-in estimate counts, up to boundary
        # snapping, the same training points a fitted rejector rejects.
        n = 400
        train = ScoreSet(np.arange(1.0, n + 1.0), 0.1)
        tol = ToleranceSpec(8.0)
        est = rejection_rate_estimate(train, tol)
        rej = fit(train, tol)
        frac = predict_batch(rej, train.scores).rejected.mean()
        assert est.r_hat == pytest.approx(frac, abs=2.0 / n)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 300),
        levels=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        gamma=st.floats(0.0, 0.5, exclude_max=True),
        T=st.floats(4.0, 32.0),
    )
    def test_matches_bisection_and_in_sample_rate(self, n, levels, seed, gamma, T):
        # Few levels give heavy ties; more levels than scores mostly none.
        scores = np.random.default_rng(seed).integers(0, levels, n).astype(float)
        train = ScoreSet(scores, gamma)
        tol = ToleranceSpec(T)
        rej = fit(train, tol)
        old = bisection_rate_estimate(scores.tolist(), gamma, T)
        if old is None:
            assert rej.degenerate
        else:
            est = rejection_rate_estimate(train, tol)
            assert (est.below_band, est.up_to_band) == old
        frac = predict_batch(rej, train.scores).rejected.mean()
        assert rej.estimate.r_hat == pytest.approx(frac, abs=1e-12)

    def test_degenerate_raises(self):
        train = ScoreSet(np.arange(9.0), 0.1)  # floor(9 * 0.1) == 0
        with pytest.raises(DegenerateStabilityMap):
            rejection_rate_estimate(train, ToleranceSpec(8.0))


class TestCostBound:
    def test_frozen_example(self):
        costs = CostSpec(c_fp=1.0, c_fn=1.0, c_r=0.3)
        # min(0.3, 0.2) * 1 + (1 - 0.8) * 1 + (0.8 - 0.2) * 0.3 = 0.58
        assert expected_cost_upper_bound(0.2, 0.8, 0.3, costs) == pytest.approx(
            0.58, rel=1e-15
        )

    def test_anomaly_mass_caps_false_negatives(self):
        costs = CostSpec(c_fp=1.0, c_fn=100.0, c_r=0.0)
        # A = 0.9 but only gamma = 0.05 of the mass can be anomalous.
        assert expected_cost_upper_bound(0.9, 1.0, 0.05, costs) == pytest.approx(
            0.05 * 100.0, rel=1e-15
        )

    def test_invalid_mass_order(self):
        with pytest.raises(DomainError):
            expected_cost_upper_bound(0.8, 0.2, 0.1, CostSpec(1.0, 1.0, 0.0))

    def test_invalid_gamma(self):
        with pytest.raises(DomainError):
            expected_cost_upper_bound(0.2, 0.8, 0.5, CostSpec(1.0, 1.0, 0.0))

    def test_bound_dominates_empirical_cost(self):
        rng = np.random.default_rng(11)
        scores = np.concatenate(
            [rng.normal(0.0, 1.0, 1800), rng.normal(3.0, 1.0, 200)]
        )
        train = ScoreSet(scores, 0.1)
        tol = ToleranceSpec(16.0)
        est = rejection_rate_estimate(train, tol)
        costs = CostSpec(1.0, 1.0, 0.1)
        bound = expected_cost_upper_bound(est.below_band, est.up_to_band, 0.1, costs)
        assert 0.0 <= bound <= costs.c_fp + costs.c_fn

