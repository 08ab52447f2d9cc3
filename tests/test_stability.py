import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betainc

from adreject.core import (
    DegenerateStabilityMap,
    DomainError,
    NonFiniteInput,
    ScoreSet,
    ToleranceSpec,
    anomaly_count,
)
from adreject.stability import (
    _first_count,
    _log_binom_tail_many,
    confidence,
    rejection_cutoffs,
    stability_inverse,
    stability_tails,
    training_frequency,
)

from oracles import (
    brute_stability,
    brute_training_frequency,
    exact_cutoff_mismatches,
    full_range_log_binom_tail,
    reject_from_tails,
    snapped_floor,
)


def _upper(psi, n, gamma):
    """The anomaly probability: the upper tail of :func:`stability_tails`."""
    return stability_tails(psi, n, gamma)[0]


def _count_grid_tails(n, gamma):
    """(k, q) of the upper and lower tails on the grid psi_n = j / n."""
    a = anomaly_count(n, gamma)
    q = (1.0 + n * (np.arange(n + 1) / n)) / (2.0 + n)
    return [(n - a + 1, q), (a, 1.0 - q)]


class TestTrainingFrequency:
    TRAIN = ScoreSet([1.0, 2.0, 3.0, 4.0], 0.25)

    @pytest.mark.parametrize(
        "s,expected",
        [(0.0, 0.0), (1.0, 0.25), (2.0, 0.5), (2.5, 0.5), (4.0, 1.0), (9.0, 1.0)],
    )
    def test_values_ties_inclusive(self, s, expected):
        assert training_frequency(self.TRAIN, s) == expected

    def test_vector_query(self):
        psi = training_frequency(self.TRAIN, [2.0, 3.5])
        assert psi.tolist() == [0.5, 0.75]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        train = ScoreSet(rng.normal(size=57), 0.1)
        for s in rng.normal(size=20):
            assert training_frequency(train, float(s)) == pytest.approx(
                brute_training_frequency(train.scores, float(s)), abs=0.0
            )

    def test_non_finite_query(self):
        with pytest.raises(NonFiniteInput):
            training_frequency(self.TRAIN, np.nan)

    def test_in_sample_frequencies_input_order(self):
        train = ScoreSet([3.0, 1.0, 2.0], 0.1)
        assert training_frequency(train, train.scores).tolist() == [1.0, 1 / 3, 2 / 3]

    def test_in_sample_with_ties(self):
        train = ScoreSet([5.0, 5.0, 1.0], 0.1)
        assert training_frequency(train, train.scores).tolist() == [1.0, 1.0, 1 / 3]


class TestStabilityProbability:
    def test_frozen_single_anomaly_full_frequency(self):
        # n=10, gamma=0.1: a=1, P = q^10 with q = 11/12 at psi = 1.
        assert _upper(1.0, 10, 0.1) == pytest.approx(
            (11 / 12) ** 10, rel=1e-15
        )
        assert (11 / 12) ** 10 == pytest.approx(0.41890388788459276, rel=1e-15)

    def test_frozen_two_anomalies_half_frequency(self):
        # n=10, gamma=0.2: a=2, q=1/2, P(X>=9) = 11/1024 exactly.
        assert _upper(0.5, 10, 0.2) == pytest.approx(
            11 / 1024, rel=1e-13
        )

    def test_degenerate_sentinel_is_zero(self):
        # floor(n gamma) = 0: nothing would ever be flagged anomalous.
        assert _upper(0.7, 9, 0.1) == 0.0
        assert _upper(1.0, 50, 0.0) == 0.0

    @pytest.mark.parametrize("n,gamma", [(10, 0.2), (37, 0.3), (100, 0.49)])
    def test_matches_exact_rational(self, n, gamma):
        for psi in (0.0, 0.3, 0.5, 0.77, 1.0):
            exact = float(brute_stability(psi, n, gamma))
            assert _upper(psi, n, gamma) == pytest.approx(
                exact, rel=1e-12, abs=1e-300
            )

    def test_monotone_in_psi(self):
        psi = np.linspace(0.0, 1.0, 10001)
        p = _upper(psi, 100, 0.1)
        assert np.all(np.diff(p) >= -1e-12)
        assert p[0] < 1e-6 and p[-1] > 0.9

    def test_vectorized_matches_scalar(self):
        psi = np.asarray([0.0, 0.25, 0.9])
        vec = _upper(psi, 50, 0.2)
        for i, x in enumerate(psi):
            assert vec[i] == _upper(float(x), 50, 0.2)

    @pytest.mark.parametrize("psi", [-0.1, 1.1, np.nan])
    def test_psi_domain(self, psi):
        with pytest.raises(DomainError):
            _upper(psi, 10, 0.2)


class TestStabilityTails:
    def test_tails_complement(self):
        psi = np.linspace(0.0, 1.0, 501)
        upper, lower = stability_tails(psi, 200, 0.1)
        assert np.all(np.abs(upper + lower - 1.0) <= 1e-12)

    def test_upper_tail_is_stability(self):
        psi = np.asarray([0.2, 0.8, 0.95])
        upper, _ = stability_tails(psi, 100, 0.3)
        for p, x in zip(upper, psi):
            assert p == pytest.approx(float(brute_stability(x, 100, 0.3)), rel=1e-12)

    def test_extreme_tail_accuracy(self):
        # Deep in the lower tail the direct complement computation keeps
        # relative accuracy where 1 - P would round to exactly 1.
        _, lower = stability_tails(np.asarray([1.0]), 2000, 0.3)
        exact = 1 - brute_stability(1.0, 2000, 0.3)
        assert lower[0] == pytest.approx(float(exact), rel=1e-10)


class TestConfidenceAndBand:
    def test_confidence_values(self):
        assert confidence(0.5) == 0.0
        assert confidence(0.0) == 1.0
        assert confidence(1.0) == 1.0
        assert confidence(0.75) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("p", [-0.01, 1.01, np.nan])
    def test_confidence_domain(self, p):
        with pytest.raises(DomainError):
            confidence(p)

    def test_band_closed_at_edges(self):
        # A count whose tail equals exp(-T) exactly is rejected at either
        # edge: pick T so that exp(-T) is itself an entry of the table.
        n, gamma = 500, 0.1
        up, lo = stability_tails(np.arange(n + 1) / n, n, gamma)
        for side, tails in ((0, up), (1, lo)):
            hits = 0
            for j, p in enumerate(tails.tolist()):
                T = -math.log(p) if p > 0.0 else math.inf
                if not (4.0 <= T <= 575.0 and math.exp(-T) == p):
                    continue
                k_lo, k_hi = rejection_cutoffs(n, gamma, ToleranceSpec(T))
                assert (k_lo, k_hi)[side] == (j, j + 1)[side]
                hits += 1
            assert hits > 0, side

    def test_band_equals_confidence_threshold(self):
        # p in [e^-T, 1-e^-T]  <=>  |2p-1| <= 1 - 2 e^-T, checked exactly.
        T = 8
        edge = Fraction(math.exp(-T))
        tau = 1 - 2 * edge
        for p in [Fraction(0), edge / 2, edge, Fraction(1, 3), Fraction(1, 2),
                  1 - edge, 1 - edge / 2, Fraction(1)]:
            in_band = edge <= p <= 1 - edge
            low_conf = abs(2 * p - 1) <= tau
            assert in_band == low_conf

    def test_reject_from_tails_agrees_with_band(self):
        # The per-query rule on both tails and the fitted count rule agree
        # at every reachable frequency j / n.
        n = 500
        j = np.arange(n + 1)
        upper, lower = stability_tails(j / n, n, 0.1)
        k_lo, k_hi = rejection_cutoffs(n, 0.1, ToleranceSpec(8.0))
        assert np.array_equal(reject_from_tails(upper, lower, 8.0), (k_lo <= j) & (j < k_hi))


class TestStabilityInverse:
    @pytest.mark.parametrize("target", [0.5, math.exp(-8), 1 - math.exp(-8)])
    def test_round_trip(self, target):
        psi = stability_inverse(target, 1000, 0.1)
        assert 0.0 <= psi <= 1.0
        assert _upper(psi, 1000, 0.1) >= target
        # One grid step to the left falls below the target.
        below = _upper(max(psi - 1e-6, 0.0), 1000, 0.1)
        assert below <= target * (1 + 1e-6)

    def test_round_trip_accuracy(self):
        psi = stability_inverse(0.5, 1000, 0.1)
        assert _upper(psi, 1000, 0.1) == pytest.approx(0.5, abs=1e-9)

    def test_log_mode_tiny_target(self):
        target = math.exp(-32.0)
        psi = stability_inverse(target, 2000, 0.1)
        p = _upper(psi, 2000, 0.1)
        assert p >= target
        assert math.log(p) == pytest.approx(-32.0, abs=1e-2)

    def test_monotone_in_target(self):
        lo = stability_inverse(math.exp(-32), 500, 0.1)
        mid = stability_inverse(0.5, 500, 0.1)
        hi = stability_inverse(1 - math.exp(-32), 500, 0.1)
        assert lo <= mid <= hi

    def test_saturated_targets(self):
        # Target below g(0): every frequency already reaches it.
        assert stability_inverse(1e-300, 100, 0.3) == 0.0
        # Target above g(1): unreachable, capped at 1.
        assert stability_inverse(0.9, 10, 0.1) == 1.0

    def test_degenerate_map(self):
        with pytest.raises(DegenerateStabilityMap):
            stability_inverse(0.5, 5, 0.1)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 1.5])
    def test_target_domain(self, target):
        with pytest.raises(DomainError):
            stability_inverse(target, 100, 0.1)


class TestLogTailKernel:
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 400, 2000])
    @pytest.mark.parametrize("gamma", [0.01, 0.1, 0.3, 0.49])
    def test_bounded_sum_matches_full_range_on_count_grid(self, n, gamma):
        for k, q in _count_grid_tails(n, gamma):
            got = _log_binom_tail_many(k, n, q)
            want = full_range_log_binom_tail(k, n, q)
            assert got.tobytes() == want.tobytes(), (k, n)

    @pytest.mark.parametrize("gamma", [0.02, 0.1, 0.3])
    def test_bounded_sum_matches_full_range_where_it_runs(self, gamma):
        # At n = 20000 most grid points take the log-space path; compare
        # on exactly those.
        n = 20000
        for k, q in _count_grid_tails(n, gamma):
            fallback = q[~(betainc(k, n - k + 1.0, q) >= 1e-250)]
            assert fallback.size > 0
            got = _log_binom_tail_many(k, n, fallback)
            want = full_range_log_binom_tail(k, n, fallback)
            assert got.tobytes() == want.tobytes(), (k, n)

    def test_single_point_matches_batch(self):
        n = 2000
        for k, q in _count_grid_tails(n, 0.1):
            batch = _log_binom_tail_many(k, n, q)
            for idx in range(0, n + 1, 97):
                one = _log_binom_tail_many(k, n, q[idx:idx + 1])
                assert one.tobytes() == batch[idx:idx + 1].tobytes(), (k, idx)


class TestRejectionCutoffs:
    @pytest.mark.parametrize(
        "n,gamma,T",
        [(3, 0.49, 4.0), (7, 0.3, 8.0), (50, 0.1, 32.0), (400, 0.02, 4.0),
         (2000, 0.3, 64.0), (20000, 0.1, 32.0), (20000, 0.49, 256.0)],
    )
    def test_first_counts_of_the_tail_table(self, n, gamma, T):
        tol = ToleranceSpec(T)
        up, lo = stability_tails(np.arange(n + 1) / n, n, gamma)
        reach = np.flatnonzero(up >= tol.band_edge)
        below = np.flatnonzero(lo < tol.band_edge)
        want = (
            int(reach[0]) if reach.size else n + 1,
            int(below[0]) if below.size else n + 1,
        )
        assert rejection_cutoffs(n, gamma, tol) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 37, 100, 250, 500, 1000])
    def test_exact_over_the_tolerance_domain(self, n):
        # Every non-degenerate map of the grid, against integer arithmetic
        # at each side of both cutoffs.
        wrong = {}
        for gamma in (0.01, 0.05, 0.1, 0.2, 0.3, 0.49):
            a = snapped_floor(n * gamma)
            if a == 0:
                continue
            for T in (4.0, 8.0, 32.0, 64.0, 256.0, 575.0):
                tol = ToleranceSpec(T)
                k_lo, k_hi = rejection_cutoffs(n, gamma, tol)
                found = exact_cutoff_mismatches(n, a, tol.band_edge, k_lo, k_hi)
                if found:
                    wrong[gamma, T] = found
        assert wrong == {}

    @pytest.mark.parametrize("first", [0, 1, 17, 49, 50, 51])
    @pytest.mark.parametrize("guess", [-5.0, 0.0, 16.0, 30.0, 50.0, 80.0, math.nan])
    def test_search_is_exact_from_any_guess(self, first, guess):
        calls = []

        def reaches(j):
            calls.append(j)
            return j >= first

        assert _first_count(50, reaches, guess) == first
        assert all(0 <= j <= 50 for j in calls)

    def test_degenerate_map(self):
        # floor(9 * 0.1) == 0: no count is ever rejected.
        assert rejection_cutoffs(9, 0.1, ToleranceSpec(8.0)) == (10, 10)

    def test_tolerance_below_trust_floor_refused(self):
        rejection_cutoffs(100, 0.1, ToleranceSpec(575.0))
        with pytest.raises(DomainError, match="T must be at most 575.6"):
            rejection_cutoffs(100, 0.1, ToleranceSpec(576.0))
