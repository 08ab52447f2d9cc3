import re
from fractions import Fraction

import pytest

import adreject.verification as verification
from adreject.core import DomainError
from adreject.verification import (
    GRID_GAMMAS,
    GRID_NS,
    GRID_TS,
    PropertyCheck,
    band_cover_check,
    default_verification,
    exact_stability_probability,
)


class TestExactStabilityProbability:
    def test_full_frequency_single_anomaly(self):
        # n=10, gamma=0.1: a=1, q=11/12, P(X >= 10) = (11/12)^10.
        assert exact_stability_probability(1.0, 10, 0.1) == Fraction(11, 12) ** 10

    def test_half_frequency_two_anomalies(self):
        # n=10, gamma=0.2: a=2, q=1/2, P(X >= 9) = (10 + 1) / 2^10.
        assert exact_stability_probability(0.5, 10, 0.2) == Fraction(11, 1024)

    def test_degenerate_is_zero(self):
        assert exact_stability_probability(0.9, 9, 0.1) == 0

    def test_monotone(self):
        vals = [exact_stability_probability(p / 10, 20, 0.2) for p in range(11)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestPropertyCheck:
    def test_line_format(self):
        ok = PropertyCheck(name="demo", passed=True, detail="all good", elapsed_s=1.234)
        assert ok.line() == "[PASS] demo: all good (1.2s)"
        bad = PropertyCheck(name="demo", passed=False, detail="boom", elapsed_s=0.05)
        assert bad.line().startswith("[FAIL] demo: boom")


class TestDefaultVerification:
    def test_grid_constants(self):
        assert GRID_NS == (100, 1000, 10000)
        assert GRID_GAMMAS == (0.02, 0.1, 0.3)
        assert GRID_TS == (4, 8, 16, 32)

    def test_t_min_validation(self):
        with pytest.raises(DomainError):
            default_verification(quick=True, t_min=2.0)
        with pytest.raises(DomainError):
            default_verification(quick=True, t_min=64.0)

    @pytest.mark.parametrize("quick", [False, True])
    def test_trials_validation(self, quick):
        with pytest.raises(DomainError):
            default_verification(trials=0, quick=quick)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(trials=2.5), "trials must be an integer, got 2.5"),
        (dict(trials=True), "trials must be an integer, got True"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(seed="0"), "seed must be an integer, got '0'"),
    ])
    def test_integer_arguments_refused_before_any_check(self, monkeypatch, kwargs,
                                                        message):
        def check(*args, **kw):
            raise AssertionError("a check ran before the refusal")

        monkeypatch.setattr(verification, "exact_binomial_check", check)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            default_verification(**kwargs)


class TestBandCoverCheck:
    def test_large_tolerance_grid(self):
        check = band_cover_check(
            ns=(100, 1000, 10000, 100000),
            gammas=(0.01, 0.02, 0.1, 0.3, 0.49),
            Ts=(64, 256, 575),
        )
        assert check.passed, check.detail
        assert check.metrics["violations"] == 0

    def test_reports_cutoffs_outside_the_band(self, monkeypatch):
        # Rejecting every count reaches frequencies 0 and 1, outside any
        # interior band.
        monkeypatch.setattr(
            verification, "rejection_cutoffs", lambda n, gamma, tol: (0, n + 1)
        )
        check = band_cover_check(ns=(1000,), gammas=(0.1,), Ts=(8.0,))
        assert not check.passed
        assert "cover" in check.detail
