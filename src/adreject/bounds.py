"""Certified bounds on rejection behaviour.

Three guarantees are computed from training data alone:

* a closed-form frequency band ``[t1, t2]`` that covers the rejection
  region: every rejected score has its training frequency inside it;
* a plug-in estimate ``r_hat`` of the rejection rate: the fraction of
  training scores whose count lies between the two rejection cutoffs;
* a distribution-free upper bound ``h`` on the true rejection rate and
  an upper bound on the expected per-example prediction cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CostSpec,
    DomainError,
    ScoreSet,
    ToleranceSpec,
    _as_float,
    validate_domain,
)
from .stability import (
    rejection_cutoffs,
    stability_inverse,  # noqa: F401 -- perfbench/spans.py times calls through this name
)

__all__ = [
    "band_edges",
    "raw_band_edges",
    "RejectionBandSpec",
    "rejection_band",
    "RateEstimate",
    "rejection_rate_estimate",
    "expected_cost_upper_bound",
]


def band_edges(n: int, gamma: float, T: float) -> tuple[float, float]:
    """Closed-form frequency band ``[t1, t2]`` covering all rejections.

    A training frequency at or below ``t1`` forces the stability
    probability down to ``exp(-T)`` or less (a confident normal), and
    one at or above ``t2`` forces it to ``1 - exp(-T)`` or more (a
    confident anomaly), so every rejected score has its frequency
    strictly inside the band.  Both edges solve the same Hoeffding
    inequality ``2 n d(psi)^2 >= T`` for the relevant tail deviation
    ``d``; with ``g = gamma`` and ``r = (1 + 2/n) sqrt(T / (2n))``:

        t1 = (1-g)(1 + 2/n) + 2/n^2 - r
        t2 = (1-g)(1 + 2/n) - 1/n   + r

    both clipped to ``[0, 1]``.  The edges are written with ``1/n``
    factors so no intermediate grows like ``n**3``.
    """
    t1, t2 = raw_band_edges(n, gamma, T)
    return min(max(t1, 0.0), 1.0), min(max(t2, 0.0), 1.0)


def raw_band_edges(n: int, gamma: float, T: float) -> tuple[float, float]:
    """The band edges before clipping to ``[0, 1]``.

    Useful for telling a genuinely interior edge from a clipped one:
    guarantees at an edge are vacuous when the raw value lies outside
    the unit interval.
    """
    validate_domain(n=n, gamma=gamma, T=T)
    inv = 1.0 / n
    one_m_g = 1.0 - gamma
    root = math.sqrt((T * inv / 2.0) * (1.0 + 2.0 * inv) ** 2)
    center = one_m_g * (1.0 + 2.0 * inv)
    t1 = center + 2.0 * inv * inv - root
    t2 = center - inv + root
    return t1, t2


def _dkw_term(n: int, delta: float) -> float:
    return 2.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * n))


@dataclass(frozen=True)
class RejectionBandSpec:
    """Frequency band plus the distribution-free rejection-rate bound.

    ``h = t2 - t1 + 2 sqrt(ln(2/delta) / (2n))``, clipped to ``[0, 1]``;
    the true rejection rate is at most ``h`` with probability at least
    ``1 - delta`` over the training sample.
    """

    n: int
    gamma: float
    T: float
    delta: float
    t1: float
    t2: float
    h: float

    def __post_init__(self) -> None:
        validate_domain(n=self.n, gamma=self.gamma, T=self.T, delta=self.delta)
        if not (self.t1 <= 1.0 - self.gamma <= self.t2):
            raise DomainError(
                f"band [{self.t1}, {self.t2}] must straddle 1 - gamma"
            )


def rejection_band(
    n: int, gamma: float, T: float, delta: float = 0.05
) -> RejectionBandSpec:
    """Build the band spec for a training size and tolerance; ``delta``
    is taken as ``gamma`` and ``T`` are (``core._as_float``)."""
    delta = _as_float(delta, "delta")
    validate_domain(delta=delta)
    t1, t2 = band_edges(n, gamma, T)
    h = min(max(t2 - t1 + _dkw_term(n, delta), 0.0), 1.0)
    return RejectionBandSpec(n=n, gamma=gamma, T=T, delta=delta, t1=t1, t2=t2, h=h)


@dataclass(frozen=True)
class RateEstimate:
    """Plug-in rejection-rate estimate from training frequencies.

    ``below_band`` is the empirical mass of training scores whose
    stability stays below the band (confident normals); ``up_to_band``
    is the mass not above it; their difference is ``r_hat``.
    """

    below_band: float
    up_to_band: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.below_band <= self.up_to_band <= 1.0):
            raise DomainError(
                f"need 0 <= A <= B <= 1, got A={self.below_band}, B={self.up_to_band}"
            )

    @property
    def r_hat(self) -> float:
        return self.up_to_band - self.below_band


def rejection_rate_estimate(train: ScoreSet, tol: ToleranceSpec) -> RateEstimate:
    """Estimate the rejection rate from the training sample.

    The band is pulled back to the integer counts ``k_lo <= j < k_hi``
    of :func:`rejection_cutoffs`, found by an integer search over ``j``
    in ``[0, n]`` that evaluates a few dozen tails at most.  ``A`` is the
    fraction of training scores whose own count
    ``j_i = |{s <= s_i}|`` lies below ``k_lo`` (confident normals),
    ``B`` the fraction below ``k_hi``, and ``r_hat = B - A``, which is
    exactly the fraction of training scores :func:`adreject.rejector.fit`
    rejects in sample.  ``fit`` counts the same cutoffs in its table
    instead of searching; this is the standalone label-free step.  Works
    for every ``T`` the tolerance accepts up to the ``1e-250`` floor of
    the tail routine (``T`` about 575).

    Raises
    ------
    DegenerateStabilityMap
        If ``floor(n * gamma) == 0``: nothing is ever rejected there, and
        ``fit`` reports the estimate ``(1, 1)``.
    """
    k_lo, k_hi = rejection_cutoffs(train.n, train.gamma, tol)
    return RateEstimate(
        below_band=_count_below(train, k_lo), up_to_band=_count_below(train, k_hi)
    )


def _count_below(train: ScoreSet, k: int) -> float:
    """Fraction of training scores whose count ``j_i`` is below ``k``.

    ``j_i < k`` holds exactly for the scores strictly below the ``k``-th
    smallest, ties included, since that one and its ties count at least
    ``k``.
    """
    if k <= 0:
        return 0.0
    if k > train.n:
        return 1.0
    ss = train.sorted_scores
    return float(np.searchsorted(ss, ss[k - 1], side="left") / train.n)


def expected_cost_upper_bound(
    below_band: float, up_to_band: float, gamma: float, costs: CostSpec
) -> float:
    """Upper bound on the expected per-example cost.

    With ``A = below_band`` and ``B = up_to_band``:

        min(gamma, A) * c_fn + (1 - B) * c_fp + (B - A) * c_r

    False negatives can claim at most the smaller of the anomaly mass
    and the confident-normal mass; false positives at most the mass
    above the band; everything in between pays the rejection cost.
    ``DomainError`` unless ``(A, B)`` make a :class:`RateEstimate` and
    ``gamma`` lies in ``[0, 0.5)``.
    """
    RateEstimate(below_band, up_to_band)
    validate_domain(gamma=gamma)
    return (
        min(gamma, below_band) * costs.c_fn
        + (1.0 - up_to_band) * costs.c_fp
        + (up_to_band - below_band) * costs.c_r
    )
