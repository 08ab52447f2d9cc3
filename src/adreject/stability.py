"""Stability-based confidence for anomaly scores.

Given ``n`` training scores and a contamination factor ``gamma``, the
probability that a score with training frequency ``psi_n`` would be
ranked among the top ``floor(n * gamma)`` scores of a resampled training
set is a binomial upper tail:

    P(anomaly | psi_n) = P(X >= n - a + 1),   X ~ Binomial(n, q)

with ``a = floor(n * gamma)`` and ``q = (1 + n * psi_n) / (2 + n)``.
Confidence in a prediction is ``|2 P - 1|``.  A prediction is rejected
when ``P`` and ``1 - P``, each computed as its own tail, are both at
least ``exp(-T)``.  ``P`` depends only on the training count
``j = n * psi_n``, so the rule is ``k_lo <= j < k_hi`` with the two
counts of :func:`rejection_cutoffs`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaincinv, gammaln

from .core import (
    _BETAINC_TRUST_FLOOR,
    DegenerateStabilityMap,
    DomainError,
    NonFiniteInput,
    ScoreSet,
    ToleranceSpec,
    anomaly_count,
    validate_domain,
)

__all__ = [
    "training_frequency",
    "stability_tails",
    "confidence",
    "rejection_cutoffs",
    "stability_inverse",
]


def training_frequency(train: ScoreSet, s):
    """Fraction of training scores less than or equal to ``s``.

    Ties count: a score equal to a training score includes it.

    Parameters
    ----------
    train : ScoreSet
    s : float or array-like
        Query score(s); must be finite.

    Returns
    -------
    float or ndarray
        ``|{i : s_i <= s}| / n``, in ``[0, 1]``.
    """
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("query scores must be finite")
    psi = np.searchsorted(train.sorted_scores, arr, side="right") / train.n
    return float(psi) if arr.ndim == 0 else psi


@lru_cache(maxsize=8)
def _log_binom_coeffs(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome indices ``k..n`` and their log binomial coefficients."""
    i = np.arange(k, n + 1, dtype=float)
    lc = gammaln(n + 1.0) - gammaln(i + 1.0) - gammaln(n - i + 1.0)
    i.setflags(write=False)
    lc.setflags(write=False)
    return i, lc


# A tail sum keeps the terms within this many nats of its leading term.
# Each term further down is below exp(-40) ~ 4e-18 of the running sum,
# under half an ulp, so adding it in index order changes nothing.
_TAIL_NATS = 40.0


def _log_binom_tail_many(k: int, n: int, qs: np.ndarray) -> np.ndarray:
    """log P(X >= k) by log-space summation, vectorized over ``qs``.

    Terms are added in index order from ``k``.  Where the successive-term
    ratio ``r = (n-k)/(k+1) * q/(1-q)`` at ``k`` is below 1 the terms fall
    at least geometrically, so only the first ``ceil(40 / -ln r) + 1``
    can change the sum; elsewhere all ``n - k + 1`` are summed.  Points
    are grouped by that count rounded up to a power of two, which keeps
    the work per point bounded and the number of groups logarithmic.
    """
    if k <= 0:
        return np.zeros(qs.shape)
    if k > n:
        return np.full(qs.shape, -np.inf)
    i, lc = _log_binom_coeffs(k, n)
    ratio = (n - k) / (k + 1) * qs / (1.0 - qs)
    terms = np.full(qs.shape, float(i.size))
    falling = ratio < 1.0
    with np.errstate(divide="ignore"):  # ratio 0 at k == n: one term
        terms[falling] = np.ceil(_TAIL_NATS / -np.log(ratio[falling])) + 1.0
    widths = np.minimum(np.exp2(np.ceil(np.log2(terms))), i.size).astype(np.intp)
    out = np.empty(qs.shape)
    for w in np.unique(widths):
        sel = widths == w
        out[sel] = _log_sum_terms(i[:w], lc[:w], n, qs[sel])
    return out


def _log_sum_terms(i: np.ndarray, lc: np.ndarray, n: int, qs: np.ndarray) -> np.ndarray:
    """log of the sum over ``i`` of C(n, i) q^i (1-q)^(n-i), for each q."""
    out = np.empty(qs.shape)
    # Chunk so the (terms x points) matrix stays modest in memory.
    step = max(1, 4_000_000 // i.size)
    for lo in range(0, qs.size, step):
        qc = qs[lo:lo + step]
        t = (
            lc[:, None]
            + i[:, None] * np.log(qc)[None, :]
            + (n - i)[:, None] * np.log1p(-qc)[None, :]
        )
        m = t.max(axis=0)
        # cumsum adds in index order for any number of points; sum(axis=0)
        # switches to pairwise summation when there is only one.
        out[lo:lo + step] = m + np.log(np.exp(t - m).cumsum(axis=0)[-1])
    return out


def _log_binom_tail(k: int, n: int, q: float) -> float:
    """log P(X >= k) by compensated summation in log space."""
    return float(_log_binom_tail_many(k, n, np.asarray([q], dtype=float))[0])


def _binom_upper_tail(k: int, n: int, q):
    """P(X >= k) for X ~ Binomial(n, q) with ``1 <= k <= n``, vectorized
    over q.

    Uses the regularized incomplete beta identity
    ``P(X >= k) = I_q(k, n - k + 1)``.  scipy reports no error estimate,
    so the log-space summation (good to ~1e-12) stands in whenever the
    beta routine returns a non-finite value or anything below the
    magnitude where its accuracy has been spot-checked.
    """
    q = np.asarray(q, dtype=float)
    out = np.asarray(betainc(float(k), n - float(k) + 1.0, q), dtype=float)
    bad = ~np.isfinite(out) | (out < _BETAINC_TRUST_FLOOR)
    if np.any(bad):
        out[bad] = np.exp(_log_binom_tail_many(k, n, q[bad]))
    return out


def _binom_lower_tail(m: int, n: int, q):
    """P(X <= m) for X ~ Binomial(n, q), computed directly (not as 1 - upper)."""
    # P(X <= m) = P(Y >= n - m) for Y ~ Binomial(n, 1 - q).
    return _binom_upper_tail(n - m, n, 1.0 - np.asarray(q, dtype=float))


def _q_of_psi(psi, n: int):
    return (1.0 + n * np.asarray(psi, dtype=float)) / (2.0 + n)


def _check_psi(psi) -> np.ndarray:
    arr = np.asarray(psi, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("psi_n must lie in [0, 1]")
    return arr


def stability_tails(psi_n, n: int, gamma: float):
    """Upper and lower binomial tails of the stability distribution.

    Parameters
    ----------
    psi_n : float or array-like
        Training frequency, in ``[0, 1]``.
    n : int
        Training set size.
    gamma : float
        Contamination factor, in ``[0, 0.5)``.

    Returns
    -------
    (upper, lower) : pair of float or ndarray
        ``upper = P(X >= n - a + 1)`` with ``a = floor(n * gamma)`` and
        ``X ~ Binomial(n, (1 + n * psi_n) / (2 + n))`` is the anomaly
        probability: the chance that the score would be predicted
        anomalous under a resampled training set.  ``lower = P(X <= n - a)``
        is its complement, computed directly so that values near one keep
        full relative accuracy.  ``(0, 1)`` when ``a == 0``.
    """
    arr = _check_psi(psi_n)
    validate_domain(n=n, gamma=gamma)
    a = anomaly_count(n, gamma)
    if a == 0:
        up = np.zeros_like(arr)
        lo = np.ones_like(arr)
    else:
        q = _q_of_psi(arr, n)
        up = _binom_upper_tail(n - a + 1, n, q)
        lo = _binom_lower_tail(n - a, n, q)
    if arr.ndim == 0:
        return float(up), float(lo)
    return up, lo


def confidence(p_anomaly):
    """Confidence of the base prediction: ``|2 p - 1|``."""
    p = np.asarray(p_anomaly, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0) or not np.all(np.isfinite(p)):
        raise DomainError("p_anomaly must lie in [0, 1]")
    out = np.abs(2.0 * p - 1.0)
    return float(out) if p.ndim == 0 else out


def _tail_at(k: int, n: int, q: float) -> float:
    """:func:`_binom_upper_tail` at one point with ``1 <= k <= n``.

    The same value bit for bit; a trusted incomplete-beta result skips
    the array set-up, which dominates at a single point.
    """
    p = float(betainc(float(k), n - float(k) + 1.0, q))
    if math.isfinite(p) and p >= _BETAINC_TRUST_FLOOR:
        return p
    return float(_binom_upper_tail(k, n, q))


def _first_count(n: int, reaches, guess: float) -> int:
    """Smallest ``j`` in ``[0, n]`` with ``reaches(j)``, or ``n + 1`` if
    none does; ``reaches`` must be monotone in ``j``.

    Steps outward from ``guess`` with doubling strides until the answer
    is bracketed, then bisects: a close guess costs two evaluations, a
    poor one only a few more than plain bisection.
    """
    lo, hi = -1, n + 1  # reaches(lo) is false and reaches(hi) true
    j = int(min(max(guess, 0.0), float(n))) if math.isfinite(guess) else n // 2
    step = 1
    if reaches(j):
        hi = j
        while hi - step > lo and reaches(hi - step):
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    else:
        lo = j
        while lo + step < hi and not reaches(lo + step):
            lo += step
            step *= 2
        hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def rejection_cutoffs(n: int, gamma: float, tol: ToleranceSpec) -> tuple[int, int]:
    """Training counts bounding the rejection band.

    A score with training frequency ``psi_n = j / n`` is rejected iff
    ``k_lo <= j < k_hi``.  ``k_lo`` is the first ``j`` whose upper tail
    reaches ``exp(-T)``; ``k_hi`` the first whose lower tail falls below
    it.  The upper tail rises and the lower falls with ``j``, so each is
    an integer search over ``[0, n]`` (``n + 1`` means never), started at
    the continuous inverse of the tail and decided on the tails exactly
    as :func:`stability_tails` computes them at ``psi_n = j / n``.
    Deciding the upper edge on the lower tail keeps ``1 - exp(-T)`` from
    rounding to 1 at large ``T``.  When ``floor(n * gamma) == 0`` the
    upper tail is 0 and the lower 1 at every count, so the pair is
    ``(n + 1, n + 1)``: nothing is rejected.
    """
    validate_domain(n=n, gamma=gamma)
    edge = tol.band_edge
    a = anomaly_count(n, gamma)
    if a == 0:
        return n + 1, n + 1
    k = n - a + 1

    def q(j: int) -> float:
        return (1.0 + n * (j / n)) / (2.0 + n)

    # q(j) = (1 + j) / (n + 2) in exact arithmetic, so a tail's inverse
    # in q gives the count where the search starts.
    q_lo = float(betaincinv(k, a, edge))
    q_hi = 1.0 - float(betaincinv(a, k, edge))
    k_lo = _first_count(
        n, lambda j: _tail_at(k, n, q(j)) >= edge, (n + 2) * q_lo - 1.0
    )
    k_hi = _first_count(
        n, lambda j: _tail_at(a, n, 1.0 - q(j)) < edge, (n + 2) * q_hi - 1.0
    )
    return k_lo, k_hi


def stability_inverse(
    target_p: float,
    n: int,
    gamma: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Smallest training frequency whose stability probability reaches
    ``target_p``.

    The stability probability is non-decreasing in ``psi_n``, so the
    preimage boundary is found by bisection.  Targets below ``1e-8`` are
    bracketed on the log of the tail to keep relative accuracy.

    Parameters
    ----------
    target_p : float
        Target probability, in ``(0, 1)``.
    n, gamma
        As in :func:`stability_tails`; ``floor(n * gamma)`` must be
        positive.
    tol : float
        Absolute tolerance on ``psi_n``.
    max_iter : int
        Bisection iteration cap.

    Returns
    -------
    float
        ``inf {psi : P(psi) >= target_p}``, clipped to 0 when the target
        is already met at ``psi = 0`` and to 1 when it is never met.

    Raises
    ------
    DegenerateStabilityMap
        If ``floor(n * gamma) == 0``: the map is identically zero.
    """
    validate_domain(n=n, gamma=gamma)
    if not (0.0 < target_p < 1.0):
        raise DomainError(f"target_p must lie in (0, 1), got {target_p}")
    a = anomaly_count(n, gamma)
    if a == 0:
        raise DegenerateStabilityMap(
            f"floor(n * gamma) == 0 for n={n}, gamma={gamma}"
        )
    k = n - a + 1
    log_mode = target_p < 1e-8
    if log_mode:
        target = math.log(target_p)

        def reaches(psi: float) -> bool:
            return _log_binom_tail(k, n, float(_q_of_psi(psi, n))) >= target

    else:

        def reaches(psi: float) -> bool:
            return float(_binom_upper_tail(k, n, _q_of_psi(psi, n))) >= target_p

    if reaches(0.0):
        return 0.0
    if not reaches(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi
