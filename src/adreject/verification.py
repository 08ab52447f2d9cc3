"""Property checks behind ``adreject verify`` and the acceptance tests.

Every check returns a :class:`PropertyCheck` with a pass flag, a short
human-readable detail string (naming the first violating tuple, if
any), and a metrics dict, so callers can print one line per property
and exit nonzero on failure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bench import _make_family, cost_preset
from .bounds import (
    band_edges,
    expected_cost_upper_bound,
    raw_band_edges,
)
from .core import (
    DegenerateStabilityMap,
    DomainError,
    ScoreSet,
    ToleranceSpec,
    anomaly_count,
)
from .detectors import DETECTOR_KINDS, DetectorSpec, fit_detector
from .rejector import empirical_cost, fit, oracle_sweep, predict_batch
from .stability import rejection_cutoffs, stability_tails

__all__ = [
    "PropertyCheck",
    "exact_stability_probability",
    "exact_binomial_check",
    "band_cover_check",
    "band_shape_check",
    "rate_estimator_check",
    "rate_bound_check",
    "cost_bound_check",
    "threshold_speed_check",
    "degenerate_check",
    "default_verification",
]

GRID_NS = (100, 1000, 10000)
GRID_GAMMAS = (0.02, 0.1, 0.3)
GRID_TS = (4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one verification property."""

    name: str
    passed: bool
    detail: str
    elapsed_s: float
    metrics: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.elapsed_s:.1f}s)"


def _timed(name: str, passed: bool, detail: str, t0: float, **metrics) -> PropertyCheck:
    return PropertyCheck(name, passed, detail, time.perf_counter() - t0, dict(metrics))


def exact_stability_probability(psi: float, n: int, gamma: float) -> Fraction:
    """Arbitrary-precision tail probability used as a testing oracle.

    Computes the same binomial upper tail as
    :func:`adreject.stability_tails` with exact rational
    arithmetic: ``q = (1 + n psi) / (n + 2)`` with ``psi`` taken at its
    exact binary-float value, summed over the top ``floor(n gamma)``
    outcomes with big-integer binomials.
    """
    a = anomaly_count(n, gamma)
    if a == 0:
        return Fraction(0)
    q = (1 + n * Fraction(psi)) / (n + 2)
    num, den = q.numerator, q.denominator
    comp = den - num
    total = 0
    for k in range(n - a + 1, n + 1):
        total += math.comb(n, k) * num**k * comp ** (n - k)
    return Fraction(total, den**n)


def exact_binomial_check(
    n_max: int = 200,
    gammas: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2, 0.3, 0.49),
    n_psi: int = 11,
    rtol: float = 1e-10,
) -> PropertyCheck:
    """Fast tail vs. exact rational oracle over an (n, gamma, psi) grid.

    Comparison happens in float space (the oracle is rounded once, so
    probabilities below the double range on both sides agree at 0.0)
    with a 1e-300 denominator floor.
    """
    t0 = time.perf_counter()
    psis = [i / (n_psi - 1) for i in range(n_psi)]
    worst = 0.0
    worst_at = None
    count = 0
    for n in range(1, n_max + 1):
        for gamma in gammas:
            for psi in psis:
                fast = stability_tails(psi, n, gamma)[0]
                exact = float(exact_stability_probability(psi, n, gamma))
                err = abs(fast - exact) / max(exact, 1e-300)
                count += 1
                if err > worst:
                    worst, worst_at = err, (n, gamma, psi)
    passed = worst <= rtol
    detail = f"{count} grid points, worst rel err {worst:.3e}"
    if worst_at is not None:
        detail += f" at (n, gamma, psi)={worst_at}"
    return _timed(
        "exact-binomial-tail", passed, detail, t0, worst_rel_err=worst, points=count
    )


def band_cover_check(
    ns: tuple[int, ...] = GRID_NS,
    gammas: tuple[float, ...] = GRID_GAMMAS,
    Ts: tuple[float, ...] = GRID_TS,
) -> PropertyCheck:
    """Every rejected frequency lies inside [t1, t2]; edges are sharp.

    Cover: the rejected frequencies are exactly ``j / n`` for the counts
    ``k_lo <= j < k_hi`` of :func:`rejection_cutoffs`, so the band covers
    all of them iff ``t1 <= k_lo / n`` and ``(k_hi - 1) / n <= t2`` (or
    nothing is rejected).  That settles every reachable frequency.

    Sharpness: where an edge is interior (not produced by clipping),
    the stability tail at the edge itself already satisfies its
    ``exp(-T)`` guarantee, up to one part in 1e9 of rounding slack.
    """
    t0 = time.perf_counter()
    violations = []
    points = 0
    for n in ns:
        for gamma in gammas:
            for T in Ts:
                t1, t2 = band_edges(n, gamma, T)
                points += n + 1
                try:
                    k_lo, k_hi = rejection_cutoffs(n, gamma, ToleranceSpec(T))
                except DegenerateStabilityMap:  # nothing is ever rejected
                    k_lo, k_hi = n + 1, n + 1
                if k_lo < k_hi and not (t1 <= k_lo / n and (k_hi - 1) / n <= t2):
                    violations.append((n, gamma, T, "cover"))
                    continue
                slack = math.exp(-T) * (1.0 + 1e-9)
                r1, r2 = raw_band_edges(n, gamma, T)
                if 0.0 <= r1 <= 1.0:
                    up, _ = stability_tails(np.asarray([r1]), n, gamma)
                    if up[0] > slack:
                        violations.append((n, gamma, T, "t1-sharpness"))
                if 0.0 <= r2 <= 1.0:
                    _, lo = stability_tails(np.asarray([r2]), n, gamma)
                    if lo[0] > slack:
                        violations.append((n, gamma, T, "t2-sharpness"))
    passed = not violations
    detail = f"{points} training counts, {len(violations)} violations"
    if violations:
        detail += f"; first at (n, gamma, T, kind)={violations[0]}"
    return _timed(
        "rejection-band-cover", passed, detail, t0,
        violations=len(violations), points=points,
    )


def band_shape_check(
    ns: tuple[int, ...] = GRID_NS,
    gammas: tuple[float, ...] = GRID_GAMMAS,
    Ts: tuple[float, ...] = GRID_TS,
    width_n: int = 10**6,
    width_tol: float = 0.01,
) -> PropertyCheck:
    """Band containment, monotone growth in T, and vanishing width.

    At every grid point: t1 <= 1 - gamma <= t2; as T grows the band
    only widens; and at n = ``width_n`` the width t2 - t1 stays at or
    below ``width_tol`` for every (gamma, T) in the grid.
    """
    t0 = time.perf_counter()
    bad = []
    for n in ns:
        for gamma in gammas:
            prev = None
            for T in sorted(Ts):
                t1, t2 = band_edges(n, gamma, T)
                if not (t1 <= 1.0 - gamma + 1e-12 and 1.0 - gamma <= t2 + 1e-12):
                    bad.append(("contains", n, gamma, T))
                if prev is not None:
                    p1, p2 = prev
                    if t1 > p1 + 1e-12 or t2 < p2 - 1e-12:
                        bad.append(("monotone-T", n, gamma, T))
                prev = (t1, t2)
    max_width = 0.0
    for gamma in gammas:
        for T in Ts:
            t1, t2 = band_edges(width_n, gamma, T)
            max_width = max(max_width, t2 - t1)
            if t2 - t1 > width_tol:
                bad.append(("width", width_n, gamma, T))
    passed = not bad
    detail = f"max width at n={width_n}: {max_width:.4f}; {len(bad)} violations"
    if bad:
        detail += f"; first {bad[0]}"
    return _timed(
        "band-shape", passed, detail, t0,
        violations=len(bad), max_width=max_width,
    )


def rate_estimator_check(
    n: int = 5000,
    gammas: tuple[float, ...] = GRID_GAMMAS,
    T: float = 32.0,
    trials: int = 50,
    tol: float = 0.02,
    min_frac: float = 0.9,
    seed: int = 0,
) -> PropertyCheck:
    """Plug-in rejection-rate estimate tracks the held-out rate.

    For each gamma, ``trials`` i.i.d. standard-normal score draws of
    size ``n`` are fit and applied to a fresh draw of the same size;
    the check passes when ``|r_hat - empirical| <= tol`` in at least
    ``min_frac`` of trials for every gamma.
    """
    t0 = time.perf_counter()
    tolspec = ToleranceSpec(T)
    fracs = {}
    worst = (1.0, None)
    for gi, gamma in enumerate(gammas):
        ok = 0
        for t in range(trials):
            rng = np.random.default_rng([seed, gi, t])
            rej = fit(ScoreSet(rng.normal(0.0, 1.0, n), gamma), tolspec)
            emp = float(predict_batch(rej, rng.normal(0.0, 1.0, n)).rejected.mean())
            if abs(rej.estimate.r_hat - emp) <= tol:
                ok += 1
        frac = ok / trials
        fracs[gamma] = frac
        if frac < worst[0]:
            worst = (frac, gamma)
    passed = all(f >= min_frac for f in fracs.values())
    detail = (
        f"within {tol} in " +
        ", ".join(f"{100*f:.0f}% (gamma={g})" for g, f in fracs.items())
    )
    return _timed(
        "rejection-rate-estimator", passed, detail, t0,
        fractions={str(g): f for g, f in fracs.items()},
    )


def rate_bound_check(
    trials: int = 200,
    n: int = 2000,
    T: float = 32.0,
    delta: float = 0.05,
    min_frac: float = 0.95,
    seed: int = 0,
) -> PropertyCheck:
    """Held-out rejection rate stays at or below the bound ``h``.

    The guarantee holds with probability 1 - delta over the training
    draw, so the violation fraction over seeded trials must not exceed
    ``1 - min_frac``.
    """
    t0 = time.perf_counter()
    tolspec = ToleranceSpec(T)
    gammas = GRID_GAMMAS
    ok = 0
    for t in range(trials):
        gamma = gammas[t % len(gammas)]
        rng = np.random.default_rng([seed, 7, t])
        rej = fit(ScoreSet(rng.normal(0.0, 1.0, n), gamma), tolspec, delta=delta)
        emp = float(predict_batch(rej, rng.normal(0.0, 1.0, n)).rejected.mean())
        if emp <= rej.band.h:
            ok += 1
    frac = ok / trials
    passed = frac >= min_frac
    return _timed(
        "rejection-rate-bound", passed,
        f"rate <= h in {100*frac:.1f}% of {trials} trials "
        f"(violation fraction {1-frac:.3f}, delta={delta})",
        t0, fraction=frac, trials=trials, violation_fraction=1 - frac,
    )


def cost_bound_check(
    trials: int = 200,
    n: int = 2000,
    T: float = 32.0,
    min_frac: float = 0.99,
    seed: int = 0,
) -> PropertyCheck:
    """Held-out cost per example stays at or below the certified bound.

    Labeled Gaussian-mixture data, uniform error costs with the
    rejection cost at its admissibility cap, detectors cycled across
    trials; 80/20 split, bound computed from the training fold only.
    """
    t0 = time.perf_counter()
    tolspec = ToleranceSpec(T)
    gamma = 0.1
    costs = cost_preset("q1", gamma)
    n_train = int(n * 0.8)
    ok = 0
    for t in range(trials):
        kind = DETECTOR_KINDS[t % len(DETECTOR_KINDS)]
        rng = np.random.default_rng([seed, 13, t])
        X, y = _make_family(rng, "gauss", n, 4, gamma)
        det = fit_detector(DetectorSpec(kind=kind, seed=t), X[:n_train])
        rej = fit(ScoreSet(det.score(X[:n_train]), gamma), tolspec)
        est = rej.estimate
        bound = expected_cost_upper_bound(
            est.below_band, est.up_to_band, gamma, costs
        )
        batch = predict_batch(rej, det.score(X[n_train:]))
        cost = empirical_cost(
            batch.base_anomaly, batch.rejected, y[n_train:].astype(bool), costs
        )
        if cost <= bound:
            ok += 1
    frac = ok / trials
    passed = frac >= min_frac
    return _timed(
        "expected-cost-bound", passed,
        f"cost <= bound in {100*frac:.1f}% of {trials} trials "
        f"across {len(DETECTOR_KINDS)} detectors",
        t0, fraction=frac, trials=trials,
    )


def threshold_speed_check(
    n: int = 20000,
    repeats: int = 10,
    min_ratio: float = 100.0,
    T: float = 32.0,
    seed: int = 0,
) -> PropertyCheck:
    """Constant-threshold setup beats the exhaustive sweep by >= 100x.

    Times the label-free threshold step (tolerance constant plus the
    rejection-rate estimate) against the label-using exhaustive
    threshold sweep on the same ``n`` training scores; both are
    medians over ``repeats`` runs.
    """
    from .bounds import rejection_rate_estimate

    t0 = time.perf_counter()
    rng = np.random.default_rng([seed, 21])
    gamma = 0.1
    n_anom = round(n * gamma)
    scores = np.concatenate(
        [rng.normal(0.0, 1.0, n - n_anom), rng.normal(3.0, 1.0, n_anom)]
    )
    labels = np.concatenate(
        [np.zeros(n - n_anom, dtype=bool), np.ones(n_anom, dtype=bool)]
    )
    perm = rng.permutation(n)
    scores, labels = scores[perm], labels[perm]
    train = ScoreSet(scores, gamma)
    tolspec = ToleranceSpec(T)
    rej = fit(train, tolspec)
    costs = cost_preset("q1", gamma)
    fast_times = []
    for _ in range(repeats):
        s = time.perf_counter()
        tol_i = ToleranceSpec(T)
        rejection_rate_estimate(train, tol_i)
        fast_times.append(time.perf_counter() - s)
    sweep_times = []
    for _ in range(repeats):
        s = time.perf_counter()
        oracle_sweep(rej, labels, costs)
        sweep_times.append(time.perf_counter() - s)
    fast_med = float(np.median(fast_times))
    sweep_med = float(np.median(sweep_times))
    ratio = sweep_med / max(fast_med, 1e-12)
    passed = ratio >= min_ratio
    return _timed(
        "threshold-step-speed", passed,
        f"constant step {1000*fast_med:.1f} ms vs sweep {sweep_med:.2f} s "
        f"(ratio {ratio:.0f}x, n={n})",
        t0, ratio=ratio, fast_median_s=fast_med, sweep_median_s=sweep_med,
    )


def degenerate_check(seed: int = 0) -> PropertyCheck:
    """gamma = 0 and all-tied scores take documented sentinel paths.

    gamma = 0: infinite decision threshold, nothing predicted anomalous
    or rejected, rate estimate (1, 1) with a zero r_hat, degenerate
    flag set.  All-tied scores: every operation runs and decisions are
    identical across the tied block.
    """
    t0 = time.perf_counter()
    problems = []
    tolspec = ToleranceSpec(32.0)
    rng = np.random.default_rng([seed, 33])
    try:
        rej = fit(ScoreSet(rng.normal(0.0, 1.0, 200), 0.0), tolspec)
        if not math.isinf(rej.threshold):
            problems.append("gamma=0: threshold not +inf")
        if not rej.degenerate:
            problems.append("gamma=0: degenerate flag not set")
        if (rej.estimate.below_band, rej.estimate.up_to_band) != (1.0, 1.0):
            problems.append("gamma=0: estimate not (1, 1)")
        batch = predict_batch(rej, rng.normal(0.0, 1.0, 500))
        if batch.base_anomaly.any() or batch.rejected.any():
            problems.append("gamma=0: produced anomaly/reject decisions")
        predict_batch(rej, 3.5)
    except Exception as exc:  # noqa: BLE001 - the property is "no crash"
        problems.append(f"gamma=0 raised {type(exc).__name__}: {exc}")
    try:
        tied = ScoreSet(np.full(60, 2.5), 0.1)
        rej = fit(tied, tolspec)
        batch = predict_batch(rej, np.asarray([2.5, 2.5, 0.0, 9.0]))
        if batch.rejected[0] != batch.rejected[1]:
            problems.append("ties: tied inputs got different decisions")
        costs = cost_preset("q1", 0.1)
        labels = np.zeros(60, dtype=bool)
        labels[:6] = True
        oracle_sweep(rej, labels, costs)
    except Exception as exc:  # noqa: BLE001
        problems.append(f"ties raised {type(exc).__name__}: {exc}")
    passed = not problems
    detail = "gamma=0 and all-tied paths behave" if passed else "; ".join(problems)
    return _timed("degenerate-inputs", passed, detail, t0)


def default_verification(
    trials: int = 200,
    delta: float = 0.05,
    quick: bool = False,
    seed: int = 0,
    t_min: float = 4.0,
) -> list[PropertyCheck]:
    """The property suite behind ``adreject verify``.

    ``t_min`` drops grid T values below it (it must itself be >= 4;
    the CLI refuses smaller values before getting here).  ``trials``
    must be >= 1; ``quick`` fixes the trial counts instead.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 4.0 <= t_min <= max(GRID_TS):
        raise DomainError(
            f"t_min must lie in [4, {max(GRID_TS)}], got {t_min}"
        )
    ts = tuple(T for T in GRID_TS if T >= t_min)
    if quick:
        return [
            exact_binomial_check(n_max=40),
            band_cover_check(ns=(100, 1000), Ts=ts),
            band_shape_check(ns=(100, 1000), Ts=ts),
            rate_estimator_check(n=1000, trials=10, tol=0.03, min_frac=0.7, seed=seed),
            rate_bound_check(trials=20, delta=delta, min_frac=0.9, seed=seed),
            cost_bound_check(trials=12, n=600, min_frac=0.9, seed=seed),
            degenerate_check(seed=seed),
        ]
    return [
        exact_binomial_check(),
        band_cover_check(Ts=ts),
        band_shape_check(Ts=ts),
        rate_estimator_check(seed=seed),
        rate_bound_check(trials=trials, delta=delta, seed=seed),
        cost_bound_check(trials=trials, seed=seed),
        degenerate_check(seed=seed),
    ]
