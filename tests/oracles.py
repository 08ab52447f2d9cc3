"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (loops,
exact rational or high-precision decimal arithmetic) and shares no code
with the package internals beyond the public parameter conventions.
"""

from __future__ import annotations

import bisect
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
from scipy.special import betainc, gammaln


def brute_binom_upper_tail(k: int, n: int, q: Fraction) -> Fraction:
    """P(X >= k), X ~ Binomial(n, q), by term recurrence in exact rationals."""
    if k <= 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    # term(j) = C(n, j) q^j (1-q)^(n-j), built iteratively from term(k).
    term = Fraction(1)
    for j in range(k):
        term *= Fraction(n - j, j + 1)
    term *= q**k * (1 - q) ** (n - k)
    total = term
    for j in range(k, n):
        term *= Fraction(n - j, j + 1) * q / (1 - q)
        total += term
    return total


def snapped_floor(x: float, snap: float = 1e-9) -> int:
    """floor(x), except values within ``snap`` of an integer round to it."""
    r = round(x)
    if abs(x - r) <= snap:
        return int(r)
    return math.floor(x)


def brute_stability(psi: float, n: int, gamma: float) -> Fraction:
    """Exact anomaly-stability probability at training frequency psi."""
    a = snapped_floor(n * gamma)
    if a == 0:
        return Fraction(0)
    q = (1 + n * Fraction(psi)) / (n + 2)
    return brute_binom_upper_tail(n - a + 1, n, q)


def full_range_log_binom_tail(k: int, n: int, qs: np.ndarray) -> np.ndarray:
    """log P(X >= k) for each q, summing every term ``k..n`` in index order.

    The package's log-space term formula and order of additions with no
    term left out, so a truncated sum must reproduce it bit for bit.
    """
    if k <= 0:
        return np.zeros(qs.shape)
    if k > n:
        return np.full(qs.shape, -np.inf)
    i = np.arange(k, n + 1, dtype=float)
    lc = gammaln(n + 1.0) - gammaln(i + 1.0) - gammaln(n - i + 1.0)
    out = np.empty(qs.shape)
    step = max(1, 4_000_000 // i.size)
    for lo in range(0, qs.size, step):
        qc = qs[lo:lo + step]
        t = (
            lc[:, None]
            + i[:, None] * np.log(qc)[None, :]
            + (n - i)[:, None] * np.log1p(-qc)[None, :]
        )
        m = t.max(axis=0)
        e = np.exp(t - m)
        acc = e[0].copy()
        for row in e[1:]:
            acc += row
        out[lo:lo + step] = m + np.log(acc)
    return out


def reject_from_tails(upper, lower, T: float) -> np.ndarray:
    """Per-query rejection rule: both tails, each computed directly, at or
    above ``exp(-T)``, i.e. the anomaly probability in the closed band
    ``[exp(-T), 1 - exp(-T)]`` without forming ``1 - exp(-T)``."""
    edge = math.exp(-T)
    return (np.asarray(upper) >= edge) & (np.asarray(lower) >= edge)


def bisection_rate_estimate(scores, gamma: float, T: float):
    """``(A, B)`` of the rate estimate by float bisection on psi.

    ``exp(-T)`` and ``1 - exp(-T)`` are pulled back through the upper
    tail to frequencies ``psi_lo, psi_hi`` (absolute tolerance 1e-12,
    log-space comparison below 1e-8), and ``A, B`` are the fractions of
    in-sample frequencies at or below them.  ``None`` when
    ``floor(n * gamma) == 0``.
    """
    n = len(scores)
    a = snapped_floor(n * gamma)
    if a == 0:
        return None
    k = n - a + 1

    def q(psi: float) -> float:
        return (1.0 + n * psi) / (2.0 + n)

    def upper(psi: float) -> float:
        p = float(betainc(k, n - k + 1.0, q(psi)))
        if not (math.isfinite(p) and p >= 1e-250):
            p = math.exp(full_range_log_binom_tail(k, n, np.asarray([q(psi)]))[0])
        return p

    def inverse(target: float) -> float:
        if target < 1e-8:
            def reaches(psi):
                log_p = full_range_log_binom_tail(k, n, np.asarray([q(psi)]))[0]
                return log_p >= math.log(target)
        else:
            def reaches(psi):
                return upper(psi) >= target
        if reaches(0.0):
            return 0.0
        if not reaches(1.0):
            return 1.0
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if reaches(mid):
                hi = mid
            else:
                lo = mid
        return hi

    edge = math.exp(-T)
    psis = sorted(sum(1 for v in scores if v <= s) / n for s in scores)
    below = bisect.bisect_right(psis, inverse(edge)) / n
    up_to = bisect.bisect_right(psis, inverse(1.0 - edge)) / n
    return below, up_to


def exact_tail_numerators(j: int, n: int, a: int) -> tuple[int, int]:
    """``(U, L)``: the upper tail ``P(X >= n - a + 1)`` and the lower tail
    ``P(X <= n - a)`` of ``X ~ Binomial(n, q)`` at ``q = (1 + j) / (n + 2)``,
    each times ``(n + 2)**n``, so both are integers.

    ``U = sum_{i >= n-a+1} C(n, i) (1 + j)**i (n + 1 - j)**(n - i)``, and the
    terms over all ``i`` sum to ``(n + 2)**n``, so ``L`` is the rest.
    """
    k = n - a + 1
    up, power = 0, (1 + j) ** k
    for i in range(k, n + 1):
        up += math.comb(n, i) * power * (n + 1 - j) ** (n - i)
        power *= 1 + j
    return up, (n + 2) ** n - up


def exact_cutoff_mismatches(n: int, a: int, edge: float, k_lo: int,
                            k_hi: int) -> list[str]:
    """The sides of ``k_lo`` and ``k_hi`` that exact arithmetic refutes.

    ``k_lo`` must be the first count ``j`` in ``[0, n]`` whose upper tail
    reaches ``edge`` and ``k_hi`` the first whose lower tail falls below
    it, ``n + 1`` when none does.  The tails are monotone in ``j``, so
    only the counts on either side of each cutoff are evaluated, with
    ``a = floor(n * gamma) >= 1``.  ``edge`` is a float, hence a dyadic
    rational, and each comparison is one of integers.
    """
    e = Fraction(edge)
    total = (n + 2) ** n

    def reaches(numerator: int) -> bool:  # numerator / total >= edge
        return numerator * e.denominator >= e.numerator * total

    wrong = []
    for name, cut, side, want_at_cut in (("k_lo", k_lo, 0, True), ("k_hi", k_hi, 1, False)):
        if not 0 <= cut <= n + 1:
            wrong.append(f"{name}={cut} is not a count in [0, n + 1]")
        for j, want in ((cut - 1, not want_at_cut), (cut, want_at_cut)):
            if 0 <= j <= n and reaches(exact_tail_numerators(j, n, a)[side]) != want:
                wrong.append(f"{name}={cut}: tail at j={j} {'<' if want else '>='} edge")
    return wrong


def brute_training_frequency(train_scores, s: float) -> float:
    count = sum(1 for v in train_scores if v <= s)
    return count / len(train_scores)


def decimal_band_edges(n: int, gamma: float, T: float) -> tuple[Decimal, Decimal]:
    """Band edges in 50-digit decimal arithmetic, before clipping."""
    getcontext().prec = 50
    dn = Decimal(n)
    dg = Decimal(repr(gamma))
    dT = Decimal(repr(T))
    root = (dT / (2 * dn)).sqrt() * (1 + 2 / dn)
    center = (1 - dg) * (1 + 2 / dn)
    t1 = center + 2 / (dn * dn) - root
    t2 = center - 1 / dn + root
    return t1, t2


def brute_cost(base_anomaly, rejected, labels, c_fp: float, c_fn: float,
               c_r: float) -> float:
    total = 0.0
    for b, r, y in zip(base_anomaly, rejected, labels):
        if r:
            total += c_r
        elif b and not y:
            total += c_fp
        elif not b and y:
            total += c_fn
    return total / len(labels)


def brute_knn_scores(train: np.ndarray, queries: np.ndarray, k: int) -> list[float]:
    """Distance to the k-th nearest neighbor, one exact match excluded."""
    out = []
    for x in queries:
        dists = sorted(float(np.linalg.norm(x - t)) for t in train)
        if dists[0] == 0.0:
            dists = dists[1:]
        out.append(dists[k - 1])
    return out


def brute_hbos_scores(train: np.ndarray, queries: np.ndarray,
                      n_bins: int) -> list[float]:
    """Sum over features of -log Laplace-smoothed bin density."""
    n, d = train.shape
    feat = []
    for j in range(d):
        col = train[:, j]
        lo, hi = float(col.min()), float(col.max())
        if lo == hi:
            feat.append(None)
            continue
        edges = [lo + (hi - lo) * i / n_bins for i in range(n_bins + 1)]
        counts = [0] * n_bins
        for v in col:
            b = min(int((v - lo) / (hi - lo) * n_bins), n_bins - 1)
            counts[b] += 1
        feat.append((lo, hi, counts))
    out = []
    for x in queries:
        s = 0.0
        for j in range(d):
            if feat[j] is None:
                continue
            lo, hi, counts = feat[j]
            b = int((x[j] - lo) / (hi - lo) * n_bins)
            b = min(max(b, 0), n_bins - 1)
            s += -np.log((counts[b] + 1) / (n + n_bins))
        out.append(float(s))
    return out


_EULER_GAMMA = 0.5772156649015329


def _reference_path_norm(m: float) -> float:
    if m <= 1.0:
        return 0.0
    if m == 2.0:
        return 1.0
    return 2.0 * (math.log(m - 1.0) + _EULER_GAMMA) - 2.0 * (m - 1.0) / m


def reference_iforest_scores(train: np.ndarray, queries: np.ndarray,
                             n_trees: int = 100, subsample: int = 256,
                             seed: int = 0) -> np.ndarray:
    """Isolation-forest scores, one tree at a time.

    The per-tree implementation the package's flat forest replaced: the
    same seeded build (lexicographic row order, subsample, recursive
    splits), then each tree walks all queries with a growing path and
    adds the leaf's path norm through ``np.vectorize``; tree paths are
    summed in tree order.
    """
    train = np.asarray(train, dtype=float)
    queries = np.asarray(queries, dtype=float)
    n = train.shape[0]
    Xs = train[np.lexsort(train.T[::-1])]
    sub = min(subsample, n)
    max_depth = int(math.ceil(math.log2(sub))) if sub > 1 else 1
    rng = np.random.default_rng(seed)
    path_norm = np.vectorize(_reference_path_norm, otypes=[float])

    def build_tree(X):
        feat, thr, left, right, size = [], [], [], [], []

        def build(rows, depth):
            node = len(feat)
            feat.append(-1)
            thr.append(0.0)
            left.append(-1)
            right.append(-1)
            size.append(rows.size)
            if depth >= max_depth or rows.size <= 1:
                return node
            part = X[rows]
            mins = part.min(axis=0)
            maxs = part.max(axis=0)
            usable = np.flatnonzero(maxs > mins)
            if usable.size == 0:
                return node
            f = int(usable[rng.integers(usable.size)])
            split = float(rng.uniform(mins[f], maxs[f]))
            if split == mins[f]:
                split = float(np.nextafter(split, maxs[f]))
            go_left = part[:, f] < split
            feat[node] = f
            thr[node] = split
            left[node] = build(rows[go_left], depth + 1)
            right[node] = build(rows[~go_left], depth + 1)
            return node

        build(np.arange(X.shape[0]), 0)
        return (np.asarray(feat, dtype=np.int32), np.asarray(thr, dtype=float),
                np.asarray(left, dtype=np.int32), np.asarray(right, dtype=np.int32),
                np.asarray(size, dtype=float))

    trees = []
    for _ in range(n_trees):
        pick = rng.choice(n, size=sub, replace=False)
        trees.append(build_tree(Xs[pick]))
    norm = _reference_path_norm(float(sub))
    if queries.shape[0] == 0:
        return np.empty(0)
    total = np.zeros(queries.shape[0], dtype=float)
    for feat, thr, left, right, size in trees:
        node = np.zeros(queries.shape[0], dtype=np.int32)
        path = np.zeros(queries.shape[0], dtype=float)
        active = np.flatnonzero(feat[node] >= 0)
        while active.size:
            nd = node[active]
            vals = queries[active, feat[nd]]
            nxt = np.where(vals < thr[nd], left[nd], right[nd])
            node[active] = nxt
            path[active] += 1.0
            active = active[feat[nxt] >= 0]
        total += path + path_norm(size[node])
    return np.power(2.0, -(total / n_trees) / norm)
