"""
Certified rejection rates and cost bounds
=========================================

Rejecting unstable predictions is only useful if you can say *in
advance* how much will be rejected and what the kept predictions cost.
This demo exercises the three certificates that come with the fixed
rejection rule: the frequency band that contains every rejected example, the
distribution-free rejection-rate bound h, and the expected-cost upper
bound -- then checks all three against a held-out sample.
"""

import numpy as np

from adreject import (
    CostSpec,
    ScoreSet,
    ToleranceSpec,
    expected_cost_upper_bound,
    fit,
    predict_batch,
    rejection_band,
    rejection_rate_estimate,
)
from adreject.rejector import empirical_cost

rng = np.random.default_rng(11)
n, gamma, T, delta = 5000, 0.1, 32.0, 0.05

# --- 1. The rejection band needs no data at all -----------------------
# Every rejected example has training frequency inside [t1, t2]; the
# band plus a DKW sampling term gives the rate bound h.  Width shrinks
# like sqrt(T / n), so more data buys a tighter certificate.
print("band and rate bound, gamma = 0.1, T = 32, delta = 0.05")
for m in (100, 1000, 10000, 100000):
    band = rejection_band(m, gamma, T, delta)
    print(
        f"  n = {m:>6}: [t1, t2] = [{band.t1:.4f}, {band.t2:.4f}]"
        f"  width = {band.t2 - band.t1:.4f}  h = {band.h:.4f}"
    )

# --- 2. The plug-in rate estimate uses only training scores -----------
# Draw a contaminated sample: 90% bulk, 10% shifted tail.
def sample(m):
    labels = rng.random(m) < gamma
    scores = np.where(labels, rng.normal(2.4, 1.0, m), rng.normal(0.0, 1.0, m))
    return scores, labels

train_scores, _ = sample(n)
train = ScoreSet(train_scores, gamma)
tol = ToleranceSpec(T)
est = rejection_rate_estimate(train, tol)
print(f"\nestimated rejection rate r_hat = {est.r_hat:.4f}")
print(f"certified bound h             = {rejection_band(n, gamma, T, delta).h:.4f}")

# Compare against what actually happens on fresh data.
rej = fit(train, tol, delta)
test_scores, test_labels = sample(n)
batch = predict_batch(rej, test_scores)
print(f"held-out rejection rate       = {batch.rejected.mean():.4f}")

# --- 3. The expected-cost bound ---------------------------------------
# Unit false-positive/false-negative costs; rejecting costs gamma.
costs = CostSpec(c_fp=1.0, c_fn=1.0, c_r=gamma)
bound = expected_cost_upper_bound(est.below_band, est.up_to_band, gamma, costs)
realized = empirical_cost(batch.base_anomaly, batch.rejected, test_labels, costs)
print(f"\nexpected-cost upper bound     = {bound:.4f}")
print(f"held-out cost per example     = {realized:.4f}")
assert batch.rejected.mean() <= rej.band.h, "rate bound violated"
assert realized <= bound, "cost bound violated"
print("both certificates hold on the held-out sample")
