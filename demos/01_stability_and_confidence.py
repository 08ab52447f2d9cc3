"""
Stability-based confidence for an anomaly scorer
================================================

Any detector that emits real-valued anomaly scores induces a simple
decision rule: flag the top gamma fraction of training scores.  This
demo shows how the toolkit turns a new score into a *stability
probability* -- how likely that flag is to survive a resample of the
training set -- and a confidence in [0, 1], and how the rejection rule
follows from the tolerance T alone.
"""

import numpy as np

from adreject import ScoreSet, ToleranceSpec, fit, predict_batch

rng = np.random.default_rng(7)

# Pretend a detector scored 1000 training points.  gamma is the assumed
# contamination: the fraction of the training data we believe anomalous.
train = ScoreSet(rng.normal(0.0, 1.0, 1000), gamma=0.1)
tol = ToleranceSpec(T=32.0)
rej = fit(train, tol)
print(f"n = {train.n}, gamma = {train.gamma}, T = {tol.T}")

# A query score is first reduced to its training count j: the number of
# training scores at or below it (psi_n = j / n).  The stability
# probability is a Binomial tail in j -- smooth and monotone in the
# score.  A prediction is rejected when that probability and its
# complement are both at least exp(-T), which fitting settles once per
# count as two cutoffs.  (For T below about 38.1 this is the same as
# confidence <= tau = 1 - 2 exp(-T); beyond that tau rounds to 1.0.)
print(f"reject iff {rej.k_lo} <= j < {rej.k_hi}, "
      f"i.e. psi_n in [{rej.k_lo / train.n:.3f}, {(rej.k_hi - 1) / train.n:.3f}]\n")

queries = np.asarray([-1.0, 0.8, 1.1, 1.2, 1.3, 1.4, 1.6, 2.5])
batch = predict_batch(rej, queries)
print(f"{'score':>7} {'psi_n':>7} {'P(anomaly)':>12} {'confidence':>16} decision")
for s, psi, p, conf, decision in zip(
    queries, batch.psi_n, batch.p_anomaly, batch.confidence, batch.decisions
):
    print(f"{s:7.2f} {psi:7.3f} {p:12.3e} {conf:16.12f} {decision}")

# Scores deep inside the bulk are confidently normal (P ~ 0), scores far
# in the tail confidently anomalous (P ~ 1).  Only a thin sliver around
# the 1 - gamma quantile is unstable, and that sliver is exactly what
# gets rejected: its width is known in advance from (n, gamma, T) alone.
