"""
End-to-end rejector workflow with a real detector
=================================================

Fit a k-nearest-neighbor scorer on raw features, wrap it with a
rejector, predict with a three-way answer (normal / anomaly / reject),
and round-trip the fitted state through a JSON model file.
"""

import tempfile
from pathlib import Path

import numpy as np

from adreject import (
    Decision,
    DetectorSpec,
    ScoreSet,
    ToleranceSpec,
    fit,
    fit_detector,
    load_model,
    predict_batch,
    save_model,
)

rng = np.random.default_rng(3)

# --- 1. Score raw features with a detector ----------------------------
# 2-d blob of normals plus a ring of anomalies at radius ~4.
n_norm, n_anom = 950, 50
inliers = rng.normal(0.0, 1.0, (n_norm, 2))
angles = rng.uniform(0.0, 2 * np.pi, n_anom)
ring = 4.0 * np.column_stack([np.cos(angles), np.sin(angles)])
X = np.vstack([inliers, ring + rng.normal(0.0, 0.3, ring.shape)])

detector = fit_detector(DetectorSpec(kind="knn", k=10), X)
train_scores = detector.score(X)
gamma = n_anom / (n_norm + n_anom)

# --- 2. Wrap the scores with a rejector -------------------------------
rej = fit(ScoreSet(train_scores, gamma), ToleranceSpec(T=32.0))
print(f"decision threshold lambda = {rej.threshold:.4f}")
print(f"estimated rejection rate  = {rej.estimate.r_hat:.4f}")
print(f"certified rate bound h    = {rej.band.h:.4f}\n")

# --- 3. Three-way predictions ------------------------------------------
queries = np.asarray([[0.1, -0.2], [2.9, 0.3], [4.1, 0.0], [8.0, 8.0]])
batch = predict_batch(rej, detector.score(queries))
print(f"{'point':>14} {'score':>8} {'confidence':>11} decision")
for q, s, conf, dec in zip(
    queries, detector.score(queries), batch.confidence, batch.decisions
):
    print(f"{str(q.tolist()):>14} {s:8.3f} {conf:11.6f} {dec.value}")

# --- 4. Persist and reload ---------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(rej, path)
    reloaded, _meta = load_model(path)
    probe = np.linspace(0.0, 5.0, 101)
    assert predict_batch(rej, probe).decisions == predict_batch(reloaded, probe).decisions
    print(f"\nmodel round-tripped through {path.name}; predictions identical")

# --- 5. gamma = 0 sentinel ----------------------------------------------
# With no assumed contamination nothing is ever flagged or rejected.
clean = fit(ScoreSet(train_scores, 0.0), ToleranceSpec(T=32.0))
far = predict_batch(clean, 1e9)
assert far.decisions == [Decision.NORMAL] and far.confidence[0] == 1.0 and clean.degenerate
print("gamma = 0: degenerate rejector predicts normal with confidence 1")
