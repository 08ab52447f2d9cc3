"""Fit a rejector on training scores; predict normal / anomaly / reject.

The decision threshold ``lambda`` is the ``ceil(n * gamma)``-th largest
training score; scores at or above it are predicted anomalous.  A
prediction is replaced by ``Reject`` when both tails of its stability
distribution are at least ``exp(-T)``.  Both depend only on the score's
training count ``j``, so :func:`fit` settles the rule once as two
integer cutoffs, and a score is rejected iff ``k_lo <= j < k_hi``: no
labels, no search.  (Stated on confidence, that is ``confidence <= 1 -
2 exp(-T)``, but only while that threshold stays below 1.0, i.e. for
``T`` below about 38.1.)
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .bounds import (
    RateEstimate,
    RejectionBandSpec,
    _count_below,
    rejection_band,
    rejection_rate_estimate,  # noqa: F401 -- perfbench/spans.py times calls through this name
)
from .core import (
    CostSpec,
    Decision,
    DomainError,
    NonFiniteInput,
    ScoreSet,
    ToleranceSpec,
    _as_real_array,
    _check_labels,
    anomaly_count,
    anomaly_rank,
)
from .detectors import DetectorSpec
from .stability import (
    confidence as _confidence,
    stability_tails,
    training_frequency,  # noqa: F401 -- perfbench/spans.py times calls through this name
)

__all__ = [
    "BatchPredictions",
    "FittedRejector",
    "fit",
    "predict_batch",
    "decision_threshold",
    "save_model",
    "load_model",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class BatchPredictions:
    """Vectorized predictions for a batch of scores."""

    psi_n: np.ndarray
    p_anomaly: np.ndarray
    confidence: np.ndarray
    base_anomaly: np.ndarray
    rejected: np.ndarray

    def __len__(self) -> int:
        return int(self.psi_n.size)

    def _codes(self) -> np.ndarray:
        """Each row's decision as its index in ``tuple(Decision)``:
        0 normal, 1 anomaly, 2 reject."""
        codes = self.base_anomaly.astype(np.intp)
        codes[self.rejected] = 2
        return codes

    @property
    def decisions(self) -> list[Decision]:
        members = tuple(Decision)
        return [members[c] for c in self._codes().tolist()]


def decision_threshold(train: ScoreSet) -> float:
    """The ``ceil(n * gamma)``-th largest training score; ``+inf`` when
    ``gamma == 0`` (nothing is ever predicted anomalous)."""
    k = anomaly_rank(train.n, train.gamma)
    if k == 0:
        return math.inf
    return float(train.sorted_scores[train.n - k])


@dataclass(frozen=True, eq=False)
class FittedRejector:
    """A rejector fitted on a :class:`ScoreSet`.

    The stability probability of a score depends only on its training
    count ``j = n * psi_n`` in ``0..n``, so fitting tabulates it once:
    ``n + 1`` upper tails and two integer cutoffs.  Prediction is then a
    sorted-scores search and a table lookup.

    Attributes
    ----------
    train : ScoreSet
    tol : ToleranceSpec
    threshold : float
        Decision threshold ``lambda``; ``+inf`` for ``gamma == 0``.
    band : RejectionBandSpec
        Frequency band and rejection-rate bound ``h``.
    estimate : RateEstimate
        Plug-in rejection-rate estimate; ``(1, 1)`` (rate 0) when the
        stability map is degenerate.
    degenerate : bool
        True when ``floor(n * gamma) == 0``: stability is identically
        zero, so nothing is ever rejected.
    p_table : ndarray, shape (n + 1,)
        Read-only stability probability at ``psi_n = j / n``, by ``j``.
    k_lo, k_hi : int
        A score with count ``j`` is rejected iff ``k_lo <= j < k_hi``:
        its upper tail reaches ``exp(-T)`` and its lower tail does too.
    """

    train: ScoreSet
    tol: ToleranceSpec
    threshold: float
    band: RejectionBandSpec
    estimate: RateEstimate
    degenerate: bool
    p_table: np.ndarray
    k_lo: int
    k_hi: int


def fit(train: ScoreSet, tol: ToleranceSpec, delta: float = 0.05) -> FittedRejector:
    """Fit the rejector: threshold, band, rate estimate, and the table of
    ``n + 1`` stability tails with its two rejection cutoffs.

    Never raises on degenerate inputs (``floor(n * gamma) == 0``); the
    fitted rejector then predicts without ever rejecting and reports a
    zero rate estimate.
    """
    n = train.n
    band = rejection_band(n, train.gamma, tol.T, delta)
    upper, lower = stability_tails(np.arange(n + 1) / n, n, train.gamma)
    upper.setflags(write=False)
    edge = tol.band_edge
    # The upper tail rises and the lower falls with j, so each cutoff is
    # a count of table entries; degenerate tables (0 and 1) give n + 1,
    # and so the estimate (1, 1).
    k_lo = int(np.count_nonzero(upper < edge))
    k_hi = int(np.count_nonzero(lower >= edge))
    return FittedRejector(
        train=train,
        tol=tol,
        threshold=decision_threshold(train),
        band=band,
        estimate=RateEstimate(
            below_band=_count_below(train, k_lo), up_to_band=_count_below(train, k_hi)
        ),
        degenerate=anomaly_count(n, train.gamma) == 0,
        p_table=upper,
        k_lo=k_lo,
        k_hi=k_hi,
    )


def predict_batch(rejector: FittedRejector, scores) -> BatchPredictions:
    """Vectorized three-way prediction, O(m log n) for m scores.

    Base label: anomaly iff ``s >= threshold``.  The base label is
    replaced by ``Reject`` iff the score's training count ``j`` satisfies
    ``k_lo <= j < k_hi``: both tails of its stability distribution are at
    least ``exp(-T)``, as settled at fit time for every count.  A score
    costs a search in the sorted training scores and a lookup in the
    fitted table.  Non-finite scores raise ``NonFiniteInput``, complex
    ones ``DomainError``.
    """
    arr = _as_real_array(scores, "scores to predict")
    if arr.ndim != 1:
        arr = np.atleast_1d(np.squeeze(arr))
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("scores to predict must be finite")
    train = rejector.train
    j = np.searchsorted(train.sorted_scores, arr, side="right")
    upper = rejector.p_table[j]
    return BatchPredictions(
        psi_n=j / train.n,
        p_anomaly=upper,
        confidence=_confidence(upper),
        base_anomaly=arr >= rejector.threshold,
        rejected=(rejector.k_lo <= j) & (j < rejector.k_hi),
    )


def empirical_cost(
    base_anomaly: np.ndarray,
    rejected: np.ndarray,
    labels: np.ndarray,
    costs: CostSpec,
) -> float:
    """Average per-example cost of three-way decisions against labels."""
    kept = ~rejected
    fp = np.count_nonzero(kept & base_anomaly & ~labels)
    fn = np.count_nonzero(kept & ~base_anomaly & labels)
    nr = np.count_nonzero(rejected)
    m = labels.size
    return (costs.c_fp * fp + costs.c_fn * fn + costs.c_r * nr) / m


def oracle_sweep(
    rejector: FittedRejector, labels, costs: CostSpec
) -> tuple[float, float]:
    """Label-informed exhaustive search for the best confidence threshold.

    Candidates are every distinct training confidence plus ``{0, 1}``
    and the constant threshold ``1 - 2 exp(-T)``; each candidate
    ``theta`` rejects training scores with confidence at most ``theta``
    and is charged the empirical cost.  Ties prefer the smallest
    threshold.

    Returns
    -------
    (threshold, cost) : tuple of float
        Best threshold and its training cost.
    """
    train = rejector.train
    lab = _check_labels(labels, train.n)
    batch = predict_batch(rejector, train.scores)
    conf = batch.confidence
    base = batch.base_anomaly
    candidates = np.unique(np.concatenate([conf, [0.0, 1.0, rejector.tol.tau]]))
    best_theta, best_cost = None, None
    for theta in candidates:  # ascending, so ties keep the smallest theta
        rej = conf <= theta
        cost = empirical_cost(base, rej, lab, costs)
        if best_cost is None or cost < best_cost:
            best_theta, best_cost = float(theta), float(cost)
    return best_theta, best_cost


def to_dict(rejector: FittedRejector, score_column: str | None = None,
            detector: dict | None = None) -> dict:
    """Serializable model state; ``lambda`` is ``None`` when infinite."""
    thr = rejector.threshold
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "rejector-model",
        "gamma": rejector.train.gamma,
        "t_tolerance": rejector.tol.T,
        "delta": rejector.band.delta,
        "lambda": None if math.isinf(thr) else thr,
        "scores_sorted": [float(s) for s in rejector.train.sorted_scores],
        "band": asdict(rejector.band),
        "estimate": {
            "below_band": rejector.estimate.below_band,
            "up_to_band": rejector.estimate.up_to_band,
            "r_hat": rejector.estimate.r_hat,
        },
        "degenerate": rejector.degenerate,
        "score_column": score_column,
        "detector": detector,
    }


def _check_detector_block(block) -> None:
    """Refuse a ``detector`` block the CLI could not refit from.

    The block holds :class:`DetectorSpec`'s fields, which must make a
    spec it accepts, plus ``feature_names`` and ``train_matrix``, whose
    shapes and types are checked here; the matrix values are checked
    when ``fit_detector`` refits it.
    """
    if block is None:
        return
    spec_keys = [f.name for f in fields(DetectorSpec)]
    keys = {*spec_keys, "feature_names", "train_matrix"}
    if not isinstance(block, dict) or set(block) != keys:
        got = sorted(block) if isinstance(block, dict) else type(block).__name__
        raise ValueError(f"model detector must be an object with keys {sorted(keys)}, "
                         f"got {got}")
    try:
        DetectorSpec(**{key: block[key] for key in spec_keys})
    except DomainError as exc:
        raise ValueError(f"model detector: {exc}") from None
    names = block["feature_names"]
    if not (isinstance(names, list) and all(isinstance(c, str) for c in names)
            and len(set(names)) == len(names)):
        raise ValueError("model detector feature_names must be distinct strings")
    rows = block["train_matrix"]
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(row, list) and len(row) == len(names) for row in rows)
        and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                for row in rows for v in row)
    ):
        raise ValueError(
            "model detector train_matrix must be a non-empty list of rows of "
            f"{len(names)} numbers, one per feature name"
        )


def _json_fields(state: dict) -> dict:
    """Each field's JSON text, so that a stored value must also have the
    JSON type :func:`to_dict` writes: ``true`` is not ``1``, nor ``32``
    ``32.0``.  ``detector`` is copied on load, not recomputed, so only
    its presence counts."""
    return {k: None if k == "detector" else json.dumps(v, sort_keys=True)
            for k, v in state.items()}


def from_dict(state: dict) -> FittedRejector:
    """Rebuild a rejector from :func:`to_dict` output.

    The rejector is refitted from the stored scores and parameters, and
    the whole state it would save must equal the stored one, value and
    JSON type, so a corrupted file fails loudly instead of predicting
    quietly.  Only
    ``score_column`` and ``detector`` are taken on trust: they are
    copied, not recomputed, after the ``detector`` block's keys and
    types are checked and ``DetectorSpec`` accepts its spec fields.

    Raises
    ------
    ValueError
        On a state that is not a JSON object, an unknown schema version,
        a missing or mistyped field, or naming the first field that
        disagrees with its recomputed value.
    """
    if not isinstance(state, dict):
        raise ValueError(f"model must be a JSON object, got {type(state).__name__}")
    version = json.dumps(state.get("schema_version"))
    if version != json.dumps(SCHEMA_VERSION):
        raise ValueError(f"unsupported schema_version {version}")
    try:  # float(): a mistyped gamma or t_tolerance is a TypeError, not a DomainError.
        train = ScoreSet(np.asarray(state["scores_sorted"], dtype=float),
                         float(state["gamma"]))
        delta = state["delta"]
        # fit takes a numeric string as float() does; a model file holds a number.
        if not isinstance(delta, (int, float)):
            raise TypeError(f"delta is {delta!r}")
        rej = fit(train, ToleranceSpec(float(state["t_tolerance"])), delta=delta)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"model field missing or of the wrong type: {exc}") from None
    _check_detector_block(state.get("detector"))
    fresh = to_dict(rej, state.get("score_column"), state.get("detector"))
    want, got = _json_fields(fresh), _json_fields(state)
    if got != want:
        missing = object()
        key = next(k for k in [*fresh, *state]
                   if want.get(k, missing) != got.get(k, missing))
        name = "threshold (lambda)" if key == "lambda" else repr(key)
        raise ValueError(
            f"stored {name} disagrees with the value recomputed from the "
            "stored scores and parameters"
        )
    return rej


def save_model(rejector: FittedRejector, path, score_column: str | None = None,
               detector: dict | None = None) -> dict:
    """Write the model file; returns the state it wrote."""
    state = to_dict(rejector, score_column, detector)
    Path(path).write_text(json.dumps(state, indent=1) + "\n")
    return state


def load_model(path) -> tuple[FittedRejector, dict]:
    """Load a model file; returns the rejector and the raw state dict
    (the CLI needs ``score_column`` and ``detector`` from it)."""
    state = json.loads(Path(path).read_text())
    return from_dict(state), state
