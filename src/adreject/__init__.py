"""Learning-to-reject for unsupervised anomaly detection.

Wraps any real-valued anomaly scorer with a stability-based confidence,
rejects a prediction when both tails of its stability distribution are
at least ``exp(-T)`` (for a fitted rejector, when the score's training
count ``j`` satisfies ``k_lo <= j < k_hi``), and reports certified
estimates and bounds on the rejection rate and the expected prediction
cost.

The names below are the public surface.  Helpers such as
``adreject.stability.rejection_cutoffs``, ``adreject.bounds.band_edges``
or ``adreject.bench.run_trial`` (one fold's trials from the scores it
is given) stay importable from their modules.
"""

from .core import (
    AdrejectError,
    CostSpec,
    Decision,
    DegenerateStabilityMap,
    DimensionMismatch,
    DomainError,
    EmptyResults,
    InadmissibleRejectionCost,
    InsufficientData,
    LabelLengthMismatch,
    MissingGamma,
    NonBinaryLabels,
    NonFiniteInput,
    ParseError,
    ScoreSet,
    ToleranceSpec,
)
from .stability import stability_tails
from .bounds import (
    RateEstimate,
    RejectionBandSpec,
    expected_cost_upper_bound,
    rejection_band,
    rejection_rate_estimate,
)
from .rejector import (
    BatchPredictions,
    FittedRejector,
    fit,
    load_model,
    predict_batch,
    save_model,
)
from .detectors import DETECTOR_KINDS, DetectorSpec, fit_detector
from .bench import (
    COST_PRESETS,
    Dataset,
    TrialResult,
    aggregate,
    cost_preset,
    load_csv,
    run_benchmark,
    synthetic_suite,
    write_report_files,
)

__version__ = "0.1.0"

__all__ = [
    "AdrejectError",
    "BatchPredictions",
    "COST_PRESETS",
    "CostSpec",
    "DETECTOR_KINDS",
    "Dataset",
    "Decision",
    "DegenerateStabilityMap",
    "DetectorSpec",
    "DimensionMismatch",
    "DomainError",
    "EmptyResults",
    "FittedRejector",
    "InadmissibleRejectionCost",
    "InsufficientData",
    "LabelLengthMismatch",
    "MissingGamma",
    "NonBinaryLabels",
    "NonFiniteInput",
    "ParseError",
    "RateEstimate",
    "RejectionBandSpec",
    "ScoreSet",
    "ToleranceSpec",
    "TrialResult",
    "aggregate",
    "cost_preset",
    "expected_cost_upper_bound",
    "fit",
    "fit_detector",
    "load_csv",
    "load_model",
    "predict_batch",
    "rejection_band",
    "rejection_rate_estimate",
    "run_benchmark",
    "save_model",
    "stability_tails",
    "synthetic_suite",
    "write_report_files",
]
