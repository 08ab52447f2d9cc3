"""Core types and validation for score-based rejection.

A rejector consumes real-valued anomaly scores (higher means more
anomalous), a contamination factor ``gamma``, and a tolerance parameter
``T``.  The types below carry those inputs through the rest of the
package and enforce their domains at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "AdrejectError",
    "DomainError",
    "NonFiniteInput",
    "InsufficientData",
    "DimensionMismatch",
    "LabelLengthMismatch",
    "InadmissibleRejectionCost",
    "DegenerateStabilityMap",
    "ParseError",
    "MissingGamma",
    "NonBinaryLabels",
    "EmptyResults",
    "Decision",
    "ScoreSet",
    "ToleranceSpec",
    "CostSpec",
    "validate_cost_spec",
    "validate_domain",
    "anomaly_count",
    "anomaly_rank",
]


class AdrejectError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AdrejectError):
    """An argument lies outside its mathematical domain."""


class NonFiniteInput(AdrejectError):
    """Scores or features contain NaN or infinity."""


class InsufficientData(AdrejectError):
    """Too few rows for the requested operation."""


class DimensionMismatch(AdrejectError):
    """Query feature dimension differs from the fitted dimension."""


class LabelLengthMismatch(AdrejectError):
    """Label vector length differs from the number of scores."""


class InadmissibleRejectionCost(AdrejectError):
    """Rejection cost exceeds the cost of always predicting one class."""


class DegenerateStabilityMap(AdrejectError):
    """floor(n * gamma) == 0, so the stability map is identically zero
    and has no inverse for positive targets."""


class ParseError(AdrejectError):
    """A CSV cell could not be parsed; carries row/column coordinates."""


class MissingGamma(AdrejectError):
    """No labels and no explicit contamination factor were provided."""


class NonBinaryLabels(AdrejectError):
    """Labels contain values other than 0 and 1."""


class EmptyResults(AdrejectError):
    """Aggregation was requested over zero trial results."""


class Decision(Enum):
    """Three-way prediction outcome."""

    NORMAL = "normal"
    ANOMALY = "anomaly"
    REJECT = "reject"

    def __str__(self) -> str:  # CSV and JSON use the lowercase value.
        return self.value


# Products n * gamma that are within this distance of an integer are
# snapped to it, so that e.g. n=100, gamma=0.1 counts exactly 10 ranks
# even though 100 * float(0.1) == 10.000000000000002.
_INT_SNAP = 1e-9


def _snap(x: float) -> float:
    r = round(x)
    return float(r) if abs(x - r) < _INT_SNAP else x


def anomaly_count(n: int, gamma: float) -> int:
    """floor(n * gamma): the number of training ranks treated as anomalous
    by the stability sum."""
    return int(math.floor(_snap(n * gamma)))


def anomaly_rank(n: int, gamma: float) -> int:
    """ceil(n * gamma): the rank (from the top) of the decision threshold."""
    return int(math.ceil(_snap(n * gamma)))


def validate_domain(
    n: int | None = None, gamma: float | None = None, T: float | None = None,
    delta: float | None = None,
) -> None:
    """Refuse ``n < 1``, ``gamma`` outside ``[0, 0.5)``, ``T`` below 4
    or non-finite, and ``delta`` outside ``(0, 1)``, with a
    ``DomainError``; an argument left ``None`` is not checked."""
    if n is not None and n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if gamma is not None and not (0.0 <= gamma < 0.5):
        raise DomainError(f"gamma must lie in [0, 0.5), got {gamma}")
    if T is not None and (not math.isfinite(T) or T < 4.0):
        raise DomainError(f"T must be >= 4 and finite, got {T}")
    if delta is not None and not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")


# Below this magnitude the incomplete-beta routine can return values
# with only a couple of correct digits (observed ~5e-2 relative error
# near 1e-300), so a rejection band edge exp(-T) must stay above it.
_BETAINC_TRUST_FLOOR = 1e-250


def _as_real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array, refusing with a ``DomainError`` what
    the float cast refuses (a ragged list, an int beyond the float range,
    a non-numeric string) and complex input, whose imaginary part the
    cast would drop with only a ``ComplexWarning``."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind != "c":
            return np.asarray(arr, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be real numbers: {exc}") from None
    raise DomainError(f"{name} must be real, got complex values")


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = _as_real_array(values, name)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _as_float(value, name: str) -> float:
    """``float(value)``, refusing with a ``DomainError`` what ``float``
    refuses and complex values, whose real part it would keep.  Numeric
    strings and ``bool`` are taken, as ``float`` takes them."""
    try:
        if not np.iscomplexobj(value):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be a real number, got {value!r}")


def _check_labels(labels, n: int) -> np.ndarray:
    """``labels`` as a boolean vector; ``LabelLengthMismatch`` unless of
    shape ``(n,)``, ``DomainError`` if complex, ``NonBinaryLabels`` on a
    value other than 0 (normal) and 1 (anomaly)."""
    lab = np.asarray(labels)
    if lab.shape != (n,):
        raise LabelLengthMismatch(f"expected {n} labels, got shape {lab.shape}")
    lab = _as_real_array(lab, "labels")
    if not np.all(np.isin(lab, (0.0, 1.0))):
        raise NonBinaryLabels("labels must be 0 (normal) or 1 (anomaly)")
    return lab.astype(bool)


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """A bag of training anomaly scores with a contamination factor.

    Parameters
    ----------
    scores : array-like of float, shape (n,)
        Real-valued anomaly scores, higher means more anomalous.
    gamma : float
        Expected fraction of anomalies, in ``[0, 0.5)``.

    Raises
    ------
    InsufficientData
        If fewer than one score is given.
    NonFiniteInput
        If any score is NaN or infinite.
    DomainError
        If ``gamma`` is not a number in ``[0, 0.5)``, or the scores are complex.
    """

    scores: np.ndarray
    gamma: float
    sorted_scores: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = _as_float_vector(self.scores, "scores")
        if arr.size < 1:
            raise InsufficientData("need at least one training score")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInput("training scores must be finite")
        g = _as_float(self.gamma, "gamma")
        validate_domain(gamma=g)
        arr = arr.copy()
        arr.setflags(write=False)
        srt = np.sort(arr)
        srt.setflags(write=False)
        object.__setattr__(self, "scores", arr)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "sorted_scores", srt)

    @property
    def n(self) -> int:
        return int(self.scores.size)


@dataclass(frozen=True)
class ToleranceSpec:
    """Rejection tolerance derived from a single parameter ``4 <= T <= 575.6``.

    ``epsilon = 2 * exp(-T)`` is stored; the confidence threshold
    ``tau = 1 - epsilon`` is always derived from it, so the identity
    ``tau + epsilon == 1`` holds by construction.  A prediction is
    rejected when both tails of its stability distribution, the anomaly
    probability and its complement, are at least ``exp(-T)``.  That
    depends only on the score's training count ``j``, so a fitted
    rejector decides it as ``k_lo <= j < k_hi``
    (:func:`adreject.stability.rejection_cutoffs`).  The confidence form
    ``confidence <= tau`` is the same rule only while ``tau < 1``: from
    ``T`` of about 38.1 on, ``tau`` rounds to 1.0 and would reject
    every prediction.

    Raises
    ------
    DomainError
        If ``T`` is not a real number, is below 4, not finite, or so
        large that ``exp(-T)`` falls below the ``1e-250`` floor under
        which the tails are not trusted.
    """

    T: float
    epsilon: float = field(init=False)

    def __post_init__(self) -> None:
        t = _as_float(self.T, "T")
        validate_domain(T=t)
        edge = math.exp(-t)
        if edge < _BETAINC_TRUST_FLOOR:
            raise DomainError(
                f"exp(-T) = {edge:.3g} is below the {_BETAINC_TRUST_FLOOR:g} floor "
                f"of the tail computation; T must be at most "
                f"{-math.log(_BETAINC_TRUST_FLOOR):.1f}, got {t}"
            )
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "epsilon", 2.0 * edge)

    @property
    def tau(self) -> float:
        """Confidence threshold ``1 - epsilon``."""
        return 1.0 - self.epsilon

    @property
    def band_edge(self) -> float:
        """``exp(-T) = epsilon / 2``: each tail of the rejection band."""
        return self.epsilon / 2.0


@dataclass(frozen=True)
class CostSpec:
    """Per-example costs for false positives, false negatives, rejections."""

    c_fp: float
    c_fn: float
    c_r: float

    def __post_init__(self) -> None:
        for name in ("c_fp", "c_fn", "c_r"):
            v = _as_float(getattr(self, name), name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.c_fp <= 0.0 or self.c_fn <= 0.0:
            raise DomainError("c_fp and c_fn must be positive")
        if self.c_r < 0.0:
            raise DomainError("c_r must be non-negative")


def validate_cost_spec(costs: CostSpec, gamma: float) -> None:
    """Check that rejecting is never dearer than always predicting.

    A rejection cost is admissible when ``c_r <= min((1 - gamma) * c_fp,
    gamma * c_fn)``: predicting all-normal incurs ``gamma * c_fn`` per
    example and all-anomalous ``(1 - gamma) * c_fp``, so a dearer
    rejection could never be preferred.

    Raises
    ------
    InadmissibleRejectionCost
        If ``c_r`` exceeds the bound (boundary equality is admissible).
    """
    validate_domain(gamma=gamma)
    cap = min((1.0 - gamma) * costs.c_fp, gamma * costs.c_fn)
    if costs.c_r > cap:
        raise InadmissibleRejectionCost(
            f"c_r={costs.c_r} exceeds min((1-gamma)*c_fp, gamma*c_fn)={cap}"
        )
