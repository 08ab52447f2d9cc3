"""In-memory spans around the package's public functions.

The package imports with ``from ... import``, so a call goes through the
binding in the *calling* module: ``adreject.bench.predict_batch`` and
``adreject.cli.predict_batch`` are two names for one function.  Each is
wrapped under its calling name, and spans are grouped by the function
they time (``rejector.predict_batch``) to give per-layer metrics.

A span is ``[key, name, start, end, parent, op, attrs]``; ``parent`` is
the index of the enclosing span and ``op`` the operation it belongs to.
Self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

KEY, NAME, START, END, PARENT, OP, ATTRS = range(7)

# The incomplete-beta result below this is recomputed by the log-space
# summation in adreject.stability; a tail this small marks that path.
FALLBACK_FLOOR = 1e-250

# Calling module -> the package functions it calls on the user paths
# (fit, predict, the CV loop, the CLI), wrapped under its own bindings.
WRAPS = {
    "adreject.rejector": (
        "training_frequency", "stability_tails", "rejection_band",
        "rejection_rate_estimate", "fit", "predict_batch",
    ),
    "adreject.bounds": ("stability_inverse",),
    "adreject.bench": (
        "fit", "predict_batch", "oracle_sweep", "rejection_rate_estimate",
        "fit_detector", "make_folds", "compute_fold_scores", "run_trial",
        "read_csv_table", "aggregate", "write_report_files", "synthetic_suite",
        "run_benchmark",
    ),
    "adreject.cli": (
        "read_csv_table", "fit_detector", "fit", "load_model", "predict_batch",
        "save_model", "cmd_fit", "cmd_predict", "main",
    ),
}

DETECTOR_KINDS = ("knn", "lof", "iforest", "hbos")


def _size(args, i: int) -> int:
    return int(np.size(args[i])) if len(args) > i else 0


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, key: str, name: str, start: float | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        t = time.monotonic() if start is None else start
        span = [key, name, t, None, parent, self._op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.monotonic()
        self._stack.pop()

    @contextmanager
    def span(self, key: str, name: str | None = None, start: float | None = None):
        span = self._open(key, name or key, start)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def operation(self, op_id):
        """Root span of one benchmark operation; nested calls share its id."""
        self._op = op_id
        try:
            with self.span("op", f"op:{op_id}") as span:
                yield span
        finally:
            self._op = None

    def adopt(self, spans: list[list], parent: list) -> None:
        """Attach spans recorded in a child process under ``parent``."""
        base = len(self.spans)
        root = self.spans.index(parent)
        for s in spans:
            s = list(s)
            s[PARENT] = root if s[PARENT] is None else s[PARENT] + base
            s[OP] = parent[OP]
            self.spans.append(s)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str, key: str | None = None):
        key = key or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(key, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._annotate(span, args, result)
            return result

        return traced

    def _annotate(self, span: list, args: tuple, result) -> None:
        key, attrs = span[KEY], span[ATTRS]
        if key == "stability.stability_tails":
            attrs["points"] = _size(args, 0)
            attrs["tails"] = result  # counted in finish(), off the clock
        elif key in ("stability.training_frequency", "rejector.predict_batch"):
            attrs["points"] = _size(args, 1)
        elif key == "detectors.fit_detector":
            kind = args[0].kind
            span[KEY] = f"detectors.{kind}.fit"
            result.score = self.wrap(result.score, f"{span[NAME]}().score",
                                     key=f"detectors.{kind}.score")
        elif key.startswith("detectors.") and key.endswith(".score"):
            attrs["rows"] = int(np.shape(args[0])[0])
        elif key == "bench.read_csv_table":
            attrs["bytes"] = _file_bytes(args[0])
        elif key == "rejector.save_model":
            attrs["bytes"] = _file_bytes(args[1])
        elif key == "rejector.load_model":
            attrs["bytes"] = _file_bytes(args[0])
        elif key == "cli.cmd_predict":
            attrs["bytes"] = _file_bytes(getattr(args[0], "out", None))

    def install(self) -> None:
        for mod_name, names in WRAPS.items():
            mod = importlib.import_module(mod_name)
            for attr in names:
                fn = getattr(mod, attr)
                self._undo.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, f"{mod_name}.{attr}"))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)

    def finish(self) -> list[list]:
        """Replace array references by counts; return JSON-ready spans."""
        for s in self.spans:
            tails = s[ATTRS].pop("tails", None)
            if tails is not None:
                up, lo = (np.atleast_1d(np.asarray(t, dtype=float)) for t in tails)
                s[ATTRS]["fallback"] = int(
                    np.count_nonzero(np.minimum(up, lo) < FALLBACK_FLOOR)
                )
        return self.spans

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.finish()))


# -- per-layer metrics ------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the part of it covered by child spans, in seconds."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        p = s[PARENT]
        if p is not None:
            parent = spans[p]
            covered = min(s[END], parent[END]) - max(s[START], parent[START])
            own[p] -= max(covered, 0.0)
    return own


# (metric, unit, statistic, span key); statistics sum over every span of
# the key, in ms for times.
_SIMPLE = [
    ("stability.tails_ms", "ms", "incl", "stability.stability_tails"),
    ("stability.tails_points", "count", "points", "stability.stability_tails"),
    ("stability.inverse_ms", "ms", "incl", "stability.stability_inverse"),
    ("stability.inverse_calls", "count", "calls", "stability.stability_inverse"),
    ("stability.training_frequency_ms", "ms", "incl", "stability.training_frequency"),
    ("bounds.rate_estimate_ms", "ms", "incl", "bounds.rejection_rate_estimate"),
    ("bounds.rate_estimate_calls", "count", "calls", "bounds.rejection_rate_estimate"),
    ("bounds.rejection_band_ms", "ms", "incl", "bounds.rejection_band"),
    ("rejector.fit_ms", "ms", "incl", "rejector.fit"),
    ("rejector.fit_calls", "count", "calls", "rejector.fit"),
    ("rejector.predict_batch_self_ms", "ms", "self", "rejector.predict_batch"),
    ("rejector.predict_batch_points", "count", "points", "rejector.predict_batch"),
    ("rejector.oracle_sweep_self_ms", "ms", "self", "rejector.oracle_sweep"),
    ("rejector.oracle_sweep_calls", "count", "calls", "rejector.oracle_sweep"),
    ("rejector.model_save_ms", "ms", "incl", "rejector.save_model"),
    ("rejector.model_load_ms", "ms", "incl", "rejector.load_model"),
]
for _kind in DETECTOR_KINDS:
    _SIMPLE += [
        (f"detectors.{_kind}.fit_ms", "ms", "incl", f"detectors.{_kind}.fit"),
        (f"detectors.{_kind}.score_ms", "ms", "incl", f"detectors.{_kind}.score"),
        (f"detectors.{_kind}.rows_scored", "count", "rows", f"detectors.{_kind}.score"),
    ]
_SIMPLE += [
    ("bench.run_trial_self_ms", "ms", "self", "bench.run_trial"),
    ("bench.make_folds_calls", "count", "calls", "bench.make_folds"),
    ("bench.compute_fold_scores_ms", "ms", "incl", "bench.compute_fold_scores"),
    ("bench.aggregate_ms", "ms", "incl", "bench.aggregate"),
    ("bench.write_report_ms", "ms", "incl", "bench.write_report_files"),
    ("bench.synthetic_suite_ms", "ms", "incl", "bench.synthetic_suite"),
    ("bench.csv_parse_ms", "ms", "incl", "bench.read_csv_table"),
    ("bench.csv_bytes", "count", "bytes", "bench.read_csv_table"),
    ("cli.fit_self_ms", "ms", "self", "cli.cmd_fit"),
    ("cli.predict_self_ms", "ms", "self", "cli.cmd_predict"),
    ("cli.startup_ms", "ms", "incl", "cli.startup"),
    ("cli.output_bytes", "count", "bytes", "cli.cmd_predict"),
]

PER_LAYER_UNITS = {name: unit for name, unit, _, _ in _SIMPLE}
PER_LAYER_UNITS.update({
    "stability.fallback_share": "ratio",
    "rejector.model_bytes": "count",
    "bench.fits_per_fold": "ratio",
    "trace.overhead_ms": "ms",
    "trace.self_sum_error": "ratio",
})


def layer_metrics(spans: list[list], cells: int, overhead_ms: float) -> dict:
    """Every per-layer metric, summed over the spans of a traced run.

    ``cells`` is the number of (dataset, detector, fold) cross-validation
    cells the run evaluated; ``overhead_ms`` is the median traced minus
    the median untraced operation wall time.
    """
    own = self_times(spans)
    totals: dict[tuple[str, str], float] = {}

    def add(key: str, stat: str, value: float) -> None:
        totals[key, stat] = totals.get((key, stat), 0.0) + value

    for s, own_s in zip(spans, own):
        key = s[KEY]
        add(key, "incl", (s[END] - s[START]) * 1e3)
        add(key, "self", own_s * 1e3)
        add(key, "calls", 1)
        for attr, value in s[ATTRS].items():
            add(key, attr, value)

    out = {name: totals.get((key, stat), 0.0) for name, _, stat, key in _SIMPLE}
    points = totals.get(("stability.stability_tails", "points"), 0.0)
    fallback = totals.get(("stability.stability_tails", "fallback"), 0.0)
    out["stability.fallback_share"] = fallback / points if points else 0.0
    out["rejector.model_bytes"] = max(
        [s[ATTRS].get("bytes", 0) for s in spans
         if s[KEY] in ("rejector.save_model", "rejector.load_model")] or [0]
    )
    trial_fits = sum(
        1 for s in spans
        if s[KEY] == "rejector.fit" and s[PARENT] is not None
        and spans[s[PARENT]][KEY] == "bench.run_trial"
    )
    out["bench.fits_per_fold"] = trial_fits / cells if cells else 0.0
    out["trace.overhead_ms"] = overhead_ms
    out["trace.self_sum_error"] = self_sum_error(spans, own)
    return {name: {"value": float(out[name]), "unit": PER_LAYER_UNITS[name]}
            for name in PER_LAYER_UNITS}


def self_sum_error(spans: list[list], own: list[float]) -> float:
    """Largest relative gap, over root spans, between the summed self
    times of a root's tree and the operation's wall time as its caller
    measured it (``attrs["wall"]``, else the root's own duration)."""
    sums: dict[int, float] = {}
    for i, s in enumerate(spans):
        root = i
        while spans[root][PARENT] is not None:
            root = spans[root][PARENT]
        sums[root] = sums.get(root, 0.0) + own[i]
    worst = 0.0
    for root, total in sums.items():
        wall = spans[root][ATTRS].get("wall", spans[root][END] - spans[root][START])
        if wall > 0:
            worst = max(worst, abs(total - wall) / wall)
    return worst
