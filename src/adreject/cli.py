"""Command-line interface: fit, predict, verify, bench.

Exit codes: 0 success, 1 property or benchmark failure, 2 usage or
validation error.  Validation errors print a machine-readable JSON
object ``{"error": {"type", "message"}}`` to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .bench import (
    COST_PRESETS,
    _benchmark_outcomes,
    _result,
    _split_label,
    aggregate,
    load_csv,
    read_csv_table,
    synthetic_suite,
    write_report_files,
)
from .core import (AdrejectError, CostSpec, Decision, DomainError, ScoreSet,
                   ToleranceSpec, validate_domain)
from .detectors import DETECTOR_KINDS, DetectorSpec, _check_kinds, fit_detector
from .rejector import fit, load_model, predict_batch, save_model

__all__ = ["build_parser", "main", "console_entry"]

_PREDICT_COLUMNS = ("score", "psi_n", "p_anomaly", "confidence", "decision")
_PREDICT_HEADER = ",".join(_PREDICT_COLUMNS) + "\r\n"
# Rows formatted per write, which bounds the output text held at once.
_WRITE_ROWS = 1 << 16
# Indexed by BatchPredictions._codes().
_DECISION_LABELS = np.array([str(d) for d in Decision])


def _error_object(kind: str, message: str) -> int:
    print(
        json.dumps({"error": {"type": kind, "message": message}}),
        file=sys.stderr,
    )
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adreject",
        description=(
            "Stability-based learning to reject for unsupervised anomaly "
            "detection: wrap any real-valued scorer, abstain on unstable "
            "predictions, and report certified rejection-rate and cost bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser(
        "fit", help="fit a rejector on a score column or on features + detector"
    )
    p_fit.add_argument("--train", required=True, help="training CSV (header row)")
    p_fit.add_argument(
        "--gamma", type=float, required=True, help="contamination factor in [0, 0.5)"
    )
    p_fit.add_argument(
        "--t-tolerance", type=float, default=32.0, metavar="T",
        help="tolerance exponent, 4 <= T <= 575.6; a prediction is rejected "
        "when both stability tails are at least exp(-T)",
    )
    p_fit.add_argument("--delta", type=float, default=0.05,
                       help="failure probability for the rejection-rate bound")
    p_fit.add_argument(
        "--detector", choices=DETECTOR_KINDS, default=None,
        help="fit this detector on feature columns instead of reading scores",
    )
    p_fit.add_argument("--score-column", default=None,
                       help="name of the score column (scores mode)")
    p_fit.add_argument("--label-column", default="label",
                       help="column to ignore when reading scores or features")
    p_fit.add_argument("--seed", type=int, default=0,
                       help="detector seed, a non-negative integer")
    p_fit.add_argument("--model-out", required=True, help="where to write the model")

    p_pred = sub.add_parser("predict", help="apply a fitted model to a test CSV")
    p_pred.add_argument("--model", required=True, help="model file from fit")
    p_pred.add_argument("--test", required=True, help="test CSV (header row)")
    p_pred.add_argument("--out", default=None,
                        help="output CSV path (default: standard output)")

    p_ver = sub.add_parser(
        "verify", help="run the stability/band/bound property checks"
    )
    p_ver.add_argument("--trials", type=int, default=200,
                       help="Monte-Carlo trials for the bound checks, at least 1 "
                       "(--quick fixes them at 20 and 12)")
    p_ver.add_argument("--delta", type=float, default=0.05,
                       help="failure probability for the rate bound")
    p_ver.add_argument("--t-min", type=float, default=4.0,
                       help="smallest T in the verification grid (must be >= 4)")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--quick", action="store_true",
                       help="reduced grids and trial counts")

    p_bench = sub.add_parser("bench", help="cross-validated benchmark harness")
    src = p_bench.add_mutually_exclusive_group(required=True)
    src.add_argument("--synthetic", action="store_true",
                     help="use the built-in synthetic dataset suite")
    src.add_argument("--data-dir", default=None,
                     help="directory of labeled CSV datasets")
    p_bench.add_argument(
        "--detectors", default=",".join(DETECTOR_KINDS),
        help="comma-separated detector kinds (default: all)",
    )
    p_bench.add_argument(
        "--costs", default="q1",
        help="cost preset (q1, case1, case2, case3) or custom 'c_fp,c_fn,c_r'",
    )
    p_bench.add_argument("--t-tolerance", type=float, default=32.0, metavar="T")
    p_bench.add_argument("--delta", type=float, default=0.05)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--folds", type=int, default=5)
    p_bench.add_argument("--label-column", default="label")
    p_bench.add_argument(
        "--scores-only", action="store_true",
        help="treat each dataset's single feature column as precomputed scores",
    )
    p_bench.add_argument("--out-dir", default="bench-out",
                         help="directory for report.json and the CSV outputs")
    return parser


def cmd_fit(args) -> int:
    header, data = read_csv_table(args.train)
    names, X, _ = _split_label(header, data, args.label_column)
    tol = ToleranceSpec(args.t_tolerance)
    detector_state = None
    score_column = None
    if args.detector is not None:
        spec = DetectorSpec(kind=args.detector, seed=args.seed)
        det = fit_detector(spec, X)
        scores = det.train_scores()
        detector_state = {**asdict(spec), "feature_names": names,
                          "train_matrix": X.tolist()}
    else:
        if args.score_column is not None:
            if args.score_column not in names:
                raise DomainError(
                    f"score column {args.score_column!r} not in {args.train}: "
                    f"columns are {names}"
                )
            score_column = args.score_column
        elif len(names) == 1:
            score_column = names[0]
        else:
            raise DomainError(
                f"{args.train} has {len(names)} non-label columns; pass "
                "--score-column to pick one or --detector to fit on features"
            )
        scores = X[:, names.index(score_column)]
    train = ScoreSet(scores, args.gamma)
    rejector = fit(train, tol, delta=args.delta)
    state = save_model(rejector, args.model_out, score_column=score_column,
                       detector=detector_state)
    summary = {
        "schema_version": state["schema_version"],
        "lambda": state["lambda"],
        "t1": rejector.band.t1,
        "t2": rejector.band.t2,
        "epsilon": tol.epsilon,
        "r_hat": rejector.estimate.r_hat,
        "h": rejector.band.h,
        "n": train.n,
        "gamma": train.gamma,
        "t_tolerance": tol.T,
        "delta": args.delta,
        "degenerate": rejector.degenerate,
        "model": str(args.model_out),
    }
    print(json.dumps(summary, indent=1))
    return 0


def _scores_from_model(state: dict, header: list[str], data: np.ndarray, test_path):
    detector_state = state.get("detector")
    if detector_state is not None:
        missing = [c for c in detector_state["feature_names"] if c not in header]
        if missing:
            raise DomainError(
                f"{test_path} is missing model feature columns {missing}"
            )
        cols = [header.index(c) for c in detector_state["feature_names"]]
        spec = DetectorSpec(**{f.name: detector_state[f.name] for f in fields(DetectorSpec)})
        det = fit_detector(spec, np.asarray(detector_state["train_matrix"], dtype=float))
        # The refitted detector must reproduce the scores the rejector was
        # fitted on, so a changed spec or training row cannot predict.
        stored = np.asarray(state["scores_sorted"], dtype=float)
        if not np.array_equal(np.sort(det.train_scores()).view("u8"), stored.view("u8")):
            raise ValueError(
                "model detector does not reproduce scores_sorted: its spec or "
                "train_matrix was changed"
            )
        if data.shape[0] == 0:
            return np.empty(0)
        return det.score(data[:, cols])
    column = state.get("score_column")
    if column not in header:
        raise DomainError(
            f"{test_path} has no column {column!r} required by the model: "
            f"columns are {header}"
        )
    return data[:, header.index(column)]


def _predict_rows(scores: np.ndarray, batch, n: int):
    """The predict CSV's body in blocks of at most ``_WRITE_ROWS`` rows,
    as ``csv.writer`` writes them: a float as its ``repr``, rows ended
    by ``\r\n``.

    ``psi_n = j / n`` comes from a row's training count ``j``, and
    ``p_anomaly``, ``confidence`` and the decision depend on ``j``
    alone, so everything after the score is formatted once per distinct
    count the batch hits, from any row with that count.
    """
    # j < 2**52, so j / n times n rounds back to j.
    j = np.rint(batch.psi_n * n).astype(np.intp)
    row = np.full(n + 1, -1, dtype=np.intp)
    row[j] = np.arange(j.size)
    counts = np.flatnonzero(row >= 0)
    first = row[counts]
    tails = np.empty(n + 1, dtype=object)
    tails[counts] = [f",{psi!r},{p!r},{c!r},{label}\r\n" for psi, p, c, label in zip(
        batch.psi_n[first].tolist(), batch.p_anomaly[first].tolist(),
        batch.confidence[first].tolist(),
        _DECISION_LABELS[batch._codes()[first]].tolist())]
    for start in range(0, scores.size, _WRITE_ROWS):
        stop = start + _WRITE_ROWS
        yield "".join(chain.from_iterable(zip(map(repr, scores[start:stop].tolist()),
                                              tails[j[start:stop]].tolist())))


def cmd_predict(args) -> int:
    rejector, state = load_model(args.model)
    header, data = read_csv_table(args.test)
    scores = _scores_from_model(state, header, data, args.test)
    batch = predict_batch(rejector, scores)
    out_fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        out_fh.write(_PREDICT_HEADER)
        for block in _predict_rows(scores, batch, rejector.train.n):
            out_fh.write(block)
    finally:
        if args.out:
            out_fh.close()
    return 0


def cmd_verify(args) -> int:
    from .verification import default_verification

    if args.t_min < 4.0:
        return _error_object(
            "DomainError",
            f"T must be >= 4 in the verification grid, got --t-min {args.t_min}",
        )
    if args.trials < 1:
        return _error_object("DomainError", f"--trials must be >= 1, got {args.trials}")
    checks = default_verification(
        trials=args.trials, delta=args.delta, quick=args.quick,
        seed=args.seed, t_min=args.t_min,
    )
    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} properties passed")
    return 1 if failed else 0


def _parse_costs(text: str):
    if text in COST_PRESETS:
        return text, None
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(
            f"--costs must be one of {COST_PRESETS} or 'c_fp,c_fn,c_r', got {text!r}"
        )
    try:
        c_fp, c_fn, c_r = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"could not parse --costs {text!r} as three floats") from None
    return None, CostSpec(c_fp, c_fn, c_r)


def cmd_bench(args) -> int:
    detector_kinds = tuple(k.strip() for k in args.detectors.split(",") if k.strip())
    if not detector_kinds:
        raise DomainError(f"--detectors names no detector, got {args.detectors!r}")
    _check_kinds(detector_kinds)
    preset, custom = _parse_costs(args.costs)
    if args.folds < 2:
        raise DomainError(f"--folds must be >= 2, got {args.folds}")
    tol = ToleranceSpec(args.t_tolerance)
    validate_domain(delta=args.delta)
    if args.synthetic:
        datasets = synthetic_suite(args.seed)
    else:
        paths = sorted(Path(args.data_dir).glob("*.csv"))
        if not paths:
            raise DomainError(f"no CSV datasets found in {args.data_dir}")
        datasets = []
        for path in paths:
            try:
                datasets.append(load_csv(path, label_column=args.label_column))
            except AdrejectError as exc:
                print(f"skipping {path}: {exc}", file=sys.stderr)
    if not datasets:
        print("all datasets failed to load", file=sys.stderr)
        return 1
    # One schedule for all datasets; a dataset refused with an
    # AdrejectError is skipped, any other error ends the run.
    outcomes = _benchmark_outcomes(
        datasets, detector_kinds, preset or "q1", tol.T, args.delta, args.folds,
        args.seed, custom, args.scores_only, skippable=(AdrejectError,),
    )
    results = []
    for dataset, outcome in zip(datasets, outcomes):
        if isinstance(outcome, AdrejectError):
            print(f"skipping {dataset.name}: {outcome}", file=sys.stderr)
        else:
            results += _result(outcome)
    if not results:
        print("all datasets failed", file=sys.stderr)
        return 1
    report = aggregate(results)
    report["cost_preset"] = preset or f"custom:{args.costs}"
    paths = write_report_files(results, report, args.out_dir)
    for method, stats in sorted(report["overall"].items()):
        print(
            f"{method:9s} mean cost {stats['cost_mean']:.4f} "
            f"mean rank {stats['mean_rank']:.2f} over {stats['trials']} trials"
        )
    viol = report["bound_violations"]
    print(
        f"bound violations: rate {viol['rejection_rate_over_h']}, "
        f"cost {viol['cost_over_bound']} of {viol['trials']} rejex trials"
    )
    for name, path in sorted(paths.items()):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fit": cmd_fit,
        "predict": cmd_predict,
        "verify": cmd_verify,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except AdrejectError as exc:
        return _error_object(type(exc).__name__, str(exc))
    except BrokenPipeError:
        # The reader of standard output left; console_entry ends quietly.
        raise
    except (ValueError, OSError) as exc:
        return _error_object(type(exc).__name__, str(exc))


def console_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
