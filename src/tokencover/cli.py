"""Command-line entry points: calibrate, predict, robust-predict, simulate, stats.

Exit codes: 0 success (including an infeasible calibration, which is a valid
outcome), 1 internal fault, 2 input/configuration error, 3 verification
failure (stats found a calibration result inconsistent with its dataset).
All file outputs are written atomically via a temp file and rename.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from .calibrate import DEFAULT_GRID_SIZE, CalibrationResult, RiskStep, calibrate_mode, uniform_grid
from .core import _write_atomic, load_dataset
from .robust import (DEFAULT_ENUMERATION_BUDGET, BallSpec, auto_ball_mode, build_robust_set,
                     load_lexicon)
from .scorer import ScorerError, ScorerSpec, make_scorer, truth_map
from .sets import _score_batch, _set_stats
from .sim import CoverageReport, SyntheticConfig, run_coverage_experiment, summarize

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


def _alpha_arg(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"alpha must be a number, got {text!r}") from None
    if not 0.0 < v < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {v}")
    return v


def parse_scorer_spec(text: str, seed: int) -> ScorerSpec:
    """Parse 'kind' or 'kind:key=value,key=value' into a ScorerSpec."""
    kind, _, rest = text.partition(":")
    params: dict[str, Any] = {}
    if rest:
        for item in rest.split(","):
            key, sep, raw = item.partition("=")
            if not sep or not key:
                raise ScorerError(f"bad scorer parameter {item!r}; expected key=value")
            value: Any
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
            params[key.strip()] = value
    return ScorerSpec(kind=kind.strip(), parameters=params, seed=seed)


def _load_calibration(path: str) -> CalibrationResult:
    with open(path, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    if not isinstance(rec, dict):
        raise ValueError(f"{path}: calibration file must hold a JSON object")
    try:
        return CalibrationResult.from_dict(rec)
    except (KeyError, ValueError) as e:
        raise ValueError(f"{path}: malformed calibration result ({e})") from None


def _cache_dir(args: argparse.Namespace) -> str | None:
    return args.cache_dir or os.environ.get("SCORER_CACHE_DIR") or None


def cmd_calibrate(args: argparse.Namespace) -> int:
    # one risk step serves the calibration and the curve
    step = RiskStep(load_dataset(args.dataset, clamp_scores=args.clamp_scores))
    result = calibrate_mode(step, args.alpha, args.mode, args.grid_size, args.scorer_id)
    _write_atomic(args.out, json.dumps(result.to_dict(), indent=2) + "\n")
    if args.curve_out:
        _write_atomic(args.curve_out, _curve_csv(step, uniform_grid(args.grid_size)))
    print(
        f"calibrated n={result.n} alpha={result.alpha} mode={result.mode}: "
        f"lambda_hat={result.lambda_hat!r} feasible={result.feasible} "
        f"bound={result.adjusted_bound!r}"
    )
    return EXIT_OK


# Grid points per ``RiskStep.risks`` call, so the curve's rows are built a slice at a time
_CURVE_CHUNK = 65_536


def _curve_csv(step: RiskStep, grid: np.ndarray) -> Iterator[str]:
    """The risk curve on ``grid`` as CSV text, yielded one slice of rows at a time."""
    yield "lambda,risk,n\n"
    for start in range(0, len(grid), _CURVE_CHUNK):
        part = grid[start:start + _CURVE_CHUNK]
        yield "".join(f"{t!r},{r!r},{step.n}\n"
                      for t, r in zip(part.tolist(), step.risks(part).tolist()))


def cmd_predict(args: argparse.Namespace) -> int:
    """Score every question in chunks (``sets._score_batch``) and threshold the
    flat scores at the calibrated lambda with the flat set rule."""
    arrays = load_dataset(args.dataset, clamp_scores=args.clamp_scores)
    calibration = _load_calibration(args.calibration)
    spec = parse_scorer_spec(args.scorer, args.seed)
    scorer = make_scorer(spec, truth_by_id=truth_map(arrays), cache_dir=_cache_dir(args),
                         workers=args.workers)
    scores = _score_batch(arrays.questions(), scorer, calibration, args.strict)
    lam = calibration.lambda_hat
    kept, sizes, losses = _set_stats(scores, arrays.offsets, arrays.truth, lam)
    encode = json.JSONEncoder(ensure_ascii=False).encode
    lines = []
    for rid, tokens, indices in zip(arrays.ids, arrays.tokens, arrays.positions(kept)):
        lines.append(encode({"id": rid, "lambda": lam, "indices": indices,
                             "tokens": [[j, tokens[j]] for j in indices]}))
    _write_atomic(args.out, "\n".join(lines) + "\n")
    # Python's sum in question order: the printed digits depend on the order
    mean_loss = sum(losses.tolist()) / len(lines)
    mean_size = sum(sizes.tolist()) / len(lines)
    print(f"predicted {len(lines)} questions: mean_loss={mean_loss!r} mean_set_size={mean_size!r}")
    return EXIT_OK


def cmd_robust_predict(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, clamp_scores=args.clamp_scores)
    calibration = _load_calibration(args.calibration)
    lexicon = load_lexicon(args.lexicon)
    spec = parse_scorer_spec(args.scorer, args.seed)
    scorer = make_scorer(spec, truth_by_id=truth_map(dataset), cache_dir=_cache_dir(args))
    mode = auto_ball_mode(scorer) if args.ball_mode == "auto" else args.ball_mode
    ball = BallSpec(d=args.d, enumeration_budget=args.budget, mode=mode)
    lines = []
    for question in dataset.questions():
        calls_before, hits_before = scorer.calls, scorer.cache_hits
        rset = build_robust_set(question, lexicon, ball, scorer, calibration, strict=args.strict)
        rec = {
            "id": rset.question_id,
            "lambda": rset.lambda_used,
            "items": [
                {"position": it.position, "candidate": it.token, "robust_score": it.score}
                for it in rset.items
            ],
            "ball_size": rset.ball_size,
            "scorer_calls": scorer.calls - calls_before,
            "cache_hits": scorer.cache_hits - hits_before,
        }
        lines.append(json.dumps(rec, ensure_ascii=False))
    _write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"robust-predicted {len(lines)} questions (d={args.d}, mode={mode})")
    return EXIT_OK


_RUN_TYPES = {"alpha": ((int, float), "a number"), "trials": ((int,), "an integer"),
              "mode": ((str,), "a string"), "robust": ((bool,), "true or false")}


def _simulate_runs(args: argparse.Namespace) -> tuple[SyntheticConfig, list[dict[str, Any]]]:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "runs" not in doc:
            raise ValueError(f"{args.config}: expected an object with 'config' and 'runs'")
        unknown = sorted(set(doc) - {"config", "runs"})
        if unknown:
            raise ValueError(f"{args.config}: unknown top-level key(s) {unknown}")
        settings = doc.get("config", {})
        if not isinstance(settings, dict):
            raise ValueError(f"{args.config}: 'config' must be an object")
        unknown = sorted(set(settings) - {f.name for f in dataclasses.fields(SyntheticConfig)})
        if unknown:
            raise ValueError(f"{args.config}: unknown 'config' key(s) {unknown}")
        config = SyntheticConfig(**settings)
        runs = doc["runs"]
        if not isinstance(runs, list) or not runs:
            raise ValueError(f"{args.config}: 'runs' must be a non-empty list")
        for i, r in enumerate(runs):
            if not isinstance(r, dict):
                raise ValueError(f"{args.config}: run {i} must be an object, got {r!r}")
            unknown = sorted(set(r) - set(_RUN_TYPES))
            if unknown:
                raise ValueError(f"{args.config}: run {i} has unknown key(s) {unknown}")
            if "alpha" not in r:
                raise ValueError(f"{args.config}: every run needs an 'alpha'")
            for key, (types, what) in _RUN_TYPES.items():
                if key in r and type(r[key]) not in types:  # exact, so true is no number
                    raise ValueError(f"{args.config}: run {i} '{key}' must be {what}, got {r[key]!r}")
            a = float(r["alpha"])
            if not 0.0 < a < 1.0:
                raise ValueError(f"{args.config}: alpha must be in (0, 1), got {a}")
        return config, runs
    if args.alpha is None:
        raise ValueError("simulate requires --alpha or --config")
    config = SyntheticConfig(
        n_calibration=args.n_calibration,
        n_test=args.n_test,
        k_range=(args.k_min, args.k_max),
        truth_fraction=args.truth_fraction,
        sigma=args.sigma,
        seed=args.seed,
        synonym_fanout=args.fanout,
        d=args.d,
    )
    run = {"alpha": args.alpha, "trials": args.trials, "mode": args.mode, "robust": args.robust}
    return config, [run]


def cmd_simulate(args: argparse.Namespace) -> int:
    config, runs = _simulate_runs(args)
    # Runs sharing (trials, mode, robust) reuse each trial's dataset and
    # scoring across their alphas; only the threshold selection differs.
    groups: dict[tuple[int, str, bool], list[float]] = {}
    for r in runs:  # types checked by _simulate_runs
        key = (r.get("trials", args.trials), r.get("mode", "exact"), r.get("robust", False))
        groups.setdefault(key, []).append(r["alpha"])
    reports: list[CoverageReport] = []
    for (trials, mode, robust), alphas in groups.items():
        reports += run_coverage_experiment(
            config, alphas, trials=trials, mode=mode, robust=robust, workers=args.workers
        )
    csv = summarize(reports)
    if args.out:
        _write_atomic(args.out, csv)
    else:
        sys.stdout.write(csv)
    if args.report_out:
        payload = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
        _write_atomic(args.report_out, payload)
    for r in sorted(reports, key=lambda r: (r.alpha, r.mode, r.robust)):
        se = "n/a (single trial)" if r.se is None else repr(r.se)
        print(
            f"alpha={r.alpha} mode={r.mode} robust={str(r.robust).lower()}: "
            f"mean_loss={r.mean_loss!r} se={se} mean_lambda={r.mean_lambda!r}"
        )
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    arrays = load_dataset(args.dataset, clamp_scores=args.clamp_scores)
    result = _load_calibration(args.calibration)
    # calibrating the dataset again, at the file's alpha and in its mode, must give the file
    step = RiskStep(arrays)
    redone = calibrate_mode(step, result.alpha, result.mode, result.grid_size, result.scorer_id)
    given = result.to_dict()
    problems = [f"{key}={given[key]!r} but calibrating the dataset at alpha={result.alpha} "
                f"in {result.mode} mode gives {want!r}"
                for key, want in redone.to_dict().items() if given[key] != want]
    recomputed = float(step.risks([result.lambda_hat])[0])
    sizes = _set_stats(arrays.scores, arrays.offsets, arrays.truth, result.lambda_hat)[1]
    sizes = sorted(sizes.tolist())
    payload = {
        **{key: given[key] for key in ("lambda_hat", "alpha", "n", "adjusted_bound", "feasible")},
        "recomputed_risk": recomputed,
        "bound_satisfied": not problems,
        "problems": problems,
        "set_size": {
            "min": sizes[0],
            "max": sizes[-1],
            "mean": sum(sizes) / len(sizes),
            "median": statistics.median(sizes),
        },
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    if problems:
        for p in problems:
            print(f"verification failure: {p}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"verified: risk {recomputed!r} within bound {result.adjusted_bound!r}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, *, scorer: bool = False) -> None:
    p.add_argument("--clamp-scores", action="store_true",
                   help="clamp out-of-range dataset scores into [0, 1] instead of rejecting")
    if scorer:
        p.add_argument("--scorer", required=True,
                       help="scorer spec, e.g. oracle_noise:sigma=0.3 or constant:value=0.5")
        p.add_argument("--seed", type=int, default=0, help="scorer seed")
        p.add_argument("--cache-dir", default=None,
                       help="disk cache directory for remote scores (or SCORER_CACHE_DIR)")
        p.add_argument("--strict", action="store_true",
                       help="error (not warn) on calibration/scorer identity mismatch")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokencover",
        description="Coverage-controlled uncertainty sets over token-level explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="calibrate a threshold on a scored dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--alpha", type=_alpha_arg, required=True)
    p.add_argument("--mode", choices=("exact", "grid"), default="exact")
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--scorer-id", default=None,
                   help="identity of the scorer that produced the dataset's scores")
    p.add_argument("--out", required=True, help="output path for the calibration JSON")
    p.add_argument("--curve-out", default=None, help="optional risk-curve CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", help="build uncertainty sets for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--out", required=True, help="output path for predictions JSONL")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent requests to a remote scorer; other scorers score serially")
    _add_common(p, scorer=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("robust-predict", help="build substitution-robust uncertainty sets")
    p.add_argument("--dataset", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--lexicon", required=True, help="synonym lexicon JSONL")
    p.add_argument("--d", type=int, required=True, help="max substituted positions")
    p.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET,
                   help="ball enumeration budget")
    p.add_argument("--ball-mode", choices=("exact", "coordinatewise", "auto"), default="auto")
    p.add_argument("--out", required=True, help="output path for robust predictions JSONL")
    _add_common(p, scorer=True)
    p.set_defaults(func=cmd_robust_predict)

    p = sub.add_parser("simulate", help="Monte Carlo coverage experiments on synthetic data")
    p.add_argument("--config", default=None, help="JSON experiment config driving a sweep")
    p.add_argument("--alpha", type=_alpha_arg, default=None)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--mode", choices=("exact", "grid"), default="exact")
    p.add_argument("--robust", action="store_true")
    p.add_argument("--n-calibration", type=int, default=100)
    p.add_argument("--n-test", type=int, default=100)
    p.add_argument("--k-min", type=int, default=8)
    p.add_argument("--k-max", type=int, default=16)
    p.add_argument("--truth-fraction", type=float, default=0.4)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--fanout", type=int, default=2)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--report-out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stats", help="re-validate a calibration result against its dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--out", default=None, help="JSON output path (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError, PermissionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print(f"error: {args.command} ran out of memory; its input is too large for this machine",
              file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
