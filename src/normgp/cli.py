"""Command-line pipeline: synth, fit, score, evaluate, sweep.

Exit codes: 0 success; 2 schema, parse, or argument errors; 3 numerical
failures (conditioning, negative variance); 1 I/O or unexpected errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import gpr, metrics, stats, synth, tabular_io
from .errors import (
    CohortParseError,
    ConditioningError,
    ModelFormatError,
    ModelIntegrityError,
    NumericalError,
    SchemaError,
)
from .kernels import FORMS, SUM, AgeKernelParams
from .preprocess import fit_chain


def _jsonable(value):
    """Recursively convert to JSON-safe types; non-finite floats to strings."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, bool):
        return value
    if isinstance(value, (float, np.floating)):
        number = float(value)
        if math.isnan(number):
            return "nan"
        if math.isinf(number):
            return "inf" if number > 0 else "-inf"
        return number
    if isinstance(value, np.integer):
        return int(value)
    return value


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    tabular_io._atomic_write_text(path, text)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _parse_groups(raw: str) -> tuple[str, str]:
    parts = tuple(part.strip() for part in raw.split(","))
    if len(parts) != 2 or not all(parts) or parts[0] == parts[1]:
        raise ValueError(f"--groups needs two distinct comma-separated labels, got {raw!r}")
    return parts


def _parse_grid(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--ly-grid must be comma-separated numbers, got {raw!r}") from None
    if not values:
        raise ValueError("--ly-grid must contain at least one value")
    return values


def _load_model_chain(path: str):
    artifact = tabular_io.load_model(path)
    try:
        return artifact, tabular_io.to_trained_model(artifact)
    except NumericalError as exc:
        raise NumericalError(f"model {path}: {exc}") from exc


def cmd_fit(args) -> int:
    cohort = tabular_io.load_cohort(args.train_csv)
    standardizer, pca, features = fit_chain(cohort.features, args.standardize, args.pca)
    # Every fold's preprocessing is fitted (and can fail) before any GP fit.
    folds = metrics.split_folds(
        cohort.features, args.folds, args.seed,
        standardize=args.standardize, n_components=args.pca,
    )
    config = gpr.FitConfig(form=args.kernel, restarts=args.restarts, seed=args.seed)
    model = gpr.fit(features, cohort.age, config)
    quality = metrics.cross_validated_quality(
        cohort.features, cohort.age, folds, config, model.params
    )
    warnings = metrics.fit_warnings(model, quality)
    artifact = tabular_io.artifact_from_fit(
        model,
        cohort.feature_names,
        standardizer=standardizer,
        pca=pca,
        seed=args.seed,
    )
    tabular_io.save_model(artifact, args.out)
    report_path = args.report if args.report else args.out + ".report.json"
    report = {
        "command": "fit",
        "config": {
            "train_csv": args.train_csv,
            "out": args.out,
            "report": report_path,
            "kernel": args.kernel,
            "pca": args.pca,
            "standardize": bool(args.standardize),
            "restarts": args.restarts,
            "folds": args.folds,
            "seed": args.seed,
        },
        "data": {
            "n_subjects": len(cohort.subject_ids),
            "n_features": len(cohort.feature_names),
            "n_model_dimensions": features.shape[1],
            "feature_names": list(cohort.feature_names),
            "age_min": float(cohort.age.min()),
            "age_max": float(cohort.age.max()),
        },
        "model": {
            "kernel_form": model.form,
            "length_scales": [float(v) for v in model.params.length_scales],
            "noise_variance": float(model.params.noise_variance),
            "y_offset": float(model.y_offset),
            "log_marginal_likelihood": float(model.log_marginal_likelihood),
            "jitter": float(model.jitter),
            "chosen_restart": model.chosen_restart,
            "restart_log_marginals": [float(v) for v in model.restart_log_marginals],
        },
        "quality": quality,
        "warnings": warnings,
    }
    _write_json(report_path, report)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _say(args, f"wrote model to {args.out}")
    _say(args, f"{args.folds}-fold quality: MAE={quality['mae']:.3f} R2={quality['r2']:.3f}")
    _say(args, f"wrote fit report to {report_path}")
    return 0


def cmd_score(args) -> int:
    artifact, model = _load_model_chain(args.model)
    cohort = tabular_io.load_cohort(args.test_csv)
    age_params = AgeKernelParams(
        age_length_scale=args.age_length_scale, age_noise_variance=args.age_noise
    )
    scores = metrics.score_cohort(
        model,
        cohort,
        age_params,
        standardizer=artifact.standardizer,
        pca=artifact.pca,
        expected_feature_names=artifact.feature_names,
    )
    tabular_io.save_scores(scores, args.out)
    _say(
        args,
        f"scored {len(cohort.subject_ids)} subjects "
        f"(l_y={args.age_length_scale:g}, sigma_y^2={args.age_noise:g}) -> {args.out}",
    )
    return 0


def cmd_evaluate(args) -> int:
    table = tabular_io.load_scores(args.scores_csv)
    groups = _parse_groups(args.groups)
    metric_names = tuple(part.strip() for part in args.metrics.split(",") if part.strip())
    report = stats.evaluate_scores(
        table, groups, metric_names, absolute_epsilon=args.abs_epsilon
    )
    payload = {
        "command": "evaluate",
        "config": {
            "scores_csv": args.scores_csv,
            "out": args.out,
            "groups": list(groups),
            "metrics": list(metric_names),
            "abs_epsilon": bool(args.abs_epsilon),
        },
    }
    payload.update(report)
    _write_json(args.out, payload)
    for name in metric_names:
        entry = report["metrics"][name]
        _say(
            args,
            f"{name}: AUC={entry['auc']:.4f} p={entry['rank_sum']['p']:.3g} "
            f"({entry['rank_sum']['method']})",
        )
    _say(args, f"wrote evaluation report to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    artifact, model = _load_model_chain(args.model)
    cohort = tabular_io.load_cohort(args.test_csv)
    groups = _parse_groups(args.groups)
    grid = _parse_grid(args.ly_grid)
    result = stats.ly_sweep(
        model,
        cohort,
        grid,
        groups=groups,
        age_noise_variance=args.age_noise,
        standardizer=artifact.standardizer,
        pca=artifact.pca,
        expected_feature_names=artifact.feature_names,
    )
    tabular_io.save_sweep(result, args.out)
    _say(args, f"best l_y={result.best_l_y:g} with AUC={result.best_auc:.4f}")
    _say(args, f"wrote sweep table to {args.out}")
    return 0


def cmd_synth(args) -> int:
    config = synth.SynthConfig(
        n_healthy=args.n_healthy,
        n_diseased=args.n_diseased,
        n_features=args.n_features,
        age_range=(args.age_min, args.age_max),
        deviation_mode=args.mode,
        deviation_magnitude=args.magnitude,
        noise_std=args.noise_std,
        seed=args.seed,
        trajectory_seed=args.trajectory_seed,
    )
    cohort = synth.generate_cohort(config)
    tabular_io.save_cohort(cohort, args.out)
    _say(
        args,
        f"wrote {config.n_healthy} HC + {config.n_diseased} DX subjects "
        f"(mode={config.deviation_mode}) to {args.out}",
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgp",
        description="Normative GP age modeling: train, score, and evaluate cohorts.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-q", "--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = gpr.FitConfig()

    p_fit = sub.add_parser("fit", parents=[common], help="train a GP age model on a cohort CSV")
    p_fit.add_argument("train_csv", help="training cohort CSV (age + feature columns)")
    p_fit.add_argument("--out", required=True, help="output model file")
    p_fit.add_argument("--report", default=None, help="fit report JSON (default: <out>.report.json)")
    p_fit.add_argument("--kernel", choices=FORMS, default=SUM, help="kernel form")
    p_fit.add_argument(
        "--pca",
        nargs="?",
        const=50,
        default=None,
        type=int,
        metavar="N",
        help="project features onto N principal components (bare flag: 50)",
    )
    p_fit.add_argument("--standardize", action="store_true", help="z-score features before fitting")
    p_fit.add_argument(
        "--restarts", type=int, default=defaults.restarts,
        help="optimizer restarts (default %(default)s)",
    )
    p_fit.add_argument("--folds", type=int, default=5, help="cross-validation folds (default 5)")
    p_fit.add_argument(
        "--seed", type=int, default=defaults.seed, help="random seed (default %(default)s)"
    )
    # Ages are always centred; bench/run.py's train stage still passes this flag.
    p_fit.add_argument("--center-ages", action="store_true", help=argparse.SUPPRESS)
    p_fit.set_defaults(handler=cmd_fit)

    p_score = sub.add_parser("score", parents=[common], help="score a cohort against a trained model")
    p_score.add_argument("model", help="model file from fit")
    p_score.add_argument("test_csv", help="cohort CSV to score")
    p_score.add_argument("--out", required=True, help="output scores CSV")
    p_score.add_argument(
        "--age-length-scale",
        type=float,
        default=math.inf,
        metavar="LY",
        help="age kernel length scale l_y (default inf = unweighted)",
    )
    p_score.add_argument(
        "--age-noise",
        type=float,
        default=0.0,
        metavar="SY",
        help="age kernel noise variance sigma_y^2 (default 0)",
    )
    p_score.set_defaults(handler=cmd_score)

    p_eval = sub.add_parser("evaluate", parents=[common], help="two-group statistics on a scores CSV")
    p_eval.add_argument("scores_csv", help="scores CSV from score")
    p_eval.add_argument("--out", required=True, help="output report JSON")
    p_eval.add_argument("--groups", default="HC,DX", help="negative,positive labels (default HC,DX)")
    p_eval.add_argument(
        "--metrics", default=",".join(stats.METRIC_NAMES), help="comma-separated metric subset"
    )
    p_eval.add_argument(
        "--abs-epsilon", action="store_true", help="rank by |epsilon| instead of signed epsilon"
    )
    p_eval.set_defaults(handler=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", parents=[common], help="AUC of cov_w across age length scales")
    p_sweep.add_argument("model", help="model file from fit")
    p_sweep.add_argument("test_csv", help="cohort CSV with both groups")
    p_sweep.add_argument("--out", required=True, help="output sweep CSV")
    p_sweep.add_argument(
        "--ly-grid",
        default=",".join(format(value, "g") for value in stats.DEFAULT_LY_GRID),
        help="comma-separated l_y grid (default %(default)s)",
    )
    p_sweep.add_argument("--groups", default="HC,DX", help="negative,positive labels (default HC,DX)")
    p_sweep.add_argument("--age-noise", type=float, default=0.0, help="age kernel noise variance")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_synth = sub.add_parser("synth", parents=[common], help="generate a synthetic aging cohort CSV")
    p_synth.add_argument("--out", required=True, help="output cohort CSV")
    p_synth.add_argument("--mode", choices=synth.MODES, default="none", help="planted deviation mode")
    p_synth.add_argument("--n-healthy", type=int, required=True, help="number of HC subjects")
    p_synth.add_argument("--n-diseased", type=int, default=0, help="number of DX subjects")
    p_synth.add_argument("--n-features", type=int, default=8, help="number of features (default 8)")
    p_synth.add_argument("--age-min", type=float, default=20.0, help="minimum age (default 20)")
    p_synth.add_argument("--age-max", type=float, default=80.0, help="maximum age (default 80)")
    p_synth.add_argument(
        "--magnitude", type=float, default=3.0, help="deviation size in noise-std units"
    )
    p_synth.add_argument("--noise-std", type=float, default=0.3, help="feature noise std")
    p_synth.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p_synth.add_argument(
        "--trajectory-seed",
        type=int,
        default=None,
        help="pin the aging trajectory separately from subject draws",
    )
    p_synth.set_defaults(handler=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (
        SchemaError,
        CohortParseError,
        ModelFormatError,
        ModelIntegrityError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConditioningError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
