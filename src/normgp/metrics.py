"""Per-subject abnormality metrics and cross-validated fit quality.

Three metrics, all oriented so that higher means more abnormal downstream:
the signed prediction error (predicted minus chronological age), the GP
posterior variance, and the age-weighted posterior variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .gpr import (
    FitConfig,
    TrainedModel,
    fit,
    log_marginal_likelihood,
    predict,
    weighted_posterior_cov,
)
from .kernels import AgeKernelParams, KernelParams
from .preprocess import PcaTransform, Standardizer, apply_chain, fit_chain
from .seeding import FOLDS, substream
from .tabular_io import Cohort, ScoresTable


# How ``cross_validated_quality`` fits its folds, for the fit report.
CV_PROTOCOL = {
    "preprocessing": "refit in each fold on its training rows only",
    "restarts_per_fold": 1,
    "optimizer_start": "the optimum chosen on all rows",
    "optimized_on": "each fold's training rows only",
}


@dataclass(frozen=True)
class CvFold:
    """One cross-validation fold: its held-out row indices, the preprocessing
    fitted on its other rows, and those training rows transformed by it."""

    held_out: np.ndarray
    standardizer: Standardizer | None
    pca: PcaTransform | None
    train_features: np.ndarray


def prediction_error(y_hat, y) -> np.ndarray:
    """Signed prediction error: predicted age minus chronological age."""
    y_hat = np.asarray(y_hat, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y_hat.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {y_hat.shape[0]} predictions vs {y.shape[0]} ages")
    return y_hat - y


def score_cohort(
    model: TrainedModel,
    cohort: Cohort,
    age_params: AgeKernelParams,
    *,
    standardizer: Standardizer | None = None,
    pca: PcaTransform | None = None,
    expected_feature_names: tuple[str, ...] | None = None,
) -> ScoresTable:
    """Score every cohort row against a trained normative model.

    Applies the stored preprocessing chain, then computes the prediction
    error, the posterior variance, and the age-weighted posterior variance
    (using each subject's chronological age). Row order is preserved; a
    cohort without diagnosis labels gets ``""`` as every diagnosis.
    """
    cohort.require_feature_names(expected_feature_names)
    transformed = apply_chain(cohort.features, standardizer, pca)
    # One pass over the test rows gives all three columns.
    weighted = weighted_posterior_cov(model, transformed, cohort.age, age_params)
    return ScoresTable(
        subject_ids=cohort.subject_ids,
        age=cohort.age,
        diagnosis=cohort.diagnosis or ("",) * cohort.n_subjects,
        y_hat=weighted.y_hat,
        epsilon=prediction_error(weighted.y_hat, cohort.age),
        cov=weighted.unweighted_variance,
        cov_w=weighted.variance,
    )


def _mae_and_r2(predicted: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """MAE and R2 of predictions; R2 is nan when the ages are constant."""
    errors = predicted - y
    mae = float(np.mean(np.abs(errors)))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(errors**2)) / ss_tot if ss_tot > 0.0 else math.nan
    return mae, r2


def split_folds(
    features,
    folds: int,
    seed: int,
    *,
    standardize: bool = False,
    n_components: int | None = None,
) -> tuple[CvFold, ...]:
    """Split the rows into folds and fit each fold's preprocessing on its
    training rows only: a standardizer and PCA as asked by ``standardize``
    and ``n_components``, on raw ``features``.

    Fold assignment is a seeded permutation split (deterministic given
    ``seed``). This needs no GP fit, so callers run it before fitting
    anything. A fold whose training rows cannot carry the preprocessing
    (a column constant on them, or too few rows for ``n_components``) or
    a GP fit (fewer than 2 rows) raises SchemaError naming the fold, even
    when all rows together could.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix (rows = subjects)")
    m = x.shape[0]
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if folds > m:
        raise ValueError(f"cannot split {m} subjects into {folds} folds")

    order = substream(seed, FOLDS).permutation(m)
    split = []
    for index, held_out in enumerate(np.array_split(order, folds)):
        mask = np.ones(m, dtype=bool)
        mask[held_out] = False
        try:
            if m - held_out.size < 2:
                raise ValueError("a GP fit needs at least 2 training rows")
            standardizer, pca, train = fit_chain(x[mask], standardize, n_components)
        except ValueError as exc:
            raise SchemaError(
                f"cross-validation fold {index} (of folds 0-{folds - 1}) has "
                f"{m - held_out.size} training rows, which cannot carry the "
                f"fold's preprocessing and fit: {exc}"
            ) from None
        split.append(CvFold(held_out, standardizer, pca, train))
    return tuple(split)


def cross_validated_quality(
    features, y, folds: tuple[CvFold, ...], config: FitConfig, start: KernelParams
) -> dict:
    """Cross-validated MAE and R2 of the age regression, without leaks.

    ``features`` are raw and ``folds`` come from ``split_folds``, so each
    fold's held-out rows go through the preprocessing fitted on its
    training rows only. Each fold then runs one L-BFGS-B restart on its
    training rows, starting from ``start``, the optimum chosen on all rows
    (``CV_PROTOCOL``); its training-row log marginal likelihood at
    ``start`` and at its end are reported next to its MAE and R2.

    Returns the fit report's ``quality`` block: ``mae`` and ``r2`` of the
    pooled out-of-fold predictions, ``folds``, ``protocol`` (a copy of
    ``CV_PROTOCOL``) and one ``per_fold`` entry per fold. A fold whose
    held-out ages are constant reports R2 = nan rather than failing.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features must be 2-D with one row per y entry")
    m = x.shape[0]

    pooled = np.empty(m)
    per_fold = []
    for index, fold in enumerate(folds):
        mask = np.ones(m, dtype=bool)
        mask[fold.held_out] = False
        fold_model = fit(fold.train_features, y[mask], config, start=start)
        held_out = apply_chain(x[fold.held_out], fold.standardizer, fold.pca)
        predicted = predict(fold_model, held_out).y_hat
        pooled[fold.held_out] = predicted
        mae, r2 = _mae_and_r2(predicted, y[fold.held_out])
        per_fold.append({
            "fold": index,
            "mae": mae,
            "r2": r2,
            "start_log_marginal_likelihood": log_marginal_likelihood(
                start, fold_model.form, fold_model.x, fold_model.y - fold_model.y_offset
            ),
            "log_marginal_likelihood": fold_model.log_marginal_likelihood,
        })

    mae, r2 = _mae_and_r2(pooled, y)
    return {
        "mae": mae,
        "r2": r2,
        "folds": len(folds),
        "protocol": dict(CV_PROTOCOL),
        "per_fold": per_fold,
    }


def fit_warnings(model: TrainedModel, quality: dict) -> list[str]:
    """Why a fit explains nothing, if it does not: a cross-validated R2 at or
    below 0 (no better than the mean age), or a noise variance at least the
    variance of the centred training ages (the kernel carries none of it)."""
    found = []
    if quality["r2"] <= 0.0:
        found.append(
            f"cross-validated R2 is {quality['r2']:.4g}: the model predicts age "
            "no better than the mean training age"
        )
    age_variance = float(np.var(model.y))
    if model.params.noise_variance >= age_variance:
        found.append(
            f"the fitted noise variance {model.params.noise_variance:.4g} is at least "
            f"the variance of the centred training ages ({age_variance:.4g}): "
            "the kernel explains none of the age variation"
        )
    return found
