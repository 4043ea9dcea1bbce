"""Per-subject abnormality metrics and cross-validated fit quality.

Three metrics, all oriented so that higher means more abnormal downstream:
the signed prediction error (predicted minus chronological age), the GP
posterior variance, and the age-weighted posterior variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gpr import FitConfig, TrainedModel, feature_grams, fit, predict, weighted_posterior_cov
from .kernels import AgeKernelParams
from .preprocess import PcaTransform, Standardizer, apply_chain
from .seeding import FOLDS, substream
from .tabular_io import Cohort, ScoresTable


@dataclass(frozen=True)
class FitQualityReport:
    """Cross-validated fit quality: pooled MAE/R2 plus per-fold values."""

    mae: float
    r2: float
    per_fold: tuple[tuple[float, float], ...]
    folds: int

    def __post_init__(self):
        if len(self.per_fold) != self.folds:
            raise ValueError("per_fold length must equal the fold count")


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
    # One test-by-training block serves both posteriors.
    grams = feature_grams(model, transformed, train=False)
    result = predict(model, transformed, grams=grams)
    weighted = weighted_posterior_cov(model, transformed, cohort.age, age_params, grams=grams)
    return ScoresTable(
        subject_ids=cohort.subject_ids,
        age=cohort.age,
        diagnosis=cohort.diagnosis or ("",) * cohort.n_subjects,
        y_hat=result.y_hat,
        epsilon=prediction_error(result.y_hat, cohort.age),
        cov=result.variance,
        cov_w=weighted.variance,
    )


def _mae_and_r2(predicted: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """MAE and R2 of predictions; R2 is nan when the ages are constant."""
    errors = predicted - y
    mae = float(np.mean(np.abs(errors)))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(errors**2)) / ss_tot if ss_tot > 0.0 else math.nan
    return mae, r2


def cross_validated_quality(x, y, folds: int, config: FitConfig | None = None) -> FitQualityReport:
    """K-fold cross-validated MAE and R2 of the age regression.

    Fold assignment is a seeded permutation split (deterministic given
    ``config.seed``). MAE and R2 are computed on the pooled out-of-fold
    predictions; per-fold values are also reported. A fold whose held-out
    ages are constant reports R2 = nan rather than failing.
    """
    cfg = config if config is not None else FitConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be 2-D with one row per y entry")
    m = x.shape[0]
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if folds > m:
        raise ValueError(f"cannot split {m} subjects into {folds} folds")

    order = substream(cfg.seed, FOLDS).permutation(m)
    chunks = np.array_split(order, folds)
    pooled = np.empty(m)
    per_fold: list[tuple[float, float]] = []
    for chunk in chunks:
        mask = np.ones(m, dtype=bool)
        mask[chunk] = False
        fold_model = fit(x[mask], y[mask], cfg)
        predicted = predict(fold_model, x[chunk]).y_hat
        pooled[chunk] = predicted
        per_fold.append(_mae_and_r2(predicted, y[chunk]))

    mae, r2 = _mae_and_r2(pooled, y)
    return FitQualityReport(mae=mae, r2=r2, per_fold=tuple(per_fold), folds=folds)
