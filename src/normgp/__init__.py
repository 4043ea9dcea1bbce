"""Normative Gaussian-process age modeling with uncertainty-based anomaly scores.

Train a GP regression from brain features (or any tabular features) to age
on a healthy cohort, then score new subjects by prediction error, posterior
uncertainty, and age-weighted posterior uncertainty.

Importing the package loads none of its modules: each public name's module
is imported when the name is first used. So ``python -m normgp`` and the
``normgp`` script (``normgp.__main__``) start before numpy is loaded, and
can set what numpy's OpenBLAS reads when it loads.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "errors": (
        "CohortParseError", "ConditioningError", "ModelFormatError",
        "ModelIntegrityError", "NormgpError", "NumericalError", "SchemaError",
    ),
    "gpr": (
        "FitConfig", "PredictionResult", "TrainedModel", "WeightedCovariance", "fit",
        "log_marginal_likelihood", "predict", "restore", "weighted_posterior_cov",
    ),
    "kernels": (
        "FORMS", "PRODUCT", "SUM", "AgeKernelParams", "KernelParams", "gram_matrix",
        "prior_variance", "zero_distance_value",
    ),
    "metrics": (
        "cross_validated_quality", "prediction_error", "score_cohort", "split_folds",
    ),
    "preprocess": (
        "PcaTransform", "Standardizer", "apply_chain", "fit_pca", "fit_standardizer",
    ),
    "stats": (
        "DEFAULT_LY_GRID", "METRIC_NAMES", "FixedEffectsFit", "LySweepResult",
        "RankSumResult", "RocResult", "evaluate_scores", "fit_fixed_effects",
        "ly_sweep", "pearson_r", "rank_sum_test", "roc_auc",
    ),
    "synth": (
        "MODES", "AgingTrajectory", "SynthConfig", "generate_cohort",
        "sample_trajectory",
    ),
    "tabular_io": (
        "SCORES_HEADER", "Cohort", "FitMetadata", "ModelArtifact", "ScoresTable",
        "artifact_from_fit", "load_cohort", "load_model", "load_scores", "save_cohort",
        "save_model", "save_scores", "save_sweep", "to_trained_model",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # ``import normgp`` once made these attributes too
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
