import math

import numpy as np
import pytest

from normgp import metrics
from normgp.errors import SchemaError
from normgp.gpr import FitConfig, predict, restore, weighted_posterior_cov
from normgp.kernels import SUM, AgeKernelParams, KernelParams
from normgp.metrics import (
    cross_validated_quality,
    prediction_error,
    score_cohort,
)
from normgp.preprocess import fit_pca, fit_standardizer
from normgp.tabular_io import Cohort


def test_prediction_error_examples():
    assert np.array_equal(prediction_error([70.0], [65.0]), [5.0])
    assert np.array_equal(prediction_error([60.0], [70.0]), [-10.0])
    y = np.array([30.0, 40.0, 50.0])
    assert np.array_equal(prediction_error(y, y), np.zeros(3))
    with pytest.raises(ValueError):
        prediction_error([1.0], [1.0, 2.0])


def test_prediction_error_translation_consistency():
    rng = np.random.default_rng(0)
    y_hat = rng.uniform(20, 80, 30)
    y = rng.uniform(20, 80, 30)
    base = prediction_error(y_hat, y)
    shifted = prediction_error(y_hat + 512.0, y + 512.0)
    assert np.allclose(base, shifted, atol=1e-9)


def _toy_model_and_cohort(n_test=8, seed=1):
    rng = np.random.default_rng(seed)
    ages = rng.uniform(20, 80, 30)
    features = np.column_stack([ages / 10.0 + rng.normal(0, 0.2, 30), rng.normal(size=30)])
    params = KernelParams(length_scales=np.array([2.0, 1.5]), noise_variance=0.3)
    model = restore(features, ages, params, SUM)
    test_ages = rng.uniform(20, 80, n_test)
    test_features = np.column_stack(
        [test_ages / 10.0 + rng.normal(0, 0.2, n_test), rng.normal(size=n_test)]
    )
    cohort = Cohort(
        subject_ids=tuple(f"t{i}" for i in range(n_test)),
        features=test_features,
        feature_names=("f1", "f2"),
        age=test_ages,
        diagnosis=("HC",) * n_test,
    )
    return model, cohort


def test_score_cohort_assembles_the_three_metrics():
    model, cohort = _toy_model_and_cohort()
    age_params = AgeKernelParams(age_length_scale=15.0)
    scores = score_cohort(model, cohort, age_params)
    direct = predict(model, cohort.features)
    weighted = weighted_posterior_cov(model, cohort.features, cohort.age, age_params)
    assert np.array_equal(scores.y_hat, direct.y_hat)
    assert np.array_equal(scores.epsilon, direct.y_hat - cohort.age)
    assert np.array_equal(scores.cov, direct.variance)
    assert np.array_equal(scores.cov_w, weighted.variance)
    assert scores.subject_ids == cohort.subject_ids
    assert scores.diagnosis == cohort.diagnosis
    assert np.array_equal(scores.age, cohort.age)


def test_score_cohort_without_labels_gives_empty_diagnosis():
    model, cohort = _toy_model_and_cohort()
    unlabeled = Cohort(
        subject_ids=cohort.subject_ids,
        features=cohort.features,
        feature_names=cohort.feature_names,
        age=cohort.age,
    )
    scores = score_cohort(model, unlabeled, AgeKernelParams(age_length_scale=15.0))
    assert scores.diagnosis == ("",) * cohort.n_subjects


def test_score_cohort_infinite_scale_equivalence():
    model, cohort = _toy_model_and_cohort()
    scores = score_cohort(model, cohort, AgeKernelParams(age_length_scale=math.inf))
    assert np.max(np.abs(scores.cov_w - scores.cov)) <= 1e-12


def test_score_cohort_row_order_permutes_with_input():
    model, cohort = _toy_model_and_cohort()
    age_params = AgeKernelParams(age_length_scale=10.0)
    base = score_cohort(model, cohort, age_params)
    perm = np.random.default_rng(2).permutation(cohort.n_subjects)
    shuffled = Cohort(
        subject_ids=tuple(cohort.subject_ids[i] for i in perm),
        features=cohort.features[perm],
        feature_names=cohort.feature_names,
        age=cohort.age[perm],
        diagnosis=tuple(cohort.diagnosis[i] for i in perm),
    )
    permuted = score_cohort(model, shuffled, age_params)
    assert np.array_equal(permuted.epsilon, base.epsilon[perm])
    assert np.array_equal(permuted.cov, base.cov[perm])
    assert np.array_equal(permuted.cov_w, base.cov_w[perm])


def test_score_cohort_checks_feature_names():
    model, cohort = _toy_model_and_cohort()
    with pytest.raises(SchemaError):
        score_cohort(
            model,
            cohort,
            AgeKernelParams(),
            expected_feature_names=("other", "names"),
        )


def test_score_cohort_applies_preprocessing_chain():
    rng = np.random.default_rng(3)
    raw = rng.normal(5.0, 2.0, size=(25, 4))
    ages = rng.uniform(20, 80, 25)
    standardizer = fit_standardizer(raw)
    pca = fit_pca(standardizer.apply(raw), 2)
    reduced = pca.project(standardizer.apply(raw))
    model = restore(
        reduced, ages, KernelParams(length_scales=np.ones(2), noise_variance=0.2), SUM
    )
    cohort = Cohort(
        subject_ids=tuple(str(i) for i in range(25)),
        features=raw,
        feature_names=("a", "b", "c", "d"),
        age=ages,
    )
    scores = score_cohort(
        model, cohort, AgeKernelParams(), standardizer=standardizer, pca=pca
    )
    assert np.array_equal(scores.y_hat, predict(model, reduced).y_hat)


def test_self_scoring_is_tight_for_a_good_model():
    # model trained on its own cohort: errors small, uncertainty near floor
    ages = np.linspace(20, 80, 40)
    features = np.column_stack([ages / 15.0, np.tanh((ages - 50) / 12.0)])
    params = KernelParams(length_scales=np.array([2.0, 1.0]), noise_variance=1e-4)
    model = restore(features, ages, params, SUM, y_offset=float(ages.mean()))
    cohort = Cohort(
        subject_ids=tuple(str(i) for i in range(40)),
        features=features,
        feature_names=("f1", "f2"),
        age=ages,
    )
    scores = score_cohort(model, cohort, AgeKernelParams())
    assert np.mean(np.abs(scores.epsilon)) < 2.0
    from normgp.kernels import zero_distance_value

    assert np.max(scores.cov) < 0.5 * zero_distance_value(model.params, model.form)


def test_cov_w_monotone_in_age_distance_single_train_point():
    params = KernelParams(length_scales=np.array([1.0]), noise_variance=0.1)
    model = restore(np.array([[0.0]]), np.array([50.0]), params, SUM)
    age_params = AgeKernelParams(age_length_scale=5.0)
    x_test = np.array([[0.3]])
    distances = [0.0, 2.0, 5.0, 10.0, 25.0]
    variances = [
        weighted_posterior_cov(model, x_test, np.array([50.0 + d]), age_params).variance[0]
        for d in distances
    ]
    assert all(b >= a - 1e-12 for a, b in zip(variances, variances[1:]))


def test_cross_validated_quality_perfect_predictor():
    # target duplicated as the only feature, noiseless: GP interpolates
    y = np.linspace(-1.5, 1.5, 24)
    x = y.reshape(-1, 1)
    report = cross_validated_quality(
        x, y, 4, FitConfig(form="product", restarts=2, seed=1)
    )
    assert report.mae < 0.05
    assert report.r2 > 0.98
    assert report.folds == 4
    assert len(report.per_fold) == 4


def _fit_at(monkeypatch, params):
    """Make every CV fold's fit a centered model at ``params``."""

    def frozen_fit(x, y, config):
        return restore(x, y, params, config.form, y_offset=float(np.mean(y)))

    monkeypatch.setattr(metrics, "fit", frozen_fit)


def test_cross_validated_quality_constant_predictor_has_nonpositive_r2(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 2))
    y = rng.uniform(20, 80, 30)
    frozen = KernelParams(length_scales=np.full(2, 1e6), noise_variance=1.0)
    _fit_at(monkeypatch, frozen)
    report = cross_validated_quality(x, y, 5, FitConfig(center_ages=True))
    assert report.r2 <= 0.05


def test_cross_validated_quality_leave_one_out(monkeypatch):
    rng = np.random.default_rng(6)
    y = rng.uniform(20, 80, 9)
    x = np.column_stack([y + rng.normal(0, 0.5, 9)])
    params = KernelParams(length_scales=np.array([20.0]), noise_variance=0.5)
    _fit_at(monkeypatch, params)
    report = cross_validated_quality(x, y, 9, FitConfig(center_ages=True))
    assert report.folds == 9
    assert len(report.per_fold) == 9
    assert math.isfinite(report.mae)
    # single-subject folds have no variance: per-fold r2 is reported as nan
    assert all(math.isnan(fold_r2) for _, fold_r2 in report.per_fold)
    assert math.isfinite(report.r2)


def test_cross_validated_quality_fold_bounds():
    x = np.ones((6, 1)) * np.arange(6).reshape(-1, 1)
    y = np.linspace(30, 60, 6)
    with pytest.raises(ValueError):
        cross_validated_quality(x, y, 1, FitConfig())
    with pytest.raises(ValueError):
        cross_validated_quality(x, y, 7, FitConfig())


def test_cross_validated_quality_deterministic():
    rng = np.random.default_rng(7)
    y = rng.uniform(20, 80, 16)
    x = np.column_stack([y + rng.normal(0, 1, 16), rng.normal(size=16)])
    config = FitConfig(restarts=1, seed=11, center_ages=True)
    a = cross_validated_quality(x, y, 4, config)
    b = cross_validated_quality(x, y, 4, config)
    assert a.mae == b.mae and a.r2 == b.r2
    assert a.per_fold == b.per_fold
