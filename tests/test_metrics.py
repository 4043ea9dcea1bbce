import math
import tracemalloc

import numpy as np
import pytest

from normgp import gpr, metrics
from normgp.errors import SchemaError
from normgp.gpr import (
    FitConfig,
    feature_grams,
    fit,
    predict,
    restore,
    weighted_posterior_cov,
)
from normgp.kernels import SUM, AgeKernelParams, KernelParams
from normgp.metrics import (
    cross_validated_quality,
    fit_warnings,
    prediction_error,
    score_cohort,
    split_folds,
)
from normgp.preprocess import apply_chain, fit_chain, fit_pca, fit_standardizer
from normgp.seeding import FOLDS, substream
from normgp.synth import SynthConfig, generate_cohort
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


@pytest.mark.parametrize("rows", [5, None])
def test_finite_ly_score_matches_the_sweep_path_and_predict(monkeypatch, rows):
    # the score's one pass against a sweep's stored feature blocks, over
    # several row blocks: 5-row blocks, or the default ones at 600 rows
    if rows is not None:
        monkeypatch.setattr(gpr, "_PASS_ROWS", rows)
    model, cohort = _toy_model_and_cohort(n_test=23 if rows else 600)
    age_params = AgeKernelParams(age_length_scale=12.0, age_noise_variance=0.2)
    scores = score_cohort(model, cohort, age_params)
    stored = weighted_posterior_cov(model, cohort.features, cohort.age, age_params,
                                    grams=feature_grams(model, cohort.features))
    np.testing.assert_allclose(scores.cov_w, stored.variance, rtol=1e-12, atol=0.0)
    plain = predict(model, cohort.features)
    assert np.array_equal(scores.y_hat, plain.y_hat)
    assert np.array_equal(scores.cov, plain.variance)


@pytest.mark.parametrize("age_params", [AgeKernelParams(), AgeKernelParams(10.0, 0.1)])
def test_score_path_holds_about_one_row_block_past_the_factors(age_params):
    # at n >> m: past the weighted training factor (when the weighting is
    # not the identity) a score holds a row block's cross block and its
    # Gram scratch, and O(n) vectors, never an n x m block
    rng = np.random.default_rng(35)
    m, n = 100, 20000
    x = rng.normal(size=(m, 2))
    model = restore(x, rng.uniform(20, 80, m), KernelParams(np.ones(2), 0.5), SUM)
    ages = rng.uniform(20, 80, n)
    cohort = Cohort(
        subject_ids=tuple(str(i) for i in range(n)),
        features=rng.normal(size=(n, 2)),
        feature_names=("f1", "f2"),
        age=ages,
        diagnosis=("HC",) * n,
    )
    score_cohort(model, cohort, age_params)  # scipy's imports are not counted
    tracemalloc.start()
    try:
        score_cohort(model, cohort, age_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    factors = 0 if math.isinf(age_params.age_length_scale) else 2 * m * m * 8
    row_block = gpr._PASS_ROWS * m * 8
    assert peak < factors + 3 * row_block + 10 * n * 8
    assert peak < 0.2 * n * m * 8


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


def _cv(x, y, folds, config, **chain):
    """Cross-validate warm-started from the full-data fit, as ``normgp fit`` does."""
    split = split_folds(x, folds, config.seed, **chain)
    full = fit(fit_chain(x, **chain)[2], y, config)
    return cross_validated_quality(x, y, split, config, full.params)


def test_cross_validated_quality_perfect_predictor():
    # target duplicated as the only feature, noiseless: GP interpolates
    y = np.linspace(-1.5, 1.5, 24)
    x = y.reshape(-1, 1)
    report = _cv(x, y, 4, FitConfig(form="product", restarts=2, seed=1))
    assert report["mae"] < 0.05
    assert report["r2"] > 0.98
    assert report["folds"] == 4
    assert [fold["fold"] for fold in report["per_fold"]] == [0, 1, 2, 3]


def _fit_at(monkeypatch, params):
    """Make every CV fold's fit a centered model at ``params``."""

    def frozen_fit(x, y, config, *, start):
        return restore(x, y, params, config.form, y_offset=float(np.mean(y)))

    monkeypatch.setattr(metrics, "fit", frozen_fit)


def test_cross_validated_quality_constant_predictor_has_nonpositive_r2(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 2))
    y = rng.uniform(20, 80, 30)
    frozen = KernelParams(length_scales=np.full(2, 1e6), noise_variance=1.0)
    _fit_at(monkeypatch, frozen)
    report = cross_validated_quality(x, y, split_folds(x, 5, 0), FitConfig(), frozen)
    assert report["r2"] <= 0.05


def test_cross_validated_quality_leave_one_out(monkeypatch):
    rng = np.random.default_rng(6)
    y = rng.uniform(20, 80, 9)
    x = np.column_stack([y + rng.normal(0, 0.5, 9)])
    params = KernelParams(length_scales=np.array([20.0]), noise_variance=0.5)
    _fit_at(monkeypatch, params)
    report = cross_validated_quality(x, y, split_folds(x, 9, 0), FitConfig(), params)
    assert report["folds"] == 9
    assert len(report["per_fold"]) == 9
    assert math.isfinite(report["mae"])
    # single-subject folds have no variance: per-fold r2 is reported as nan
    assert all(math.isnan(fold["r2"]) for fold in report["per_fold"])
    assert math.isfinite(report["r2"])


def test_cross_validated_quality_fold_bounds():
    x = np.ones((6, 1)) * np.arange(6).reshape(-1, 1)
    with pytest.raises(ValueError):
        split_folds(x, 1, 0)
    with pytest.raises(ValueError):
        split_folds(x, 7, 0)


def test_split_folds_partitions_the_rows_and_transforms_only_training_rows():
    rng = np.random.default_rng(4)
    x = rng.normal(3.0, 2.0, (23, 4))
    split = split_folds(x, 4, 9, standardize=True, n_components=2)
    held_out = np.concatenate([fold.held_out for fold in split])
    assert np.array_equal(np.sort(held_out), np.arange(23))
    for fold in split:
        train = np.delete(x, fold.held_out, axis=0)
        assert np.array_equal(fold.train_features, apply_chain(train, fold.standardizer, fold.pca))


def test_fold_with_a_column_constant_on_its_training_rows_is_named():
    # A feature that varies only inside one fold's held-out rows, like a
    # rare site indicator: all rows can be standardized, that fold cannot.
    rng = np.random.default_rng(10)
    x = rng.normal(size=(20, 3))
    held_out = np.array_split(substream(0, FOLDS).permutation(20), 4)[2]
    x[:, 1] = 0.0
    x[held_out, 1] = 1.0
    fit_standardizer(x)
    with pytest.raises(SchemaError, match=r"fold 2 .* 15 training rows.*constant column at index 1"):
        split_folds(x, 4, 0, standardize=True)
    assert len(split_folds(x, 4, 0)) == 4


def test_fold_with_too_few_training_rows_for_the_pca_is_named():
    # 12 rows carry 10 components; the 9 training rows of a 4-fold split do not.
    x = np.random.default_rng(11).normal(size=(12, 10))
    fit_pca(x, 10)
    with pytest.raises(SchemaError, match=r"fold 0 .* 9 training rows.*at most .* = 8"):
        split_folds(x, 4, 0, n_components=10)
    assert len(split_folds(x, 4, 0, n_components=8)) == 4


def test_cross_validated_quality_deterministic():
    rng = np.random.default_rng(7)
    y = rng.uniform(20, 80, 16)
    x = np.column_stack([y + rng.normal(0, 1, 16), rng.normal(size=16)])
    config = FitConfig(restarts=1, seed=11)
    a = _cv(x, y, 4, config)
    b = _cv(x, y, 4, config)
    assert a["mae"] == b["mae"] and a["r2"] == b["r2"]
    assert a["per_fold"] == b["per_fold"]


def _record_fits(monkeypatch):
    """Record each CV fold's fit inputs and fitted model."""
    fits = []

    def fold_fit(x, y, config, *, start):
        fits.append({"x": x, "y": y, "start": start, "model": fit(x, y, config, start=start)})
        return fits[-1]["model"]

    monkeypatch.setattr(metrics, "fit", fold_fit)
    return fits


def _fingerprint(fold, fitted) -> list:
    """The bits of a fold's preprocessing chain, fit inputs and fitted model."""
    arrays = [fitted["x"], fitted["y"], fitted["model"].params.length_scales, fitted["model"].alpha]
    if fold.standardizer is not None:
        arrays += [fold.standardizer.means, fold.standardizer.std_devs]
    if fold.pca is not None:
        arrays += [fold.pca.mean, fold.pca.components, fold.pca.explained_variance]
    return [a.tobytes() for a in arrays] + [fitted["model"].log_marginal_likelihood]


@pytest.mark.parametrize(
    "chain", [{"standardize": True}, {"n_components": 3}, {"standardize": True, "n_components": 3}]
)
def test_held_out_rows_do_not_reach_their_folds_preprocessing_or_model(monkeypatch, chain):
    rng = np.random.default_rng(8)
    y = rng.uniform(20, 80, 40)
    x = np.column_stack([y / 10.0 + rng.normal(0, 0.3, 40), rng.normal(5.0, 2.0, (40, 4))])
    config = FitConfig(restarts=1, seed=3)
    dims = chain.get("n_components", 5)
    start = KernelParams(length_scales=np.full(dims, 2.0), noise_variance=10.0)
    folds = 4
    held_out = np.array_split(substream(config.seed, FOLDS).permutation(40), folds)[1]
    perturbed = x.copy()
    perturbed[held_out] = rng.normal(50.0, 30.0, perturbed[held_out].shape)

    runs = []
    for features in (x, perturbed):
        split = split_folds(features, folds, config.seed, **chain)
        fits = _record_fits(monkeypatch)
        cross_validated_quality(features, y, split, config, start)
        runs.append([_fingerprint(fold, fitted) for fold, fitted in zip(split, fits)])
    assert [len(run) for run in runs] == [folds, folds]
    assert (split[0].standardizer is not None) == chain.get("standardize", False)
    assert (split[0].pca is not None) == ("n_components" in chain)
    # only the fold that held the perturbed rows out is blind to them
    unchanged = [a == b for a, b in zip(*runs)]
    assert unchanged == [k == 1 for k in range(folds)]


def test_each_fold_fits_once_from_the_given_start(monkeypatch):
    rng = np.random.default_rng(9)
    y = rng.uniform(20, 80, 30)
    x = np.column_stack([y / 10.0 + rng.normal(0, 0.3, 30), rng.normal(size=30)])
    start = KernelParams(length_scales=np.array([1.5, 3.0]), noise_variance=5.0)
    fits = _record_fits(monkeypatch)
    cross_validated_quality(x, y, split_folds(x, 3, 0), FitConfig(restarts=4), start)
    assert len(fits) == 3
    for fitted in fits:
        assert fitted["start"] is start
        assert len(fitted["model"].restart_log_marginals) == 1


def test_warm_started_folds_end_no_lower_than_their_start(monkeypatch):
    # A weaker check than comparing with a cold multi-start search of each
    # fold, which this design does not pass: a fold's single run climbs from
    # the full-data optimum and can stop below a higher peak elsewhere. The
    # report shows how far each fold climbed from its start.
    cohort = generate_cohort(SynthConfig(n_healthy=80, n_features=4, seed=12))
    config = FitConfig(restarts=5, seed=0)
    fits = _record_fits(monkeypatch)
    report = _cv(cohort.features, cohort.age, 4, config, standardize=True)
    assert len(fits) == 4
    for fold, fitted in zip(report["per_fold"], fits):
        offset = float(np.mean(fitted["y"]))
        at_start = restore(fitted["x"], fitted["y"], fitted["start"], SUM, y_offset=offset)
        assert fold["start_log_marginal_likelihood"] == at_start.log_marginal_likelihood
        assert fold["log_marginal_likelihood"] == fitted["model"].log_marginal_likelihood
        assert fold["log_marginal_likelihood"] >= fold["start_log_marginal_likelihood"]


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_warm_started_cv_predicts_about_as_well_as_cold_started_cv(seed):
    # The drift of warm-started folds is the protocol: each fold's one run
    # may stop on a lower peak than a cold multi-start search of its rows,
    # but its pooled out-of-fold MAE stays within 10% of the cold search's.
    cohort = generate_cohort(SynthConfig(n_healthy=80, n_features=4, seed=seed))
    x, y = cohort.features, cohort.age
    config = FitConfig(seed=0)
    warm = _cv(x, y, 5, config)
    cold = np.empty_like(y)
    for fold in split_folds(x, 5, config.seed):
        train = np.delete(y, fold.held_out)
        model = fit(fold.train_features, train, config)
        cold[fold.held_out] = predict(model, x[fold.held_out]).y_hat
    assert config.restarts == 5
    assert warm["mae"] <= 1.10 * float(np.mean(np.abs(cold - y)))


def test_fit_warnings_flag_a_fit_that_explains_nothing():
    y = np.array([20.0, 35.0, 50.0, 65.0])  # centred, their variance is 281.25
    x = np.arange(4.0)[:, None]

    def warned(r2, noise_variance):
        model = restore(x, y, KernelParams(np.ones(1), noise_variance), SUM, y_offset=42.5)
        found = fit_warnings(model, {"r2": r2})
        return [("R2" in text, "noise variance" in text) for text in found]

    assert warned(0.3, 281.2) == []
    assert warned(math.nan, 1.0) == []  # constant held-out ages leave R2 undefined
    assert warned(0.0, 1.0) == [(True, False)]
    assert warned(-2.0, 281.2) == [(True, False)]
    assert warned(0.3, 281.25) == [(False, True)]
    assert warned(-0.1, 1e4) == [(True, False), (False, True)]
