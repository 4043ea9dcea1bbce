import itertools
import math

import numpy as np
import pytest
import scipy.stats

from conftest import naive_midranks

from normgp.errors import SchemaError
from normgp.gpr import restore
from normgp.kernels import PRODUCT, SUM, AgeKernelParams, KernelParams
from normgp.stats import (
    DEFAULT_LY_GRID,
    evaluate_scores,
    fit_fixed_effects,
    ly_sweep,
    pearson_r,
    rank_sum_test,
    roc_auc,
)
from normgp.stats import _midranks
from normgp.tabular_io import Cohort, ScoresTable


# ---------------------------------------------------------------------------
# rank-sum test
# ---------------------------------------------------------------------------


def test_rank_sum_fully_separated_small_groups():
    result = rank_sum_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert result.u_statistic == 0.0
    assert result.method == "exact"
    assert abs(result.p_value - 0.1) < 1e-12


def test_rank_sum_identical_groups_is_central():
    result = rank_sum_test([5.0, 6.0, 7.0], [5.0, 6.0, 7.0])
    assert result.u_statistic == 4.5
    assert result.p_value == 1.0


def _enumerated_two_sided_p(a, b):
    """Brute-force exact two-sided p: mass of |U - n1 n2 / 2| at least as big."""
    pooled = np.concatenate([a, b])
    n1 = len(a)
    ranks = scipy.stats.rankdata(pooled)
    observed_u = np.sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    center = n1 * len(b) / 2
    observed_dev = abs(observed_u - center)
    total = 0
    hits = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        total += 1
        u = np.sum(ranks[list(combo)]) - n1 * (n1 + 1) / 2
        if abs(u - center) >= observed_dev - 1e-9:
            hits += 1
    return hits / total


def test_rank_sum_exact_matches_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(12):
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 7))
        a = rng.normal(size=n1)
        b = rng.normal(0.8, 1.0, size=n2)
        result = rank_sum_test(a, b)
        assert result.method == "exact"
        assert abs(result.p_value - _enumerated_two_sided_p(a, b)) < 1e-12


def test_rank_sum_exact_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.normal(size=5)
        b = rng.normal(0.5, 1.0, size=6)
        mine = rank_sum_test(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
        assert abs(mine.u_statistic - ref.statistic) < 1e-12
        assert abs(mine.p_value - ref.pvalue) < 1e-12


def test_rank_sum_normal_approximation_matches_scipy():
    rng = np.random.default_rng(12)
    for _ in range(8):
        a = rng.normal(size=25)
        b = rng.normal(0.4, 1.2, size=30)
        mine = rank_sum_test(a, b)
        assert mine.method == "normal_approx"
        ref = scipy.stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert abs(mine.u_statistic - ref.statistic) < 1e-12
        assert abs(mine.p_value - ref.pvalue) < 1e-10


def test_rank_sum_normal_approximation_with_ties_matches_scipy():
    rng = np.random.default_rng(13)
    for _ in range(8):
        a = rng.integers(0, 6, size=20).astype(float)
        b = rng.integers(1, 7, size=24).astype(float)
        mine = rank_sum_test(a, b)
        ref = scipy.stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert abs(mine.u_statistic - ref.statistic) < 1e-12
        assert abs(mine.p_value - ref.pvalue) < 1e-10


def test_rank_sum_ties_force_normal_method_even_for_small_groups():
    result = rank_sum_test([1.0, 2.0, 2.0], [2.0, 3.0, 4.0])
    assert result.method == "normal_approx"


def test_rank_sum_exact_and_normal_agree_at_the_boundary():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=8)
        b = rng.normal(0.6, 1.0, size=8)
        exact = rank_sum_test(a, b)
        assert exact.method == "exact"
        ref = scipy.stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        worst = max(worst, abs(exact.p_value - ref.pvalue))
    assert worst < 0.02


def test_rank_sum_invariant_under_monotone_transform():
    rng = np.random.default_rng(15)
    a = rng.normal(size=12)
    b = rng.normal(0.7, 1.0, size=15)
    base = rank_sum_test(a, b)
    warped = rank_sum_test(np.exp(a), np.exp(b))
    assert base.u_statistic == warped.u_statistic
    assert base.p_value == warped.p_value


def test_rank_sum_input_validation():
    with pytest.raises(ValueError):
        rank_sum_test([], [1.0])
    with pytest.raises(ValueError):
        rank_sum_test([1.0], [])
    with pytest.raises(ValueError):
        rank_sum_test([1.0, math.nan], [2.0])


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------


def test_midranks_match_the_tie_scan_bitwise():
    rng = np.random.default_rng(28)
    cases = [np.array([0.0, -0.0, 0.0]), np.array([5.0]), np.arange(40.0)[::-1]]
    for _ in range(2000):
        n = int(rng.integers(1, 60))
        values = rng.integers(-3, 4, size=n).astype(float)
        # signed zeros are one tie group
        values[rng.random(n) < 0.2] *= -1.0
        cases.append(values)
    for values in cases:
        ranks, tie_sizes = _midranks(values)
        expected_ranks, expected_sizes = naive_midranks(values)
        assert ranks.tobytes() == expected_ranks.tobytes()
        assert tie_sizes.tobytes() == expected_sizes.tobytes()
    assert np.array_equal(_midranks(cases[0])[0], [2.0, 2.0, 2.0])


def test_roc_perfect_separation():
    result = roc_auc([1.0, 2.0, 9.0, 10.0], [0, 0, 1, 1])
    assert result.auc == 1.0


def test_roc_all_scores_tied():
    result = roc_auc([3.0, 3.0, 3.0, 3.0], [0, 1, 0, 1])
    assert result.auc == 0.5


def test_roc_hand_worked_curve():
    result = roc_auc([0.9, 0.8, 0.8, 0.1], [1, 1, 0, 0])
    assert np.array_equal(result.thresholds, [math.inf, 0.9, 0.8, 0.1])
    assert np.allclose(result.fpr, [0.0, 0.0, 0.5, 1.0])
    assert np.allclose(result.tpr, [0.0, 0.5, 1.0, 1.0])
    assert abs(result.auc - 0.875) < 1e-15


def test_roc_auc_equals_rank_sum_u_relation():
    rng = np.random.default_rng(16)
    for _ in range(10):
        n0 = int(rng.integers(5, 40))
        n1 = int(rng.integers(5, 40))
        scores = np.concatenate(
            [
                rng.integers(0, 12, size=n0).astype(float),  # ties included
                rng.integers(3, 15, size=n1).astype(float),
            ]
        )
        labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
        auc = roc_auc(scores, labels).auc
        # U counts (negative above positive) pairs, so AUC = 1 - U/(n0*n1)
        u = rank_sum_test(scores[labels == 0], scores[labels == 1]).u_statistic
        assert abs(auc - (1.0 - u / (n0 * n1))) < 1e-12


def test_roc_orientation_flip_complements_auc():
    rng = np.random.default_rng(17)
    scores = rng.normal(size=50)
    labels = (rng.random(50) < 0.4).astype(int)
    high = roc_auc(scores, labels).auc
    low = roc_auc(-scores, labels).auc
    assert abs(high + low - 1.0) < 1e-12


def test_roc_curve_properties():
    rng = np.random.default_rng(18)
    scores = np.round(rng.normal(size=60), 1)
    labels = (rng.random(60) < 0.5).astype(int)
    result = roc_auc(scores, labels)
    assert result.fpr[0] == 0.0 and result.tpr[0] == 0.0
    assert result.fpr[-1] == 1.0 and result.tpr[-1] == 1.0
    assert np.all(np.diff(result.fpr) >= 0)
    assert np.all(np.diff(result.tpr) >= 0)
    assert result.thresholds[0] == math.inf
    assert np.all(np.diff(result.thresholds[1:]) < 0)
    assert 0.0 <= result.auc <= 1.0


def test_roc_invariant_under_monotone_transform():
    rng = np.random.default_rng(19)
    scores = rng.normal(size=40)
    labels = (rng.random(40) < 0.5).astype(int)
    base = roc_auc(scores, labels)
    warped = roc_auc(np.tanh(scores), labels)
    assert abs(base.auc - warped.auc) < 1e-15
    assert np.array_equal(base.fpr, warped.fpr)
    assert np.array_equal(base.tpr, warped.tpr)


def test_roc_requires_both_classes():
    with pytest.raises(ValueError):
        roc_auc([1.0, 2.0], [1, 1])
    with pytest.raises(ValueError):
        roc_auc([1.0, 2.0], [0, 0])
    with pytest.raises(ValueError):
        roc_auc([1.0], [0, 1])


# ---------------------------------------------------------------------------
# Pearson correlation
# ---------------------------------------------------------------------------


def test_pearson_closed_forms():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_r(x, 2.0 * x + 1.0) == 1.0
    assert pearson_r(x, -x) == -1.0
    assert abs(pearson_r([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) - 0.5) < 1e-15


def test_pearson_matches_numpy():
    rng = np.random.default_rng(20)
    for _ in range(10):
        n = int(rng.integers(3, 50))
        x = rng.normal(size=n)
        y = 0.6 * x + rng.normal(size=n)
        assert abs(pearson_r(x, y) - np.corrcoef(x, y)[0, 1]) < 1e-12


def test_pearson_rejects_degenerate_input():
    with pytest.raises(ValueError):
        pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson_r([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_rejects_non_finite_input():
    # the [-1, 1] clamp would turn a NaN correlation into 1.0
    with pytest.raises(ValueError, match="non-finite"):
        pearson_r([1.0, 2.0, 3.0], [1.0, np.nan, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        pearson_r([1.0, np.inf, 3.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# fixed-effects regression
# ---------------------------------------------------------------------------


def _simulate_volumes(n, seed, age_slope=-0.3, dx_effect=-0.5, interaction=0.0, noise=0.05):
    rng = np.random.default_rng(seed)
    age = rng.uniform(20, 80, n)
    sex = (rng.random(n) < 0.5).astype(float)
    dx = (rng.random(n) < 0.4).astype(float)
    age_z = (age - age.mean()) / age.std()
    volume = (
        1.0
        + age_slope * age_z
        + 0.1 * sex
        + dx_effect * dx
        + interaction * age_z * dx
        + rng.normal(0, noise, n)
    )
    return volume, age, sex, dx


def test_fixed_effects_recovers_planted_coefficients():
    volume, age, sex, dx = _simulate_volumes(800, seed=21, interaction=-0.15)
    result = fit_fixed_effects(volume, age, sex, dx)
    assert abs(result.coefficients["age"] - (-0.3)) < 0.02
    assert abs(result.coefficients["sex"] - 0.1) < 0.02
    assert abs(result.coefficients["dx"] - (-0.5)) < 0.02
    assert abs(result.coefficients["age_x_dx"] - (-0.15)) < 0.02
    assert result.n == 800
    assert result.p_values["age"] < 1e-10
    assert result.p_values["dx"] < 1e-10


def test_fixed_effects_matches_normal_equations_oracle():
    volume, age, sex, dx = _simulate_volumes(300, seed=22, interaction=0.2, noise=0.3)
    result = fit_fixed_effects(volume, age, sex, dx)
    age_z = (age - age.mean()) / age.std()
    design = np.column_stack([np.ones_like(age), age_z, sex, dx, age_z * dx])
    target = volume - volume.mean()
    beta = np.linalg.solve(design.T @ design, design.T @ target)
    residual = target - design @ beta
    sigma2 = residual @ residual / (len(target) - design.shape[1])
    se = np.sqrt(sigma2 * np.diag(np.linalg.inv(design.T @ design)))
    order = ("intercept", "age", "sex", "dx", "age_x_dx")
    for i, key in enumerate(order):
        assert abs(result.coefficients[key] - beta[i]) < 1e-8
        assert abs(result.std_errors[key] - se[i]) < 1e-8
        t = beta[i] / se[i]
        assert abs(result.t_values[key] - t) < 1e-6
        p = 2.0 * scipy.stats.t.sf(abs(t), len(target) - 5)
        assert abs(result.p_values[key] - p) < 1e-10


def test_fixed_effects_residuals_orthogonal_to_design():
    volume, age, sex, dx = _simulate_volumes(200, seed=23, noise=0.4)
    result = fit_fixed_effects(volume, age, sex, dx)
    age_z = (age - age.mean()) / age.std()
    design = np.column_stack([np.ones_like(age), age_z, sex, dx, age_z * dx])
    beta = np.array([result.coefficients[k] for k in ("intercept", "age", "sex", "dx", "age_x_dx")])
    residual = (volume - volume.mean()) - design @ beta
    assert np.max(np.abs(design.T @ residual)) < 1e-8 * len(volume)


def test_fixed_effects_null_effect_has_large_p():
    volume, age, sex, dx = _simulate_volumes(500, seed=24, dx_effect=0.0, noise=1.0)
    result = fit_fixed_effects(volume, age, sex, dx)
    assert result.p_values["dx"] > 0.01


def test_fixed_effects_input_validation():
    volume, age, sex, dx = _simulate_volumes(50, seed=25)
    with pytest.raises(ValueError):
        fit_fixed_effects(volume[:4], age[:4], sex[:4], dx[:4])
    with pytest.raises(ValueError):
        fit_fixed_effects(volume, age, sex, dx * 2.0)  # labels outside {0, 1}
    with pytest.raises(ValueError):
        fit_fixed_effects(volume[:-1], age, sex, dx)
    with pytest.raises(ValueError):
        # all-diseased sample: dx column collinear with the intercept
        fit_fixed_effects(volume, age, sex, np.ones_like(dx))


# ---------------------------------------------------------------------------
# score-table evaluation
# ---------------------------------------------------------------------------


def _scores_table(seed=26, n_hc=30, n_dx=30, shift=1.0):
    rng = np.random.default_rng(seed)
    n = n_hc + n_dx
    diagnosis = ("HC",) * n_hc + ("DX",) * n_dx
    lift = np.concatenate([np.zeros(n_hc), np.full(n_dx, shift)])
    return ScoresTable(
        subject_ids=tuple(f"s{i}" for i in range(n)),
        age=rng.uniform(20, 80, n),
        diagnosis=diagnosis,
        y_hat=rng.uniform(20, 80, n),
        epsilon=rng.normal(0, 1, n) + lift,
        cov=rng.uniform(0.5, 1.5, n) + lift,
        cov_w=rng.uniform(0.5, 1.5, n) + 0.5 * lift,
    )


def test_evaluate_scores_structure_and_consistency():
    table = _scores_table()
    report = evaluate_scores(table, ("HC", "DX"), ("epsilon", "cov", "cov_w"))
    assert report["groups"]["negative"] == "HC"
    assert report["groups"]["positive"] == "DX"
    assert report["groups"]["n_negative"] == 30
    assert report["groups"]["n_positive"] == 30
    assert set(report["metrics"]) == {"epsilon", "cov", "cov_w"}
    for name in ("epsilon", "cov", "cov_w"):
        entry = report["metrics"][name]
        assert 0.0 <= entry["auc"] <= 1.0
        assert 0.0 <= entry["rank_sum"]["p"] <= 1.0
        assert entry["rank_sum"]["method"] in ("exact", "normal_approx")
    # recompute one AUC independently
    labels = [0] * 30 + [1] * 30
    assert (
        abs(report["metrics"]["cov"]["auc"] - roc_auc(table.cov, labels).auc)
        < 1e-15
    )
    corr = report["correlations"]
    assert abs(corr["cov_cov_w"] - pearson_r(table.cov, table.cov_w)) < 1e-15


def test_evaluate_scores_absolute_epsilon_option():
    table = _scores_table(shift=0.0)
    signed = evaluate_scores(table, ("HC", "DX"), ("epsilon",))
    absolute = evaluate_scores(table, ("HC", "DX"), ("epsilon",), absolute_epsilon=True)
    assert signed["epsilon_absolute"] is False
    assert absolute["epsilon_absolute"] is True
    labels = [0] * 30 + [1] * 30
    expected = roc_auc(np.abs(table.epsilon), labels).auc
    assert abs(absolute["metrics"]["epsilon"]["auc"] - expected) < 1e-15


def test_evaluate_scores_unknown_group_fails():
    table = _scores_table()
    with pytest.raises(ValueError):
        evaluate_scores(table, ("HC", "MISSING"), ("cov",))
    with pytest.raises(ValueError):
        evaluate_scores(table, ("HC", "HC"), ("cov",))
    with pytest.raises(ValueError):
        evaluate_scores(table, ("HC", "DX"), ("not_a_metric",))


def test_evaluate_scores_constant_metric_reports_absent_correlation():
    table = _scores_table()
    constant = ScoresTable(
        subject_ids=table.subject_ids,
        age=table.age,
        diagnosis=table.diagnosis,
        y_hat=table.y_hat,
        epsilon=table.epsilon,
        cov=np.ones(60),
        cov_w=table.cov_w,
    )
    report = evaluate_scores(constant, ("HC", "DX"), ("epsilon",))
    assert report["correlations"]["cov_cov_w"] is None
    assert report["correlations"]["epsilon_cov"] is None


# ---------------------------------------------------------------------------
# age length-scale sweep
# ---------------------------------------------------------------------------


def _sweep_fixture(seed=27):
    rng = np.random.default_rng(seed)
    m = 25
    ages = rng.uniform(20, 80, m)
    x = np.column_stack([ages / 20.0 + rng.normal(0, 0.3, m), rng.normal(size=m)])
    params = KernelParams(length_scales=np.array([2.0, 1.5]), noise_variance=0.3)
    model = restore(x, ages, params, SUM)
    n = 30
    test_ages = rng.uniform(20, 80, n)
    test_x = np.column_stack(
        [test_ages / 20.0 + rng.normal(0, 0.3, n), rng.normal(size=n)]
    )
    test_x[n // 2 :, 1] += 2.5  # second half displaced: the abnormal group
    diagnosis = ("HC",) * (n // 2) + ("DX",) * (n - n // 2)
    cohort = Cohort(
        subject_ids=tuple(f"q{i}" for i in range(n)),
        features=test_x,
        feature_names=("f1", "f2"),
        age=test_ages,
        diagnosis=diagnosis,
    )
    return model, cohort


def test_ly_sweep_rows_and_best():
    model, cohort = _sweep_fixture()
    result = ly_sweep(model, cohort, (10.0, 100.0, math.inf))
    assert [row[0] for row in result.rows] == [10.0, 100.0, math.inf]
    aucs = {l: a for l, a in result.rows}
    assert result.best_auc == max(aucs.values())
    assert aucs[result.best_l_y] == result.best_auc
    for _, auc in result.rows:
        assert 0.0 <= auc <= 1.0


def test_ly_sweep_infinite_value_matches_unweighted_auc():
    model, cohort = _sweep_fixture()
    result = ly_sweep(model, cohort, (math.inf,))
    from normgp.gpr import predict

    variance = predict(model, cohort.features).variance
    labels = [1 if d == "DX" else 0 for d in cohort.diagnosis]
    expected = roc_auc(variance, labels).auc
    assert abs(result.rows[0][1] - expected) < 1e-12
    assert result.best_l_y == math.inf


def test_ly_sweep_matches_fresh_weighted_posteriors_bitwise(monkeypatch):
    # The sweep builds the feature Grams once; each point must equal a call
    # that rebuilds everything, including the weighted training diagonal.
    from normgp import stats
    from normgp.gpr import weighted_posterior_cov

    model, cohort = _sweep_fixture()
    labels = np.array([d == "DX" for d in cohort.diagnosis])
    grid = (1.0, 10.0, 1e5, math.inf)
    seen = []

    def recording_roc_auc(scores, positive):
        seen.append(np.array(scores))
        return roc_auc(scores, positive)

    monkeypatch.setattr(stats, "roc_auc", recording_roc_auc)
    for form in (SUM, PRODUCT):
        form_model = restore(model.x, model.y, model.params, form)
        for age_noise in (0.0, 0.2):
            seen.clear()
            result = ly_sweep(form_model, cohort, grid, age_noise_variance=age_noise)
            for value, row, variance in zip(grid, result.rows, seen):
                fresh = weighted_posterior_cov(
                    form_model, cohort.features, cohort.age,
                    AgeKernelParams(age_length_scale=value, age_noise_variance=age_noise),
                ).variance
                assert np.array_equal(variance, fresh)
                assert row == (value, roc_auc(fresh, labels).auc)


def test_ly_sweep_grid_is_deduplicated_and_sorted():
    model, cohort = _sweep_fixture()
    result = ly_sweep(model, cohort, (100.0, 10.0, 100.0, math.inf))
    assert [row[0] for row in result.rows] == [10.0, 100.0, math.inf]


def test_ly_sweep_tie_prefers_smallest_scale():
    model, cohort = _sweep_fixture()
    # enormous finite scale and infinity give numerically identical scores
    result = ly_sweep(model, cohort, (1e300, math.inf))
    assert result.rows[0][1] == result.rows[1][1]
    assert result.best_l_y == 1e300


def test_ly_sweep_default_grid():
    assert DEFAULT_LY_GRID == (0.1, 1.0, 10.0, 100.0, 1000.0, 1e5, math.inf)


def test_ly_sweep_validation():
    model, cohort = _sweep_fixture()
    with pytest.raises(ValueError):
        ly_sweep(model, cohort, ())
    with pytest.raises(ValueError):
        ly_sweep(model, cohort, (-1.0, 10.0))
    undiagnosed = Cohort(
        subject_ids=cohort.subject_ids,
        features=cohort.features,
        feature_names=cohort.feature_names,
        age=cohort.age,
    )
    with pytest.raises(ValueError):
        ly_sweep(model, undiagnosed, (10.0,))
    with pytest.raises(SchemaError):
        ly_sweep(model, cohort, (10.0,), expected_feature_names=("x", "y"))
