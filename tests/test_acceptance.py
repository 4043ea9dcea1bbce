"""Acceptance checklist for the whole package.

Each test exercises one numbered item of the release checklist end to end
and prints a single visible ``[criterion N] ...: PASS``/``FAIL`` line in
addition to the usual pytest outcome, so a plain ``pytest tests/test_acceptance.py
-q`` run reads as a checklist.
"""

import itertools
import json
import math
import time

import numpy as np
import scipy.stats

from conftest import naive_posterior, random_age_params, random_instance

from normgp.cli import main as cli_main
from normgp.gpr import (
    FitConfig,
    _LmlObjective,
    fit,
    log_marginal_likelihood,
    predict,
    restore,
    weighted_posterior_cov,
)
from normgp.kernels import (
    PRODUCT,
    SUM,
    AgeKernelParams,
    KernelParams,
    age_factor,
    gram_matrix,
    prior_variance,
)
from normgp.metrics import score_cohort
from normgp.stats import (
    DEFAULT_LY_GRID,
    fit_fixed_effects,
    ly_sweep,
    rank_sum_test,
    roc_auc,
)
from normgp.synth import SynthConfig, generate_cohort
from normgp.tabular_io import artifact_from_fit, load_model, load_scores, save_model, to_trained_model


def _report(capsys, number, description, ok, detail=""):
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"[criterion {number}] {description}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_gp_posterior_matches_dense_oracle(capsys):
    rng = np.random.default_rng(20240101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        x, y, x_test, ages_test, params, form = random_instance(rng)
        model = restore(x, y, params, form)
        result = predict(model, x_test, full_cov=True)
        mean, cov = naive_posterior(x, y, x_test, params, form)
        worst = max(worst, float(np.max(np.abs(result.y_hat - mean))))
        worst = max(worst, float(np.max(np.abs(result.variance - np.diag(cov)))))
        worst = max(worst, float(np.max(np.abs(result.full_cov - cov))))
        age_params = random_age_params(rng)
        weighted = weighted_posterior_cov(model, x_test, ages_test, age_params)
        _, cov_w = naive_posterior(
            x, y, x_test, params, form,
            age_params=age_params, ages_train=y, ages_test=ages_test,
        )
        worst = max(worst, float(np.max(np.abs(weighted.variance - np.diag(cov_w)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(capsys, 1, "posterior mean/cov/weighted-cov vs dense oracle, 200 instances",
            ok, f"max abs err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_lml_gradient_matches_finite_differences(capsys):
    rng = np.random.default_rng(20240102)
    start = time.perf_counter()
    step = 1e-5
    failures = 0
    for _ in range(100):
        x, y, _, _, params, form = random_instance(rng, max_train=10)
        theta = np.concatenate(
            [np.log(params.length_scales), [math.log(params.noise_variance)]]
        )
        _, analytic = _LmlObjective(x, y, form)(theta)
        for i in range(theta.shape[0]):
            hi_t, lo_t = theta.copy(), theta.copy()
            hi_t[i] += step
            lo_t[i] -= step
            hi = log_marginal_likelihood(
                KernelParams(np.exp(hi_t[:-1]), math.exp(hi_t[-1])), form, x, y
            )
            lo = log_marginal_likelihood(
                KernelParams(np.exp(lo_t[:-1]), math.exp(lo_t[-1])), form, x, y
            )
            numeric = (hi - lo) / (2.0 * step)
            if abs(analytic[i] - numeric) > max(1e-7, 1e-4 * abs(numeric)):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    _report(capsys, 2, "lml gradient vs central differences, 100 instances",
            ok, f"{failures} bad components, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 30.0


def test_criterion_3_infinite_age_scale_collapses_to_plain_cov(capsys, tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    model = tmp_path / "model.normgp"
    scores = tmp_path / "scores.csv"
    assert cli_main(["synth", "-q", "--out", str(train), "--n-healthy", "25",
                     "--n-features", "3", "--seed", "21"]) == 0
    assert cli_main(["synth", "-q", "--out", str(test), "--n-healthy", "15",
                     "--n-diseased", "10", "--mode", "orthogonal",
                     "--n-features", "3", "--seed", "22"]) == 0
    assert cli_main(["fit", "-q", str(train), "--out", str(model),
                     "--restarts", "1", "--folds", "3"]) == 0
    # default scoring: infinite age length scale, zero age noise
    assert cli_main(["score", "-q", str(model), str(test), "--out", str(scores)]) == 0
    table = load_scores(scores)
    gap = float(np.max(np.abs(table.cov_w - table.cov)))
    ok = gap <= 1e-12
    _report(capsys, 3, "end-to-end CLI: cov_w == cov at infinite age scale",
            ok, f"max gap {gap:.2e}")
    assert gap <= 1e-12


def test_criterion_4_kernel_gram_properties(capsys):
    rng = np.random.default_rng(20240104)
    symmetric = True
    min_ratio = 0.0
    for i in range(100):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 7))
        x = rng.normal(size=(n, k)) * float(rng.uniform(0.5, 2.0))
        params = KernelParams(
            length_scales=rng.uniform(0.3, 3.0, size=k),
            noise_variance=float(rng.uniform(0.0, 0.5)),
        )
        form = SUM if i % 2 == 0 else PRODUCT
        gram = gram_matrix(x, x, params, form, same_set=True)
        if rng.random() >= 0.5:
            # the age-weighted kernel is the Schur product s * k
            ages = rng.uniform(20.0, 80.0, size=n)
            age_params = random_age_params(rng)
            gram *= age_factor(ages, ages, age_params)
            np.fill_diagonal(gram, prior_variance(params, form, age_params))
        symmetric = symmetric and np.array_equal(gram, gram.T)
        eigenvalues = np.linalg.eigvalsh(gram)
        min_ratio = min(min_ratio, float(eigenvalues[0] / eigenvalues[-1]))
    stationary = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 5))
        params = KernelParams(
            length_scales=rng.uniform(0.8, 3.0, size=k),
            noise_variance=float(rng.uniform(0.0, 0.5)),
        )
        form = SUM if rng.random() < 0.5 else PRODUCT
        a = rng.normal(size=(4, k))
        b = rng.normal(size=(5, k))
        shift = rng.uniform(-2.0, 2.0, size=k)
        base = gram_matrix(a, b, params, form)
        moved = gram_matrix(a + shift, b + shift, params, form)
        stationary = max(stationary, float(np.max(np.abs(base - moved))))
    ok = symmetric and min_ratio >= -1e-8 and stationary <= 1e-15
    _report(capsys, 4, "gram symmetry, near-PSD spectrum, stationarity",
            ok, f"min eig ratio {min_ratio:.1e}, shift dev {stationary:.1e}")
    assert symmetric
    assert min_ratio >= -1e-8
    assert stationary <= 1e-15


def test_criterion_5_planted_deviations_are_detected_by_the_right_metric(capsys):
    start = time.perf_counter()
    trajectory_seed = 777
    train = generate_cohort(
        SynthConfig(n_healthy=500, n_features=8, seed=101, trajectory_seed=trajectory_seed)
    )
    model = fit(train.features, train.age, FitConfig(restarts=3, seed=0))
    labels = [0] * 200 + [1] * 200

    def test_cohort(mode, seed):
        return generate_cohort(
            SynthConfig(
                n_healthy=200, n_diseased=200, n_features=8,
                deviation_mode=mode, deviation_magnitude=4.0,
                seed=seed, trajectory_seed=trajectory_seed,
            )
        )

    plain_age = AgeKernelParams()

    orthogonal = score_cohort(model, test_cohort("orthogonal", 102), plain_age)
    auc_cov = roc_auc(orthogonal.cov, labels).auc
    auc_eps = roc_auc(orthogonal.epsilon, labels).auc
    orth_ok = auc_cov >= 0.80 and auc_cov - auc_eps >= 0.10

    accelerated = score_cohort(model, test_cohort("accelerated_aging", 103), plain_age)
    auc_eps_acc = roc_auc(accelerated.epsilon, labels).auc
    mean_eps_dx = float(np.mean(accelerated.epsilon[200:]))
    acc_ok = auc_eps_acc >= 0.85 and mean_eps_dx > 0.0

    conditional = test_cohort("age_conditional", 104)
    cond_scores = score_cohort(model, conditional, plain_age)
    auc_cov_cond = roc_auc(cond_scores.cov, labels).auc
    finite_grid = tuple(v for v in DEFAULT_LY_GRID if math.isfinite(v))
    sweep = ly_sweep(model, conditional, finite_grid)
    cond_ok = sweep.best_auc - auc_cov_cond >= 0.05

    elapsed = time.perf_counter() - start
    ok = orth_ok and acc_ok and cond_ok and elapsed < 120.0
    _report(
        capsys, 5, "planted deviations detected by the matching metric", ok,
        f"orth cov {auc_cov:.2f}/eps {auc_eps:.2f}; accel eps {auc_eps_acc:.2f}, "
        f"mean {mean_eps_dx:.1f}; cond cov_w {sweep.best_auc:.2f} vs cov "
        f"{auc_cov_cond:.2f} at l_y={sweep.best_l_y:g}; {elapsed:.0f}s",
    )
    assert auc_cov >= 0.80
    assert auc_cov - auc_eps >= 0.10
    assert auc_eps_acc >= 0.85
    assert mean_eps_dx > 0.0
    assert sweep.best_auc - auc_cov_cond >= 0.05
    assert elapsed < 120.0


def _enumerated_two_sided_p(a, b):
    pooled = np.concatenate([a, b])
    n1 = len(a)
    ranks = scipy.stats.rankdata(pooled)
    center = n1 * len(b) / 2
    observed = abs(np.sum(ranks[:n1]) - n1 * (n1 + 1) / 2 - center)
    hits = total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        total += 1
        u = np.sum(ranks[list(combo)]) - n1 * (n1 + 1) / 2
        if abs(u - center) >= observed - 1e-9:
            hits += 1
    return hits / total


def test_criterion_6_statistics_oracles_and_null_calibration(capsys):
    rng = np.random.default_rng(20240106)

    rank_worst = 0.0
    for _ in range(50):
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 13))
        a = rng.normal(size=n1)
        b = rng.normal(float(rng.uniform(-1, 1)), 1.0, size=n2)
        result = rank_sum_test(a, b)
        assert result.method == "exact"
        rank_worst = max(rank_worst, abs(result.p_value - _enumerated_two_sided_p(a, b)))

    auc_worst = 0.0
    for _ in range(100):
        n0 = int(rng.integers(3, 40))
        n1 = int(rng.integers(3, 40))
        scores = np.concatenate(
            [rng.integers(0, 10, n0), rng.integers(2, 12, n1)]
        ).astype(float)
        labels = np.concatenate([np.zeros(n0, int), np.ones(n1, int)])
        auc = roc_auc(scores, labels).auc
        u = rank_sum_test(scores[: n0], scores[n0:]).u_statistic
        auc_worst = max(auc_worst, abs(auc - (1.0 - u / (n0 * n1))))

    ols_worst = 0.0
    for _ in range(10):
        n = int(rng.integers(30, 120))
        age = rng.uniform(20, 80, n)
        sex = (rng.random(n) < 0.5).astype(float)
        dx = np.zeros(n)
        dx[rng.permutation(n)[: n // 3]] = 1.0
        age_z = (age - age.mean()) / age.std()
        volume = 1.0 - 0.2 * age_z + 0.1 * sex - 0.4 * dx + rng.normal(0, 0.3, n)
        result = fit_fixed_effects(volume, age, sex, dx)
        design = np.column_stack([np.ones(n), age_z, sex, dx, age_z * dx])
        beta = np.linalg.solve(design.T @ design, design.T @ (volume - volume.mean()))
        keys = ("intercept", "age", "sex", "dx", "age_x_dx")
        ols_worst = max(
            ols_worst,
            max(abs(result.coefficients[k] - beta[i]) for i, k in enumerate(keys)),
        )

    null_rng = np.random.default_rng(20240606)
    hits = 0
    replicates = 200
    for _ in range(replicates):
        n = 120
        age = null_rng.uniform(20, 80, n)
        sex = (null_rng.random(n) < 0.5).astype(float)
        dx = np.zeros(n)
        dx[null_rng.permutation(n)[: n // 2]] = 1.0
        age_z = (age - age.mean()) / age.std()
        volume = 1.0 - 0.3 * age_z + 0.1 * sex + null_rng.normal(0, 0.5, n)
        if fit_fixed_effects(volume, age, sex, dx).p_values["dx"] < 0.05:
            hits += 1
    null_fraction = hits / replicates

    ok = (
        rank_worst <= 1e-12
        and auc_worst <= 1e-12
        and ols_worst <= 1e-8
        and 0.01 <= null_fraction <= 0.10
    )
    _report(
        capsys, 6, "rank-sum/AUC/OLS oracles and null p-value calibration", ok,
        f"rank {rank_worst:.1e}, auc {auc_worst:.1e}, ols {ols_worst:.1e}, "
        f"null fraction {null_fraction:.3f}",
    )
    assert rank_worst <= 1e-12
    assert auc_worst <= 1e-12
    assert ols_worst <= 1e-8
    assert 0.01 <= null_fraction <= 0.10


def test_criterion_7_fixed_effects_recover_planted_signs(capsys):
    rng = np.random.default_rng(20240107)
    n = 500
    age = rng.uniform(20, 80, n)
    sex = (rng.random(n) < 0.5).astype(float)
    dx = np.zeros(n)
    dx[rng.permutation(n)[: n // 2]] = 1.0
    age_z = (age - age.mean()) / age.std()
    planted = {"age": -0.30, "sex": 0.02, "dx": -0.53, "age_x_dx": 0.0}
    volume = (
        2.0
        + planted["age"] * age_z
        + planted["sex"] * sex
        + planted["dx"] * dx
        + planted["age_x_dx"] * age_z * dx
        + rng.normal(0, 0.05, n)
    )
    result = fit_fixed_effects(volume, age, sex, dx)
    errors = {k: abs(result.coefficients[k] - v) for k, v in planted.items()}
    ok = (
        max(errors.values()) <= 0.05
        and result.coefficients["age"] < 0
        and result.coefficients["dx"] < 0
        and result.p_values["age"] < 1e-6
        and result.p_values["dx"] < 1e-6
    )
    _report(
        capsys, 7, "planted age/dx volume effects recovered within 0.05", ok,
        f"age {result.coefficients['age']:.3f}, dx {result.coefficients['dx']:.3f}",
    )
    assert max(errors.values()) <= 0.05
    assert result.coefficients["age"] < 0 and result.coefficients["dx"] < 0
    assert result.p_values["age"] < 1e-6 and result.p_values["dx"] < 1e-6


def test_criterion_8_determinism_and_round_trip(capsys, tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    assert cli_main(["synth", "-q", "--out", str(train), "--n-healthy", "25",
                     "--n-features", "4", "--seed", "31"]) == 0
    assert cli_main(["synth", "-q", "--out", str(test), "--n-healthy", "10",
                     "--n-diseased", "10", "--mode", "accelerated_aging",
                     "--n-features", "4", "--seed", "32"]) == 0
    fit_args = ["--restarts", "2", "--folds", "3", "--seed", "7"]
    model_a, model_b = tmp_path / "a.normgp", tmp_path / "b.normgp"
    assert cli_main(["fit", "-q", str(train), "--out", str(model_a), *fit_args]) == 0
    assert cli_main(["fit", "-q", str(train), "--out", str(model_b), *fit_args]) == 0
    same_models = model_a.read_bytes() == model_b.read_bytes()

    scores_a, scores_b = tmp_path / "a.csv", tmp_path / "b.csv"
    score_args = ["--age-length-scale", "20"]
    assert cli_main(["score", "-q", str(model_a), str(test), "--out", str(scores_a), *score_args]) == 0
    assert cli_main(["score", "-q", str(model_a), str(test), "--out", str(scores_b), *score_args]) == 0
    same_scores = scores_a.read_bytes() == scores_b.read_bytes()

    # save/load round trip preserves scores
    cohort = generate_cohort(SynthConfig(n_healthy=20, n_features=3, seed=33))
    fitted = fit(cohort.features, cohort.age, FitConfig(restarts=1, seed=1))
    age_params = AgeKernelParams(age_length_scale=15.0)
    before = score_cohort(fitted, cohort, age_params)
    path = tmp_path / "roundtrip.normgp"
    save_model(artifact_from_fit(fitted, cohort.feature_names, seed=1), path)
    reloaded = to_trained_model(load_model(path))
    after = score_cohort(reloaded, cohort, age_params)
    worst_rel = 0.0
    for name in ("epsilon", "cov", "cov_w", "y_hat"):
        a = getattr(before, name)
        b = getattr(after, name)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-30)
        worst_rel = max(worst_rel, float(np.max(np.abs(a - b) / scale)))
    round_trip_ok = worst_rel <= 1e-12

    ok = same_models and same_scores and round_trip_ok
    _report(
        capsys, 8, "byte-identical reruns and lossless model round trip", ok,
        f"models identical {same_models}, scores identical {same_scores}, "
        f"round-trip rel err {worst_rel:.1e}",
    )
    assert same_models
    assert same_scores
    assert round_trip_ok
