import dataclasses
import math
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BENCH_SCORE_PARAMS,
    naive_gram,
    naive_kernel_value,
    naive_lml,
    naive_posterior,
    random_age_params,
    random_instance,
)
from normgp import kernels
from normgp.errors import ConditioningError, NumericalError
from normgp.gpr import (
    FitConfig,
    TrainedModel,
    _LmlObjective,
    _clamped,
    fit,
    log_marginal_likelihood,
    predict,
    restore,
    stable_cholesky,
    weighted_posterior_cov,
)
from normgp.kernels import (
    FORMS,
    PRODUCT,
    SUM,
    AgeKernelParams,
    KernelParams,
    age_factor,
    gram_matrix,
    prior_variance,
)
from normgp.synth import SynthConfig, generate_cohort


def test_lml_single_point_closed_form():
    # one point, one feature, no noise: k(x,x) = 1, y = 0, so only the
    # -(m/2) log 2pi term survives
    params = KernelParams(length_scales=np.array([2.0]))
    value = log_marginal_likelihood(params, SUM, np.array([[0.3]]), np.array([0.0]))
    assert value == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
    assert value == pytest.approx(-0.9189, abs=1e-4)


def test_lml_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        x, y, _, _, params, form = random_instance(rng)
        assert log_marginal_likelihood(params, form, x, y) == pytest.approx(
            naive_lml(params, form, x, y), abs=1e-10
        )


def test_lml_y_scaling_changes_only_quadratic_term():
    rng = np.random.default_rng(1)
    x, y, _, _, params, form = random_instance(rng)
    base = log_marginal_likelihood(params, form, x, y)
    scaled = log_marginal_likelihood(params, form, x, 10.0 * y)
    assert scaled == pytest.approx(naive_lml(params, form, x, 10.0 * y), abs=1e-8)
    # the log-det and constant terms cancel in the difference
    quad = naive_lml(params, form, x, y) - naive_lml(params, form, x, np.zeros_like(y))
    assert scaled - base == pytest.approx(99.0 * quad, rel=1e-8)


def _fd_gradient(params, form, x, y, step=1e-5):
    theta = np.concatenate([np.log(params.length_scales), [math.log(params.noise_variance)]])
    grad = np.empty_like(theta)
    for i in range(theta.shape[0]):
        for sign, store in ((1.0, 0), (-1.0, 1)):
            shifted = theta.copy()
            shifted[i] += sign * step
            p = KernelParams(
                length_scales=np.exp(shifted[:-1]),
                noise_variance=math.exp(shifted[-1]),
            )
            if store == 0:
                hi = log_marginal_likelihood(p, form, x, y)
            else:
                lo = log_marginal_likelihood(p, form, x, y)
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def _analytic_gradient(params, form, x, y):
    """The optimizer's gradient, evaluated at ``params``."""
    theta = np.log(np.append(params.length_scales, params.noise_variance))
    return _LmlObjective(x, y, form)(theta)[1]


def test_gradient_matches_finite_differences_8x3():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 3))
    y = rng.uniform(20, 80, 8)
    params = KernelParams(length_scales=np.array([0.7, 1.3, 2.2]), noise_variance=0.3)
    for form in (SUM, PRODUCT):
        analytic = _analytic_gradient(params, form, x, y)
        numeric = _fd_gradient(params, form, x, y)
        for a, n in zip(analytic, numeric):
            assert abs(a - n) <= max(1e-7, 1e-4 * abs(n))


def _dense_gradient(params, form, x, y):
    """0.5 tr((aa' - K^-1) dK/dlog theta) from full matrices and an explicit inverse."""
    k = naive_gram(x, x, params, form, same_set=True)
    k_inv = np.linalg.inv(k)
    alpha = k_inv @ y
    outer = np.outer(alpha, alpha) - k_inv
    feature_k = k - params.noise_variance * np.eye(x.shape[0])
    grad = []
    for dim, ls in enumerate(params.length_scales):
        sq = (x[:, dim, None] - x[None, :, dim]) ** 2
        factor = np.exp(-sq / (2.0 * ls**2)) if form == SUM else feature_k
        grad.append(0.5 * np.sum(outer * factor * sq) / ls**2)
    grad.append(0.5 * params.noise_variance * np.trace(outer))
    return np.array(grad)


@pytest.mark.parametrize("form", [SUM, PRODUCT])
def test_shared_distances_evaluation_matches_public_lml_and_gradient(form):
    # one objective and its buffers serve a sequence of evaluations, as in
    # a fit's optimizer restarts; buffer reuse must not leak between them
    rng = np.random.default_rng(21)
    x = rng.normal(size=(14, 4))
    y = rng.uniform(20, 80, 14) - 50.0
    objective = _LmlObjective(x, y, form)
    for _ in range(4):
        params = KernelParams(
            length_scales=rng.uniform(0.3, 3.0, 4), noise_variance=float(rng.uniform(0.05, 2))
        )
        theta = np.log(np.append(params.length_scales, params.noise_variance))
        value, grad = objective(theta)
        assert value == log_marginal_likelihood(params, form, x, y)
        _, fresh = _LmlObjective(x, y, form)(theta)
        assert np.array_equal(grad, fresh)
        dense = _dense_gradient(params, form, x, y)
        assert np.allclose(grad, dense, rtol=1e-8, atol=1e-8 * np.abs(dense).max())


@pytest.mark.parametrize("form", [SUM, PRODUCT])
def test_shared_distances_evaluation_matches_public_functions_when_jittered(form):
    # duplicate rows and zero noise make the Gram matrix singular, so the
    # optimizer's evaluation and restore must take the same jitter step
    rng = np.random.default_rng(22)
    base = rng.normal(size=(6, 3))
    x = np.vstack([base, base[:3]])
    y = rng.uniform(20, 80, 9) - 50.0
    params = KernelParams(length_scales=np.array([0.8, 1.5, 1.1]), noise_variance=0.0)
    _, jitter = stable_cholesky(gram_matrix(x, x, params, form, same_set=True).T)
    assert jitter > 0.0
    with np.errstate(divide="ignore"):
        theta = np.log(np.append(params.length_scales, 0.0))
    value, grad = _LmlObjective(x, y, form)(theta)
    assert value == log_marginal_likelihood(params, form, x, y)
    assert np.all(np.isfinite(grad))
    assert grad[-1] == 0.0


@pytest.mark.parametrize("form", [SUM, PRODUCT])
def test_reused_distances_after_a_jittered_point_match_fresh_ones_bitwise(form):
    # each evaluation factorizes the Gram buffer in place; neither the
    # jitter of one point nor the factor's overwritten triangle may reach
    # the next evaluation on the same buffer
    rng = np.random.default_rng(27)
    base = rng.normal(size=(12, 3))
    x = np.vstack([base, base[:5]])
    y = rng.uniform(20, 80, 17) - 50.0
    params = KernelParams(length_scales=np.array([0.9, 1.2, 0.7]), noise_variance=0.0)
    _, jitter = stable_cholesky(gram_matrix(x, x, params, form, same_set=True).T)
    assert jitter > 0.0
    with np.errstate(divide="ignore"):
        jittered = np.log(np.append(params.length_scales, 0.0))
    clean = np.log(np.array([1.1, 0.8, 1.3, 0.25]))
    objective = _LmlObjective(x, y, form)
    for theta in (clean, jittered, clean, jittered):
        value, grad = objective(theta)
        fresh_value, fresh_grad = _LmlObjective(x, y, form)(theta)
        assert value == fresh_value
        assert np.array_equal(grad, fresh_grad)


def test_evaluation_on_reused_distances_allocates_under_two_gram_blocks():
    # the Gram buffer is filled, factorized, inverted and rank-one updated
    # in place, and the kernel and gradient passes run through a scratch
    # chunk built with the objective: the lower pairs' weights (half a
    # block) are the one pair-sized array an evaluation allocates
    rng = np.random.default_rng(28)
    m = 600
    x = rng.normal(size=(m, 4))
    y = rng.normal(size=m)
    theta = np.log(np.array([1.0, 1.5, 0.8, 2.0, 0.3]))
    for form in FORMS:
        objective = _LmlObjective(x, y, form)
        objective(theta)
        tracemalloc.start()
        try:
            objective(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * m * m * 8


def test_objective_keeps_one_feature_sized_pair_array():
    # the per-feature distances S_k are the only d x pairs array: the sum
    # form's exponentials are recomputed chunk by chunk, not stored. Past
    # them the objective holds its boolean pair mask (1/8 block), the pair
    # kernel, a scratch chunk (a whole pair array at this m) and the Gram
    # buffer, and an evaluation adds the pair weights: 2.63 m x m blocks
    rng = np.random.default_rng(29)
    m, n_features = 300, 32
    x = rng.normal(size=(m, n_features))
    y = rng.normal(size=m)
    theta = np.log(np.append(rng.uniform(0.5, 2.0, n_features), 0.3))
    _LmlObjective(x[:3], y[:3], SUM)(theta)  # scipy's imports are not counted
    feature_pairs = n_features * (m * (m - 1) // 2) * 8
    for form in FORMS:
        tracemalloc.start()
        try:
            _LmlObjective(x, y, form)(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < feature_pairs + 3 * m * m * 8


@pytest.mark.parametrize("form", [SUM, PRODUCT])
def test_chunked_passes_match_one_chunk(form, monkeypatch):
    # chunks of 7 pairs split the pairs of every row mid-way; the kernel
    # pass is elementwise, so the value keeps its bits, and only the sum
    # form's gradient reductions are regrouped
    rng = np.random.default_rng(30)
    m = 20
    x = rng.normal(size=(m, 3))
    y = rng.uniform(20, 80, m) - 50.0
    params = KernelParams(length_scales=np.array([0.6, 1.4, 2.5]), noise_variance=0.4)
    theta = np.log(np.append(params.length_scales, params.noise_variance))
    value, grad = _LmlObjective(x, y, form)(theta)
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 7)
    chunked = _LmlObjective(x, y, form)
    assert len(chunked._chunks) == math.ceil(m * (m - 1) / 2 / 7)
    chunked_value, chunked_grad = chunked(theta)
    assert chunked_value == value
    assert chunked_value == log_marginal_likelihood(params, form, x, y)
    assert np.allclose(chunked_grad, grad, rtol=1e-12, atol=0.0)
    dense = _dense_gradient(params, form, x, y)
    assert np.allclose(chunked_grad, dense, rtol=1e-8, atol=1e-8 * np.abs(dense).max())


@settings(max_examples=100, deadline=None)
@given(
    form=st.sampled_from(FORMS),
    m=st.integers(2, 40),
    n_features=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_objective_is_invariant_under_training_row_permutation(form, m, n_features, seed, data):
    # reordering the training rows reorders the pairs and the Gram matrix
    # symmetrically, which changes only the rounding
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, n_features)) * rng.uniform(0.5, 2.0)
    y = rng.uniform(20.0, 80.0, m) - 50.0
    theta = np.log(np.append(rng.uniform(0.3, 3.0, n_features), rng.uniform(0.05, 0.5)))
    order = np.array(data.draw(st.permutations(range(m))))
    value, grad = _LmlObjective(x, y, form)(theta)
    permuted_value, permuted_grad = _LmlObjective(x[order], y[order], form)(theta)
    assert abs(permuted_value - value) <= 1e-10 * abs(value)
    assert np.abs(permuted_grad - grad).max() <= 1e-9 * np.abs(grad).max()


def test_failed_factor_inversion_is_a_conditioning_error(monkeypatch):
    # a factor with a zero pivot cannot be inverted: dpotri reports it, and
    # the optimizer's objective treats ConditioningError as a failed point
    import normgp.gpr as gpr

    def singular_factor(matrix, **_):
        # the objective fills only the upper triangle and the diagonal
        chol = np.linalg.cholesky(np.triu(matrix) + np.triu(matrix, 1).T)
        chol[1, 1] = 0.0
        return np.asfortranarray(chol), 0.0

    rng = np.random.default_rng(24)
    x = rng.normal(size=(5, 2))
    objective = _LmlObjective(x, rng.normal(size=5), SUM)
    monkeypatch.setattr(gpr, "stable_cholesky", singular_factor)
    with np.errstate(all="ignore"), pytest.raises(ConditioningError, match="info"):
        objective(np.zeros(3))


def test_gradient_of_constant_feature_is_zero_for_product_form():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 3))
    x[:, 1] = 4.0  # carries no distance information
    y = rng.uniform(20, 80, 10)
    params = KernelParams(length_scales=np.ones(3), noise_variance=0.2)
    grad = _analytic_gradient(params, PRODUCT, x, y)
    assert abs(grad[1]) <= 1e-12


def test_gradient_near_zero_at_optimizer_solution():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, size=(20, 1))
    y = 1.5 * x[:, 0] + rng.normal(0, 0.05, 20)
    model = fit(x, y, FitConfig(restarts=3, seed=0))
    grad = _analytic_gradient(model.params, model.form, x, y - model.y_offset)
    assert np.linalg.norm(grad) <= 1e-5


def test_fit_noiseless_linear_data():
    rng = np.random.default_rng(5)
    x = np.linspace(-2, 2, 20).reshape(-1, 1)
    y = x[:, 0].copy()
    model = fit(x, y, FitConfig(restarts=3, seed=1))
    spread = y.max() - y.min()
    errors = np.abs(predict(model, x).y_hat - y)
    assert errors.mean() < 0.05 * spread
    assert model.params.noise_variance < 0.05 * float(np.var(y))


def test_duplicate_rows_with_conflicting_ages_force_noise():
    x = np.array([[0.5, 1.0], [0.5, 1.0], [1.5, -1.0], [1.5, -1.0]])
    y = np.array([40.0, 60.0, 30.0, 50.0])
    model = fit(x, y, FitConfig(restarts=4, seed=2))
    assert model.params.noise_variance > 1e-3
    # likelihood at a near-zero noise level must be worse than the optimum
    squeezed = KernelParams(
        length_scales=model.params.length_scales, noise_variance=1e-6
    )
    centered = y - model.y_offset
    assert log_marginal_likelihood(
        squeezed, model.form, x, centered
    ) < log_marginal_likelihood(model.params, model.form, x, centered)


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, 2))
    y = rng.uniform(20, 80, 12)
    config = FitConfig(restarts=1, seed=9)
    a = fit(x, y, config)
    b = fit(x, y, config)
    assert np.array_equal(a.params.length_scales, b.params.length_scales)
    assert a.params.noise_variance == b.params.noise_variance
    assert a.log_marginal_likelihood == b.log_marginal_likelihood
    assert np.array_equal(a.alpha, b.alpha)


def test_fit_runs_every_restart_on_the_calling_thread(monkeypatch):
    from scipy import optimize

    minimize = optimize.minimize
    threads = []

    def recording_minimize(*args, **kwargs):
        threads.append(threading.get_ident())
        return minimize(*args, **kwargs)

    monkeypatch.setattr(optimize, "minimize", recording_minimize)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(10, 2))
    y = rng.uniform(20, 80, 10)
    fit(x, y, FitConfig(restarts=3, seed=4))
    assert threads == [threading.get_ident()] * 3


def test_fit_frees_the_objective_before_restore(monkeypatch):
    # the final restore builds its own Gram, so the objective's pair arrays
    # and Gram buffer must be gone by then; the collector is off so that
    # only dropped references can free it
    import gc
    import weakref

    import normgp.gpr as gpr

    built = []

    class Tracked(gpr._LmlObjective):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    alive_at_restore = []
    real_restore = gpr.restore

    def recording_restore(*args, **kwargs):
        alive_at_restore.append(built[0]() is not None)
        return real_restore(*args, **kwargs)

    monkeypatch.setattr(gpr, "_LmlObjective", Tracked)
    monkeypatch.setattr(gpr, "restore", recording_restore)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(12, 2))
    y = rng.uniform(20, 80, 12)
    gc.disable()
    try:
        fit(x, y, FitConfig(restarts=2, seed=6))
    finally:
        gc.enable()
    assert len(built) == 1
    assert alive_at_restore == [False]


def test_fit_records_per_restart_trace():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(10, 2))
    y = rng.uniform(20, 80, 10)
    model = fit(x, y, FitConfig(restarts=4, seed=3))
    assert len(model.restart_log_marginals) == 4
    assert 0 <= model.chosen_restart < 4
    best = max(model.restart_log_marginals)
    assert model.restart_log_marginals[model.chosen_restart] == best
    # ties (and the argmax itself) resolve to the lowest index
    first_best = min(
        i for i, v in enumerate(model.restart_log_marginals) if v == best
    )
    assert model.chosen_restart == first_best


def test_fit_from_its_own_optimum_runs_once_and_stays_there(monkeypatch):
    from scipy import optimize

    rng = np.random.default_rng(10)
    x = rng.normal(size=(25, 2))
    y = 10.0 * np.sin(x[:, 0]) + rng.normal(0, 0.5, 25) + 50.0
    config = FitConfig(restarts=3, seed=5)
    cold = fit(x, y, config)
    runs = []
    minimize = optimize.minimize
    monkeypatch.setattr(
        optimize, "minimize", lambda *a, **k: runs.append(a[1].copy()) or minimize(*a, **k)
    )
    warm = fit(x, y, config, start=cold.params)
    assert len(runs) == 1
    assert np.array_equal(
        runs[0], np.log(np.append(cold.params.length_scales, cold.params.noise_variance))
    )
    assert warm.restart_log_marginals == (warm.log_marginal_likelihood,)
    assert warm.log_marginal_likelihood >= cold.log_marginal_likelihood - 1e-9 * abs(
        cold.log_marginal_likelihood
    )
    assert np.allclose(warm.params.length_scales, cold.params.length_scales, rtol=1e-3)
    with pytest.raises(ValueError):
        fit(x[:, :1], y, config, start=cold.params)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit(np.ones((1, 2)), np.array([50.0]))
    with pytest.raises(ValueError):
        fit(np.ones((3, 2)), np.array([50.0, 60.0]))
    with pytest.raises(ValueError):
        FitConfig(restarts=0)
    with pytest.raises(ValueError):
        fit(np.array([[1.0], [np.nan]]), np.array([50.0, 60.0]))
    with pytest.raises(ValueError):
        fit(np.array([[1.0], [2.0]]), np.array([50.0, np.inf]))
    with pytest.raises(ValueError, match="X must be a 2-D matrix"):
        fit(np.ones(3), np.array([50.0, 60.0, 70.0]))


def test_fit_config_holds_only_the_settings_callers_set():
    # the jitter ladder, starting points, gradient tolerance and iteration
    # cap are fixed constants, and a model at given hyperparameters comes
    # from restore
    assert [field.name for field in dataclasses.fields(FitConfig)] == [
        "form", "restarts", "seed",
    ]


def test_restore_keeps_the_given_hyperparameters():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(8, 2))
    y = rng.uniform(20, 80, 8)
    params = KernelParams(length_scales=np.array([1.2, 0.8]), noise_variance=0.4)
    model = restore(x, y, params, SUM)
    assert np.array_equal(model.params.length_scales, params.length_scales)
    assert model.params.noise_variance == params.noise_variance
    assert model.log_marginal_likelihood == pytest.approx(
        naive_lml(params, SUM, x, y), abs=1e-8
    )
    assert model.restart_log_marginals == (model.log_marginal_likelihood,)
    with pytest.raises(ValueError):
        restore(x, y, KernelParams(length_scales=np.ones(3)), SUM)


@pytest.mark.parametrize("form", FORMS)
def test_fit_centres_ages_so_far_field_prediction_is_their_mean(form):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(15, 2))
    y = rng.uniform(40, 60, 15)
    model = fit(x, y, FitConfig(form=form, restarts=1))
    assert model.y_offset == float(np.mean(y))
    far = np.full((1, 2), 60.0)  # far outside the training cloud
    assert predict(model, far).y_hat[0] == pytest.approx(float(np.mean(y)), abs=1e-6)


def test_predict_interpolates_training_point_without_noise():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(5, 2)) * 2.0
    y = rng.uniform(20, 80, 5)
    params = KernelParams(length_scales=np.array([1.0, 1.5]), noise_variance=0.0)
    model = restore(x, y, params, SUM)
    result = predict(model, x[2:3])
    assert result.y_hat[0] == pytest.approx(y[2], abs=1e-6)
    assert result.variance[0] <= 1e-6


def test_predict_single_train_point_closed_form():
    for form in (SUM, PRODUCT):
        params = KernelParams(length_scales=np.array([1.3, 0.7]), noise_variance=0.25)
        x = np.array([[0.2, -0.4]])
        x_test = np.array([[0.5, 0.1]])
        model = restore(x, np.array([50.0]), params, form)
        result = predict(model, x_test, full_cov=True)
        k_star = naive_kernel_value(x_test[0], x[0], params, form)
        k_xx = naive_kernel_value(x[0], x[0], params, form, same_sample=True)
        k_ss = naive_kernel_value(x_test[0], x_test[0], params, form)
        assert result.y_hat[0] == pytest.approx(k_star / k_xx * 50.0, abs=1e-12)
        assert result.variance[0] == pytest.approx(k_ss - k_star**2 / k_xx, abs=1e-12)


def test_predict_matches_dense_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        x, y, x_test, _, params, form = random_instance(rng)
        model = restore(x, y, params, form)
        result = predict(model, x_test, full_cov=True)
        mean, cov = naive_posterior(x, y, x_test, params, form)
        assert np.allclose(result.y_hat, mean, atol=1e-8)
        assert np.allclose(result.variance, np.diagonal(cov), atol=1e-8)
        assert np.allclose(result.full_cov, cov, atol=1e-8)


def test_shared_grams_leave_predict_and_weighted_variance_bitwise_unchanged():
    # a sweep's stored blocks and a call's own pass run the same row blocks
    # through the same operations; the own pass's mean and plain variance
    # are predict's
    rng = np.random.default_rng(23)
    x, y, x_test, ages_test, params, form = random_instance(rng, max_train=20, max_test=9)
    model = restore(x, y, params, form)
    cross = gram_matrix(x_test, model.x, model.params, model.form)
    plain = predict(model, x_test)
    for age_params in (AgeKernelParams(), AgeKernelParams(math.inf, 0.2),
                       AgeKernelParams(7.0, 0.1)):
        shared = weighted_posterior_cov(model, x_test, ages_test, age_params, cross=cross)
        own = weighted_posterior_cov(model, x_test, ages_test, age_params)
        assert np.array_equal(shared.variance, own.variance)
        assert shared.y_hat is None and shared.unweighted_variance is None
        assert np.array_equal(own.y_hat, plain.y_hat)
        assert np.array_equal(own.unweighted_variance, plain.variance)
    with pytest.raises(ValueError, match="different test set"):
        weighted_posterior_cov(model, np.vstack([x_test, x_test]), np.tile(ages_test, 2),
                               AgeKernelParams(), cross=cross)


def test_weighted_cov_matches_dense_oracle():
    rng = np.random.default_rng(14)
    for _ in range(30):
        x, y, x_test, ages_test, params, form = random_instance(rng)
        age_params = random_age_params(rng)
        model = restore(x, y, params, form)
        weighted = weighted_posterior_cov(model, x_test, ages_test, age_params)
        _, cov = naive_posterior(
            x, y, x_test, params, form,
            age_params=age_params, ages_train=y, ages_test=ages_test,
        )
        assert np.allclose(weighted.variance, np.diagonal(cov), atol=1e-8)


def test_weighted_equals_unweighted_at_infinite_scale():
    rng = np.random.default_rng(15)
    x, y, x_test, ages_test, params, form = random_instance(rng)
    model = restore(x, y, params, form)
    plain = predict(model, x_test)
    weighted = weighted_posterior_cov(
        model, x_test, ages_test, AgeKernelParams(age_length_scale=math.inf)
    )
    assert np.array_equal(plain.variance, weighted.variance)


def test_weighted_variance_only_is_the_full_cov_diagonal():
    rng = np.random.default_rng(23)
    worst = 0.0
    for form in (SUM, PRODUCT):
        for age_params in (
            AgeKernelParams(age_length_scale=15.0),
            AgeKernelParams(age_length_scale=15.0, age_noise_variance=0.2),
            AgeKernelParams(age_length_scale=math.inf, age_noise_variance=0.2),
        ):
            for _ in range(5):
                x, y, x_test, ages_test, params, _ = random_instance(rng)
                model = restore(x, y, params, form)
                only = weighted_posterior_cov(model, x_test, ages_test, age_params)
                _, cov = naive_posterior(
                    x, y, x_test, params, form,
                    age_params=age_params, ages_train=y, ages_test=ages_test,
                )
                worst = max(worst, float(np.max(np.abs(only.variance - np.diagonal(cov)))))
    assert worst <= 1e-8


def test_weighted_at_infinite_scale_reuses_the_model_factorization():
    rng = np.random.default_rng(24)
    for form in (SUM, PRODUCT):
        x, y, x_test, ages_test, params, _ = random_instance(rng)
        # Repeated training rows without noise: the model needed jitter.
        x = np.vstack([x, x, x])
        y = np.concatenate([y, y + 1.0, y + 2.0])
        model = restore(x, y, KernelParams(params.length_scales, 0.0), form)
        assert model.jitter > 0.0
        weighted = weighted_posterior_cov(model, x_test, ages_test, AgeKernelParams())
        assert np.array_equal(weighted.variance, predict(model, x_test).variance)
        assert weighted.jitter == model.jitter


def test_jittered_weighted_factorization_warns():
    # Duplicate rows with equal ages stay duplicates under any age weighting,
    # so at zero noise the weighted training Gram is singular.
    rng = np.random.default_rng(26)
    x, y, x_test, ages_test, params, form = random_instance(rng)
    model = restore(
        np.vstack([x, x]), np.concatenate([y, y]), KernelParams(params.length_scales, 0.0), form
    )
    with pytest.warns(RuntimeWarning, match=r"jitter \d\.\d{3}e[-+]\d+") as record:
        weighted = weighted_posterior_cov(
            model, x_test, ages_test, AgeKernelParams(age_length_scale=10.0)
        )
    assert weighted.jitter > 0.0
    assert f"{weighted.jitter:.3e}" in str(record[0].message)


def test_weighted_factorization_without_jitter_is_silent():
    rng = np.random.default_rng(27)
    x, y, x_test, ages_test, params, form = random_instance(rng)
    jittered = restore(
        np.vstack([x, x]), np.concatenate([y, y]), KernelParams(params.length_scales, 0.0), form
    )
    assert jittered.jitter > 0.0
    conditioned = restore(x, y, KernelParams(params.length_scales, 0.5), form)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # l_y = inf reuses the model's own (here jittered) factorization
        reused = weighted_posterior_cov(jittered, x_test, ages_test, AgeKernelParams())
        finite = weighted_posterior_cov(
            conditioned, x_test, ages_test, AgeKernelParams(age_length_scale=10.0)
        )
    assert reused.jitter == jittered.jitter
    assert finite.jitter == 0.0


@pytest.mark.parametrize("n_features", [50, 200])
def test_negative_variance_guard_silent_at_realistic_sizes(n_features):
    # m = 1000 subjects whose features lie near a 3-dimensional subspace,
    # long length scales and noise 1e-6: a nearly singular training Gram,
    # scored at training rows and at rows within 1e-3 of them.
    rng = np.random.default_rng(n_features)
    m, n_test = 1000, 60
    latent = rng.normal(size=(m, 3))
    x = latent @ rng.normal(size=(3, n_features)) + 0.01 * rng.normal(size=(m, n_features))
    y = rng.uniform(20.0, 80.0, m)
    rows = rng.choice(m, n_test, replace=False)
    x_test = x[rows].copy()
    x_test[n_test // 2 :] += rng.uniform(-1e-3, 1e-3, (n_test - n_test // 2, n_features))
    params = KernelParams(length_scales=np.full(n_features, 100.0), noise_variance=1e-6)
    model = restore(x, y, params, SUM)
    # Either call raises NumericalError if a variance falls below -1e-10.
    plain = predict(model, x_test).variance
    weighted = weighted_posterior_cov(
        model, x_test, y[rows], AgeKernelParams(age_length_scale=10.0)
    ).variance
    assert np.all(plain >= 0.0) and np.all(weighted >= 0.0)
    assert np.all(plain <= n_features) and np.all(weighted <= n_features)


def test_age_mismatch_raises_weighted_uncertainty():
    # same features as a training subject, but an age 5 length scales away:
    # the weighted kernel discounts that training point, so uncertainty grows
    rng = np.random.default_rng(16)
    x = rng.normal(size=(6, 2))
    y = rng.uniform(40, 50, 6)
    params = KernelParams(length_scales=np.ones(2), noise_variance=0.1)
    model = restore(x, y, params, SUM)
    age_params = AgeKernelParams(age_length_scale=4.0)
    x_test = x[3:4]
    plain = predict(model, x_test).variance[0]
    shifted = weighted_posterior_cov(
        model, x_test, np.array([y[3] + 5 * 4.0]), age_params
    ).variance[0]
    assert shifted > plain


def test_posterior_variance_bounded_by_prior():
    from normgp.kernels import zero_distance_value

    rng = np.random.default_rng(17)
    for _ in range(20):
        x, y, x_test, ages_test, params, form = random_instance(rng)
        model = restore(x, y, params, form)
        prior = zero_distance_value(params, form)
        assert np.all(predict(model, x_test).variance <= prior + 1e-10)
        weighted = weighted_posterior_cov(model, x_test, ages_test, random_age_params(rng))
        assert np.all(weighted.variance <= prior + 1e-10)


def test_extra_training_point_never_increases_variance():
    rng = np.random.default_rng(18)
    for _ in range(10):
        x, y, x_test, _, params, form = random_instance(rng, max_train=8)
        extra_x = np.vstack([x, rng.normal(size=(1, x.shape[1]))])
        extra_y = np.append(y, rng.uniform(20, 80))
        small = predict(restore(x, y, params, form), x_test).variance
        large = predict(restore(extra_x, extra_y, params, form), x_test).variance
        assert np.all(large <= small + 1e-10)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), form=st.sampled_from(FORMS),
       age_noise=st.sampled_from((0.0, 0.2)), repeat=st.booleans())
def test_one_more_training_row_never_raises_a_variance(seed, form, age_noise, repeat):
    # conditioning on one more observation can only shrink a Gaussian
    # variance; the weighted kernel is a Schur product of two kernels, so
    # the same holds for cov_w at fixed age parameters. Noise >= 1e-3 keeps
    # both factorizations free of jitter.
    from normgp.kernels import zero_distance_value

    rng = np.random.default_rng(seed)
    m, n, d = int(rng.integers(1, 20)), int(rng.integers(1, 10)), int(rng.integers(1, 4))
    x = rng.normal(size=(m + 1, d)) * rng.uniform(0.5, 2.0)
    y = rng.uniform(20.0, 80.0, m + 1)
    if repeat:  # the extra row repeats a training row's features
        x[m] = x[int(rng.integers(0, m))]
    params = KernelParams(rng.uniform(0.3, 3.0, d), rng.uniform(1e-3, 0.5))
    small = restore(x[:m], y[:m], params, form)
    large = restore(x, y, params, form)
    x_test = rng.normal(size=(n, d))
    ages = rng.uniform(20.0, 80.0, n)
    age_params = AgeKernelParams(rng.uniform(2.0, 50.0), age_noise)
    tolerance = 1e-10 * zero_distance_value(params, form)
    assert np.all(predict(large, x_test).variance
                  <= predict(small, x_test).variance + tolerance)
    weighted_small = weighted_posterior_cov(small, x_test, ages, age_params)
    weighted_large = weighted_posterior_cov(large, x_test, ages, age_params)
    assert weighted_small.jitter == weighted_large.jitter == 0.0
    assert np.all(weighted_large.variance <= weighted_small.variance + tolerance)


def test_full_cov_diagonal_equals_variance_exactly():
    rng = np.random.default_rng(19)
    x, y, x_test, _, params, form = random_instance(rng)
    result = predict(restore(x, y, params, form), x_test, full_cov=True)
    assert np.array_equal(np.diagonal(result.full_cov), result.variance)


@pytest.mark.parametrize("n", [600, 1500])
def test_full_cov_mean_and_variance_are_the_pass_ones_bitwise(n):
    # the benchmark's score model; full_cov once solved all test rows in one
    # block with its own dgemv, which at this size moved a few variances,
    # and y_hat, in the last bits
    train = generate_cohort(SynthConfig(n_healthy=500, seed=10, trajectory_seed=1804))
    test = generate_cohort(SynthConfig(
        n_healthy=n // 2, n_diseased=n - n // 2, deviation_mode="orthogonal",
        deviation_magnitude=4.0, seed=11, trajectory_seed=1804,
    ))
    model = restore(train.features, train.age, BENCH_SCORE_PARAMS, SUM,
                    y_offset=float(np.mean(train.age)))
    full = predict(model, test.features, full_cov=True)
    plain = predict(model, test.features)
    weighted = weighted_posterior_cov(model, test.features, test.age, AgeKernelParams())
    for result in (plain, weighted):
        assert np.array_equal(full.y_hat, result.y_hat)
    assert np.array_equal(full.variance, plain.variance)
    assert np.array_equal(full.variance, weighted.unweighted_variance)
    assert np.array_equal(np.diagonal(full.full_cov), full.variance)


def test_one_posterior_pass_per_predict_and_weighted_call(monkeypatch):
    import normgp.gpr as gpr

    calls = []
    original = gpr._posterior_pass

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gpr, "_posterior_pass", counted)
    rng = np.random.default_rng(37)
    x, y, x_test, ages_test, params, form = random_instance(rng)
    model = restore(x, y, params, form)
    cross = gram_matrix(x_test, model.x, model.params, model.form)
    for call in (
        lambda: predict(model, x_test),
        lambda: predict(model, x_test, full_cov=True),
        lambda: weighted_posterior_cov(model, x_test, ages_test, AgeKernelParams()),
        lambda: weighted_posterior_cov(model, x_test, ages_test, AgeKernelParams(10.0, 0.1)),
        lambda: weighted_posterior_cov(model, x_test, ages_test, AgeKernelParams(), cross=cross),
    ):
        calls.clear()
        call()
        assert len(calls) == 1


def test_weighted_variance_at_infinite_scale_ignores_the_ages():
    # (1e200 - 40)^2 overflows; age_factor once divided it by -inf, and the
    # nan weighted Gram raised ConditioningError. Only the age kernel reads
    # the model's ages, so both models share one fit.
    rng = np.random.default_rng(38)
    x, y, x_test, ages_test, params, form = random_instance(rng)
    fitted = restore(x, y, params, form)
    age_params = AgeKernelParams(math.inf, 0.1)
    results = []
    for first_age in (1e200, 40.0):
        ages = y.copy()
        ages[0] = first_age
        model = dataclasses.replace(fitted, y=ages)
        results.append(weighted_posterior_cov(model, x_test, ages_test, age_params))
    far, near = results
    assert np.array_equal(far.variance, near.variance)
    assert np.array_equal(far.unweighted_variance, near.unweighted_variance)
    assert far.jitter == near.jitter


def test_weighted_variance_holds_one_test_by_training_block():
    # with a stored cross block, each of its row blocks is
    # solved on a copy that is squared in place, so past its inputs a call
    # holds about one row block and a few vectors, not a second n x m block
    import normgp.gpr as gpr

    rng = np.random.default_rng(23)
    n, m = 2000, 200
    x = rng.normal(size=(m, 3))
    model = restore(x, rng.uniform(20, 80, m), KernelParams(np.ones(3), 0.5), SUM)
    x_test = rng.normal(size=(n, 3))
    ages = rng.uniform(20, 80, n)
    cross = gram_matrix(x_test, model.x, model.params, model.form)
    tracemalloc.start()
    try:
        weighted_posterior_cov(model, x_test, ages, AgeKernelParams(), cross=cross)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * gpr._PASS_ROWS * m * 8 + 8 * n * 8


@pytest.mark.parametrize("form", FORMS)
def test_row_blocked_posteriors_match_one_block(form, monkeypatch):
    # a test row's results read only its own row of k*, so a pass over row
    # blocks agrees with one block of every test row
    import normgp.gpr as gpr

    rng = np.random.default_rng(29)
    m, d = 64, 3
    block = gpr._PASS_ROWS
    x = rng.normal(size=(m, d))
    params = KernelParams(rng.uniform(0.5, 2.0, d), 0.3)
    model = restore(x, rng.uniform(20, 80, m), params, form, y_offset=50.0)
    x_test = rng.normal(size=(block + 1, d))
    ages = rng.uniform(20, 80, block + 1)
    settings = (AgeKernelParams(10.0), AgeKernelParams(math.inf), AgeKernelParams(math.inf, 0.2))

    def posteriors():
        out = []
        for n in (1, block - 1, block, block + 1):
            result = predict(model, x_test[:n])
            weighted = [
                weighted_posterior_cov(model, x_test[:n], ages[:n], age_params).variance
                for age_params in settings
            ]
            out.append((result.y_hat, result.variance, weighted))
        return out

    blocked = posteriors()
    monkeypatch.setattr(gpr, "_PASS_ROWS", 2**62)
    whole = posteriors()
    for (y_hat, variance, weighted), (y_hat_1, variance_1, weighted_1) in zip(blocked, whole):
        assert np.array_equal(y_hat, y_hat_1)
        np.testing.assert_allclose(variance, variance_1, rtol=1e-12, atol=0.0)
        for cov_w, cov_w_1 in zip(weighted, weighted_1):
            np.testing.assert_allclose(cov_w, cov_w_1, rtol=1e-12, atol=0.0)
        assert np.array_equal(weighted[1], variance)  # l_y = inf, no age noise


def test_weighted_variance_at_finite_ly_holds_a_few_row_blocks():
    # past the stored cross block: the m x m weighted training work and
    # about one row block of test rows at a time, however many test rows
    import normgp.gpr as gpr

    rng = np.random.default_rng(31)
    m, d = 100, 3
    n = 40 * gpr._PASS_ROWS
    x = rng.normal(size=(m, d))
    model = restore(x, rng.uniform(20, 80, m), KernelParams(np.ones(d), 0.5), SUM)
    x_test = rng.normal(size=(n, d))
    ages = rng.uniform(20, 80, n)
    cross = gram_matrix(x_test, model.x, model.params, model.form)
    tracemalloc.start()
    try:
        weighted_posterior_cov(model, x_test, ages, AgeKernelParams(10.0, 0.1), cross=cross)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row_block = gpr._PASS_ROWS * m * 8
    assert peak < 2 * row_block + 4 * m * m * 8 + 4 * n * 8
    assert peak < 0.2 * n * m * 8


@st.composite
def pass_cases(draw):
    """A model, test rows and ages, an age weighting, and a small pass row count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(FORMS))
    m, n, d = draw(st.integers(2, 30)), draw(st.integers(1, 40)), draw(st.integers(1, 4))
    x = rng.normal(size=(m, d)) * rng.uniform(0.5, 2.0)
    params = KernelParams(rng.uniform(0.3, 3.0, d), rng.uniform(0.05, 0.5))
    model = restore(x, rng.uniform(20.0, 80.0, m), params, form, y_offset=50.0)
    weighting = draw(st.sampled_from(("identity", "age noise", "finite")))
    age_params = {
        "identity": AgeKernelParams(),
        "age noise": AgeKernelParams(math.inf, rng.uniform(0.01, 0.3)),
        "finite": AgeKernelParams(rng.uniform(2.0, 50.0), rng.uniform(0.0, 0.3)),
    }[weighting]
    x_test = rng.normal(size=(n, d))
    if n > 1 and draw(st.booleans()):
        x_test[-1] = x[0]  # a test row on a training row
    ages = rng.uniform(20.0, 80.0, n)
    return model, x_test, ages, age_params, draw(st.integers(1, 7))


@settings(max_examples=100, deadline=None)
@given(case=pass_cases(), data=st.data())
def test_pass_scores_permute_with_the_test_rows(case, data):
    # reordered rows land in other row blocks, which changes only the rounding
    import normgp.gpr as gpr

    model, x_test, ages, age_params, rows = case
    order = np.array(data.draw(st.permutations(range(x_test.shape[0]))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpr, "_PASS_ROWS", rows)
        base = weighted_posterior_cov(model, x_test, ages, age_params)
        permuted = weighted_posterior_cov(model, x_test[order], ages[order], age_params)
    for name in ("y_hat", "unweighted_variance", "variance"):
        np.testing.assert_allclose(getattr(permuted, name), getattr(base, name)[order],
                                   rtol=1e-12, atol=0.0, err_msg=name)


@settings(max_examples=100, deadline=None)
@given(case=pass_cases())
def test_pass_variances_lie_between_zero_and_the_prior(case):
    import normgp.gpr as gpr
    from normgp.kernels import zero_distance_value

    model, x_test, ages, age_params, rows = case
    prior = zero_distance_value(model.params, model.form)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpr, "_PASS_ROWS", rows)
        result = weighted_posterior_cov(model, x_test, ages, age_params)
        cross = gram_matrix(x_test, model.x, model.params, model.form)
        stored = weighted_posterior_cov(model, x_test, ages, age_params, cross=cross)
    for variance in (result.unweighted_variance, result.variance, stored.variance):
        assert np.all(variance >= 0.0)
        assert np.all(variance <= prior)


@settings(max_examples=100, deadline=None)
@given(case=pass_cases())
def test_pass_weighted_variance_is_the_plain_one_at_the_identity_weighting(case):
    # at l_y = inf with no age noise the weighted kernel is the plain one
    # bitwise, on the score's own pass and on a sweep's stored blocks alike
    import normgp.gpr as gpr

    model, x_test, ages, _, rows = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpr, "_PASS_ROWS", rows)
        result = weighted_posterior_cov(model, x_test, ages, AgeKernelParams())
        cross = gram_matrix(x_test, model.x, model.params, model.form)
        stored = weighted_posterior_cov(model, x_test, ages, AgeKernelParams(), cross=cross)
        plain = predict(model, x_test)
    assert np.array_equal(result.variance, result.unweighted_variance)
    assert np.array_equal(stored.variance, result.variance)
    assert np.array_equal(plain.variance, result.variance)
    assert np.array_equal(plain.y_hat, result.y_hat)


def test_restore_allocates_one_gram_block_and_a_row_block():
    # the Gram is factorized in place, so past it only the Gram fill's row
    # block of scratch and O(m) vectors are alive
    rng = np.random.default_rng(32)
    m, d = 1500, 3
    x = rng.normal(size=(m, d))
    y = rng.uniform(20, 80, m)
    params = KernelParams(np.ones(d), 0.5)
    tracemalloc.start()
    try:
        restore(x, y, params, SUM, y_offset=50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8 + kernels._BLOCK_ENTRIES * 8 + 32 * m * 8


def test_weighted_variance_at_finite_ly_adds_one_training_block():
    # with a stored cross block the weighted training Gram is the only
    # m x m array made: the age factor, multiplied and factorized in place;
    # no Gram block is built, and the pass holds an age-factor row block
    import normgp.gpr as gpr

    rng = np.random.default_rng(33)
    m, d, n = 1500, 3, 1000
    x = rng.normal(size=(m, d))
    model = restore(x, rng.uniform(20, 80, m), KernelParams(np.ones(d), 0.5), SUM)
    x_test = rng.normal(size=(n, d))
    ages = rng.uniform(20, 80, n)
    cross = gram_matrix(x_test, model.x, model.params, model.form)
    tracemalloc.start()
    try:
        weighted_posterior_cov(model, x_test, ages, AgeKernelParams(10.0, 0.1), cross=cross)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8 + 2 * gpr._PASS_ROWS * m * 8 + 8 * (m + n) * 8


def test_weighted_variance_at_finite_ly_builds_one_training_block():
    # without a stored cross block: the weighted training Gram is made in
    # the age factor's m x m buffer from the model's stored Gram entries and
    # factorized there, so past the pass's row blocks a call holds one m x m
    # block; a freshly built weighted Gram and its fill's scratch were two
    rng = np.random.default_rng(35)
    m, d, n = 600, 3, 64
    model = restore(rng.normal(size=(m, d)), rng.uniform(20, 80, m),
                    KernelParams(np.ones(d), 0.5), SUM)
    x_test = rng.normal(size=(n, d))
    ages = rng.uniform(20, 80, n)
    tracemalloc.start()
    try:
        weighted_posterior_cov(model, x_test, ages, AgeKernelParams(10.0, 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8 + 3 * n * m * 8 + 64 * (m + n) * 8


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("jittered", [False, True], ids=["conditioned", "jittered"])
def test_weighted_training_factor_is_the_weighted_gram_factor_bitwise(form, jittered):
    # the age factor times the Gram entries the model's factor keeps above
    # its diagonal is, bit for bit, the age factor times a fresh Gram, so
    # the two factors, and any jitter they need, agree in both triangles
    import normgp.gpr as gpr

    rng = np.random.default_rng(36)
    x = rng.normal(size=(40, 3))
    y = rng.uniform(20, 80, 40)
    noise = 0.3
    if jittered:  # repeated rows and ages at zero noise
        x, y, noise = np.vstack([x, x[:10]]), np.concatenate([y, y[:10]]), 0.0
    params = KernelParams(rng.uniform(0.5, 2.0, 3), noise)
    model = restore(x, y, params, form)
    assert (model.jitter > 0.0) == jittered
    for age_params in (AgeKernelParams(0.1), AgeKernelParams(10.0), AgeKernelParams(1e5),
                       AgeKernelParams(math.inf, 0.2)):
        gram = age_factor(y, y, age_params) * gram_matrix(x, x, params, form, same_set=True)
        np.fill_diagonal(gram, prior_variance(params, form, age_params))
        expected, expected_jitter = stable_cholesky(gram.T)
        chol, jitter = gpr._weighted_training_factor(model, age_params)
        assert np.array_equal(chol, expected)
        assert jitter == expected_jitter


def _strict_upper(matrix):
    return matrix[np.triu_indices(matrix.shape[0], 1)]


def test_stable_cholesky_clean_matrix_needs_no_jitter():
    rng = np.random.default_rng(20)
    a = rng.normal(size=(6, 6))
    matrix = a @ a.T + 6 * np.eye(6)
    chol, jitter = stable_cholesky(np.asfortranarray(matrix))
    assert jitter == 0.0
    factor = np.tril(chol)
    assert np.allclose(factor @ factor.T, matrix, atol=1e-10)
    assert np.array_equal(_strict_upper(chol), _strict_upper(matrix))


def test_stable_cholesky_escalates_jitter_for_singular_input():
    a = np.random.default_rng(23).normal(size=(4, 1))
    for matrix in (np.ones((4, 4)), a @ a.T):  # rank one, positive semidefinite
        chol, jitter = stable_cholesky(np.asfortranarray(matrix))
        assert jitter > 0.0
        factor = np.tril(chol)
        assert np.allclose(factor @ factor.T, matrix + jitter * np.eye(4), atol=1e-8)
        assert np.array_equal(_strict_upper(chol), _strict_upper(matrix))


def test_stable_cholesky_jittered_factor_is_scipy_cholesky_of_the_shifted_matrix():
    # duplicate rows at zero noise: the first attempts fail part-way, after
    # dpotrf has overwritten leading columns, so the retry must rebuild the
    # lower triangle and diagonal exactly
    from scipy.linalg import cholesky

    rng = np.random.default_rng(25)
    base = rng.normal(size=(30, 3))
    x = np.vstack([base, base[:10]])
    params = KernelParams(length_scales=np.array([0.6, 1.4, 0.9]), noise_variance=0.0)
    gram = gram_matrix(x, x, params, SUM, same_set=True)
    matrix = gram.copy().T
    chol, jitter = stable_cholesky(matrix)
    assert jitter > 0.0
    expected = cholesky(gram + jitter * np.eye(x.shape[0]), lower=True)
    assert np.array_equal(np.tril(chol), expected)
    assert np.array_equal(_strict_upper(chol), _strict_upper(gram))
    assert np.shares_memory(chol, matrix)  # factorized in place


@pytest.mark.parametrize("jittered", [False, True], ids=["conditioned", "jittered"])
def test_stable_cholesky_reads_only_the_upper_triangle_and_diagonal(jittered):
    # callers fill the upper triangle and the diagonal; whatever the strict
    # lower triangle holds, the factor is the clean symmetric matrix's
    rng = np.random.default_rng(27)
    x = rng.normal(size=(30, 3))
    noise = 0.2
    if jittered:  # repeated rows at zero noise
        x, noise = np.vstack([x, x[:10]]), 0.0
    params = KernelParams(np.array([0.6, 1.4, 0.9]), noise)
    gram = gram_matrix(x, x, params, SUM, same_set=True)
    expected, expected_jitter = stable_cholesky(gram.copy().T)
    assert (expected_jitter > 0.0) == jittered
    garbage = np.asfortranarray(gram)
    lower = np.tril_indices(gram.shape[0], -1)
    garbage[lower] = rng.choice([np.nan, np.inf, -np.inf, -1e300, 0.0, 7.0], lower[0].size)
    chol, jitter = stable_cholesky(garbage)
    assert np.shares_memory(chol, garbage)  # factorized in place
    assert np.array_equal(chol, expected)
    assert jitter == expected_jitter


@pytest.mark.parametrize("case", ["c_order", "read_only", "float32"])
def test_stable_cholesky_rejects_any_other_buffer_and_leaves_it_unchanged(case):
    # a positive definite matrix, but not a writable, Fortran-ordered
    # float64 buffer: it is refused, neither copied nor factorized
    rng = np.random.default_rng(26)
    a = rng.normal(size=(7, 7))
    matrix = a @ a.T + np.eye(7)
    given = {
        "c_order": matrix.copy(),
        "read_only": np.asfortranarray(matrix),
        "float32": np.asfortranarray(matrix, dtype=np.float32),
    }[case]
    given.flags.writeable = case != "read_only"
    before = given.copy()
    with pytest.raises(ValueError, match="writable, Fortran-ordered float64"):
        stable_cholesky(given)
    assert np.array_equal(given, before)


def test_stable_cholesky_reports_attempted_ladder():
    # -I fails at every jitter up to 1e-4 (its mean diagonal is not positive,
    # so the scale is 1); test_stable_cholesky_clean_matrix_needs_no_jitter
    # pins that the first attempt is unjittered
    with pytest.raises(ConditioningError, match=r"3x3 matrix .* jitter to 1\.000e-04$"):
        stable_cholesky(np.asfortranarray(-np.eye(3)))
    with pytest.raises(ConditioningError):
        stable_cholesky(np.asfortranarray([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        stable_cholesky(np.ones((2, 3), order="F"))


def test_negative_variance_beyond_tolerance_is_an_error():
    with pytest.raises(NumericalError):
        _clamped(np.array([0.25, 0.5 - 1.0]))
    # within tolerance it clamps instead
    assert np.array_equal(_clamped(np.array([0.25, -1e-12])), [0.25, 0.0])


def test_lapack_modules_are_scipy_linalg_s_own_modules():
    # _lapack loads scipy's compiled modules without the scipy.linalg
    # package, which a later import reuses rather than loading them again
    code = (
        "import sys; from normgp import _lapack; "
        "assert 'scipy.linalg' not in sys.modules; "
        "import scipy.linalg.blas, scipy.linalg.lapack; "
        "from scipy.linalg import _fblas, _flapack; "
        "print(_lapack._flapack is _flapack, _lapack._fblas is _fblas, "
        "scipy.linalg.lapack.dpotrf is _lapack._flapack.dpotrf, "
        "scipy.linalg.blas.dgemv is _lapack._fblas.dgemv)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True"] * 4


def _bundled_openblas() -> list[str]:
    """The ``libscipy_openblas`` libraries that scipy's wheel bundles, if any."""
    import scipy

    package = Path(scipy.__file__).parent
    return [path.name for directory in (package.parent / "scipy.libs", package / ".dylibs")
            if directory.is_dir() for path in directory.glob("libscipy_openblas*")]


def test_scipy_s_bundled_openblas_gets_its_thread_functions_bound():
    # a scipy release that renames the thread functions would otherwise
    # drop the one-thread switch for small orders without a sound
    from normgp import _lapack

    if not _bundled_openblas():
        pytest.skip("this scipy bundles no libscipy_openblas")
    assert _lapack._set_threads is not None and _lapack._get_threads is not None
    assert _lapack.dpotrf.__wrapped__ is _lapack._flapack.dpotrf
    assert _lapack.dgemv.__wrapped__ is _lapack._fblas.dgemv
    assert _lapack.dtrtrs is _lapack._flapack.dtrtrs  # never switched


def test_lapack_s_thread_setter_is_the_one_in_the_openblas_flapack_calls():
    # _lapack binds the first libscipy_openblas in sorted order; the symbol
    # looked up through _flapack's own handle is the one its routines use
    import ctypes

    from normgp import _lapack

    try:
        used = ctypes.CDLL(_lapack._flapack.__file__).scipy_openblas_set_num_threads
    except (OSError, AttributeError):
        pytest.skip("the thread setter does not resolve through scipy's _flapack")

    def address(function):
        return ctypes.cast(function, ctypes.c_void_p).value

    assert address(_lapack._set_threads) == address(used)


@pytest.mark.parametrize("refusal", ["no library", "no symbol"])
def test_without_openblas_thread_functions_the_routines_are_scipy_s_own(refusal):
    # a conda or MKL build: the six names are scipy's routines, unwrapped
    stub = "raise OSError('absent')" if refusal == "no library" else "return object()"
    code = (
        "import ctypes, scipy\n"
        f"def absent(*args, **kwargs):\n    {stub}\n"
        "ctypes.CDLL = absent\n"
        "from normgp import _lapack\n"
        "modules = {'dsyr': _lapack._fblas, 'dgemv': _lapack._fblas}\n"
        "print(_lapack._set_threads is None, all(getattr(_lapack, name) is "
        "getattr(modules.get(name, _lapack._flapack), name) for name in _lapack.__all__))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "True"]


@pytest.fixture
def two_blas_threads():
    """``_lapack`` with scipy's OpenBLAS at two threads, its own count restored after."""
    from normgp import _lapack

    if _lapack._set_threads is None:
        pytest.skip("scipy's OpenBLAS thread functions are not bound")
    before = _lapack._get_threads()
    _lapack._set_threads(2)
    yield _lapack
    _lapack._set_threads(before)


def _recorded_setter(monkeypatch, lapack) -> list[int]:
    counts = []
    set_threads = lapack._set_threads

    def record(count):
        counts.append(count)
        set_threads(count)

    monkeypatch.setattr(lapack, "_set_threads", record)
    return counts


def _order_5_calls(lapack):
    """Each of the five switched routines at order 5, by name."""
    a = np.asfortranarray(np.eye(5) * 4.0 + 1.0)
    chol = lapack._flapack.dpotrf(a)[0]
    x = np.arange(5.0)
    return {
        "dpotrf": lambda: lapack.dpotrf(a.copy(order="F"), lower=1),
        "dpotrs": lambda: lapack.dpotrs(chol, x, lower=1),
        "dpotri": lambda: lapack.dpotri(chol.copy(order="F"), lower=1),
        "dsyr": lambda: lapack.dsyr(-1.0, x, lower=1, a=a.copy(order="F")),
        "dgemv": lambda: lapack.dgemv(1.0, a, x, trans=1),
    }


@pytest.mark.parametrize("routine", ["dpotrf", "dpotrs", "dpotri", "dsyr", "dgemv"])
def test_a_small_call_runs_on_one_thread_and_restores_the_count(two_blas_threads, monkeypatch,
                                                                 routine):
    lapack = two_blas_threads
    counts = _recorded_setter(monkeypatch, lapack)
    call = _order_5_calls(lapack)[routine]
    result = call()
    assert counts == [1, 2]
    assert lapack._get_threads() == 2
    # the same call on scipy's routine gives the same numbers
    counts.clear()
    monkeypatch.setattr(lapack, "_SERIAL_BELOW", 5)
    for got, expected in zip(result, call()):
        assert np.array_equal(got, expected)
    assert counts == []


def test_the_count_is_restored_when_the_routine_raises(two_blas_threads, monkeypatch):
    lapack = two_blas_threads
    counts = _recorded_setter(monkeypatch, lapack)
    with pytest.raises(Exception, match=r"shape\(a,0\)==shape\(a,1\)"):
        lapack.dpotrf(np.ones(3))  # f2py refuses a 1-D matrix
    assert counts == [1, 2]
    assert lapack._get_threads() == 2


@pytest.mark.parametrize("routine", ["dpotrf", "dpotrs", "dpotri", "dsyr", "dgemv"])
def test_a_call_at_the_serial_order_or_above_never_sets_the_count(two_blas_threads, monkeypatch,
                                                                  routine):
    lapack = two_blas_threads
    counts = _recorded_setter(monkeypatch, lapack)
    for below in (5, 4):
        monkeypatch.setattr(lapack, "_SERIAL_BELOW", below)
        _order_5_calls(lapack)[routine]()
    assert counts == []


def test_results_agree_on_one_thread_and_on_the_library_s_count(monkeypatch):
    # below _SERIAL_BELOW every switched call runs on one thread, so
    # comparing OPENBLAS_NUM_THREADS settings in subprocesses no longer
    # compares them at small orders: here one process runs them threaded,
    # then on one thread
    from normgp import _lapack

    rng = np.random.default_rng(29)
    m, n, d = 80, 40, 4
    x = rng.normal(size=(m, d))
    y = rng.uniform(20.0, 80.0, m)
    x_test = rng.normal(size=(n, d))
    ages = rng.uniform(20.0, 80.0, n)
    params = KernelParams(length_scales=rng.uniform(0.5, 2.0, d), noise_variance=0.1)
    theta = np.log(np.append(params.length_scales, params.noise_variance)) + 0.3
    runs = []
    for below in (0, 10**6):
        monkeypatch.setattr(_lapack, "_SERIAL_BELOW", below)
        model = restore(x, y, params, SUM, y_offset=50.0)
        predicted = predict(model, x_test)
        weighted = weighted_posterior_cov(model, x_test, ages, AgeKernelParams(10.0))
        value, grad = _LmlObjective(x, y - 50.0, SUM)(theta)
        runs.append([model.chol, model.alpha, predicted.y_hat, predicted.variance,
                     weighted.variance, weighted.y_hat, np.array([value]), grad])
    for threaded, serial in zip(*runs):
        np.testing.assert_allclose(threaded, serial, rtol=1e-12, atol=0.0)


def test_missing_lapack_extension_modules_name_the_directory_searched():
    code = (
        "import scipy; scipy.__file__ = '/nowhere/scipy/__init__.py'; "
        "from normgp import _lapack"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 1
    assert "ImportError: scipy extension module _flapack not found in /nowhere/scipy/linalg" \
        in result.stderr


@pytest.mark.parametrize("routine", ["dtrtrs", "dpotrs"])
def test_a_failed_triangular_or_cholesky_solve_is_a_numerical_error(monkeypatch, routine):
    # cannot happen after a successful dpotrf, but a nonzero info is checked
    from normgp import _lapack

    rng = np.random.default_rng(23)
    x, y, x_test, _, params, form = random_instance(rng)
    model = restore(x, y, params, form)
    solve = getattr(_lapack, routine)
    monkeypatch.setattr(_lapack, routine, lambda *args, **kwargs: (solve(*args, **kwargs)[0], 1))
    with pytest.raises(NumericalError, match=routine):
        if routine == "dtrtrs":
            predict(model, x_test)
        else:
            restore(x, y, params, form)


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(21)
    x, y, _, _, params, form = random_instance(rng)
    model = restore(x, y, params, form)
    with pytest.raises(ValueError):
        predict(model, np.ones((2, x.shape[1] + 1)))
    with pytest.raises(ValueError):
        weighted_posterior_cov(
            model, np.ones((2, x.shape[1])), np.array([50.0]), AgeKernelParams()
        )


@pytest.mark.parametrize(
    "ages, message",
    [
        (np.array([50.0]), "test_ages has length 1, expected 2"),
        (np.array([50.0, np.nan]), "test_ages contains non-finite values"),
        (np.array([np.inf, 50.0]), "test_ages contains non-finite values"),
    ],
    ids=["wrong-length", "nan", "inf"],
)
def test_weighted_posterior_cov_rejects_bad_test_ages(ages, message):
    rng = np.random.default_rng(21)
    x, y, _, _, params, form = random_instance(rng)
    model = restore(x, y, params, form)
    with pytest.raises(ValueError, match=message):
        weighted_posterior_cov(model, np.ones((2, x.shape[1])), ages, AgeKernelParams(10.0))


def test_restore_reconstruction_invariants():
    rng = np.random.default_rng(22)
    x, y, _, _, params, form = random_instance(rng)
    model = restore(x, y, params, form)
    from normgp.kernels import gram_matrix

    gram = gram_matrix(x, x, params, form, same_set=True)
    factor = np.tril(model.chol)
    rebuilt = factor @ factor.T
    assert np.allclose(rebuilt, gram + model.jitter * np.eye(len(y)), rtol=1e-8)
    assert np.array_equal(_strict_upper(model.chol), _strict_upper(gram))
    residual = (gram + model.jitter * np.eye(len(y))) @ model.alpha - (y - model.y_offset)
    assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, np.max(np.abs(y)))
    assert isinstance(model, TrainedModel)
