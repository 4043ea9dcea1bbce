import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_age_similarity, naive_gram, naive_kernel_value
from normgp import kernels
from normgp.gpr import _LmlObjective
from normgp.kernels import (
    FORMS,
    PRODUCT,
    SUM,
    AgeKernelParams,
    KernelParams,
    age_factor,
    gram_matrix,
    prior_variance,
    zero_distance_value,
)


def kernel_entry(x_i, x_j, params, form=SUM):
    """One cross-block entry of ``gram_matrix``: the kernel between two rows."""
    return float(gram_matrix(np.atleast_2d(x_i), np.atleast_2d(x_j), params, form)[0, 0])


def weighted_gram(a, b, params, form, age_params, ages_a, ages_b, same_set=False):
    """The age-weighted Gram as the Schur product ``age_factor * gram_matrix``;
    a same-set one carries ``prior_variance(..., age_params)`` on its diagonal."""
    ages_a, ages_b = np.asarray(ages_a, dtype=float), np.asarray(ages_b, dtype=float)
    gram = age_factor(ages_a, ages_b, age_params) * gram_matrix(
        a, b, params, form, same_set=same_set
    )
    if same_set:
        np.fill_diagonal(gram, prior_variance(params, form, age_params))
    return gram


def test_zero_distance_sum_form_counts_features():
    params = KernelParams(length_scales=np.ones(3))
    x = np.array([0.4, -1.2, 3.3])
    assert kernel_entry(x, x, params, SUM) == pytest.approx(3.0, abs=1e-15)
    assert kernel_entry(x, x, params, SUM) == naive_kernel_value(x, x, params, SUM)


def test_same_sample_adds_noise_variance():
    params = KernelParams(length_scales=np.ones(3), noise_variance=0.25)
    x = np.array([0.4, -1.2, 3.3])
    z = x + 1.0
    # rows 0 and 1 are equal values but distinct samples: the delta term is
    # indexed by sample identity, so only the diagonal carries the noise
    gram = gram_matrix(np.stack([x, x, z]), np.stack([x, x, z]), params, SUM, same_set=True)
    assert np.allclose(np.diagonal(gram), 3.25, rtol=0.0, atol=1e-15)
    assert gram[0, 1] == pytest.approx(3.0, abs=1e-15)
    raw = naive_kernel_value(x, z, params, SUM)
    assert gram[0, 2] == pytest.approx(raw, abs=1e-15)
    assert gram[2, 2] == pytest.approx(
        naive_kernel_value(z, z, params, SUM, same_sample=True), abs=1e-15
    )


@pytest.mark.parametrize("form", FORMS)
def test_unit_length_scale_distance_closed_form(form):
    params = KernelParams(length_scales=np.array([2.0]))
    value = kernel_entry(np.array([0.0]), np.array([2.0]), params, form)
    assert value == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert value == pytest.approx(0.60653, abs=1e-4)


def test_product_form_zero_distance_is_one():
    params = KernelParams(length_scales=np.array([1.0, 5.0]))
    x = np.array([1.0, 2.0])
    assert kernel_entry(x, x, params, PRODUCT) == 1.0


def test_kernel_dimension_mismatch():
    params = KernelParams(length_scales=np.ones(2))
    with pytest.raises(ValueError):
        kernel_entry(np.ones(3), np.ones(3), params)
    with pytest.raises(ValueError):
        kernel_entry(np.ones(2), np.ones(3), params)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(length_scales=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        KernelParams(length_scales=np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        KernelParams(length_scales=np.array([1.0, math.inf]))
    with pytest.raises(ValueError):
        KernelParams(length_scales=np.ones(2), noise_variance=-0.1)


def test_age_similarity_examples():
    # one feature at zero distance has kernel 1, so the weighted entry is
    # the age-similarity factor itself
    one = KernelParams(length_scales=np.ones(1))
    x = np.zeros((1, 1))

    def entry(age_params, y_i, y_j):
        return float(weighted_gram(x, x, one, SUM, age_params, [y_i], [y_j])[0, 0])

    params = AgeKernelParams(age_length_scale=10.0)
    assert entry(params, 43.0, 43.0) == 1.0
    assert entry(params, 40.0, 50.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert entry(params, 40.0, 50.0) == pytest.approx(
        naive_age_similarity(40.0, 50.0, params), abs=1e-15
    )
    infinite = AgeKernelParams(age_length_scale=math.inf)
    assert entry(infinite, 20.0, 80.0) == 1.0
    noisy = AgeKernelParams(age_length_scale=math.inf, age_noise_variance=0.3)
    same = weighted_gram(
        np.zeros((2, 1)), np.zeros((2, 1)), one, SUM, noisy, [20.0, 80.0], [20.0, 80.0],
        same_set=True,
    )
    assert np.allclose(np.diagonal(same), 1.3, rtol=0.0, atol=1e-15)
    assert same[0, 1] == 1.0


def test_age_params_validation():
    with pytest.raises(ValueError):
        AgeKernelParams(age_length_scale=0.0)
    with pytest.raises(ValueError):
        AgeKernelParams(age_length_scale=-3.0)
    with pytest.raises(ValueError):
        AgeKernelParams(age_length_scale=10.0, age_noise_variance=math.inf)


def test_age_length_scale_whose_square_underflows_is_rejected():
    # below 2**-511 the square underflows to a subnormal or to zero, and
    # equal ages gave 0 / -0.0 = nan
    with pytest.raises(ValueError, match=r"age_length_scale 1e-200 is below 1\.49\d*e-154"):
        AgeKernelParams(age_length_scale=1e-200)
    with pytest.raises(ValueError):
        AgeKernelParams(age_length_scale=math.nextafter(2.0**-511, 0.0))
    AgeKernelParams(age_length_scale=2.0**-511)
    equal = np.array([43.0, 43.0])
    factor = age_factor(equal, equal, AgeKernelParams(age_length_scale=1e-150))
    assert np.array_equal(factor, np.ones((2, 2)))


def test_age_factor_at_infinite_scale_is_one_for_any_ages():
    # (1e200 - 40)^2 overflows, and dividing it by -inf once gave nan
    one = KernelParams(length_scales=np.ones(1))
    ages = np.array([40.0, 1e200, -1e200])
    infinite = AgeKernelParams(age_length_scale=math.inf, age_noise_variance=0.1)
    factor = age_factor(ages, ages[:2], infinite)
    assert factor.shape == (3, 2) and np.all(factor == 1.0)
    x = np.zeros((3, 1))
    weighted = weighted_gram(x, x[:2], one, SUM, infinite, ages, ages[:2])
    assert np.array_equal(weighted, gram_matrix(x, x[:2], one))


def test_weighted_kernel_equal_ages_is_identity():
    kp = KernelParams(length_scales=np.array([1.5, 0.5]), noise_variance=0.1)
    ap = AgeKernelParams(age_length_scale=7.0)
    a = np.array([[0.3, -0.7], [2.0, 0.4]])
    b = np.array([[1.1, 0.2], [-0.5, 0.9], [0.3, -0.7]])
    weighted = weighted_gram(a, b, kp, SUM, ap, [55.0] * 2, [55.0] * 3)
    assert np.array_equal(weighted, gram_matrix(a, b, kp))


def test_weighted_kernel_product_example():
    # zero feature distance with 3 features gives 3.0; one age length scale
    # of separation multiplies by exp(-1/2)
    kp = KernelParams(length_scales=np.ones(3))
    ap = AgeKernelParams(age_length_scale=10.0)
    x = np.array([[0.0, 1.0, 2.0]])
    value = float(weighted_gram(x, x, kp, SUM, ap, [40.0], [50.0])[0, 0])
    assert value == pytest.approx(3.0 * math.exp(-0.5), abs=1e-12)
    assert value == pytest.approx(1.8196, abs=1e-4)


def test_weighted_kernel_bound():
    rng = np.random.default_rng(7)
    kp = KernelParams(length_scales=rng.uniform(0.5, 2.0, 4), noise_variance=0.2)
    ap = AgeKernelParams(age_length_scale=5.0, age_noise_variance=0.4)
    # off the diagonal the age factor is at most one; on it, 1 + age noise
    factor = np.where(np.eye(6, dtype=bool), 1.4, 1.0)
    for _ in range(10):
        x = rng.normal(size=(6, 4))
        ages = rng.uniform(20, 80, 6)
        for form in FORMS:
            weighted = weighted_gram(x, x, kp, form, ap, ages, ages, same_set=True)
            bound = factor * gram_matrix(x, x, kp, form, same_set=True)
            assert np.all(weighted <= bound + 1e-12)


def test_gram_two_identical_rows_closed_form():
    params = KernelParams(length_scales=np.ones(2), noise_variance=0.1)
    x = np.array([[0.5, 1.5], [0.5, 1.5]])
    gram = gram_matrix(x, x, params, SUM, same_set=True)
    assert np.allclose(gram, [[2.1, 2.0], [2.0, 2.1]], atol=1e-15)


def test_gram_cross_block_never_gets_delta():
    params = KernelParams(length_scales=np.ones(3), noise_variance=5.0)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(6, 3))
    cross = gram_matrix(a, b, params, SUM)
    assert np.all(cross <= 3.0)
    assert np.all(cross > 0.0)


@pytest.mark.parametrize("form", FORMS)
def test_gram_matches_scalar_oracle(form):
    rng = np.random.default_rng(42)
    params = KernelParams(length_scales=rng.uniform(0.4, 2.5, 3), noise_variance=0.3)
    x = rng.normal(size=(5, 3))
    expected = naive_gram(x, x, params, form, same_set=True)
    assert np.allclose(gram_matrix(x, x, params, form, same_set=True), expected, atol=1e-15)

    ap = AgeKernelParams(age_length_scale=12.0, age_noise_variance=0.05)
    ages = rng.uniform(20, 80, 5)
    weighted = weighted_gram(x, x, params, form, ap, ages, ages, same_set=True)
    expected_w = naive_gram(x, x, params, form, ap, ages, ages, same_set=True)
    assert np.allclose(weighted, expected_w, atol=1e-15)


def test_gram_symmetry_is_exact():
    rng = np.random.default_rng(3)
    params = KernelParams(length_scales=rng.uniform(0.5, 2.0, 4), noise_variance=0.2)
    x = rng.normal(size=(12, 4))
    for form in FORMS:
        gram = gram_matrix(x, x, params, form, same_set=True)
        assert np.array_equal(gram, gram.T)


@pytest.mark.parametrize("form", FORMS)
def test_gram_positive_semidefinite(form):
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 5))
        x = rng.normal(size=(n, k)) * float(rng.uniform(0.3, 3.0))
        params = KernelParams(length_scales=rng.uniform(0.3, 3.0, k))
        ages = rng.uniform(20, 80, n)
        ap = AgeKernelParams(age_length_scale=float(rng.uniform(3, 40)))
        for gram in (
            gram_matrix(x, x, params, form, same_set=True),
            weighted_gram(x, x, params, form, ap, ages, ages, same_set=True),
        ):
            eigenvalues = np.linalg.eigvalsh(gram)
            assert eigenvalues.min() >= -1e-8 * eigenvalues.max()


@settings(max_examples=40, deadline=None)
@given(
    point=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
    delta=st.lists(st.floats(-2, 2), min_size=1, max_size=4),
    shift=st.floats(-2, 2),
    form=st.sampled_from(FORMS),
)
def test_kernel_stationarity(point, delta, shift, form):
    k = min(len(point), len(delta))
    x_i = np.asarray(point[:k])
    x_j = x_i + np.asarray(delta[:k])
    params = KernelParams(length_scales=np.full(k, 0.8))
    base = kernel_entry(x_i, x_j, params, form)
    shifted = kernel_entry(x_i + shift, x_j + shift, params, form)
    assert abs(base - shifted) <= 1e-15


def test_weighted_gram_infinite_scale_equals_unweighted_exactly():
    rng = np.random.default_rng(5)
    params = KernelParams(length_scales=rng.uniform(0.5, 2.0, 3), noise_variance=0.15)
    x = rng.normal(size=(8, 3))
    ages = rng.uniform(20, 80, 8)
    ap = AgeKernelParams(age_length_scale=math.inf, age_noise_variance=0.0)
    plain = gram_matrix(x, x, params, SUM, same_set=True)
    weighted = weighted_gram(x, x, params, SUM, ap, ages, ages, same_set=True)
    assert np.array_equal(plain, weighted)


def test_prior_variance_and_zero_distance():
    params = KernelParams(length_scales=np.ones(4), noise_variance=0.3)
    assert zero_distance_value(params, SUM) == 4.0
    assert zero_distance_value(params, PRODUCT) == 1.0
    assert prior_variance(params, SUM) == pytest.approx(4.3, abs=1e-15)
    ap = AgeKernelParams(age_length_scale=5.0, age_noise_variance=0.5)
    assert prior_variance(params, SUM, ap) == pytest.approx(4.3 * 1.5, abs=1e-14)


def test_gram_requires_matching_dimensions():
    params = KernelParams(length_scales=np.ones(2))
    with pytest.raises(ValueError):
        gram_matrix(np.ones((3, 3)), np.ones((3, 3)), params, SUM)
    with pytest.raises(ValueError):
        gram_matrix(np.ones((3, 2)), np.ones((3, 3)), params, SUM)
    # same_set demands identical row counts
    with pytest.raises(ValueError):
        gram_matrix(np.ones((3, 2)), np.ones((4, 2)), params, SUM, same_set=True)


@pytest.mark.parametrize("form", FORMS)
def test_gram_cross_blocks_match_naive_oracle(form):
    rng = np.random.default_rng(17)
    params = KernelParams(length_scales=rng.uniform(0.4, 2.5, 6), noise_variance=0.3)
    a = rng.normal(size=(7, 6))
    b = rng.normal(size=(9, 6))
    assert np.allclose(gram_matrix(a, b, params, form), naive_gram(a, b, params, form),
                       rtol=1e-14, atol=0.0)
    ages_a = rng.uniform(20, 80, 7)
    ages_b = rng.uniform(20, 80, 9)
    for ap in (AgeKernelParams(9.0, 0.2), AgeKernelParams(math.inf, 0.0)):
        weighted = weighted_gram(a, b, params, form, ap, ages_a, ages_b)
        expected = naive_gram(a, b, params, form, ap, ages_a, ages_b)
        assert np.allclose(weighted, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("form", FORMS)
def test_gram_matrix_keeps_one_scratch_block(form):
    # the result plus one scratch block, however many features: never one
    # block per feature
    rng = np.random.default_rng(19)
    params = KernelParams(length_scales=rng.uniform(0.5, 2.0, 12))
    a = rng.normal(size=(300, 12))
    b = rng.normal(size=(200, 12))
    block = 300 * 200 * 8
    tracemalloc.start()
    try:
        gram_matrix(a, b, params, form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block


@pytest.mark.parametrize("form", FORMS)
def test_row_blocked_gram_matrix_is_bitwise_one_block(form, monkeypatch):
    # every entry sees the same elementwise operations in any row block
    rng = np.random.default_rng(21)
    params = KernelParams(length_scales=rng.uniform(0.5, 2.0, 3))
    b = rng.normal(size=(64, 3))
    block = kernels._BLOCK_ENTRIES // b.shape[0]
    a = rng.normal(size=(block + 1, 3))

    def grams():
        return [gram_matrix(a[:n], b, params, form) for n in (1, block - 1, block, block + 1)]

    blocked = grams()
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 2**62)
    for got, expected in zip(blocked, grams(), strict=True):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("form", FORMS)
def test_gram_matrix_holds_its_result_and_one_row_block(form):
    rng = np.random.default_rng(22)
    params = KernelParams(length_scales=rng.uniform(0.5, 2.0, 5))
    b = rng.normal(size=(100, 5))
    n = 6 * (kernels._BLOCK_ENTRIES // b.shape[0])
    a = rng.normal(size=(n, 5))
    result = n * b.shape[0] * 8
    tracemalloc.start()
    try:
        gram_matrix(a, b, params, form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < result + 2 * kernels._BLOCK_ENTRIES * 8


@pytest.mark.parametrize("form", FORMS)
def test_pair_distance_gram_is_the_lower_triangle_of_gram_matrix(form):
    # the fit's objective fills its Fortran Gram buffer's upper triangle from
    # the pair kernel; stable_cholesky, dpotrf and dpotri write only the lower
    # triangle, so after one call the strict upper triangle still holds the
    # Gram that gram_matrix builds
    rng = np.random.default_rng(20)
    params = KernelParams(length_scales=rng.uniform(0.5, 2.0, 5), noise_variance=0.4)
    x = rng.normal(size=(11, 5))
    objective = _LmlObjective(x, rng.normal(size=11), form)
    objective(np.log(np.append(params.length_scales, params.noise_variance)))
    buffer = objective._gram
    assert buffer.flags.f_contiguous
    gram = gram_matrix(x, x, params, form, same_set=True)
    assert np.array_equal(np.tril(buffer.T, -1), np.tril(gram, -1))
