"""Shared naive reference implementations used to cross-check the fast paths.

Everything here deliberately avoids the library's vectorized kernel and
Cholesky code: grams are built entry by entry with math.exp, posteriors use
explicit dense inversion. Slow but independently checkable.
"""

from __future__ import annotations

import math

import numpy as np

from normgp.kernels import PRODUCT, SUM, AgeKernelParams, KernelParams


# The benchmark's ``score`` model hyperparameters, fixed: a ``fit`` of 500
# healthy synth subjects with 8 features.
BENCH_SCORE_PARAMS = KernelParams(
    np.array([
        0.73700054133032256, 0.87476063939889948, 1.8642141997738642, 0.82819092117560733,
        1.161249981973739, 0.96398254116186988, 0.91433292220519191, 1.4682575421138173,
    ]),
    4.6189161563633263,
)


def naive_kernel_value(x_i, x_j, params, form=SUM, same_sample=False):
    terms = []
    for k in range(len(params.length_scales)):
        d = float(x_i[k]) - float(x_j[k])
        terms.append(d * d / (2.0 * float(params.length_scales[k]) ** 2))
    if form == SUM:
        value = sum(math.exp(-t) for t in terms)
    else:
        value = math.exp(-sum(terms))
    if same_sample:
        value += float(params.noise_variance)
    return value


def naive_age_similarity(y_i, y_j, age_params, same_sample=False):
    if math.isinf(age_params.age_length_scale):
        value = 1.0
    else:
        d = float(y_i) - float(y_j)
        value = math.exp(-d * d / (2.0 * float(age_params.age_length_scale) ** 2))
    if same_sample:
        value += float(age_params.age_noise_variance)
    return value


def naive_gram(
    a, b, params, form=SUM, age_params=None, ages_a=None, ages_b=None, same_set=False
):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            same = bool(same_set and i == j)
            value = naive_kernel_value(a[i], b[j], params, form, same)
            if age_params is not None:
                value *= naive_age_similarity(ages_a[i], ages_b[j], age_params, same)
            out[i, j] = value
    return out


def naive_posterior(
    x,
    y,
    x_test,
    params,
    form=SUM,
    age_params=None,
    ages_train=None,
    ages_test=None,
    y_offset=0.0,
):
    """Dense-inversion GP posterior (mean, full covariance).

    The training block carries the noise delta (and the age-noise delta when
    weighted); the test-test block is noise-free.
    """
    k_train = naive_gram(
        x, x, params, form, age_params, ages_train, ages_train, same_set=True
    )
    k_cross = naive_gram(x_test, x, params, form, age_params, ages_test, ages_train)
    k_test = naive_gram(x_test, x_test, params, form, age_params, ages_test, ages_test)
    inv = np.linalg.inv(k_train)
    mean = k_cross @ inv @ (np.asarray(y, dtype=float) - y_offset) + y_offset
    cov = k_test - k_cross @ inv @ k_cross.T
    return mean, cov


def naive_lml(params, form, x, y):
    k_train = naive_gram(x, x, params, form, same_set=True)
    y = np.asarray(y, dtype=float)
    sign, logdet = np.linalg.slogdet(k_train)
    assert sign > 0, "naive oracle needs a positive-definite gram"
    quad = float(y @ np.linalg.inv(k_train) @ y)
    return -0.5 * quad - 0.5 * logdet - 0.5 * y.shape[0] * math.log(2.0 * math.pi)


def naive_midranks(values):
    """Ranks from 1 with ties averaged, plus tie-group sizes, by a scan of the sorted values."""
    n = values.shape[0]
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    ranks = np.empty(n)
    tie_sizes = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, np.asarray(tie_sizes, dtype=float)


def random_instance(rng, max_train=12, max_test=6, max_features=4, min_noise=0.05):
    """A well-conditioned random GP problem for oracle comparisons."""
    m = int(rng.integers(2, max_train + 1))
    n = int(rng.integers(1, max_test + 1))
    k = int(rng.integers(1, max_features + 1))
    x = rng.normal(size=(m, k)) * float(rng.uniform(0.5, 2.0))
    x_test = rng.normal(size=(n, k))
    y = rng.uniform(20.0, 80.0, size=m)
    ages_test = rng.uniform(20.0, 80.0, size=n)
    params = KernelParams(
        length_scales=rng.uniform(0.3, 3.0, size=k),
        noise_variance=float(rng.uniform(min_noise, 0.5)),
    )
    form = SUM if rng.random() < 0.5 else PRODUCT
    return x, y, x_test, ages_test, params, form


def random_age_params(rng):
    if rng.random() < 0.25:
        scale = math.inf
    else:
        scale = float(rng.uniform(2.0, 50.0))
    return AgeKernelParams(
        age_length_scale=scale, age_noise_variance=float(rng.uniform(0.0, 0.3))
    )
