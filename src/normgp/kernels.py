"""Covariance functions and Gram-matrix assembly.

Two stationary feature kernels are provided behind a ``form`` switch:

* ``"sum"`` (default): a sum of one-dimensional squared exponentials,
  ``k(x_i, x_j) = sum_k exp(-(x_i^k - x_j^k)^2 / (2 l_k^2)) + sigma_n^2 * delta``
* ``"product"``: the conventional ARD squared exponential,
  ``k(x_i, x_j) = exp(-sum_k (x_i^k - x_j^k)^2 / (2 l_k^2)) + sigma_n^2 * delta``

The delta term is indexed by *sample identity*, not by value equality:
it appears only on the diagonal of a Gram matrix built from one sample
set against itself. An optional age-similarity factor

    s(y_i, y_j) = exp(-(y_i - y_j)^2 / (2 l_y^2)) + sigma_y^2 * delta

turns either kernel into the age-weighted kernel ``k_w = s * k``, a Schur
product: a weighted Gram block is ``age_factor`` times the ``gram_matrix``
block, and a same-set one has ``prior_variance(..., age_params)`` on its
diagonal. At an infinite age length scale ``age_factor`` fills exact ones
for any ages, recovering the unweighted kernel exactly (bitwise, not just
approximately).

Each feature's term of either form is written once, in ``_feature_term``,
and ``_feature_kernel`` adds the terms up into a form's kernel:
``gram_matrix`` applies it to row blocks of distances, and the fit's
objective in ``gpr`` to the training rows' pairs, whose sum-form gradient
pass calls ``_feature_term`` for each feature's exponential. Scoring in
``gpr`` calls ``gram_matrix`` once per block of test rows, so no n x m
test-by-training block is built except a sweep's, which it stores.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

SUM = "sum"
PRODUCT = "product"
FORMS = (SUM, PRODUCT)
# Doubles in one row block of ``gram_matrix``'s fill (4 MiB): its scratch is
# one block, and an entry's bits do not depend on the block size. The
# posterior pass in ``gpr`` sizes its own blocks by rows (``_PASS_ROWS``),
# because there each block's triangular solve re-reads the m x m factor.
_BLOCK_ENTRIES = 2**19


def _check_form(form: str) -> None:
    if form not in FORMS:
        raise ValueError(f"unknown kernel form {form!r}; expected one of {FORMS}")


def _row_blocks(n_rows: int, step: int) -> list[slice]:
    """Consecutive row slices covering ``n_rows`` rows, each of at most
    ``step`` rows (at least one)."""
    step = max(1, step)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


@dataclass(frozen=True)
class KernelParams:
    """Feature-kernel hyperparameters: one length scale per feature plus noise variance."""

    length_scales: np.ndarray
    noise_variance: float = 0.0

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.length_scales, dtype=float))
        if ls.ndim != 1:
            raise ValueError("length_scales must be a 1-D vector")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise ValueError("length_scales must be finite and strictly positive")
        if not math.isfinite(self.noise_variance) or self.noise_variance < 0:
            raise ValueError("noise_variance must be finite and >= 0")
        object.__setattr__(self, "length_scales", ls)
        object.__setattr__(self, "noise_variance", float(self.noise_variance))

    @property
    def n_features(self) -> int:
        return self.length_scales.shape[0]


@dataclass(frozen=True)
class AgeKernelParams:
    """Age-similarity hyperparameters. ``age_length_scale`` may be ``inf``."""

    age_length_scale: float = math.inf
    age_noise_variance: float = 0.0

    def __post_init__(self):
        if not self.age_length_scale > 0:  # rejects nan too
            raise ValueError("age_length_scale must be > 0 (infinity allowed)")
        if self.age_length_scale * self.age_length_scale < sys.float_info.min:
            bound = math.sqrt(sys.float_info.min)  # equal ages would give 0 / -0.0
            raise ValueError(f"age_length_scale {self.age_length_scale!r} is below {bound!r}")
        if not math.isfinite(self.age_noise_variance) or self.age_noise_variance < 0:
            raise ValueError("age_noise_variance must be finite and >= 0")
        object.__setattr__(self, "age_length_scale", float(self.age_length_scale))
        object.__setattr__(self, "age_noise_variance", float(self.age_noise_variance))


def _as_matrix(x, n_features: int, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(x, dtype=float))
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix of feature rows")
    if m.shape[1] != n_features:
        raise ValueError(
            f"{name} has {m.shape[1]} columns but the kernel expects {n_features}"
        )
    return m


def zero_distance_value(params: KernelParams, form: str = SUM) -> float:
    """Kernel value at zero distance, before any delta term."""
    _check_form(form)
    return float(params.n_features) if form == SUM else 1.0


def prior_variance(
    params: KernelParams,
    form: str = SUM,
    age_params: AgeKernelParams | None = None,
) -> float:
    """Self-similarity of a sample with itself, delta terms included.

    This is the prior variance of a noisy observation: the diagonal entry
    of any same-set Gram matrix.
    """
    value = zero_distance_value(params, form) + params.noise_variance
    if age_params is not None:
        value = (1.0 + age_params.age_noise_variance) * value
    return value


def age_factor(ages_a, ages_b, age_params: AgeKernelParams) -> np.ndarray:
    """Age-similarity factor ``exp(-(y_i - y_j)^2 / (2 l_y^2))`` without the delta term.

    The age-weighted Gram block is the unweighted feature block times this
    factor, so a feature block can be built once and reweighted for any
    ``l_y``. At ``l_y = inf`` every entry is exactly 1.0 for any finite ages,
    so the multiply is an exact no-op.
    """
    ly = age_params.age_length_scale
    if math.isinf(ly):
        return np.ones((ages_a.shape[0], ages_b.shape[0]))
    dy = np.subtract(ages_a[:, None], ages_b[None, :])
    np.multiply(dy, dy, out=dy)
    np.divide(dy, -2.0 * ly * ly, out=dy)
    return np.exp(dy, out=dy)


def _feature_term(form, squared, length_scale, out):
    """One feature's term from its squared distances ``S_k``, into ``out``.

    ``-S_k / (2 l_k^2)``, exponentiated for the sum form; ``out`` may be
    ``squared`` itself.
    """
    np.divide(squared, -2.0 * length_scale * length_scale, out=out)
    if form == SUM:
        np.exp(out, out=out)
    return out


def _feature_kernel(form, squared, length_scales, out, scratch):
    """The feature kernel from per-feature squared distances ``S_k``, into ``out``.

    Each feature's ``_feature_term`` goes through ``scratch`` (which may be
    the array ``squared`` yields) and is added to ``out``; the product form
    exponentiates the sum. ``squared`` is consumed one feature at a time,
    so it may be a generator.
    """
    out.fill(0.0)
    for sq, ls in zip(squared, length_scales):
        out += _feature_term(form, sq, ls, scratch)
    if form == PRODUCT:
        np.exp(out, out=out)
    return out


def _squared_distances(a, b, out):
    """Each feature's squared distances between the rows of ``a`` and ``b``, in turn into ``out``."""
    for dim in range(a.shape[1]):
        np.subtract(a[:, dim, None], b[None, :, dim], out=out)
        yield np.multiply(out, out, out=out)


def gram_matrix(
    a, b, params: KernelParams, form: str = SUM, *, same_set: bool = False
) -> np.ndarray:
    """Gram matrix of feature-kernel values between the rows of ``a`` and ``b``.

    ``same_set=True`` asserts that ``a`` and ``b`` are the identical sample
    set, which places the delta (noise) terms on the diagonal. The
    age-weighted kernel is not built here: its blocks are this block times
    ``age_factor``.

    Distances are accumulated per feature dimension, never through a
    squared-norm expansion, so near-duplicate rows do not cancel
    catastrophically. The result is filled one row block of ``a`` at a
    time, so besides it only one row block of scratch is alive; each entry
    sees the same operations whatever the block size.
    """
    _check_form(form)
    a = _as_matrix(a, params.n_features, "a")
    b = _as_matrix(b, params.n_features, "b")
    if same_set and a.shape[0] != b.shape[0]:
        raise ValueError("same_set=True requires square output")

    k = np.empty((a.shape[0], b.shape[0]))
    blocks = _row_blocks(k.shape[0], _BLOCK_ENTRIES // max(k.shape[1], 1))
    buffer = np.empty((blocks[0].stop if blocks else 0, b.shape[0]))
    for rows in blocks:
        scratch = buffer[: rows.stop - rows.start]
        _feature_kernel(form, _squared_distances(a[rows], b, scratch),
                        params.length_scales, k[rows], scratch)

    if same_set:
        np.fill_diagonal(k, prior_variance(params, form))
    return k
