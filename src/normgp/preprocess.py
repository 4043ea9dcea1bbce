"""Feature standardization and PCA, fitted on training data only.

Both transforms are immutable after fitting: applying them to new data
never updates the stored statistics, preserving train/test separation.
Variance is the population variance (divide by n) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_feature_matrix(features) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix (rows = subjects)")
    return x


@dataclass(frozen=True)
class Standardizer:
    """Per-column location/scale transform using training statistics."""

    means: np.ndarray
    std_devs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "std_devs", np.asarray(self.std_devs, dtype=float))
        if np.any(self.std_devs <= 0):
            raise ValueError("std_devs must be strictly positive")

    def apply(self, features) -> np.ndarray:
        x = _as_feature_matrix(features)
        if x.shape[1] != self.means.shape[0]:
            raise ValueError(
                f"feature count {x.shape[1]} does not match standardizer "
                f"({self.means.shape[0]} columns)"
            )
        return (x - self.means) / self.std_devs


def fit_standardizer(train_features) -> Standardizer:
    """Fit per-column means and population standard deviations.

    Constant columns are rejected: silently producing zero-variance scales
    would blow up downstream divisions.
    """
    x = _as_feature_matrix(train_features)
    if x.shape[0] < 2:
        raise ValueError("standardizer needs at least 2 rows")
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    constant = np.flatnonzero(stds == 0.0)
    if constant.size:
        raise ValueError(f"constant column at index {int(constant[0])}: cannot standardize")
    return Standardizer(means=means, std_devs=stds)


@dataclass(frozen=True)
class PcaTransform:
    """Principal-component projection fitted by SVD of the centered matrix.

    ``components`` rows are orthonormal; each row is sign-flipped so its
    largest-magnitude entry is positive, making the decomposition
    deterministic. ``explained_variance`` uses the population convention.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))
        object.__setattr__(
            self, "explained_variance", np.asarray(self.explained_variance, dtype=float)
        )

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def project(self, features) -> np.ndarray:
        x = _as_feature_matrix(features)
        if x.shape[1] != self.mean.shape[0]:
            raise ValueError(
                f"feature count {x.shape[1]} does not match PCA input "
                f"dimension {self.mean.shape[0]}"
            )
        return (x - self.mean) @ self.components.T


def fit_pca(train_features, n_components: int) -> PcaTransform:
    """Fit a PCA on training rows via SVD of the centered matrix."""
    x = _as_feature_matrix(train_features)
    n, d = x.shape
    max_components = min(n - 1, d)
    if not 1 <= n_components <= max_components:
        raise ValueError(
            f"n_components={n_components} out of range; at most "
            f"min(n_rows-1, n_features) = {max_components} available"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:n_components].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    explained = (singular_values[:n_components] ** 2) / n
    return PcaTransform(mean=mean, components=components, explained_variance=explained)


def fit_chain(
    train_features, standardize: bool = False, n_components: int | None = None
) -> tuple[Standardizer | None, PcaTransform | None, np.ndarray]:
    """Fit the preprocessing chain on training rows: the standardizer, then
    the PCA on its output. Either step is ``None`` when not asked for.
    Also returns the training rows transformed by the fitted chain."""
    x = _as_feature_matrix(train_features)
    standardizer = fit_standardizer(x) if standardize else None
    x = apply_chain(x, standardizer)
    pca = None if n_components is None else fit_pca(x, n_components)
    return standardizer, pca, apply_chain(x, pca=pca)


def apply_chain(
    features,
    standardizer: Standardizer | None = None,
    pca: PcaTransform | None = None,
) -> np.ndarray:
    """Apply the fitted preprocessing chain: standardize first, then project."""
    x = _as_feature_matrix(features)
    if standardizer is not None:
        x = standardizer.apply(x)
    if pca is not None:
        x = pca.project(x)
    return x
