import dataclasses

import numpy as np
import pytest

from normgp.preprocess import (
    PcaTransform,
    Standardizer,
    apply_chain,
    fit_pca,
    fit_standardizer,
)


def test_standardize_closed_form_population_sigma():
    features = np.array([[1.0], [2.0], [3.0]])
    standardizer = fit_standardizer(features)
    out = standardizer.apply(features)
    assert out[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)
    # population convention: sigma = sqrt(2/3), not sqrt(1)
    assert standardizer.std_devs[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)


def test_standardized_training_data_has_zero_mean_unit_variance():
    rng = np.random.default_rng(0)
    features = rng.normal(3.0, 2.5, size=(40, 5))
    out = apply_chain(features, fit_standardizer(features))
    assert np.all(np.abs(out.mean(axis=0)) <= 1e-12)
    assert np.all(np.abs(out.var(axis=0) - 1.0) <= 1e-12)


def test_constant_column_rejected_by_name():
    features = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    with pytest.raises(ValueError, match="constant column at index 1"):
        fit_standardizer(features)


def test_row_at_training_mean_maps_to_zeros():
    rng = np.random.default_rng(1)
    features = rng.normal(size=(25, 4))
    standardizer = fit_standardizer(features)
    out = standardizer.apply(features.mean(axis=0, keepdims=True))
    assert np.all(np.abs(out) <= 1e-12)


def test_standardizer_needs_two_rows_and_matching_width():
    with pytest.raises(ValueError):
        fit_standardizer(np.ones((1, 3)))
    with pytest.raises(ValueError, match="features must be a 2-D matrix"):
        fit_standardizer(np.ones(3))
    standardizer = fit_standardizer(np.random.default_rng(2).normal(size=(5, 3)))
    with pytest.raises(ValueError):
        standardizer.apply(np.ones((2, 4)))


def test_pca_collinear_data_single_direction():
    t = np.linspace(-2, 2, 12)
    features = np.column_stack([t, 2.0 * t])
    pca = fit_pca(features, 2)
    total = pca.explained_variance.sum()
    assert pca.explained_variance[0] == pytest.approx(total, rel=1e-12)
    assert pca.explained_variance[1] <= 1e-12


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(20, 6))
    pca = fit_pca(features, 6)
    # orthonormal components at full rank: projecting back inverts the projection
    restored = pca.project(features) @ pca.components + pca.mean
    assert np.allclose(restored, features, atol=1e-8)


def test_pca_explained_variance_matches_eigendecomposition():
    rng = np.random.default_rng(4)
    features = rng.normal(size=(20, 6)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.1])
    pca = fit_pca(features, 6)
    centered = features - features.mean(axis=0)
    eigenvalues = np.linalg.eigvalsh(centered.T @ centered / features.shape[0])
    assert np.allclose(pca.explained_variance, eigenvalues[::-1], atol=1e-8)
    assert np.all(np.diff(pca.explained_variance) <= 1e-12)


def test_pca_components_orthonormal_and_projections_uncorrelated():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(30, 5))
    pca = fit_pca(features, 4)
    gram = pca.components @ pca.components.T
    assert np.allclose(gram, np.eye(4), atol=1e-10)
    projected = pca.project(features)
    cov = np.cov(projected, rowvar=False, bias=True)
    off_diagonal = cov - np.diag(np.diagonal(cov))
    assert np.max(np.abs(off_diagonal)) <= 1e-8


def test_pca_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(6)
    features = rng.normal(size=(15, 4))
    pca = fit_pca(features, 3)
    for row in pca.components:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_pca_component_count_bounds():
    rng = np.random.default_rng(7)
    features = rng.normal(size=(10, 4))
    with pytest.raises(ValueError):
        fit_pca(features, 5)  # more than n_features
    with pytest.raises(ValueError):
        fit_pca(np.random.default_rng(0).normal(size=(4, 8)), 4)  # more than n-1
    with pytest.raises(ValueError):
        fit_pca(features, 0)


def test_fitted_transforms_are_immutable():
    rng = np.random.default_rng(8)
    features = rng.normal(size=(10, 3))
    standardizer = fit_standardizer(features)
    pca = fit_pca(features, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        standardizer.means = np.zeros(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pca.components = np.zeros((2, 3))


def test_apply_chain_standardize_then_project():
    rng = np.random.default_rng(9)
    features = rng.normal(5.0, 3.0, size=(25, 4))
    standardizer = fit_standardizer(features)
    standardized = standardizer.apply(features)
    pca = fit_pca(standardized, 3)
    chained = apply_chain(features, standardizer, pca)
    assert np.array_equal(chained, pca.project(standardized))
    # either stage alone also works
    assert np.array_equal(apply_chain(features, standardizer, None), standardized)
    assert np.array_equal(apply_chain(features, None, None), np.asarray(features, dtype=float))


def test_project_pca_matches_method():
    rng = np.random.default_rng(10)
    features = rng.normal(size=(12, 5))
    pca = fit_pca(features, 2)
    assert np.array_equal(apply_chain(features, pca=pca), pca.project(features))
    with pytest.raises(ValueError):
        pca.project(np.ones((3, 4)))
