import numpy as np
import pytest

from normgp.gpr import FitConfig, fit
from normgp.metrics import cross_validated_quality, split_folds
from normgp.synth import (
    MODES,
    SynthConfig,
    generate_cohort,
    sample_trajectory,
)


def _cohort(**overrides):
    base = dict(n_healthy=40, n_diseased=20, n_features=6, seed=3)
    base.update(overrides)
    return generate_cohort(SynthConfig(**base))


def test_same_seed_is_bit_identical():
    a = _cohort(deviation_mode="orthogonal")
    b = _cohort(deviation_mode="orthogonal")
    assert a.subject_ids == b.subject_ids
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.age, b.age)
    assert a.diagnosis == b.diagnosis


def test_different_seeds_differ():
    a = _cohort(seed=3)
    b = _cohort(seed=4)
    assert not np.array_equal(a.features, b.features)


def test_cohort_layout_labels_and_ranges():
    cohort = _cohort(deviation_mode="accelerated_aging")
    assert cohort.n_subjects == 60
    assert cohort.feature_names == tuple(f"v{k}" for k in range(1, 7))
    assert cohort.subject_ids == tuple(f"s{i:05d}" for i in range(60))
    assert cohort.diagnosis[:40] == ("HC",) * 40
    assert cohort.diagnosis[40:] == ("DX",) * 20
    assert np.all(cohort.age >= 20.0) and np.all(cohort.age <= 80.0)
    assert np.all(np.isfinite(cohort.features))


def test_custom_age_range_respected():
    cohort = _cohort(age_range=(35.0, 55.0), deviation_mode="age_conditional")
    assert np.all(cohort.age >= 35.0) and np.all(cohort.age <= 55.0)


def test_healthy_block_is_shared_across_modes():
    cohorts = {mode: _cohort(deviation_mode=mode) for mode in MODES}
    reference = cohorts["none"]
    for mode in MODES[1:]:
        other = cohorts[mode]
        assert np.array_equal(other.features[:40], reference.features[:40])
        assert np.array_equal(other.age[:40], reference.age[:40])


def test_orthogonal_displacement_is_orthogonal_to_tangent():
    plain = _cohort(deviation_mode="none")
    displaced = _cohort(deviation_mode="orthogonal")
    trajectory = sample_trajectory(6, (20.0, 80.0), 3)
    for i in range(40, 60):
        diff = displaced.features[i] - plain.features[i]
        tangent = trajectory.tangent_at(np.array([plain.age[i]]))[0]
        unit = tangent / np.linalg.norm(tangent)
        assert abs(diff @ unit) <= 1e-10
        assert abs(np.linalg.norm(diff) - 3.0 * 0.3) < 1e-10


def test_accelerated_displacement_is_parallel_to_tangent():
    plain = _cohort(deviation_mode="none")
    displaced = _cohort(deviation_mode="accelerated_aging")
    trajectory = sample_trajectory(6, (20.0, 80.0), 3)
    for i in range(40, 60):
        diff = displaced.features[i] - plain.features[i]
        tangent = trajectory.tangent_at(np.array([plain.age[i]]))[0]
        unit = tangent / np.linalg.norm(tangent)
        # fully explained by the tangent direction
        residual = diff - (diff @ unit) * unit
        assert np.linalg.norm(residual) <= 1e-10
        assert diff @ unit > 0.0  # pushed toward older, not younger
        assert abs(np.linalg.norm(diff) - 3.0 * 0.3) < 1e-10


def test_age_conditional_shifts_recorded_age_only():
    plain = _cohort(deviation_mode="none")
    shifted = _cohort(deviation_mode="age_conditional")
    assert np.array_equal(shifted.features, plain.features)
    assert np.array_equal(shifted.age[:40], plain.age[:40])
    moved = shifted.age[40:] - plain.age[40:]
    assert np.all(np.abs(moved) > 0.0)
    assert np.all(shifted.age[40:] >= 20.0) and np.all(shifted.age[40:] <= 80.0)


def test_mode_none_plants_nothing():
    cohort = _cohort(deviation_mode="none")
    baseline = _cohort(deviation_mode="none", n_diseased=0, n_healthy=60)
    # same healthy generator: the first 40 rows coincide
    assert np.array_equal(cohort.features[:40], baseline.features[:40])
    assert cohort.diagnosis[40:] == ("DX",) * 20


def test_trajectory_seed_shares_curve_across_cohort_seeds():
    a = generate_cohort(
        SynthConfig(n_healthy=30, n_features=5, seed=1, trajectory_seed=99)
    )
    b = generate_cohort(
        SynthConfig(n_healthy=30, n_features=5, seed=2, trajectory_seed=99)
    )
    assert not np.array_equal(a.age, b.age)
    curve = sample_trajectory(5, (20.0, 80.0), 99)
    for cohort in (a, b):
        noise = cohort.features - curve.features_at(cohort.age)
        assert np.max(np.abs(noise)) < 0.3 * 6.0  # bounded residual noise


def test_tangent_matches_finite_differences():
    trajectory = sample_trajectory(7, (20.0, 80.0), 42)
    ages = np.linspace(22.0, 78.0, 9)
    h = 1e-6
    analytic = trajectory.tangent_at(ages)
    numeric = (trajectory.features_at(ages + h) - trajectory.features_at(ages - h)) / (
        2.0 * h
    )
    assert np.max(np.abs(analytic - numeric)) < 1e-6


def test_trajectory_mixes_increasing_and_decreasing_features():
    # feature slopes must not all share one sign, else a single global
    # shift could mimic aging
    trajectory = sample_trajectory(8, (20.0, 80.0), 0)
    signs = np.sign(trajectory.linear)
    assert np.any(signs > 0) and np.any(signs < 0)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_healthy=0)
    with pytest.raises(ValueError):
        SynthConfig(n_healthy=10, n_diseased=-1)
    with pytest.raises(ValueError):
        SynthConfig(n_healthy=10, n_features=0)
    with pytest.raises(ValueError):
        SynthConfig(n_healthy=10, age_range=(60.0, 20.0))
    with pytest.raises(ValueError):
        SynthConfig(n_healthy=10, deviation_mode="sideways")
    with pytest.raises(ValueError):
        SynthConfig(n_healthy=10, noise_std=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(n_healthy=10, deviation_magnitude=-2.0)


def test_healthy_cohort_supports_an_accurate_age_regression():
    # the core promise: a GP trained on healthy subjects predicts age well
    cohort = generate_cohort(SynthConfig(n_healthy=100, n_features=8, seed=5))
    config = FitConfig(restarts=2, seed=5)
    full = fit(cohort.features, cohort.age, config)
    split = split_folds(cohort.features, 5, config.seed)
    report = cross_validated_quality(cohort.features, cohort.age, split, config, full.params)
    assert report["mae"] < 0.25 * 60.0
    assert report["r2"] > 0.5
