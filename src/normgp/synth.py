"""Synthetic aging cohorts: smooth trajectories plus planted deviations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import SUBJECTS, TRAJECTORY, substream
from .tabular_io import Cohort

MODES = ("none", "accelerated_aging", "orthogonal", "age_conditional")


@dataclass(frozen=True)
class SynthConfig:
    """Cohort generation settings.

    ``deviation_magnitude`` is in units of the observation noise standard
    deviation. ``trajectory_seed`` pins the underlying trajectory so
    separate cohorts (e.g. train and test) can share one aging pattern
    while drawing independent subjects.
    """

    n_healthy: int
    n_diseased: int = 0
    n_features: int = 8
    age_range: tuple[float, float] = (20.0, 80.0)
    deviation_mode: str = "none"
    deviation_magnitude: float = 3.0
    noise_std: float = 0.3
    seed: int = 0
    trajectory_seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_healthy < 0 or self.n_diseased < 0:
            raise ValueError("cohort sizes must be non-negative")
        if self.n_healthy + self.n_diseased == 0:
            raise ValueError("cohort must contain at least one subject")
        if self.n_features < 1:
            raise ValueError("n_features must be at least 1")
        low, high = self.age_range
        if not (np.isfinite(low) and np.isfinite(high) and 0.0 < low < high):
            raise ValueError("age_range must satisfy 0 < low < high")
        if self.deviation_mode not in MODES:
            raise ValueError(f"unknown deviation mode {self.deviation_mode!r}")
        if not (np.isfinite(self.deviation_magnitude) and self.deviation_magnitude >= 0.0):
            raise ValueError("deviation_magnitude must be finite and non-negative")
        if not (np.isfinite(self.noise_std) and self.noise_std > 0.0):
            raise ValueError("noise_std must be finite and positive")


@dataclass(frozen=True)
class AgingTrajectory:
    """Per-feature mean curve f_k(age) = a_k * t + b_k * tanh((t - c_k) / w_k).

    ``t`` is age rescaled to [-1, 1] over ``age_range``, so some features
    drift linearly while others saturate; the mixed signs make the curve
    bend differently per feature.
    """

    linear: np.ndarray
    step: np.ndarray
    center: np.ndarray
    width: np.ndarray
    age_range: tuple[float, float]

    def _rescale(self, ages: np.ndarray) -> np.ndarray:
        low, high = self.age_range
        mid = 0.5 * (low + high)
        halfwidth = 0.5 * (high - low)
        return (np.asarray(ages, dtype=float) - mid) / halfwidth

    def features_at(self, ages) -> np.ndarray:
        """Noise-free feature matrix, one row per age."""
        t = np.atleast_1d(self._rescale(ages))[:, None]
        return self.linear * t + self.step * np.tanh((t - self.center) / self.width)

    def tangent_at(self, ages) -> np.ndarray:
        """Derivative of the mean curve with respect to age (per year)."""
        low, high = self.age_range
        halfwidth = 0.5 * (high - low)
        t = np.atleast_1d(self._rescale(ages))[:, None]
        sech2 = 1.0 / np.cosh((t - self.center) / self.width) ** 2
        return (self.linear + self.step / self.width * sech2) / halfwidth


def sample_trajectory(
    n_features: int, age_range: tuple[float, float] = (20.0, 80.0), seed: int = 0
) -> AgingTrajectory:
    """Draw trajectory shape parameters from the trajectory substream."""
    if n_features < 1:
        raise ValueError("n_features must be at least 1")
    rng = substream(seed, TRAJECTORY)
    signs = np.where(rng.random(n_features) < 0.5, -1.0, 1.0)
    if np.all(signs == signs[0]):
        signs[0] = -signs[0]
    linear = signs * rng.uniform(0.5, 1.5, n_features)
    step_signs = np.where(rng.random(n_features) < 0.5, -1.0, 1.0)
    step = step_signs * rng.uniform(0.3, 1.0, n_features)
    center = rng.uniform(-0.5, 0.5, n_features)
    width = rng.uniform(0.2, 0.6, n_features)
    return AgingTrajectory(
        linear=linear, step=step, center=center, width=width, age_range=tuple(age_range)
    )


def _orthogonal_directions(
    tangents: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Unit vectors orthogonal to each row's tangent direction."""
    n, k = tangents.shape
    raw = rng.standard_normal((n, k))
    norms = np.linalg.norm(tangents, axis=1, keepdims=True)
    units = tangents / np.maximum(norms, 1e-12)
    raw -= np.sum(raw * units, axis=1, keepdims=True) * units
    raw_norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / np.maximum(raw_norms, 1e-12)


def generate_cohort(config: SynthConfig) -> Cohort:
    """Sample a cohort from the trajectory, planting the configured deviation.

    Healthy subjects are noisy samples of the trajectory. Diseased subjects
    additionally deviate by ``deviation_magnitude * noise_std``:

    - ``accelerated_aging`` shifts them along the local age tangent,
    - ``orthogonal`` shifts them in a random direction orthogonal to it,
    - ``age_conditional`` keeps features healthy but offsets the recorded
      age by the equivalent number of years (random sign, flipped if it
      would leave the age range), so features match a different age,
    - ``none`` plants nothing (labels still say DX).

    Subject draws come from the subjects substream of ``seed``; with a
    fixed ``trajectory_seed`` the underlying curve is shared across seeds.
    """
    trajectory = sample_trajectory(
        config.n_features,
        config.age_range,
        config.seed if config.trajectory_seed is None else config.trajectory_seed,
    )
    rng = substream(config.seed, SUBJECTS)
    n_healthy, n_diseased = config.n_healthy, config.n_diseased
    total = n_healthy + n_diseased
    low, high = config.age_range

    ages = rng.uniform(low, high, total)
    noise = config.noise_std * rng.standard_normal((total, config.n_features))
    features = trajectory.features_at(ages) + noise
    displacement = config.deviation_magnitude * config.noise_std

    if n_diseased > 0 and config.deviation_mode != "none" and displacement > 0.0:
        sick = slice(n_healthy, total)
        tangents = trajectory.tangent_at(ages[sick])
        if config.deviation_mode == "accelerated_aging":
            norms = np.linalg.norm(tangents, axis=1, keepdims=True)
            features[sick] += displacement * tangents / np.maximum(norms, 1e-12)
        elif config.deviation_mode == "orthogonal":
            features[sick] += displacement * _orthogonal_directions(tangents, rng)
        elif config.deviation_mode == "age_conditional":
            # Offset the recorded age by the number of years whose
            # along-trajectory displacement matches the feature-space
            # magnitude used by the other modes.
            years = displacement / np.maximum(np.linalg.norm(tangents, axis=1), 1e-12)
            signs = np.where(rng.random(n_diseased) < 0.5, -1.0, 1.0)
            shifted = ages[sick] + signs * years
            out = (shifted < low) | (shifted > high)
            shifted = np.where(out, ages[sick] - signs * years, shifted)
            ages[sick] = np.clip(shifted, low, high)

    subject_ids = tuple(f"s{i:05d}" for i in range(total))
    diagnosis = tuple(["HC"] * n_healthy + ["DX"] * n_diseased)
    feature_names = tuple(f"v{k + 1}" for k in range(config.n_features))
    return Cohort(
        subject_ids=subject_ids,
        features=features,
        feature_names=feature_names,
        age=ages,
        sex=None,
        diagnosis=diagnosis,
    )
