"""The module lookups that ``bench/tracing.py`` wraps, checked from the program's side.

The benchmark's tracer replaces functions by module attribute, where they
are looked up, and its own tests count the calls it sees. A call that stops
going through one of these lookups vanishes from the trace; these tests
make that fail under ``pytest tests`` too, not only under ``pytest bench``.
"""

import math

import numpy as np
import pytest

from normgp import gpr, metrics, stats
from normgp.kernels import SUM, AgeKernelParams, KernelParams
from normgp.tabular_io import Cohort

SITES = (
    (metrics, "predict"),
    (metrics, "weighted_posterior_cov"),
    (stats, "weighted_posterior_cov"),
    (metrics, "score_cohort"),
    (gpr, "gram_matrix"),
    (gpr, "stable_cholesky"),
    (gpr, "restore"),
)


@pytest.mark.parametrize("module, name", SITES,
                         ids=[f"{module.__name__}.{name}" for module, name in SITES])
def test_every_wrapped_lookup_exists(module, name):
    assert callable(getattr(module, name))


def _counted(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _model_and_cohort(n_test=23, seed=5):
    rng = np.random.default_rng(seed)
    ages = rng.uniform(20, 80, 30)
    features = np.column_stack([ages / 10.0 + rng.normal(0, 0.2, 30), rng.normal(size=30)])
    model = gpr.restore(features, ages, KernelParams(np.array([2.0, 1.5]), 0.3), SUM,
                        y_offset=50.0)
    test_ages = rng.uniform(20, 80, n_test)
    cohort = Cohort(
        subject_ids=tuple(f"t{i}" for i in range(n_test)),
        features=np.column_stack([test_ages / 10.0 + rng.normal(0, 1.0, n_test),
                                  rng.normal(size=n_test)]),
        feature_names=("f1", "f2"),
        age=test_ages,
        diagnosis=tuple("DX" if i % 3 == 0 else "HC" for i in range(n_test)),
    )
    return model, cohort


@pytest.mark.parametrize("age_params", [AgeKernelParams(), AgeKernelParams(10.0, 0.1)])
def test_score_cohort_makes_one_weighted_call_and_a_gram_per_row_block(monkeypatch, age_params):
    # one weighted call gives all three columns; its pass builds each row
    # block's cross block through gpr's own gram_matrix lookup, and the
    # weighted training Gram reuses the model's stored entries, no Gram build
    model, cohort = _model_and_cohort()
    monkeypatch.setattr(gpr, "_PASS_ROWS", 5)
    weighted = _counted(monkeypatch, metrics, "weighted_posterior_cov")
    predicted = _counted(monkeypatch, metrics, "predict")
    grams = _counted(monkeypatch, gpr, "gram_matrix")
    metrics.score_cohort(model, cohort, age_params)
    assert len(weighted) == 1
    assert predicted == []
    blocks = math.ceil(cohort.n_subjects / 5)
    assert len(grams) == blocks


def test_ly_sweep_makes_one_weighted_call_per_grid_point(monkeypatch):
    # the cross block is built once, before the grid: a point reweights it
    # and the model's stored Gram entries, and builds no Gram of its own
    model, cohort = _model_and_cohort()
    weighted = _counted(monkeypatch, stats, "weighted_posterior_cov")
    grams = _counted(monkeypatch, gpr, "gram_matrix")
    result = stats.ly_sweep(model, cohort, (10.0, 1.0, 10.0, math.inf))
    assert len(result.rows) == 3
    assert len(weighted) == 3
    assert len(grams) == 1
