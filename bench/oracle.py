"""Correctness gate for the benchmark: naive numpy oracles and output checks.

Nothing here imports normgp. Cohort CSVs, score tables and the model file
are parsed by this module's own readers, and every expected value comes
from a dense ``numpy.linalg.solve`` of the GP equations, so a defect in the
program cannot hide in code the check shares with it.

Outputs are compared by value with stated tolerances, never by digest: a
different BLAS thread count legitimately changes the last bits of the
scores and of the model file.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# y_hat is an age (tens of years); cov and cov_w are prior minus explained
# variance, so their error scales with the prior (the feature count d).
Y_HAT_RTOL = 1e-9
VARIANCE_ATOL_PER_PRIOR = 1e-9
VARIANCE_RTOL = 1e-7
LML_RTOL = 1e-9
# A fit may end this far (relative) below the reference optimum: row order
# and rounding move the converged LML by about 1e-15 relative.
LML_OPTIMUM_SLACK = 1e-6
AUC_EXACT_ATOL = 1e-12
# Oracle and program variances may differ in the last bits, which can swap
# the order of two nearly tied subjects; each swap moves an AUC by 1/(n1*n2).
AUC_RANK_ATOL = 1e-4


class GateError(Exception):
    """An output failed its correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def read_cohort(path) -> dict:
    """Parse a cohort CSV written by ``normgp synth`` (id, age, dx, v1..vd)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    features = [i for i, name in enumerate(header) if name not in ("id", "age", "dx")]
    body = rows[1:]
    return {
        "ids": [row[header.index("id")] for row in body],
        "age": np.array([float(row[header.index("age")]) for row in body]),
        "dx": [row[header.index("dx")] for row in body],
        "x": np.array([[float(row[i]) for i in features] for row in body]).reshape(
            len(body), len(features)
        ),
    }


def read_scores(path) -> dict:
    """Parse a scores CSV (id, age, diagnosis, y_hat, epsilon, cov, cov_w)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = ("id", "age", "diagnosis", "y_hat", "epsilon", "cov", "cov_w")
    _require(tuple(rows[0]) == header, f"scores header is {rows[0]}")
    body = rows[1:]
    table = {"id": [row[0] for row in body], "diagnosis": [row[2] for row in body]}
    for position, name in enumerate(header):
        if name not in table:
            table[name] = np.array([float(row[position]) for row in body])
    return table


_VECTOR_TAGS = {"length_scales", "means", "std_devs", "training_ages", "restart_log_marginals"}


def read_model(path) -> dict:
    """Parse the ``normative-gp-model v1`` text format into a dict of arrays."""
    with open(path, encoding="utf-8") as handle:
        lines = iter(handle.read().splitlines())
    _require(next(lines) == "normative-gp-model v1", "model file has a bad magic line")
    model: dict = {}
    for line in lines:
        tag, *rest = line.split()
        if tag in _VECTOR_TAGS:
            model[tag] = np.array(next(lines).split(), dtype=float)
        elif tag == "training_features":
            n_rows = int(rest[0])
            model[tag] = np.array(
                [next(lines).split() for _ in range(n_rows)], dtype=float
            ).reshape(n_rows, int(rest[1]))
        elif tag == "feature_names":
            model[tag] = [next(lines) for _ in range(int(rest[0]))]
        elif tag in ("kernel_form", "standardizer", "pca", "restarts_used", "seed",
                     "chosen_restart"):
            model[tag] = rest[0]
        elif tag in ("y_offset", "noise_variance", "log_marginal"):
            model[tag] = float(rest[0])
    _require(line == "end", "model file does not end with 'end'")
    _require(model["pca"] == "0", "the benchmark's models have no PCA step")
    return model


def sum_kernel(a: np.ndarray, b: np.ndarray, length_scales: np.ndarray) -> np.ndarray:
    """Sum-of-squared-exponentials kernel between all rows of ``a`` and ``b``."""
    out = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], 256):
        diff = (a[start:start + 256, None, :] - b[None, :, :]) / length_scales
        out[start:start + 256] = np.exp(-0.5 * diff * diff).sum(axis=2)
    return out


def age_factor(ages_a: np.ndarray, ages_b: np.ndarray, l_y: float) -> np.ndarray:
    if math.isinf(l_y):
        return np.ones((ages_a.shape[0], ages_b.shape[0]))
    diff = (ages_a[:, None] - ages_b[None, :]) / l_y
    return np.exp(-0.5 * diff * diff)


class DenseGP:
    """Exact GP posterior by dense solves, for the sum kernel and zero age noise."""

    def __init__(self, x, ages, length_scales, noise_variance, y_offset, l_y=math.inf):
        self.x, self.ages, self.l_y = x, ages, l_y
        self.length_scales = length_scales
        self.prior = float(x.shape[1])
        self.k = sum_kernel(x, x, length_scales) * age_factor(ages, ages, l_y)
        np.fill_diagonal(self.k, self.prior + noise_variance)
        self.y_offset = y_offset
        self.alpha = np.linalg.solve(self.k, ages - y_offset)

    def posterior(self, x_test, test_ages) -> tuple[np.ndarray, np.ndarray]:
        """Predictive mean and variance at the test rows."""
        k_star = sum_kernel(x_test, self.x, self.length_scales)
        k_star *= age_factor(test_ages, self.ages, self.l_y)
        mean = k_star @ self.alpha + self.y_offset
        explained = np.sum(k_star * np.linalg.solve(self.k, k_star.T).T, axis=1)
        return mean, self.prior - explained

    def log_marginal_likelihood(self) -> float:
        sign, logdet = np.linalg.slogdet(self.k)
        _require(sign > 0, "oracle Gram matrix is not positive definite")
        y = self.ages - self.y_offset
        m = y.shape[0]
        return float(-0.5 * y @ self.alpha - 0.5 * logdet - 0.5 * m * math.log(2 * math.pi))


def auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney U / (n1 n2): the chance a positive outscores a negative."""
    negatives = np.sort(scores[~positive])
    pos = scores[positive]
    below = np.searchsorted(negatives, pos, side="left")
    up_to = np.searchsorted(negatives, pos, side="right")
    u = float(np.sum(below) + 0.5 * np.sum(up_to - below))
    return u / (negatives.shape[0] * pos.shape[0])


def _close(actual, expected, atol, rtol, what) -> None:
    error = np.abs(np.asarray(actual) - np.asarray(expected))
    limit = atol + rtol * np.abs(expected)
    worst = int(np.argmax(error - limit))
    _require(
        bool(np.all(error <= limit)),
        f"{what}: {float(np.ravel(actual)[worst])!r} != oracle "
        f"{float(np.ravel(expected)[worst])!r} (row {worst})",
    )


def check_fit(model_path, train: dict, reference_lml: float) -> float:
    """Gate a ``fit --center-ages --standardize`` model; return its stored LML.

    The stored LML must equal the oracle LML at the stored hyperparameters,
    and must be no lower than ``reference_lml``, the oracle LML of the same
    data at pinned reference hyperparameters, less ``LML_OPTIMUM_SLACK``:
    a fit that stops early fails.
    """
    model = read_model(model_path)
    _require(model["kernel_form"] == "sum", "model kernel is not the sum form")
    _close(model["training_ages"], train["age"], 0.0, 0.0, "training ages")
    _close(model["y_offset"], np.mean(train["age"]), 0.0, 1e-12, "y_offset")
    _require(model["standardizer"] == "1", "fit --standardize stored no standardizer")
    _close(model["means"], train["x"].mean(axis=0), 1e-12, 1e-12, "standardizer means")
    _close(model["std_devs"], train["x"].std(axis=0), 0.0, 1e-12, "standardizer std_devs")
    _close(model["training_features"], (train["x"] - model["means"]) / model["std_devs"],
           1e-12, 1e-12, "training features")
    gp = DenseGP(model["training_features"], model["training_ages"],
                 model["length_scales"], model["noise_variance"], model["y_offset"])
    stored = model["log_marginal"]
    _close(stored, gp.log_marginal_likelihood(), 0.0, LML_RTOL, "log marginal likelihood")
    _require(
        stored >= reference_lml - LML_OPTIMUM_SLACK * abs(reference_lml),
        f"log marginal likelihood {stored!r} is below the reference {reference_lml!r}",
    )
    return stored


def reference_lml(train: dict, length_scales, noise_variance) -> float:
    """Oracle LML of a standardized, age-centred cohort at given hyperparameters."""
    x = (train["x"] - train["x"].mean(axis=0)) / train["x"].std(axis=0)
    gp = DenseGP(x, train["age"], np.asarray(length_scales), noise_variance,
                 float(np.mean(train["age"])))
    return gp.log_marginal_likelihood()


def check_scores(scores_path, test: dict, gp: DenseGP, rows: np.ndarray) -> dict:
    """Gate a ``score`` table at ``l_y = inf`` against the dense oracle on ``rows``."""
    table = read_scores(scores_path)
    _require(table["id"] == test["ids"], "scores ids differ from the test cohort")
    _require(table["diagnosis"] == test["dx"], "scores diagnoses differ from the cohort")
    _close(table["age"], test["age"], 0.0, 0.0, "scores ages")
    _close(table["epsilon"], table["y_hat"] - table["age"], 0.0, 0.0, "epsilon")
    _require(bool(np.all(table["cov_w"] == table["cov"])), "cov_w != cov at l_y = inf")
    mean, variance = gp.posterior(test["x"][rows], test["age"][rows])
    _close(table["y_hat"][rows], mean, 0.0, Y_HAT_RTOL, "y_hat")
    atol = VARIANCE_ATOL_PER_PRIOR * gp.prior
    _close(table["cov"][rows], variance, atol, VARIANCE_RTOL, "cov")
    _close(table["cov_w"][rows], variance, atol, VARIANCE_RTOL, "cov_w")
    _require(bool(np.all(table["cov"] >= 0.0)), "negative cov")
    return table


def check_evaluate(report_path, table: dict, groups=("HC", "DX"), cov_auc_floor=0.0):
    """Gate an ``evaluate`` report: each AUC is U/(n1 n2) of the scores it read."""
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    labels = np.array(table["diagnosis"])
    keep = (labels == groups[0]) | (labels == groups[1])
    positive = labels[keep] == groups[1]
    n_neg, n_pos = int(np.sum(~positive)), int(np.sum(positive))
    _require(report["groups"]["n_negative"] == n_neg, "evaluate negative-group count")
    _require(report["groups"]["n_positive"] == n_pos, "evaluate positive-group count")
    for name in ("epsilon", "cov", "cov_w"):
        entry = report["metrics"][name]
        expected = auc(table[name][keep], positive)
        _close(entry["auc"], expected, AUC_EXACT_ATOL, 0.0, f"{name} AUC")
        # The reported U counts the negative group: U_neg + U_pos = n1 n2.
        _close(entry["rank_sum"]["u"], (1.0 - expected) * n_neg * n_pos, 1e-6, 0.0,
               f"{name} rank-sum U")
    cov_auc = report["metrics"]["cov"]["auc"]
    _require(cov_auc >= cov_auc_floor, f"cov AUC {cov_auc} is below the floor {cov_auc_floor}")
    return report


def read_sweep(path) -> list[tuple[float, float, int]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    _require(rows[0] == ["l_y", "auc", "is_best"], f"sweep header is {rows[0]}")
    return [(float(a), float(b), int(c)) for a, b, c in rows[1:]]


def check_sweep(sweep_path, grid, aucs: dict, best_auc_floor=0.0) -> list:
    """Gate a ``sweep`` table against oracle AUCs at some of its grid points.

    ``aucs`` maps l_y to the oracle AUC of the age-weighted variance; at
    ``inf`` that is the plain ``cov`` AUC. The best l_y must be finite.
    """
    rows = read_sweep(sweep_path)
    _require([row[0] for row in rows] == sorted(grid), "sweep grid differs from the request")
    for l_y, expected in aucs.items():
        actual = next(row[1] for row in rows if row[0] == l_y)
        _close(actual, expected, AUC_RANK_ATOL, 0.0, f"sweep AUC at l_y={l_y}")
    best = [row for row in rows if row[2] == 1]
    _require(len(best) == 1, "sweep must flag exactly one best row")
    top = max(row[1] for row in rows)
    _require(best[0][1] == top, "the flagged row is not the highest AUC")
    _require(math.isfinite(best[0][0]), "best l_y is infinite: age weighting never helped")
    _require(top >= best_auc_floor, f"best sweep AUC {top} is below the floor {best_auc_floor}")
    return rows
