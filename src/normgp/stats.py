"""Two-group statistics, ROC/AUC, correlations, OLS fixed effects, l_y sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gpr
from .gpr import TrainedModel, weighted_posterior_cov
from .kernels import AgeKernelParams
from .preprocess import PcaTransform, Standardizer, apply_chain
from .tabular_io import Cohort, ScoresTable

EXACT_RANK_SUM_THRESHOLD = 8
# Exact enumeration also requires the labeling count to be float-exact so
# the subset-count recursion stays integral.
_EXACT_COUNT_LIMIT = 2**53
METRIC_NAMES = ("epsilon", "cov", "cov_w")
DEFAULT_LY_GRID = (0.1, 1.0, 10.0, 100.0, 1000.0, 1e5, math.inf)


@dataclass(frozen=True)
class RankSumResult:
    """Two-sided rank-sum test; U is the first group's statistic."""

    u_statistic: float
    z_value: float | None
    p_value: float
    method: str


@dataclass(frozen=True)
class RocResult:
    """ROC curve over descending score thresholds, with trapezoidal AUC.

    The first point is (0, 0) at threshold +inf; the last is (1, 1).
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class FixedEffectsFit:
    """OLS coefficients and two-sided t-test p-values per design term."""

    coefficients: dict[str, float]
    std_errors: dict[str, float]
    t_values: dict[str, float]
    p_values: dict[str, float]
    n: int


@dataclass(frozen=True)
class LySweepResult:
    """AUC of the age-weighted uncertainty per age length scale.

    Rows are sorted by l_y ascending; ties on AUC break toward the lowest
    l_y.
    """

    rows: tuple[tuple[float, float], ...]
    best_l_y: float
    best_auc: float


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks starting at 1 with ties averaged, plus tie-group sizes."""
    order = np.argsort(values, kind="mergesort")
    _, counts = np.unique(values[order], return_counts=True)
    # A tie group spanning sorted positions i..j ends at last = j + 1 and
    # gets the mean rank 0.5 * (i + j) + 1.
    last = np.cumsum(counts)
    ranks = np.empty(values.shape[0])
    ranks[order] = np.repeat(0.5 * (2 * last - counts - 1) + 1.0, counts)
    return ranks, counts.astype(float)


def _exact_rank_sum_counts(n_total: int, k: int) -> np.ndarray:
    """counts[s] = number of k-subsets of ranks {1..n_total} with rank sum s."""
    max_sum = k * n_total
    counts = np.zeros((k + 1, max_sum + 1))
    counts[0, 0] = 1.0
    for value in range(1, n_total + 1):
        for size in range(min(k, value), 0, -1):
            counts[size, value:] += counts[size - 1, : max_sum + 1 - value]
    return counts[k]


def rank_sum_test(group_a, group_b) -> RankSumResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney) test.

    Uses exact enumeration of all labelings when the smaller group has at
    most EXACT_RANK_SUM_THRESHOLD values and the pooled data has no ties;
    otherwise the normal approximation with tie-corrected variance and a
    continuity correction.
    """
    a = np.asarray(group_a, dtype=float).reshape(-1)
    b = np.asarray(group_b, dtype=float).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise ValueError("both groups must be non-empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("groups contain non-finite values")
    n1, n2 = a.size, b.size
    n = n1 + n2
    ranks, tie_sizes = _midranks(np.concatenate([a, b]))
    r1 = float(np.sum(ranks[:n1]))
    u1 = r1 - 0.5 * n1 * (n1 + 1)
    has_ties = bool(np.any(tie_sizes > 1))
    k = min(n1, n2)

    if (
        k <= EXACT_RANK_SUM_THRESHOLD
        and not has_ties
        and math.comb(n, k) <= _EXACT_COUNT_LIMIT
    ):
        r_small = r1 if n1 <= n2 else float(np.sum(ranks[n1:]))
        counts = _exact_rank_sum_counts(n, k)
        sums = np.arange(counts.shape[0], dtype=float)
        mean_rank_sum = 0.5 * k * (n + 1)
        deviation = abs(r_small - mean_rank_sum)
        total = float(math.comb(n, k))
        tail = float(np.sum(counts[np.abs(sums - mean_rank_sum) >= deviation - 1e-9]))
        return RankSumResult(
            u_statistic=u1, z_value=None, p_value=min(tail / total, 1.0), method="exact"
        )

    mu = 0.5 * n1 * n2
    tie_term = float(np.sum(tie_sizes**3 - tie_sizes))
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1.0)))
    if variance <= 0.0:
        return RankSumResult(u_statistic=u1, z_value=0.0, p_value=1.0, method="normal_approx")
    d = u1 - mu
    z = math.copysign(max(abs(d) - 0.5, 0.0), d) / math.sqrt(variance)
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return RankSumResult(u_statistic=u1, z_value=z, p_value=p, method="normal_approx")


def roc_auc(scores, labels) -> RocResult:
    """ROC curve and trapezoidal AUC, using each distinct score as threshold.

    Higher scores rank as more positive; pass negated scores for the other
    orientation.
    """
    s = np.asarray(scores, dtype=float).reshape(-1)
    y = np.asarray(labels).reshape(-1).astype(bool)
    if s.shape[0] != y.shape[0]:
        raise ValueError("scores and labels must have equal lengths")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores contain non-finite values")
    if not (y.any() and (~y).any()):
        raise ValueError("both classes must be present")
    order = np.argsort(-s, kind="mergesort")
    sorted_scores = s[order]
    positives = y[order].astype(float)
    tps = np.cumsum(positives)
    fps = np.cumsum(1.0 - positives)
    last = np.concatenate([np.nonzero(np.diff(sorted_scores))[0], [s.shape[0] - 1]])
    tpr = np.concatenate([[0.0], tps[last] / tps[-1]])
    fpr = np.concatenate([[0.0], fps[last] / fps[-1]])
    thresholds = np.concatenate([[math.inf], sorted_scores[last]])
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1])) * 0.5)
    return RocResult(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)


def pearson_r(a, b) -> float:
    """Pearson correlation coefficient, in [-1, 1]."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise ValueError("inputs must have equal lengths")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 points")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("inputs contain non-finite values")
    da = a - a.mean()
    db = b - b.mean()
    ss_a = float(da @ da)
    ss_b = float(db @ db)
    if ss_a == 0.0 or ss_b == 0.0:
        raise ValueError("constant input has no defined correlation")
    r = float(da @ db) / math.sqrt(ss_a * ss_b)
    return max(-1.0, min(1.0, r))


_DESIGN_TERMS = ("intercept", "age", "sex", "dx", "age_x_dx")


def fit_fixed_effects(volume, age, sex, dx) -> FixedEffectsFit:
    """OLS of a volume on age, sex, diagnosis, and an age-diagnosis interaction.

    Age is z-scored with the population standard deviation; the volume
    outcome is mean-centered but not variance-scaled, so coefficients keep
    the outcome's units (dx planted as -0.5 is recovered as -0.5). Standard
    errors use the n - 5 residual degrees of freedom; p-values are
    two-sided t-tests.
    """
    # Imported here: scipy.stats is slow to load and nothing else needs it.
    from scipy.stats import t as student_t

    volume = np.asarray(volume, dtype=float).reshape(-1)
    age = np.asarray(age, dtype=float).reshape(-1)
    sex = np.asarray(sex, dtype=float).reshape(-1)
    dx = np.asarray(dx, dtype=float).reshape(-1)
    n = volume.shape[0]
    if not (age.shape[0] == sex.shape[0] == dx.shape[0] == n):
        raise ValueError("volume, age, sex and dx must have equal lengths")
    if n <= 5:
        raise ValueError("need more than 5 subjects")
    for name, arr in (("volume", volume), ("age", age), ("sex", sex), ("dx", dx)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")
    if not np.all(np.isin(dx, (0.0, 1.0))):
        raise ValueError("dx must be binary 0/1")
    age_std = float(age.std())
    if age_std == 0.0:
        raise ValueError("age is constant")
    age_z = (age - age.mean()) / age_std
    outcome = volume - volume.mean()
    design = np.column_stack([np.ones(n), age_z, sex, dx, age_z * dx])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise ValueError("rank-deficient design; check that dx and sex both vary")
    beta, _, _, _ = np.linalg.lstsq(design, outcome, rcond=None)
    residuals = outcome - design @ beta
    dof = n - design.shape[1]
    sigma2 = float(residuals @ residuals) / dof
    xtx_inv = np.linalg.inv(design.T @ design)
    with np.errstate(divide="ignore"):
        se = np.sqrt(sigma2 * np.diagonal(xtx_inv))
        t_values = np.where(se > 0.0, beta / np.where(se > 0.0, se, 1.0), math.inf * np.sign(beta))
    p_values = 2.0 * student_t.sf(np.abs(t_values), dof)
    return FixedEffectsFit(
        coefficients=dict(zip(_DESIGN_TERMS, (float(v) for v in beta))),
        std_errors=dict(zip(_DESIGN_TERMS, (float(v) for v in se))),
        t_values=dict(zip(_DESIGN_TERMS, (float(v) for v in t_values))),
        p_values=dict(zip(_DESIGN_TERMS, (float(v) for v in p_values))),
        n=n,
    )


def _two_group_masks(labels, groups: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    negative, positive = groups
    if negative == positive:
        raise ValueError("the two group labels must differ")
    labels = np.asarray(labels)
    mask_negative = labels == negative
    mask_positive = labels == positive
    for name, mask in ((negative, mask_negative), (positive, mask_positive)):
        if not mask.any():
            raise ValueError(f"group label {name!r} not present")
    return mask_negative, mask_positive


def ly_sweep(
    model: TrainedModel,
    cohort: Cohort,
    grid=DEFAULT_LY_GRID,
    *,
    groups: tuple[str, str] = ("HC", "DX"),
    age_noise_variance: float = 0.0,
    standardizer: Standardizer | None = None,
    pca: PcaTransform | None = None,
    expected_feature_names: tuple[str, ...] | None = None,
) -> LySweepResult:
    """AUC of the age-weighted uncertainty across a grid of age length scales.

    The grid is deduplicated and evaluated in ascending order (infinity
    last, which reproduces the unweighted uncertainty). The test-by-training
    feature Gram block is built once; each grid point only reweights it by
    age and solves it against that point's weighted training factor.
    """
    values = sorted({float(v) for v in grid})
    if not values:
        raise ValueError("grid must be non-empty")
    # built first, so an invalid age parameter fails before the cross block
    points = [AgeKernelParams(value, age_noise_variance) for value in values]
    if cohort.diagnosis is None:
        raise ValueError("cohort has no diagnosis labels")
    cohort.require_feature_names(expected_feature_names)
    mask_negative, mask_positive = _two_group_masks(cohort.diagnosis, groups)
    keep = mask_negative | mask_positive
    transformed = apply_chain(cohort.features, standardizer, pca)[keep]
    ages = cohort.age[keep]
    labels = mask_positive[keep]
    # through gpr's lookup, where the benchmark's tracer counts Gram builds
    cross = gpr.gram_matrix(transformed, model.x, model.params, model.form)
    rows = []
    for age_params in points:
        weighted = weighted_posterior_cov(model, transformed, ages, age_params, cross=cross)
        rows.append((age_params.age_length_scale, roc_auc(weighted.variance, labels).auc))
    # max keeps the first of tied rows: the smallest l_y
    best_l_y, best_auc = max(rows, key=lambda row: row[1])
    return LySweepResult(rows=tuple(rows), best_l_y=best_l_y, best_auc=best_auc)


def evaluate_scores(
    table: ScoresTable,
    groups: tuple[str, str] = ("HC", "DX"),
    metrics: tuple[str, ...] = METRIC_NAMES,
    *,
    absolute_epsilon: bool = False,
) -> dict:
    """Two-group evaluation of a scores table.

    Returns a JSON-shaped report: per-metric AUC, rank-sum p-value, and ROC
    points, plus the three pairwise metric correlations. The positive group
    is treated as the abnormal class; higher scores mean more abnormal.
    """
    if not metrics:
        raise ValueError("metrics must be non-empty")
    for name in metrics:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r} (choose from {METRIC_NAMES})")
        if metrics.count(name) > 1:
            raise ValueError(f"metric {name!r} is repeated")
    mask_negative, mask_positive = _two_group_masks(table.diagnosis, groups)
    keep = mask_negative | mask_positive
    labels = mask_positive[keep]
    epsilon = np.abs(table.epsilon) if absolute_epsilon else table.epsilon
    values = {"epsilon": epsilon, "cov": table.cov, "cov_w": table.cov_w}

    report_metrics = {}
    for name in metrics:
        vector = values[name]
        roc = roc_auc(vector[keep], labels)
        ranksum = rank_sum_test(vector[mask_negative], vector[mask_positive])
        report_metrics[name] = {
            "auc": roc.auc,
            "rank_sum": {
                "u": ranksum.u_statistic,
                "z": ranksum.z_value,
                "p": ranksum.p_value,
                "method": ranksum.method,
            },
            "roc": {
                "thresholds": [float(v) for v in roc.thresholds],
                "fpr": [float(v) for v in roc.fpr],
                "tpr": [float(v) for v in roc.tpr],
            },
        }

    def correlation(x, y):
        try:
            return pearson_r(x[keep], y[keep])
        except ValueError:
            return None

    return {
        "groups": {
            "negative": groups[0],
            "positive": groups[1],
            "n_negative": int(mask_negative.sum()),
            "n_positive": int(mask_positive.sum()),
        },
        "epsilon_absolute": bool(absolute_epsilon),
        "metrics": report_metrics,
        "correlations": {
            "cov_cov_w": correlation(table.cov, table.cov_w),
            "epsilon_cov": correlation(epsilon, table.cov),
            "epsilon_cov_w": correlation(epsilon, table.cov_w),
        },
    }
