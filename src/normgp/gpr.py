"""Exact Gaussian process age regression.

Training maximizes the log marginal likelihood with analytic gradients,
using multi-start L-BFGS-B in log-parameter space. A fit builds one
objective, ``_LmlObjective``, from its training rows: it owns their pair
distances and one Fortran-ordered m x m Gram buffer, and each evaluation
fills that buffer through ``kernels._feature_kernel``, factorizes it in
place and turns the factor into the gradient's K^-1 in place with LAPACK
``dpotri``. Every factorization goes through ``stable_cholesky``, which
runs LAPACK ``dpotrf`` in place on a Fortran buffer: the fit's buffer, the
transpose of ``restore``'s freshly built Gram, and the transpose of the
weighted training Gram. Inference goes through a cached Cholesky
factorization of the training Gram matrix — never an explicit inverse. The
age-weighted posterior variance reweights the unweighted feature Gram
blocks by an age factor, reusing the fitted hyperparameters, and forms only
the variance diagonal, one row block of test rows at a time.

scipy is imported inside the functions that factorize or solve, so a stage
that never touches a Gram matrix never loads it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConditioningError, NumericalError
from .kernels import (
    SUM,
    AgeKernelParams,
    KernelParams,
    _check_form,
    _feature_kernel,
    _row_blocks,
    age_factor,
    gram_matrix,
    prior_variance,
    zero_distance_value,
)
from .seeding import RESTARTS, substream

_LOG_TWO_PI = math.log(2.0 * math.pi)
# Objective value reported to the optimizer when the Gram matrix cannot be
# factorized at the visited hyperparameters: a finite plateau it backs off from.
_FAILURE_OBJECTIVE = 1e25
# Box for log-parameters during optimization; exp(+-50) stays comfortably
# inside double range so no intermediate overflows.
_LOG_PARAM_BOUND = 50.0
_NEGATIVE_VARIANCE_TOLERANCE = -1e-10
# Jitter ladder of ``stable_cholesky``, in multiples of the mean diagonal.
_INITIAL_JITTER_FACTOR = 1e-10
_MAX_JITTER_FACTOR = 1e-4
# Optimizer starts: length scales log-uniform in this range times each
# feature's standard deviation, noise variance this factor times var(y).
_LENGTH_SCALE_INIT_RANGE = (0.1, 10.0)
_NOISE_VARIANCE_INIT_FACTOR = 0.1
# L-BFGS-B stops when the projected gradient falls below this, or after
# this many iterations.
_GRADIENT_TOLERANCE = 1e-8
_MAX_ITERATIONS = 200


def stable_cholesky(matrix) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric matrix, escalating diagonal jitter on failure.

    A writable, Fortran-ordered float64 ``matrix`` is factorized in place
    with LAPACK ``dpotrf``; any other input is factorized on a Fortran copy
    and left unchanged. ``matrix.T`` of a C-ordered symmetric array is such
    a buffer. The factor follows ``scipy.linalg.cho_factor``: its lower
    triangle is the factor, and its strict upper triangle keeps the
    matrix's own entries, so its consumers read the lower triangle only
    (``solve_triangular(lower=True)``, ``dpotrs``/``dpotri`` with
    ``lower=1``, the log-diagonal).

    The matrix is first factorized unmodified. On failure, jitter starting
    at ``1e-10 * mean(diag)`` is added and escalated tenfold per attempt up
    to ``1e-4 * mean(diag)``. Before each retry the lower triangle is
    rebuilt from the strict upper one, which a lower ``dpotrf`` never
    touches, and the diagonal is set to the saved one plus the jitter, so
    each attempt factorizes exactly ``matrix + jitter * I``. After a
    ``ConditioningError`` the buffer's lower triangle is unspecified.

    Returns
    -------
    (chol, jitter) : the factor and the jitter that succeeded (0.0 when the
    unmodified matrix was positive definite).

    Raises
    ------
    ConditioningError
        When every attempt fails; carries the attempted jitter ladder.
    """
    from scipy.linalg.lapack import dpotrf

    k = np.asarray(matrix, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("matrix must be square")
    if not (k.flags.f_contiguous and k.flags.writeable):
        k = np.array(k, order="F")
    attempted: list[float] = []
    # min and max propagate nan and +-inf without an m x m boolean temporary
    if k.size and not (math.isfinite(k.min()) and math.isfinite(k.max())):
        raise ConditioningError("matrix has non-finite entries", attempted)
    diagonal = k.diagonal().copy()
    scale = float(np.mean(diagonal))
    if not scale > 0.0:
        scale = 1.0
    jitter = 0.0
    while True:
        chol, info = dpotrf(k, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return chol, jitter
        attempted.append(jitter)
        jitter = _INITIAL_JITTER_FACTOR * scale if jitter == 0.0 else 10.0 * jitter
        if jitter > _MAX_JITTER_FACTOR * scale * (1.0 + 1e-9):
            raise ConditioningError(
                f"Cholesky failed for a {k.shape[0]}x{k.shape[0]} matrix even "
                f"after escalating jitter to {attempted[-1]:.3e}",
                attempted,
            )
        for col in range(k.shape[0] - 1):
            k[col + 1:, col] = k[col, col + 1:]
        np.fill_diagonal(k, diagonal + jitter)


@dataclass(frozen=True)
class FitConfig:
    """Settings for marginal-likelihood training.

    A model at given hyperparameters comes from ``restore``, not from
    ``fit``.
    """

    form: str = SUM
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        _check_form(self.form)
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class TrainedModel:
    """A fitted GP: training data, hyperparameters, cached factorization.

    ``alpha`` solves ``(K + jitter*I) alpha = y - y_offset``. ``chol`` holds
    the lower Cholesky factor of the same matrix in its lower triangle, and
    the matrix's own entries (``K``, without jitter) in its strict upper
    triangle, as ``stable_cholesky`` leaves it; read it as a lower factor
    (``np.tril(chol)`` is the factor itself). ``y`` keeps the chronological
    training ages, which the age-weighted kernel needs.
    """

    x: np.ndarray
    y: np.ndarray
    params: KernelParams
    form: str
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float
    log_marginal_likelihood: float
    y_offset: float = 0.0
    restart_log_marginals: tuple[float, ...] = ()
    chosen_restart: int = 0

    def __post_init__(self):
        for name in ("x", "y", "chol", "alpha"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def n_training(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class PredictionResult:
    """Predicted ages with posterior variance (and optional full covariance)."""

    y_hat: np.ndarray
    variance: np.ndarray
    full_cov: np.ndarray | None = None


@dataclass(frozen=True)
class WeightedCovariance:
    """Posterior variance under the age-weighted kernel.

    ``jitter`` is the diagonal jitter of the weighted training factorization.
    """

    variance: np.ndarray
    jitter: float


@dataclass(frozen=True)
class FeatureGrams:
    """Unweighted feature-kernel blocks of test rows against a model's training rows.

    ``cross`` is test-by-training; ``train`` is training-by-training without
    the delta terms (``None`` leaves it to be built when an age weighting
    needs it). The age-weighted kernel multiplies these by an age factor, so
    one pair serves every age length scale for the same test rows.
    """

    cross: np.ndarray
    train: np.ndarray | None


def _validated_features(x, n_features: int | None = None, name: str = "X") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if n_features is not None and arr.shape[1] != n_features:
        raise ValueError(f"{name} has {arr.shape[1]} features, expected {n_features}")
    return arr


def _validated_targets(y, n_rows: int) -> np.ndarray:
    arr = np.asarray(y, dtype=float).reshape(-1)
    if arr.shape[0] != n_rows:
        raise ValueError(f"y has length {arr.shape[0]}, expected {n_rows}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("y contains non-finite values")
    return arr


def _params_from_log(theta: np.ndarray, n_features: int) -> KernelParams:
    return KernelParams(
        length_scales=np.exp(theta[:n_features]),
        noise_variance=float(np.exp(theta[n_features])),
    )


def _lml_value(chol: np.ndarray, alpha: np.ndarray, y: np.ndarray) -> float:
    half_logdet = float(np.sum(np.log(np.diagonal(chol))))
    return float(-0.5 * (y @ alpha) - half_logdet - 0.5 * y.shape[0] * _LOG_TWO_PI)


class _LmlObjective:
    """Log marginal likelihood and its gradient over (log l_1..log l_K, log noise).

    Built once per fit from the training rows ``x``, the centred ages ``y``
    and the kernel form; each call at ``theta`` returns ``(value, gradient)``
    (GPML Alg. 2.1 and eq. 5.9) and raises ConditioningError when the Gram
    matrix cannot be factorized. The per-feature squared distances ``S_k``
    between the rows ``i > j`` do not depend on the hyperparameters, so
    every evaluation of every restart reuses them, together with the pair
    buffers of the form's kernel and one Fortran-ordered m x m Gram buffer.
    The kernel is computed on the strict lower pairs only, which halves
    kernel work; ``_lower`` and ``_upper`` are each pair's flat positions
    in the Fortran-ordered buffer, below and above the diagonal.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, form: str):
        self.form = form
        self.y = y
        m, n_features = x.shape
        rows, cols = np.tril_indices(m, -1)
        self._squared = np.empty((n_features, rows.size))
        for dim, out in enumerate(self._squared):
            np.subtract(x[rows, dim], x[cols, dim], out=out)
            np.multiply(out, out, out=out)
        self._lower = cols * m + rows
        self._upper = rows * m + cols
        # The pair kernel, and each feature's term for the sum form.
        self._kernel = np.empty(rows.size)
        self._terms = np.empty(self._squared.shape) if form == SUM else repeat(np.empty(rows.size))
        self._gram = np.empty((m, m), order="F")

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        from scipy.linalg import cho_solve
        from scipy.linalg.lapack import dpotri

        n_features, m = self._squared.shape[0], self._gram.shape[0]
        params = _params_from_log(theta, n_features)
        # The same-set Gram matrix, both triangles, factorized in place.
        _feature_kernel(self.form, self._squared, params.length_scales, self._kernel, self._terms)
        flat = self._gram.ravel(order="F")
        flat[self._lower] = self._kernel
        flat[self._upper] = self._kernel
        flat[:: m + 1] = prior_variance(params, self.form)
        chol, _ = stable_cholesky(self._gram)
        alpha = cho_solve((chol, True), self.y, check_finite=False)
        value = _lml_value(chol, alpha, self.y)

        # K^-1 from the factor (GPML eq. 5.9); dpotri overwrites the lower
        # triangle only, in place.
        k_inv, info = dpotri(chol, lower=1, overwrite_c=1)
        if info != 0:
            raise ConditioningError(f"inverting the Cholesky factor failed (LAPACK info {info})")
        # 1/2 tr((alpha alpha' - K^-1) dK): dK is symmetric with a zero diagonal,
        # so the two triangles' halves add up to one sum over the lower pairs.
        # alpha alpha' is symmetric, so its C-order ravel serves the Fortran
        # positions of the lower pairs; it is freed before the second gather.
        outer = np.outer(alpha, alpha)
        weights = np.take(outer.ravel(), self._lower)
        del outer
        weights -= np.take(k_inv.ravel(order="F"), self._lower)
        # dk / dlog l_k is S_k / l_k^2 times the feature's exponential (sum
        # form, overwriting the terms the Gram left) or the whole kernel.
        if self.form == SUM:
            sums = np.multiply(self._terms, self._squared, out=self._terms) @ weights
        else:
            sums = self._squared @ (weights * self._kernel)
        grad = np.empty(n_features + 1)
        grad[:n_features] = sums / (params.length_scales * params.length_scales)
        grad[n_features] = 0.5 * params.noise_variance * (alpha @ alpha - np.trace(k_inv))
        return value, grad


def log_marginal_likelihood(params: KernelParams, form: str, x, y) -> float:
    """Log marginal likelihood -1/2 y'K^-1 y - 1/2 log|K| - (m/2) log 2pi."""
    return restore(x, y, params, form).log_marginal_likelihood


def _seeded_starts(x: np.ndarray, centered: np.ndarray, cfg: FitConfig) -> list[np.ndarray]:
    """``cfg.restarts`` log-parameter starts drawn from the seeded restart substream."""
    n_features = x.shape[1]
    feature_scale = x.std(axis=0)
    feature_scale = np.where(feature_scale > 0.0, feature_scale, 1.0)
    y_var = float(np.var(centered))
    if y_var <= 0.0:
        y_var = 1.0
    log_noise_init = math.log(max(_NOISE_VARIANCE_INIT_FACTOR * y_var, 1e-300))
    lo, hi = _LENGTH_SCALE_INIT_RANGE
    rng = substream(cfg.seed, RESTARTS)
    starts = []
    for _ in range(cfg.restarts):
        offsets = rng.uniform(math.log(lo), math.log(hi), size=n_features)
        starts.append(np.concatenate([np.log(feature_scale) + offsets, [log_noise_init]]))
    return starts


def fit(
    x, y, config: FitConfig | None = None, *, start: KernelParams | None = None
) -> TrainedModel:
    """Train the GP by maximizing the log marginal likelihood.

    The kernel has no mean, so the ages are centred: ``y_offset`` is
    ``mean(y)``, and predictions add it back.

    Runs ``config.restarts`` independent L-BFGS-B starts one after another
    (drawn upfront from the seeded restart substream) and keeps the restart
    with the highest final log marginal likelihood; ties break toward the
    lowest restart index. Initial length scales are log-uniform in (0.1, 10)
    times each feature's standard deviation; initial noise variance is
    0.1 * var(y). Given ``start``, the one run starts from those
    hyperparameters instead, and ``config.restarts`` and ``config.seed``
    are not used. The model is then factorized by ``restore`` at the chosen
    optimum.
    """
    cfg = config if config is not None else FitConfig()
    x = _validated_features(x)
    m, n_features = x.shape
    if m < 2:
        raise ValueError("need at least 2 training subjects")
    y = _validated_targets(y, m)
    y_offset = float(np.mean(y))
    centered = y - y_offset

    if start is None:
        starts = _seeded_starts(x, centered, cfg)
    elif start.n_features != n_features:
        raise ValueError(f"start has {start.n_features} length scales, expected {n_features}")
    else:
        starts = [np.log(np.append(start.length_scales, start.noise_variance))]
    inits = [np.clip(theta, -_LOG_PARAM_BOUND, _LOG_PARAM_BOUND) for theta in starts]

    bounds = [(-_LOG_PARAM_BOUND, _LOG_PARAM_BOUND)] * (n_features + 1)
    lml = _LmlObjective(x, centered, cfg.form)
    # Imported here: scipy.optimize is slow to load and only training needs it.
    # ``minimize`` stays a lookup on the module, so a wrapper set there sees every call.
    from scipy import optimize

    def objective(theta):
        try:
            value, grad = lml(theta)
        except ConditioningError:
            return _FAILURE_OBJECTIVE, np.zeros_like(theta)
        return -value, -grad

    def run_restart(theta0: np.ndarray) -> tuple[float, np.ndarray | None]:
        result = optimize.minimize(
            objective,
            theta0,
            method="L-BFGS-B",
            jac=True,
            bounds=bounds,
            options={"maxiter": _MAX_ITERATIONS, "ftol": 1e-12, "gtol": _GRADIENT_TOLERANCE},
        )
        if not np.isfinite(result.fun) or result.fun >= 0.5 * _FAILURE_OBJECTIVE:
            return -math.inf, None
        return float(-result.fun), np.asarray(result.x)

    outcomes = [run_restart(theta0) for theta0 in inits]

    # failed restarts are -inf, and max keeps the lowest index among ties
    best_index = max(range(len(outcomes)), key=lambda index: outcomes[index][0])
    if outcomes[best_index][1] is None:
        raise ConditioningError(
            f"all {len(inits)} restarts failed: the training Gram matrix could "
            "not be factorized at any visited hyperparameters"
        )
    return restore(
        x, y, _params_from_log(outcomes[best_index][1], n_features), cfg.form,
        y_offset=y_offset,
        restart_log_marginals=tuple(value for value, _ in outcomes),
        chosen_restart=best_index,
    )


def restore(
    x,
    y,
    params: KernelParams,
    form: str,
    *,
    y_offset: float = 0.0,
    restart_log_marginals: tuple[float, ...] | None = None,
    chosen_restart: int = 0,
) -> TrainedModel:
    """The GP at given hyperparameters, factorized (GPML Alg. 2.1).

    The one place a TrainedModel is built: ``fit`` ends here at its chosen
    optimum, and a model file is rebuilt here from its stored pieces. The
    regression runs on ``y - y_offset``. ``restart_log_marginals`` defaults
    to this model's own log marginal likelihood.
    """
    from scipy.linalg import cho_solve

    _check_form(form)
    x = _validated_features(x, params.n_features)
    y = _validated_targets(y, x.shape[0])
    centered = y - y_offset
    # The Gram is bitwise symmetric, so its transpose is the Fortran buffer
    # that stable_cholesky factorizes in place.
    chol, jitter = stable_cholesky(gram_matrix(x, x, params, form, same_set=True).T)
    alpha = cho_solve((chol, True), centered, check_finite=False)
    value = _lml_value(chol, alpha, centered)
    return TrainedModel(
        x=x,
        y=y,
        params=params,
        form=form,
        chol=chol,
        alpha=alpha,
        jitter=jitter,
        log_marginal_likelihood=value,
        y_offset=y_offset,
        restart_log_marginals=(value,) if restart_log_marginals is None else restart_log_marginals,
        chosen_restart=chosen_restart,
    )


def _posterior_variance(
    chol: np.ndarray,
    k_star: np.ndarray,
    prior: float,
    k_tt: np.ndarray | None = None,
    reweight=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Posterior variance diagonal from the cross Gram block.

    A test row's variance needs only its own row of ``k_star``, so rows are
    solved, squared and summed one row block at a time. ``reweight(rows,
    block)``, when given, returns that block of ``k_star`` under the kernel
    the variance is for, as a new array that the solve overwrites. Given
    the test-test prior block ``k_tt``, all rows form one block and the
    full covariance is also returned, with the clamped variance on its
    diagonal exactly. Clamps
    tiny negative values (>= -1e-10) to zero; anything more negative is a
    genuine numerical failure.
    """
    from scipy.linalg import solve_triangular

    n = k_star.shape[0]
    blocks = [slice(0, n)] if k_tt is not None else _row_blocks(*k_star.shape)
    raw = np.empty(n)
    cov = None
    for rows in blocks:
        block = k_star[rows] if reweight is None else reweight(rows, k_star[rows])
        v = solve_triangular(chol, block.T, lower=True, check_finite=False,
                             overwrite_b=reweight is not None)
        if k_tt is not None:
            cov = k_tt - v.T @ v
        raw[rows] = prior - np.sum(np.multiply(v, v, out=v), axis=0)
        del block, v  # freed before the next block is made
    worst = float(raw.min()) if raw.size else 0.0
    if worst < _NEGATIVE_VARIANCE_TOLERANCE:
        raise NumericalError(
            f"posterior variance {worst:.6e} is below the clamping tolerance "
            f"{_NEGATIVE_VARIANCE_TOLERANCE:.1e}"
        )
    variance = np.where(raw < 0.0, 0.0, raw)
    if cov is not None:
        np.fill_diagonal(cov, variance)
    return variance, cov


def _cross_block(model: TrainedModel, xt: np.ndarray, grams: FeatureGrams | None) -> np.ndarray:
    if grams is None:
        return gram_matrix(xt, model.x, model.params, model.form)
    if grams.cross.shape != (xt.shape[0], model.n_training):
        raise ValueError("grams were built for a different test set or model")
    return grams.cross


def predict(
    model: TrainedModel,
    x_test,
    *,
    full_cov: bool = False,
    grams: FeatureGrams | None = None,
) -> PredictionResult:
    """Predictive mean and posterior (co)variance at new feature rows.

    The test-test prior is the noise-free kernel value k(x*, x*): the noise
    delta applies only inside the training Gram matrix, so for one training
    and one test point the variance is k(x*,x*) - k*^2/(k(x,x) + noise).
    When ``full_cov`` is requested its diagonal is set to the clamped
    variance vector exactly. ``grams`` passes the cross block from
    ``feature_grams`` for the same ``x_test``, as for
    ``weighted_posterior_cov``.
    """
    xt = _validated_features(x_test, model.params.n_features, "X_test")
    k_star = _cross_block(model, xt, grams)
    y_hat = k_star @ model.alpha + model.y_offset
    k_tt = gram_matrix(xt, xt, model.params, model.form) if full_cov else None
    variance, cov = _posterior_variance(
        model.chol, k_star, zero_distance_value(model.params, model.form), k_tt
    )
    return PredictionResult(y_hat=y_hat, variance=variance, full_cov=cov)


def feature_grams(model: TrainedModel, x_test, *, train: bool = True) -> FeatureGrams:
    """Feature Gram blocks for repeated posterior calls on ``x_test``."""
    xt = _validated_features(x_test, model.params.n_features, "X_test")
    return FeatureGrams(
        cross=gram_matrix(xt, model.x, model.params, model.form),
        train=gram_matrix(model.x, model.x, model.params, model.form) if train else None,
    )


def weighted_posterior_cov(
    model: TrainedModel,
    x_test,
    test_ages,
    age_params: AgeKernelParams,
    *,
    grams: FeatureGrams | None = None,
) -> WeightedCovariance:
    """Posterior variance under the age-weighted kernel.

    The weighted Gram blocks are the feature blocks times the age factor of
    the training ages stored in the model and the supplied chronological
    test ages. The fitted feature hyperparameters are reused unchanged; age
    parameters are a user choice, never optimized. With an infinite age
    length scale and zero age noise the weighted training Gram equals the
    unweighted one bitwise, so the model's own factorization is reused and
    the result reproduces ``predict`` exactly. Otherwise the weighted
    training Gram is factorized here, and a ``RuntimeWarning`` names the
    jitter when it needed any.

    Only the variance diagonal is formed. Test rows are age-weighted,
    solved and summed one row block at a time, so past the test-by-training
    feature block and the m x m training work a call holds about two row
    blocks. ``grams`` passes feature blocks from ``feature_grams`` for the
    same ``x_test``, so a sweep over age parameters builds them once.
    """
    xt = _validated_features(x_test, model.params.n_features, "X_test")
    ages = np.asarray(test_ages, dtype=float).reshape(-1)
    if ages.shape[0] != xt.shape[0]:
        raise ValueError("test_ages length must match X_test row count")
    if not np.all(np.isfinite(ages)):
        raise ValueError("test ages must be finite")
    unweighted = math.isinf(age_params.age_length_scale)
    k_star = _cross_block(model, xt, grams)
    if unweighted and age_params.age_noise_variance == 0.0:
        chol, jitter = model.chol, model.jitter
    else:
        if grams is None or grams.train is None:
            k_train = gram_matrix(model.x, model.x, model.params, model.form,
                                  age_params=age_params, ages_a=model.y, ages_b=model.y,
                                  same_set=True)
        else:
            k_train = age_factor(model.y, model.y, age_params)
            k_train *= grams.train
            np.fill_diagonal(k_train, prior_variance(model.params, model.form, age_params))
        # bitwise symmetric, so the transpose is factorized in place
        chol, jitter = stable_cholesky(k_train.T)
        if jitter:
            message = f"the age-weighted training Gram matrix needed diagonal jitter {jitter:.3e}"
            warnings.warn(message, RuntimeWarning, stacklevel=2)

    def reweight(rows, block):
        factor = age_factor(ages[rows], model.y, age_params)
        return np.multiply(factor, block, out=factor)

    variance, _ = _posterior_variance(
        chol, k_star, zero_distance_value(model.params, model.form),
        # at l_y = inf the age factor is exactly one
        reweight=None if unweighted else reweight,
    )
    return WeightedCovariance(variance=variance, jitter=jitter)
