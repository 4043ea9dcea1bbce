"""Exact Gaussian process age regression.

Training maximizes the log marginal likelihood with analytic gradients,
using multi-start L-BFGS-B in log-parameter space. A fit builds one
objective, ``_LmlObjective``, from its training rows: it owns their pair
distances, a boolean mask of the pairs' strict lower triangle and one
Fortran-ordered m x m Gram buffer. Each evaluation fills that buffer
through ``kernels._feature_kernel`` in chunks of at most
``kernels._BLOCK_ENTRIES`` pairs, the Gram's block budget, factorizes it in
place, turns the factor into the gradient's K^-1 - alpha alpha' in place
with LAPACK ``dpotri`` and BLAS ``dsyr``, and recomputes the sum form's
per-feature terms (``kernels._feature_term``) chunk by chunk for the
gradient. Every factorization goes through ``stable_cholesky``, which runs
LAPACK ``dpotrf`` in place on a Fortran buffer: the fit's buffer, the
transpose of ``restore``'s freshly built Gram, and the weighted training
Gram. Its argument is a writable, Fortran-ordered float64 square buffer,
factorized in place; anything else is a ``ValueError``, never a copy. Its
callers fill the upper triangle and the diagonal, and it alone writes the
lower triangle, mirrored from the upper one before each attempt.
Inference goes through a cached Cholesky factorization of the training
Gram matrix — never an explicit inverse.

Scoring is one pass over blocks of ``_PASS_ROWS`` test rows
(``_posterior_pass``): each block's test-by-training Gram block gives its
predictive mean, through scipy's BLAS ``dgemv``, and its posterior
variance; the age-weighted variance reweights the same block by an age
factor, reusing the fitted hyperparameters, and solves it against the
weighted training factor, which is built once before the pass. Only the
variance diagonal is formed, and no n x m block is stored. The weighted
training Gram reuses the Gram entries the model's factor keeps above its
diagonal (``_weighted_training_factor``). A sweep over age parameters
instead stores one cross block and reweights it at each point.

LAPACK and BLAS come from ``_lapack``, which loads scipy's two compiled
modules and not the ``scipy.linalg`` package; it is imported inside the
functions that factorize or solve, so a stage that never touches a Gram
matrix loads no scipy at all. Only ``fit`` imports ``scipy.optimize``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, NumericalError
from .kernels import (
    SUM,
    AgeKernelParams,
    KernelParams,
    _check_form,
    _entry_blocks,
    _feature_kernel,
    _feature_term,
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
# Test rows per block of ``_posterior_pass``. Each block's triangular solve
# re-reads the whole m x m factor, so a block is a fixed number of rows, not
# of entries: at m=3000, n=6000 (2-vCPU VM) a pass takes 2.0 s with 256-row
# blocks, 1.9-2.0 s with 512-1024 rows, 2.1-2.4 s with 174 (2**19 entries)
# and 2.6-2.7 s with 43 (2**17 entries). 256 rows hold 6 MiB at m=3000.
_PASS_ROWS = 256


def stable_cholesky(matrix) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric matrix, escalating diagonal jitter on failure.

    ``matrix`` must be a writable, Fortran-ordered float64 square buffer,
    and it is factorized in place with LAPACK ``dpotrf``; anything else is
    a ``ValueError``, and nothing is ever copied. ``matrix.T`` of a
    C-ordered symmetric array is such a buffer. The matrix is the one held
    in the buffer's upper triangle and diagonal; its strict lower triangle
    is never read, so a caller need not fill it. The factor follows
    ``scipy.linalg.cho_factor``: its lower triangle is the factor, and its
    strict upper triangle keeps the matrix's own entries, so its consumers
    read the lower triangle only (``dtrtrs``, ``dpotrs`` and ``dpotri``
    with ``lower=1``, the log-diagonal).

    Before every attempt the lower triangle is rebuilt from the strict
    upper one, which a lower ``dpotrf`` never touches; the finiteness check
    runs after the first rebuild. The matrix is first factorized
    unmodified. On failure, jitter starting at ``1e-10 * mean(diag)`` is
    added and escalated tenfold per attempt up to ``1e-4 * mean(diag)``:
    the diagonal is set to the saved one plus the jitter, so each attempt
    factorizes exactly ``matrix + jitter * I``. After a
    ``ConditioningError`` the buffer's lower triangle is unspecified.

    Returns
    -------
    (chol, jitter) : the factor and the jitter that succeeded (0.0 when the
    unmodified matrix was positive definite).

    Raises
    ------
    ValueError
        When ``matrix`` is not such a buffer; it is left unchanged.
    ConditioningError
        When every attempt fails; its message names the last jitter tried.
    """
    from ._lapack import dpotrf

    k = matrix
    if not (isinstance(k, np.ndarray) and k.dtype == np.float64 and k.ndim == 2
            and k.shape[0] == k.shape[1] and k.flags.f_contiguous and k.flags.writeable):
        raise ValueError("matrix must be a writable, Fortran-ordered float64 square array")
    _mirror_upper(k)
    # min and max propagate nan and +-inf without an m x m boolean temporary
    if k.size and not (math.isfinite(k.min()) and math.isfinite(k.max())):
        raise ConditioningError("matrix has non-finite entries")
    diagonal = k.diagonal().copy()
    scale = float(np.mean(diagonal))
    if not scale > 0.0:
        scale = 1.0
    jitter = 0.0
    while True:
        chol, info = dpotrf(k, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return chol, jitter
        failed = jitter
        jitter = _INITIAL_JITTER_FACTOR * scale if jitter == 0.0 else 10.0 * jitter
        if jitter > _MAX_JITTER_FACTOR * scale * (1.0 + 1e-9):
            raise ConditioningError(
                f"Cholesky failed for a {k.shape[0]}x{k.shape[0]} matrix even "
                f"after escalating jitter to {failed:.3e}"
            )
        _mirror_upper(k)
        np.fill_diagonal(k, diagonal + jitter)


def _mirror_upper(k: np.ndarray) -> None:
    """Copy the strict upper triangle of square ``k`` into its strict lower one, in place."""
    for col in range(k.shape[0] - 1):
        k[col + 1:, col] = k[col, col + 1:]


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
    A call that built its own cross blocks also returns its pass's
    predictive mean ``y_hat`` and ``unweighted_variance``, the plain
    posterior variance; with a stored ``cross`` block both are ``None``.
    """

    variance: np.ndarray
    jitter: float
    y_hat: np.ndarray | None = None
    unweighted_variance: np.ndarray | None = None


def _validated_features(x, n_features: int | None = None, name: str = "X") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if n_features is not None and arr.shape[1] != n_features:
        raise ValueError(f"{name} has {arr.shape[1]} features, expected {n_features}")
    return arr


def _validated_targets(y, n_rows: int, name: str = "y") -> np.ndarray:
    arr = np.asarray(y, dtype=float).reshape(-1)
    if arr.shape[0] != n_rows:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {n_rows}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _params_from_log(theta: np.ndarray, n_features: int) -> KernelParams:
    return KernelParams(
        length_scales=np.exp(theta[:n_features]),
        noise_variance=float(np.exp(theta[n_features])),
    )


def _lml_value(chol: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """``alpha = K^-1 y`` and the log marginal likelihood from the lower factor of K.

    Absurd but finite ages can make ``y' alpha`` overflow: the value is
    then not finite, with no warning, and the callers check it.
    """
    from ._lapack import dpotrs

    alpha, info = dpotrs(chol, y, lower=1)
    if info != 0:
        raise NumericalError(f"LAPACK dpotrs failed (info {info})")
    half_logdet = float(np.sum(np.log(np.diagonal(chol))))
    with np.errstate(over="ignore", invalid="ignore"):
        return alpha, float(-0.5 * (y @ alpha) - half_logdet - 0.5 * y.shape[0] * _LOG_TWO_PI)


class _LmlObjective:
    """Log marginal likelihood and its gradient over (log l_1..log l_K, log noise).

    Built once per fit from the training rows ``x``, the centred ages ``y``
    and the kernel form; each call at ``theta`` returns ``(value, gradient)``
    (GPML Alg. 2.1 and eq. 5.9). It raises ConditioningError when the Gram
    matrix cannot be factorized and NumericalError when the likelihood is
    not finite. The per-feature squared distances ``S_k`` between the rows
    ``i > j`` do not depend on the hyperparameters, so every evaluation of
    every restart reuses them, together with the pair kernel and one
    Fortran-ordered m x m Gram buffer. The kernel is computed on the strict
    lower pairs only, which halves kernel work. ``_pairs`` is
    the boolean mask of the strict lower triangle: boolean indexing visits
    it in ``np.tril_indices`` order, the pairs' order, so it scatters the
    pair kernel into the buffer's upper triangle (through its transpose),
    which ``stable_cholesky`` mirrors, and gathers the pair weights.

    An evaluation reads the pairs in two passes of chunks of at most
    ``kernels._BLOCK_ENTRIES`` pairs (``kernels._entry_blocks``), through one
    chunk-sized scratch array: the kernel pass fills the pair kernel, and
    the sum form's gradient pass recomputes each feature's
    ``_feature_term`` instead of keeping a d x pairs array of them.
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
        n_pairs = rows.size
        del rows, cols  # freed before the buffers below are made
        self._pairs = np.tri(m, k=-1, dtype=bool)
        self._kernel = np.empty(n_pairs)
        self._chunks = _entry_blocks(n_pairs)
        self._scratch = np.empty(self._chunks[0].stop)
        self._gram = np.empty((m, m), order="F")

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        from ._lapack import dpotri, dsyr

        n_features = self._squared.shape[0]
        params = _params_from_log(theta, n_features)
        length_scales = params.length_scales
        # The same-set Gram matrix's upper triangle, factorized in place.
        for chunk in self._chunks:
            scratch = self._scratch[: chunk.stop - chunk.start]
            _feature_kernel(self.form, self._squared[:, chunk], length_scales,
                            self._kernel[chunk], scratch)
        self._gram.T[self._pairs] = self._kernel
        np.fill_diagonal(self._gram, prior_variance(params, self.form))
        chol, _ = stable_cholesky(self._gram)
        alpha, value = _lml_value(chol, self.y)

        # K^-1 - alpha alpha' from the factor (GPML eq. 5.9): dpotri and the
        # rank-one dsyr each overwrite the lower triangle only, in place.
        k_inv, info = dpotri(chol, lower=1, overwrite_c=1)
        if info != 0:
            raise ConditioningError(f"inverting the Cholesky factor failed (LAPACK info {info})")
        if not math.isfinite(value):  # before dsyr squares an overflowing alpha
            raise NumericalError("the log marginal likelihood is not finite")
        residual = dsyr(-1.0, alpha, lower=1, a=k_inv, overwrite_a=1)
        # 1/2 tr((alpha alpha' - K^-1) dK): dK is symmetric with a zero diagonal,
        # so the two triangles' halves add up to one sum over the lower pairs.
        weights = residual[self._pairs]
        np.negative(weights, out=weights)
        # dk / dlog l_k is S_k / l_k^2 times the feature's exponential (sum
        # form, recomputed chunk by chunk) or the whole kernel.
        if self.form == SUM:
            sums = np.zeros(n_features)
            for chunk in self._chunks:
                scratch = self._scratch[: chunk.stop - chunk.start]
                for dim, (sq, ls) in enumerate(zip(self._squared[:, chunk], length_scales)):
                    term = _feature_term(SUM, sq, ls, scratch)
                    np.multiply(term, sq, out=term)
                    # not ``@``: a threaded BLAS dot is slower on these lengths
                    sums[dim] += np.einsum("p,p->", term, weights[chunk])
        else:
            sums = self._squared @ np.multiply(weights, self._kernel, out=weights)
        grad = np.empty(n_features + 1)
        grad[:n_features] = sums / (length_scales * length_scales)
        grad[n_features] = -0.5 * params.noise_variance * np.trace(residual)
        return value, grad


def log_marginal_likelihood(params: KernelParams, form: str, x, y) -> float:
    """Log marginal likelihood -1/2 y'K^-1 y - 1/2 log|K| - (m/2) log 2pi."""
    return restore(x, y, params, form).log_marginal_likelihood


def _seeded_starts(x: np.ndarray, centered: np.ndarray, cfg: FitConfig) -> list[np.ndarray]:
    """``cfg.restarts`` log-parameter starts drawn from the seeded restart substream."""
    n_features = x.shape[1]
    feature_scale = x.std(axis=0)
    feature_scale = np.where(feature_scale > 0.0, feature_scale, 1.0)
    with np.errstate(over="ignore"):  # absurd ages: the fit's objective fails instead
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
        except NumericalError:
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
    del lml  # freed before restore builds its own Gram

    # failed restarts are -inf, and max keeps the lowest index among ties
    best_index = max(range(len(outcomes)), key=lambda index: outcomes[index][0])
    if outcomes[best_index][1] is None:
        raise ConditioningError(
            f"all {len(inits)} restarts failed: the training Gram matrix could "
            "not be factorized, or gave a non-finite likelihood, at any visited "
            "hyperparameters"
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
    to this model's own log marginal likelihood. Raises NumericalError when
    ``alpha`` or the log marginal likelihood is not finite.
    """
    _check_form(form)
    x = _validated_features(x, params.n_features)
    y = _validated_targets(y, x.shape[0])
    centered = y - y_offset
    # The Gram is bitwise symmetric, so its transpose is the Fortran buffer
    # that stable_cholesky factorizes in place.
    chol, jitter = stable_cholesky(gram_matrix(x, x, params, form, same_set=True).T)
    alpha, value = _lml_value(chol, centered)
    if not (math.isfinite(value) and np.all(np.isfinite(alpha))):
        raise NumericalError(
            "the log marginal likelihood is not finite; the largest centred "
            f"training age is {float(np.max(np.abs(centered))):.3e} in magnitude"
        )
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


def _solve_lower(chol, b: np.ndarray) -> np.ndarray:
    """``L^-1 b`` for the lower factor in ``chol``, in place when ``b`` is Fortran-ordered.

    This is the ``dtrtrs`` call ``scipy.linalg.solve_triangular`` makes for
    a Fortran-ordered factor.
    """
    from ._lapack import dtrtrs

    v, info = dtrtrs(chol, b, lower=1, overwrite_b=1)
    if info != 0:
        raise NumericalError(f"LAPACK dtrtrs failed (info {info})")
    return v


def _solve_variance(chol, block, prior: float, out: np.ndarray) -> None:
    """``prior - |L^-1 k|^2`` for each row ``k`` of ``block``, unclamped, into ``out``.

    The solve and its squares overwrite ``block``.
    """
    v = _solve_lower(chol, block.T)
    np.subtract(prior, np.sum(np.multiply(v, v, out=v), axis=0), out=out)


def _clamped(raw: np.ndarray) -> np.ndarray:
    """Variances with tiny negative values (>= -1e-10) clamped to zero;
    anything more negative is a genuine numerical failure."""
    worst = float(raw.min()) if raw.size else 0.0
    if worst < _NEGATIVE_VARIANCE_TOLERANCE:
        raise NumericalError(
            f"posterior variance {worst:.6e} is below the clamping tolerance "
            f"{_NEGATIVE_VARIANCE_TOLERANCE:.1e}"
        )
    return np.where(raw < 0.0, 0.0, raw)


def _posterior_pass(model: TrainedModel, xt: np.ndarray, cross=None, weighting=None):
    """Predictive means and posterior variances in one pass over row blocks of ``xt``.

    Each block of ``_PASS_ROWS`` test rows gets its test-by-training block
    from ``gram_matrix``, or as a slice of a stored ``cross`` block. A
    built block gives the block's ``y_hat`` and its variance, solved in
    place against ``model.chol``. ``weighting``, as ``(chol, ages,
    age_params)``, adds the age-weighted variance: the block times the age
    factor, solved against the weighted training factor ``chol``. A test
    row's results read only its own row, so besides the factors a pass
    holds about two row blocks, whatever the test rows.

    Returns ``(y_hat, variance, weighted)``, the variances unclamped; what
    the pass does not form is ``None`` (a stored ``cross`` gives only
    ``weighted``).
    """
    from ._lapack import dgemv

    n = xt.shape[0]
    prior = zero_distance_value(model.params, model.form)
    own = cross is None
    y_hat = np.empty(n) if own else None
    variance = np.empty(n) if own else None
    weighted = None if weighting is None else np.empty(n)
    for rows in _row_blocks(n, _PASS_ROWS):
        if own:
            block = gram_matrix(xt[rows], model.x, model.params, model.form)
            # scipy's BLAS, as the solves use: numpy's ``@`` runs on numpy's
            # own OpenBLAS, whose spinning thread pool slows the solves
            y_hat[rows] = dgemv(1.0, block.T, model.alpha, trans=1)
        else:
            block = cross[rows]
        if weighting is not None:
            chol, ages, age_params = weighting
            factor = age_factor(ages[rows], model.y, age_params)
            np.multiply(factor, block, out=factor)
            _solve_variance(chol, factor, prior, weighted[rows])
            del factor
        if own:
            _solve_variance(model.chol, block, prior, variance[rows])
        del block  # freed before the next block is made
    if own:
        y_hat += model.y_offset
    return y_hat, variance, weighted


def predict(model: TrainedModel, x_test, *, full_cov: bool = False) -> PredictionResult:
    """Predictive mean and posterior (co)variance at new feature rows.

    The test-test prior is the noise-free kernel value k(x*, x*): the noise
    delta applies only inside the training Gram matrix, so for one training
    and one test point the variance is k(x*,x*) - k*^2/(k(x,x) + noise).
    The mean and variance come from ``_posterior_pass``, one row block at a
    time. ``full_cov`` adds ``K** - v'v`` from one solve of all test rows,
    with its diagonal set to that variance exactly.
    """
    xt = _validated_features(x_test, model.params.n_features, "X_test")
    y_hat, raw, _ = _posterior_pass(model, xt)
    variance = _clamped(raw)
    if not full_cov:
        return PredictionResult(y_hat=y_hat, variance=variance)
    k_star = gram_matrix(xt, model.x, model.params, model.form)
    v = _solve_lower(model.chol, k_star.T)
    cov = gram_matrix(xt, xt, model.params, model.form) - v.T @ v
    np.fill_diagonal(cov, variance)
    return PredictionResult(y_hat=y_hat, variance=variance, full_cov=cov)


def _weighted_training_factor(
    model: TrainedModel, age_params: AgeKernelParams
) -> tuple[np.ndarray, float]:
    """``stable_cholesky`` of the age-weighted training Gram matrix.

    The weighted kernel is a Schur product (GPML section 4.2.4): off the
    diagonal, its training Gram is ``age_factor(y, y)`` times the model's
    training Gram, whose entries ``model.chol`` keeps bitwise above its
    diagonal, even after jitter. So the age factor's m x m buffer becomes
    the weighted Gram's upper triangle and diagonal, and then its factor;
    its lower triangle, the factor times the age factor, is not read.
    """
    # bitwise symmetric, so the transpose is the same matrix in Fortran order
    k = age_factor(model.y, model.y, age_params).T
    np.multiply(k, model.chol, out=k)
    np.fill_diagonal(k, prior_variance(model.params, model.form, age_params))
    return stable_cholesky(k)


def weighted_posterior_cov(
    model: TrainedModel,
    x_test,
    test_ages,
    age_params: AgeKernelParams,
    *,
    cross: np.ndarray | None = None,
) -> WeightedCovariance:
    """Posterior variance under the age-weighted kernel.

    The weighted Gram blocks are the feature blocks times the age factor of
    the training ages stored in the model and the supplied chronological
    test ages. The fitted feature hyperparameters are reused unchanged; age
    parameters are a user choice, never optimized. With an infinite age
    length scale and zero age noise the weighting is the identity: the
    weighted training Gram equals the unweighted one bitwise, so the
    model's own factorization is reused and the result reproduces
    ``predict`` exactly. Otherwise ``_weighted_training_factor`` factorizes
    the weighted training Gram once, before the test rows, and a
    ``RuntimeWarning`` names the jitter when it needed any.

    Without ``cross`` the test rows go through ``_posterior_pass``, which
    builds their cross blocks one row block at a time and also returns
    that pass's ``y_hat`` and unweighted variance, bitwise ``predict``'s;
    at the identity weighting the weighted variance is the unweighted one,
    with no second solve. ``cross`` passes the n x m block ``gram_matrix(
    x_test, model.x, model.params, model.form)``, so a sweep over age
    parameters builds it once and each call only reweights and solves it.
    """
    xt = _validated_features(x_test, model.params.n_features, "X_test")
    ages = _validated_targets(test_ages, xt.shape[0], "test_ages")
    if cross is not None and cross.shape != (xt.shape[0], model.x.shape[0]):
        raise ValueError("cross was built for a different test set or model")
    identity = math.isinf(age_params.age_length_scale) and age_params.age_noise_variance == 0.0
    if identity:
        chol, jitter = model.chol, model.jitter
    else:
        chol, jitter = _weighted_training_factor(model, age_params)
        if jitter:
            message = f"the age-weighted training Gram matrix needed diagonal jitter {jitter:.3e}"
            warnings.warn(message, RuntimeWarning, stacklevel=2)
    weighting = None if identity and cross is None else (chol, ages, age_params)
    y_hat, raw, raw_weighted = _posterior_pass(model, xt, cross, weighting)
    variance = None if raw is None else _clamped(raw)
    return WeightedCovariance(
        variance=variance if weighting is None else _clamped(raw_weighted),
        jitter=jitter,
        y_hat=y_hat,
        unweighted_variance=variance,
    )
