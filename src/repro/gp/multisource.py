"""Transfer Gaussian process (paper Section 3.1, Eq. (4)-(8)).

One model per QoR metric.  Source-task and target-task observations are
stacked and share one prior: the base kernel within a task, damped by a
task-similarity factor across tasks.  The paper places a Gamma(b, a)
prior on the task dissimilarity ``phi`` in ``2 exp(-phi) - 1`` and
integrates it out analytically, giving

    lambda = 2 * (1 / (1 + a)) ** b - 1            (Eq. (7))

in ``(-1, 1]``: positive transfer, no transfer (0), or *negative*
correlation between tasks — the "stronger expression ability" the
paper highlights.

The paper transfers from one historical task; real tuning archives hold
many.  With K source tasks each gets its own ``lambda_s`` and the task
correlations form a rank-1-plus-diagonal matrix

    B[i, j] = c_i * c_j   (i != j),     B[i, i] = 1

with ``c_target = 1`` and ``c_s = lambda_s``, so
``B = diag(1 - c^2) + c c^T`` is positive semi-definite by construction
(hence the Schur product with the base kernel stays a valid covariance).
Each target-source correlation is the paper's two-task factor and
source-source correlations follow as products.  K=1 is exactly the
paper's model, ``K~[n, m] = k(x_n, x_m) * lambda`` across the two tasks
and ``k(x_n, x_m)`` within one; K=0 is the single-task GP regression of
Eq. (1), which the single-task baselines use.

Each task also carries its own noise variance — the ``Lambda`` of
Eq. (8), ``beta_s^-1`` on source rows and ``beta_t^-1`` on target rows.
All hyperparameters (base kernel, Gamma parameters, noises) are learned
by maximizing the joint log marginal likelihood with analytic
gradients.  Prediction at a target-task input follows Eq. (8):

    mu(x)      = k(x, X)^T (K~ + Lambda)^-1 y
    sigma^2(x) = k(x, x) + beta_t^-1 - k(x, X)^T (K~ + Lambda)^-1 k(x, X)

where ``k(x, X)`` is the transfer covariance (source-``s`` columns
damped by ``lambda_s``).  The model returns the variance without
``beta_t^-1``: the tuner's uncertainty regions are epistemic.

Incremental calibration.  The tuning loop (Algorithm 1) refits every
surrogate each iteration on data that only ever *grows* by the freshly
evaluated target points.  A from-scratch refit re-evaluates the full
kernel and refactorizes the ``(n_src + n_tgt)`` covariance — O(n^2 d +
n^3) per metric per iteration.  The model has an exact O(k n^2) fast
path:

- :meth:`~MultiSourceTransferGP.update` border-extends the cached
  Cholesky factor with the new target rows
  (:func:`~repro.gp.linalg.cholesky_append_rows`) and recomputes the
  standardization constants and ``alpha`` — the posterior is
  *identical* (to floating-point roundoff) to a from-scratch refit with
  the same hyperparameters.
- :meth:`~MultiSourceTransferGP.register_pool` /
  :meth:`~MultiSourceTransferGP.predict_pool` cache, for each pool row
  ``x``, its cross-covariance ``k*(x)`` against the training rows and
  its whitened sum of squares ``s(x) = ||L^-1 k*(x)||^2``, so that
  ``mu = k*(x) alpha`` and ``sigma^2 = k(x, x) - s(x)``.  A border
  update by ``k`` rows appends ``k(x, X_new)`` to ``k*(x)`` and adds
  ``||L22^-1 (k(x, X_new) - k*(x) W)||^2`` to ``s(x)``, with
  ``W = K^-1 K_c`` from the factor: O(n·k) per row instead of a fresh
  kernel evaluation plus an O(n^2) triangular solve.

Every cached value is row-local: it is computed from its own row alone,
by a triangular solve per column, ``cdist``/``exp``, column sums, and
one ``(1, n) @ (n, k)`` product per row for ``k*(x) W``.  That product
is stacked on purpose: one BLAS ``gemv`` or ``gemm`` over many rows
rounds a row differently depending on which other rows share the call.
So dropping cached rows (:meth:`~MultiSourceTransferGP.keep_pool_rows`),
their order and the block size :data:`POOL_BLOCK` never change a
prediction, bit for bit, and the caches can follow the live candidates
instead of the pool.  :data:`POOL_BLOCK` only bounds the transients of
each step: one block's cross-covariance and triangular-solve right-hand
side.  (Past about 512 training rows the BLAS solve may stop treating
columns alike, and the block size could then move last bits; builds
solve whole pool blocks, so dropped rows and a replayed session stay
exact there too — see
:meth:`~MultiSourceTransferGP._build_pool_cache`.)

The build that the first prediction after a fit triggers keeps only
``s``: each pool block's cross-covariance serves that block's solve and
the means of the requested rows, and is then dropped, so no
``(pool, n)`` array is ever held.  ``k*`` is cached at the next border
update, for the rows still kept, by the call that computes the new
columns; predictions before it recompute ``k*`` of the requested rows.
Means are ``gemv`` products over fixed request-order chunks of
:data:`_MEAN_CHUNK` rows, which round as one ``gemv`` over the whole
request does.  The cross-covariance cache is a buffer with up to
:data:`POOL_SPARE` spare training columns, so a border update writes
only its new columns; a full buffer is reallocated with that much room
again.  Anything that rebuilds the caches (``fit``, the fallback refit,
``register_pool``) drops them; the next prediction builds them for the
kept rows.  When several models are due to build at once, as every
metric's model is after a fit, :func:`share_pool_builds` lets the GP
worker build the last half of them on pickled copies; both sides
compute the same values, so no prediction depends on where its cache
was built.

Numerical safety: the initial fit's escalated jitter is carried onto the
appended diagonal so the extended factor matches the fitted covariance,
and whenever the Schur complement of an append is not positive definite
the model transparently falls back to an exact jittered refactorization
(``last_update_fallback`` is set so callers can count these).  Because
hyperparameter refits rebuild everything from scratch anyway, error from
long append chains cannot accumulate past one re-optimization cadence.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np
from scipy.linalg import solve_triangular

from . import worker
from .kernels import Kernel, RBFKernel
from .likelihood import gaussian_log_marginal, maximize_objective
from .linalg import (
    NotPositiveDefiniteError,
    cholesky_append_rows,
    cholesky_solve,
    require_finite,
    robust_cholesky,
)

#: Log-space bounds for Gamma parameters and noise variances.
_GAMMA_BOUNDS = (-5.0, 4.0)
_NOISE_BOUNDS = (-12.0, 2.0)

#: Pool rows per step when building or extending the pool caches.  It
#: bounds each step's transients only: cached values are row-local, so
#: the block size never changes a prediction.
POOL_BLOCK = 1024

#: Spare training columns the cross-covariance cache is (re)allocated
#: with, so that many border-updated points cost no reallocation.
POOL_SPARE = 16

#: Request rows per ``gemv`` while the caches hold no ``k*``.  OpenBLAS
#: (0.3.31) takes a ``gemv``'s rows four at a time and rounds the last
#: ``len % 4`` rows another way, so chunks whose length is a multiple of
#: four round every row as one ``gemv`` over the whole request does
#: (with one BLAS thread; ``tests/test_fastpath_equivalence.py`` pins
#: it).  It is not :data:`POOL_BLOCK`, which may be any size.
_MEAN_CHUNK = 1024


def transfer_factor(a, b):
    """The integrated cross-task damping ``lambda`` of Eq. (7).

    Works elementwise on arrays of Gamma parameters.

    Args:
        a: Gamma scale parameter(s) (> 0).
        b: Gamma shape parameter(s) (> 0).

    Returns:
        ``2 * (1 + a) ** -b - 1`` in ``(-1, 1]``.

    Raises:
        ValueError: If any ``a`` or ``b`` is not positive.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("Gamma parameters a, b must be positive")
    return 2.0 * (1.0 + a) ** (-b) - 1.0


def _solve_lower(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``L^-1 rhs`` for lower-triangular ``L``, each column alike.

    LAPACK solves a single right-hand side by another routine, which
    rounds differently, so a lone column is solved beside a copy of
    itself.
    """
    if rhs.shape[1] == 1:
        return solve_triangular(L, np.hstack([rhs, rhs]), lower=True)[:, :1]
    return solve_triangular(L, rhs, lower=True)


def _task_matrix(coeffs: np.ndarray) -> np.ndarray:
    """The PSD task-correlation matrix B."""
    B = np.outer(coeffs, coeffs)
    np.fill_diagonal(B, 1.0)
    return B


class TransferObjective:
    """The transfer GP's negative log marginal likelihood and its
    gradient, as a function of ``theta = [kernel theta, log a_s,
    log b_s, log noise per task]``.

    A module-level class so that
    :func:`~repro.gp.likelihood.maximize_objective` can pickle it to the
    GP worker.  Each call sets ``kernel.theta``.

    Args:
        kernel: Base kernel (its hyperparameters are overwritten).
        X: Training inputs, rows grouped by task, target last.
        tasks: Task index per row.
        n_sources: Number of source tasks.
        z: Standardized training values.
    """

    def __init__(
        self,
        kernel: Kernel,
        X: np.ndarray,
        tasks: np.ndarray,
        n_sources: int,
        z: np.ndarray,
    ) -> None:
        self.kernel = kernel
        self.X = X
        self.tasks = tasks
        self.n_sources = n_sources
        self.z = z
        self.n_kernel = kernel.n_params
        self.onehot = np.eye(n_sources + 1)[tasks]
        self.diag = np.diag_indices(len(tasks))
        # Each task's rows are contiguous: its noise gradient sums its
        # block of W's diagonal, pairwise as ndarray.sum does, so one
        # task's sum is np.trace(W) bit for bit.
        self.task_starts = np.flatnonzero(np.diff(tasks)) + 1
        self.spans = [
            slice(a, b) for a, b in zip(
                np.r_[0, self.task_starts], np.r_[self.task_starts, len(tasks)]
            )
        ]

    def _scale_by_tasks(self, M: np.ndarray, B: np.ndarray) -> None:
        """``M *= B[tasks, tasks]`` in place; B's diagonal is 1."""
        for i, rows in enumerate(self.spans):
            for j, cols in enumerate(self.spans):
                if i != j:
                    M[rows, cols] *= B[i, j]

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        kernel, n_src, n_kernel = self.kernel, self.n_sources, self.n_kernel
        kernel.theta = theta[:n_kernel]
        log_a = theta[n_kernel:n_kernel + n_src]
        log_b = theta[n_kernel + n_src:n_kernel + 2 * n_src]
        log_noise = theta[n_kernel + 2 * n_src:]
        a = np.exp(log_a)
        b = np.exp(log_b)
        coeffs = np.append(transfer_factor(a, b), 1.0)
        B = _task_matrix(coeffs)
        K_base, base_grad = kernel.eval_and_grad(self.X)
        noise = np.exp(log_noise)
        # A copy: base_grad may close over K_base.
        K = K_base.copy()
        self._scale_by_tasks(K, B)
        K[self.diag] += noise[self.tasks]
        lml, W, _ = gaussian_log_marginal(K, self.z)

        # <W, K_base * dB/dc_s[tasks, tasks]> through the task-block
        # sums T: dB/dc_s is ``coeffs`` along row and column s, zero at
        # (s, s).
        T = self.onehot.T @ (W * K_base) @ self.onehot
        dc = (T @ coeffs + T.T @ coeffs - 2.0 * np.diag(T) * coeffs)
        dc = dc[:n_src]
        # d lambda / d log a = -2 b a (1+a)^(-b-1) and
        # d lambda / d log b = -2 b log(1+a) (1+a)^(-b), per source.
        dlam_da = -2.0 * b * a * (1.0 + a) ** (-b - 1.0)
        dlam_db = -2.0 * b * np.log1p(a) * (1.0 + a) ** (-b)
        W_task_diag = np.array([
            block.sum() for block in np.split(np.diag(W), self.task_starts)
        ])
        self._scale_by_tasks(W, B)
        g = np.concatenate([
            base_grad(W),
            dc * dlam_da,
            dc * dlam_db,
            noise * W_task_diag,
        ])
        return -lml, -g


class _ChunkedMean:
    """``k* alpha`` of a request's rows, one ``gemv`` per
    :data:`_MEAN_CHUNK` rows, as their ``k*`` arrive in request order."""

    def __init__(self, alpha: np.ndarray, count: int) -> None:
        self.alpha = alpha
        self.mean = np.empty(count)
        self._buf = np.empty((min(_MEAN_CHUNK, count), len(alpha)))
        self._done = self._held = 0

    def add(self, K: np.ndarray) -> None:
        """Take the next ``len(K)`` rows' ``k*``."""
        while len(K):
            take = min(len(self._buf) - self._held, len(K))
            self._buf[self._held:self._held + take] = K[:take]
            self._held += take
            K = K[take:]
            end = self._done + self._held
            if self._held == len(self._buf) or end == len(self.mean):
                self.mean[self._done:end] = (
                    self._buf[:self._held] @ self.alpha
                )
                self._done, self._held = end, 0


def pool_indices(indices) -> np.ndarray:
    """Pool row indices as an ``intp`` array.

    A boolean mask selects its true rows; an empty request (a plain
    ``[]`` included) is an empty index array.

    Raises:
        TypeError: On non-integer, non-boolean indices.
    """
    idx = np.asarray(indices)
    if idx.dtype == bool:
        return np.flatnonzero(idx)
    if idx.size == 0:
        return np.empty(0, dtype=np.intp)
    return idx.astype(np.intp, casting="same_kind", copy=False)


class MultiSourceTransferGP:
    """Transfer GP over K source tasks and one target task.

    One source archive is the paper's two-task model; several archives,
    or none (plain GP regression), go through the same ``sources`` list.
    The model also predicts cached pool rows and absorbs new target
    rows by exact border updates (see the module docstring).

    Example:
        >>> model = MultiSourceTransferGP()
        >>> model.fit([(Xs, ys)], Xt, yt)  # doctest: +SKIP
        >>> mean, var = model.predict(Xq)  # doctest: +SKIP
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        a: float = 1.0,
        b: float = 1.0,
        noise: float = 1e-2,
        optimize: bool = True,
        n_restarts: int = 1,
        seed: int | None = 0,
    ) -> None:
        """Create the model.

        Args:
            kernel: Base within-task kernel (ARD RBF by default).
            a: Initial Gamma scale shared by all sources.
            b: Initial Gamma shape shared by all sources.
            noise: Initial per-task noise variance.
            optimize: Whether :meth:`fit` tunes hyperparameters.
            n_restarts: Optimizer restarts.
            seed: Seed for restarts.
        """
        if a <= 0 or b <= 0 or noise <= 0:
            raise ValueError("a, b and noise must be positive")
        self._kernel = kernel
        self._init = (float(np.log(a)), float(np.log(b)),
                      float(np.log(noise)))
        self.optimize = optimize
        self.n_restarts = n_restarts
        self.seed = seed
        self._n_sources = 0
        self._log_a: np.ndarray | None = None
        self._log_b: np.ndarray | None = None
        self._log_noise: np.ndarray | None = None  # per task, target last
        self._opt_theta: np.ndarray | None = None
        # Training data, rows grouped by task (sources first, target
        # last), and the posterior state built from it.
        self._X: np.ndarray | None = None
        self._tasks: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._L: np.ndarray | None = None
        self._jitter = 0.0
        self._alpha: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        #: Whether the last :meth:`update` call had to fall back to an
        #: exact from-scratch refactorization (jitter escalation).
        self.last_update_fallback = False
        self._pool_X: np.ndarray | None = None
        # Mask of the pool rows the caches hold; ``None`` holds every row.
        self._pool_keep: np.ndarray | None = None
        # The GP worker's build of the caches, while one is on its way
        # (see share_pool_builds).
        self._handed: _HandedBuilds | None = None
        self._invalidate_pool_cache()

    # ---- task-correlation helpers -------------------------------------

    def _lambdas(self) -> np.ndarray:
        """Per-source correlation coefficients ``c_s`` in (-1, 1]."""
        assert self._log_a is not None and self._log_b is not None
        return transfer_factor(np.exp(self._log_a), np.exp(self._log_b))

    @property
    def lambdas(self) -> np.ndarray:
        """Learned target-source correlation per source task."""
        if self._log_a is None:
            raise RuntimeError("model not fitted")
        return self._lambdas()

    def _coeffs(self) -> np.ndarray:
        """Per-task coefficients ``c`` with the target pinned at 1."""
        return np.append(self._lambdas(), 1.0)

    _task_matrix = staticmethod(_task_matrix)

    # ---- fitting -------------------------------------------------------

    def fit(
        self,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
        X_target: np.ndarray | None = None,
        y_target: np.ndarray | None = None,
    ) -> "MultiSourceTransferGP":
        """Fit on K source datasets plus the target data.

        Args:
            sources: List of ``(X_s, y_s)`` pairs; one pair is the
                paper's two-task model, none (or only empty pairs) fits
                the target alone.
            X_target: ``(M, d)`` target inputs.
            y_target: Length-``M`` target values.

        Returns:
            ``self``.

        Raises:
            ValueError: On shape problems, empty target data, or NaN/inf
                values.
        """
        if sources is None:
            sources = []
        if X_target is None or y_target is None:
            raise ValueError("X_target and y_target are required")
        Xt = np.atleast_2d(np.asarray(X_target, dtype=float))
        yt = np.asarray(y_target, dtype=float).ravel()
        if len(Xt) != len(yt) or len(yt) == 0:
            raise ValueError("target X/y misaligned or empty")
        require_finite("X_target", Xt)
        require_finite("y_target", yt)
        cleaned: list[tuple[np.ndarray, np.ndarray]] = []
        for k, (Xs, ys) in enumerate(sources):
            Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
            ys = np.asarray(ys, dtype=float).ravel()
            if len(Xs) != len(ys):
                raise ValueError("source X/y misaligned")
            if Xs.size and Xs.shape[1] != Xt.shape[1]:
                raise ValueError("source dimensionality mismatch")
            require_finite(f"source {k} X", Xs)
            require_finite(f"source {k} y", ys)
            if len(ys):
                cleaned.append((Xs, ys))
        self._n_sources = len(cleaned)

        X = np.vstack([Xs for Xs, _ in cleaned] + [Xt])
        y = np.concatenate([ys for _, ys in cleaned] + [yt])
        tasks = np.concatenate([
            np.full(len(ys), k, dtype=int)
            for k, (_, ys) in enumerate(cleaned)
        ] + [np.full(len(yt), self._n_sources, dtype=int)])

        if self._kernel is None:
            self._kernel = RBFKernel(np.full(X.shape[1], 0.3))
        # Initialize hyperparameters once (or when the archive count
        # changes); refits without optimization must keep learned values.
        if (
            self._log_a is None
            or len(self._log_a) != self._n_sources
        ):
            log_a0, log_b0, log_n0 = self._init
            self._log_a = np.full(self._n_sources, log_a0)
            self._log_b = np.full(self._n_sources, log_b0)
            self._log_noise = np.full(self._n_sources + 1, log_n0)

        self._X, self._tasks, self._y_raw = X, tasks, y
        if self.optimize and len(X) >= 3:
            self._optimize_hyperparameters(self._standardize())
        self._refit_state()
        return self

    def _cross_cov(
        self, X_query: np.ndarray, rows: slice | None = None
    ) -> np.ndarray:
        """Covariance of target-task queries vs training ``rows``."""
        assert self._kernel is not None
        assert self._X is not None and self._tasks is not None
        X_query = np.atleast_2d(X_query)
        X2 = self._X if rows is None else self._X[rows]
        tasks2 = self._tasks if rows is None else self._tasks[rows]
        coeffs = self._coeffs()
        factors = coeffs[tasks2] * coeffs[-1]
        factors = np.where(tasks2 == self._n_sources, 1.0, factors)
        return self._kernel.eval(X_query, X2) * factors[None, :]

    def _full_kernel(self, X: np.ndarray, tasks: np.ndarray) -> np.ndarray:
        """Noise-free transfer covariance among training rows."""
        assert self._kernel is not None
        B = self._task_matrix(self._coeffs())
        return self._kernel.eval(X) * B[np.ix_(tasks, tasks)]

    def _optimize_hyperparameters(self, z: np.ndarray) -> None:
        kernel = self._kernel
        assert kernel is not None
        n_src = self._n_sources
        n_kernel = kernel.n_params
        objective = TransferObjective(kernel, self._X, self._tasks, n_src, z)
        # Warm-start refits from the previously optimized vector (the
        # objective sets the live kernel's parameters as it evaluates).
        theta0 = np.concatenate([
            kernel.theta, self._log_a, self._log_b, self._log_noise,
        ])
        if (
            self._opt_theta is not None
            and len(self._opt_theta) == len(theta0)
        ):
            theta0 = self._opt_theta
        bounds = (
            kernel.bounds()
            + [_GAMMA_BOUNDS] * (2 * n_src)
            + [_NOISE_BOUNDS] * (n_src + 1)
        )
        best = maximize_objective(
            objective, theta0, bounds,
            n_restarts=self.n_restarts, seed=self.seed,
        )
        kernel.theta = best[:n_kernel]
        self._log_a = best[n_kernel:n_kernel + n_src].copy()
        self._log_b = best[n_kernel + n_src:n_kernel + 2 * n_src].copy()
        self._log_noise = best[n_kernel + 2 * n_src:].copy()
        self._opt_theta = np.asarray(best, dtype=float).copy()

    # ---- prediction --------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether ``fit`` has been called."""
        return self._alpha is not None

    def predict(self, X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at target-task inputs.

        Paper Eq. (8) (Eq. (1) with no source): ``mu = k*^T alpha`` and
        ``sigma^2 = k(x, x) - v^T v`` with ``v = L^-1 k*``.

        Args:
            X_new: ``(m, d)`` query inputs.

        Returns:
            ``(mean, variance)`` arrays of length ``m`` in the original
            target scale.

        Raises:
            RuntimeError: If called before ``fit``.
        """
        if not self.is_fitted:
            raise RuntimeError("predict() before fit()")
        assert self._L is not None and self._alpha is not None
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        K_star = self._cross_cov(X_new)
        mean_z = K_star @ self._alpha
        v = _solve_lower(self._L, K_star.T)
        var_z = self._kernel.diag(X_new) - np.sum(v * v, axis=0)
        var_z = np.maximum(var_z, 1e-12)
        return (
            mean_z * self._y_std + self._y_mean,
            var_z * self._y_std**2,
        )

    # ---- incremental update ------------------------------------------

    def update(self, X_new: np.ndarray, y_new: np.ndarray):
        """Absorb new *target-task* observations without refitting.

        Extends the Cholesky factor by a border update and refreshes the
        standardization constants and ``alpha``; hyperparameters are
        left untouched.  The result is numerically equivalent to calling
        ``fit`` on the concatenated data with ``optimize=False``.

        Args:
            X_new: ``(k, d)`` new target inputs.
            y_new: Length-``k`` new target observations (original
                scale).

        Returns:
            ``self``.

        Raises:
            RuntimeError: If called before ``fit``.
            ValueError: On shape mismatch or NaN/inf values.
        """
        if not self.is_fitted:
            raise RuntimeError("update() before fit()")
        assert self._X is not None and self._L is not None
        assert self._y_raw is not None and self._tasks is not None
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if len(X_new) != len(y_new):
            raise ValueError("X_new and y_new misaligned")
        require_finite("X_new", X_new)
        require_finite("y_new", y_new)
        self.last_update_fallback = False
        if len(y_new) == 0:
            return self
        if X_new.shape[1] != self._X.shape[1]:
            raise ValueError("dimensionality mismatch")

        n_old = len(self._L)
        k = len(y_new)
        K_cross = self._cross_cov(X_new).T  # (n_old, k)
        K_block = self._kernel.eval(X_new) + float(
            np.exp(self._log_noise[-1])
        ) * np.eye(k)
        if self._jitter:
            K_block = K_block + self._jitter * np.eye(k)
        try:
            L_ext = cholesky_append_rows(self._L, K_cross, K_block)
        except NotPositiveDefiniteError:
            L_ext = None
        self._X = np.vstack([self._X, X_new])
        self._tasks = np.concatenate([
            self._tasks, np.full(k, self._n_sources, dtype=int),
        ])
        self._y_raw = np.concatenate([self._y_raw, y_new])
        if L_ext is None:
            # Jitter escalation: rebuild the exact factorization so the
            # posterior never silently drifts.
            self._refit_state()
            self.last_update_fallback = True
            return self

        self._L = L_ext
        self._alpha = cholesky_solve(L_ext, self._standardize())
        if self._pool_rows is not None:
            self._extend_pool_columns(L_ext, n_old)
        return self

    def _standardize(self) -> np.ndarray:
        """Refresh the standardization constants from the raw targets.

        Returns:
            The standardized targets ``z``.
        """
        assert self._y_raw is not None
        y = self._y_raw
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        return (y - self._y_mean) / self._y_std

    def _refit_state(self) -> None:
        """Exact posterior from the current data and hyperparameters."""
        assert self._X is not None and self._tasks is not None
        K = self._full_kernel(self._X, self._tasks) + np.diag(
            np.exp(self._log_noise)[self._tasks]
        )
        self._L, self._jitter = robust_cholesky(K)
        self._alpha = cholesky_solve(self._L, self._standardize())
        self._invalidate_pool_cache()

    # ---- cached pool prediction --------------------------------------

    def register_pool(self, X_pool: np.ndarray) -> None:
        """Attach a fixed candidate pool for cached prediction.

        Every row is kept until :meth:`keep_pool_rows` says otherwise.

        Args:
            X_pool: ``(p, d)`` target-task candidate features; rows are
                addressed by index in :meth:`predict_pool`.
        """
        self._pool_X = np.atleast_2d(np.asarray(X_pool, dtype=float))
        self._pool_keep = None
        self._invalidate_pool_cache()

    def extend_pool(self, X_new: np.ndarray) -> None:
        """Append candidate rows to the registered pool (append path).

        The adaptive-refinement counterpart of :meth:`update`: where
        ``update`` extends the caches by new *training* columns, this
        extends them by new, kept *pool* rows.  Only the appended rows'
        cross-covariance and whitened sums are computed — the existing
        caches are never rebuilt, so growing the pool costs O(k·n²)
        instead of O(p·n²).

        Args:
            X_new: ``(k, d)`` new target-task candidate features,
                appended after the existing pool rows (indices continue
                from ``len(pool)``).

        Raises:
            RuntimeError: If no pool is registered.
            ValueError: On dimensionality mismatch.
        """
        if self._pool_X is None:
            raise RuntimeError("extend_pool() before register_pool()")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        if X_new.size == 0:
            return
        if X_new.shape[1] != self._pool_X.shape[1]:
            raise ValueError("dimensionality mismatch")
        p, k = len(self._pool_X), len(X_new)
        self._pool_X = np.vstack([self._pool_X, X_new])
        if self._pool_keep is not None:
            self._pool_keep = np.concatenate(
                [self._pool_keep, np.ones(k, dtype=bool)]
            )
        if self._pool_rows is None:
            return  # built lazily, with the new rows, on first use
        new_rows = np.arange(p, p + k)
        K_new, s_new = self._pool_blocks(new_rows)
        r, n = len(self._pool_rows), len(self._L)
        if self._pool_K is not None:
            K = np.empty((r + k, self._pool_K.shape[1]))
            K[:r, :n] = self._pool_K[:r, :n]
            K[r:, :n] = K_new
            self._pool_K = K
        self._pool_s = np.concatenate([self._pool_s[:r], s_new])
        self._pool_rows = np.concatenate([self._pool_rows, new_rows])
        self._pool_slot = np.concatenate(
            [self._pool_slot, np.arange(r, r + k)]
        )

    def keep_pool_rows(self, keep: np.ndarray) -> None:
        """Hold pool caches for the rows of mask ``keep`` only.

        Cached rows outside ``keep`` are dropped now, and the next build
        caches exactly ``keep``.  Cached values are row-local, so
        predictions of kept rows do not change, bit for bit.  A row
        outside ``keep`` can still be predicted: it is computed fresh
        and not cached.

        Args:
            keep: Boolean mask over the registered pool.

        Raises:
            RuntimeError: If no pool is registered.
            ValueError: If ``keep`` is not a mask of the pool's length.
        """
        if self._pool_X is None:
            raise RuntimeError("keep_pool_rows() before register_pool()")
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (len(self._pool_X),):
            raise ValueError("keep must be a boolean mask over the pool")
        self._pool_keep = keep.copy()
        if self._pool_rows is None:
            return
        live = keep[self._pool_rows]
        if live.all():
            return
        # Fill the dead rows' slots with the last survivors: O(n) per
        # moved row, and the order of slots never matters.  The buffer's
        # unused tail goes at its next reallocation.
        dead = np.flatnonzero(~live)
        self._pool_slot[self._pool_rows[dead]] = -1
        r_new = len(live) - len(dead)
        holes = dead[dead < r_new]
        movers = r_new + np.flatnonzero(live[r_new:])
        if self._pool_K is not None:
            self._pool_K[holes] = self._pool_K[movers]
        self._pool_s[holes] = self._pool_s[movers]
        self._pool_rows[holes] = self._pool_rows[movers]
        self._pool_slot[self._pool_rows[holes]] = holes
        self._pool_s = self._pool_s[:r_new]
        self._pool_rows = self._pool_rows[:r_new]

    @property
    def pool_cache_rows(self) -> int:
        """Pool rows the caches hold (0 while they are not built)."""
        return 0 if self._pool_rows is None else len(self._pool_rows)

    def _pool_blocks(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cross-covariance ``k*`` and whitened sum of squares ``s`` of
        pool ``rows`` from scratch, :data:`POOL_BLOCK` rows at a time.

        Returns:
            ``K`` of shape ``(len(rows), len(L))`` and ``s`` of length
            ``len(rows)``.
        """
        assert self._pool_X is not None and self._L is not None
        K = np.empty((len(rows), len(self._L)))
        s = np.empty(len(rows))
        for a in range(0, len(rows), POOL_BLOCK):
            b = min(a + POOL_BLOCK, len(rows))
            K[a:b] = self._cross_cov(self._pool_X[rows[a:b]])
            V = _solve_lower(self._L, K[a:b].T)
            s[a:b] = np.sum(V * V, axis=0)
        return K, s

    def _extend_pool_columns(self, L_ext: np.ndarray, n_old: int) -> None:
        """Border-update the caches by the training rows ``n_old:``.

        Appends ``k(x, X_new)`` to every cached ``k*(x)`` and adds
        ``||L22^-1 (k(x, X_new) - k*(x) W)||^2`` to ``s(x)``, where
        ``W = K^-1 K_c`` comes from the factor's new rows.  ``k*(x) W``
        is computed row by row (see the module docstring), so each
        row's result depends on that row alone.  After a build, which
        keeps only ``s``, the call that computes the new columns
        computes the old ones too, and ``k*`` is cached from then on.
        """
        n = len(L_ext)
        W = solve_triangular(
            L_ext[:n_old, :n_old], L_ext[n_old:, :n_old].T,
            lower=True, trans="T",
        )
        L22 = L_ext[n_old:, n_old:]
        r = len(self._pool_rows)
        K = self._pool_K
        cols = slice(0 if K is None else n_old, n)
        if K is None or K.shape[1] < n:
            K = np.empty((r, n + POOL_SPARE))
            if cols.start:
                K[:, :n_old] = self._pool_K[:r, :n_old]
            self._pool_K = K
        for a in range(0, r, POOL_BLOCK):
            b = min(a + POOL_BLOCK, r)
            K[a:b, cols] = self._cross_cov(
                self._pool_X[self._pool_rows[a:b]], cols
            )
            # One (1, n) @ (n, k) product per row, never one gemv over
            # many rows.
            KW = np.matmul(K[a:b, None, :n_old], W)[:, 0, :]
            V = _solve_lower(L22, (K[a:b, n_old:n] - KW).T)
            self._pool_s[a:b] += np.sum(V * V, axis=0)

    def _invalidate_pool_cache(self) -> None:
        # Pool row of each cache slot; ``None`` until the caches are
        # built.
        self._pool_rows = None
        # Cache slot of each pool row, ``-1`` for rows without one.
        self._pool_slot = None
        # Buffer whose ``[:len(_pool_rows), :len(_L)]`` block holds
        # ``k*`` of the cached rows, slot by slot; ``None`` from a build
        # to the next border update.
        self._pool_K = None
        # Whitened sum of squares ``s`` of each cache slot.
        self._pool_s = None

    def _build_pool_cache(
        self, idx: np.ndarray, check: Callable[[], None] = worker.unchecked
    ) -> np.ndarray | None:
        """Build the caches of the kept pool rows: ``s`` only.

        The work is :meth:`_pool_sums`'s, which calls ``check()`` before
        each block.

        Returns:
            The standardized means ``k* alpha`` of ``idx``, or ``None``
            when ``idx`` is not ascending or holds a row not kept.
        """
        s, mean = self._pool_sums(idx, check, POOL_BLOCK)
        self._install_pool_cache(s)
        return mean

    def _pool_sums(
        self, idx: np.ndarray, check: Callable[[], None], block: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``s`` of the kept pool rows, computed ``block`` pool rows at a
        time after a ``check()`` each, and the fused means of ``idx``.

        Each pool block's cross-covariance serves the block's triangular
        solve and, when the request ``idx`` is ascending and kept, the
        means of its rows in the block; no ``(pool, n)`` array is held.

        The build solves every pool block that holds a kept row whole,
        not just its kept rows.  A triangular solve need not treat its
        columns alike once the training set outgrows one BLAS blocking
        panel: with OpenBLAS 0.3.31 they were alike at 520 training
        rows, but at 610 some columns' last bits depended on the other
        columns of the call (a random well-conditioned factor; GP
        covariances have not shown it).  Solving whole blocks gives a
        kept row the same call whatever else is kept, so a replayed
        session stays bit-identical at any training-set size.

        Nothing here writes to the model, so a GP worker can compute it
        on a pickled copy (:func:`share_pool_builds`).

        Returns:
            ``s`` of the kept rows in pool order, and the standardized
            means ``k* alpha`` of ``idx``, or ``None`` when ``idx`` is
            not ascending or holds a row not kept.
        """
        assert self._pool_X is not None
        p = len(self._pool_X)
        keep = self._kept_mask()
        fused = (
            idx[0] >= 0 and bool(np.all(idx[1:] > idx[:-1]))
            and bool(keep[idx].all())
        )
        means = _ChunkedMean(self._alpha, len(idx)) if fused else None
        s = np.empty(np.count_nonzero(keep))
        i = 0
        for a in range(0, p, block):
            b = min(a + block, p)
            kept = keep[a:b]
            if not kept.any():
                continue
            check()
            Kb = self._cross_cov(self._pool_X[a:b])
            V = _solve_lower(self._L, Kb.T)
            sb = np.sum(V * V, axis=0)[kept]
            s[i:i + len(sb)] = sb
            i += len(sb)
            if means is not None:
                lo, hi = np.searchsorted(idx, (a, b))
                means.add(Kb[idx[lo:hi] - a])
        return s, None if means is None else means.mean

    def _kept_mask(self) -> np.ndarray:
        """Mask of the pool rows the caches hold or will hold."""
        if self._pool_keep is None:
            return np.ones(len(self._pool_X), dtype=bool)
        return self._pool_keep

    def _install_pool_cache(self, s: np.ndarray) -> None:
        """Cache ``s`` of the kept rows, as :meth:`_pool_sums` gives it."""
        rows = np.flatnonzero(self._kept_mask())
        self._pool_s = s
        self._pool_rows = rows
        self._pool_slot = np.full(len(self._pool_X), -1, dtype=np.intp)
        self._pool_slot[rows] = np.arange(len(rows))

    def predict_pool(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean/variance at registered pool rows ``indices``.

        Numerically equivalent to ``predict(X_pool[indices])`` but served
        from the cached whitened sums (and, once a border update has
        cached it, the cross-covariance): after each incremental update
        only the new columns are computed, so a cached row costs O(n)
        rather than a fresh kernel evaluation plus an O(n^2) solve.
        Rows outside the kept set are computed fresh and not cached.
        An empty request builds nothing.

        Args:
            indices: Integer row indices (or boolean mask) into the
                registered pool, in any order.

        Returns:
            ``(mean, variance)`` in the original target scale.

        Raises:
            RuntimeError: If the model is unfitted or no pool is
                registered.
        """
        if not self.is_fitted:
            raise RuntimeError("predict_pool() before fit()")
        if self._pool_X is None:
            raise RuntimeError("predict_pool() before register_pool()")
        assert self._L is not None and self._alpha is not None
        idx = pool_indices(indices)
        if len(idx) == 0:
            return np.empty(0), np.empty(0)
        mean_z = None
        if self._pool_rows is None:
            handed, self._handed = self._handed, None
            mean_z = (
                self._build_pool_cache(idx) if handed is None
                else handed.finish(self, idx)
            )
        n, r = len(self._L), len(self._pool_rows)
        slots = self._pool_slot[idx]
        cached = slots >= 0
        s = np.empty(len(idx))
        s[cached] = self._pool_s[slots[cached]]
        if not cached.all():
            K_fresh, s[~cached] = self._pool_blocks(idx[~cached])
        K = self._pool_K
        if K is None:
            if mean_z is None:
                mean_z = np.concatenate([
                    self._cross_cov(self._pool_X[idx[c:c + _MEAN_CHUNK]])
                    @ self._alpha
                    for c in range(0, len(idx), _MEAN_CHUNK)
                ])
        elif len(idx) == r and np.array_equal(slots, np.arange(r)):
            # The whole cache in slot order: read it without a copy.
            mean_z = K[:r, :n] @ self._alpha
        elif cached.all():
            mean_z = K[slots, :n] @ self._alpha
        else:
            K_req = np.empty((len(idx), n))
            K_req[cached] = K[slots[cached], :n]
            K_req[~cached] = K_fresh
            mean_z = K_req @ self._alpha
        var_z = np.maximum(self._kernel.diag(self._pool_X[idx]) - s, 1e-12)
        return (
            mean_z * self._y_std + self._y_mean,
            var_z * self._y_std**2,
        )


def _solved_blocks(model: MultiSourceTransferGP, block: int) -> int:
    """Pool blocks a build of ``model``'s caches solves."""
    keep = model._kept_mask()
    if not len(keep):
        return 0
    starts = np.arange(0, len(keep), block)
    return int(np.count_nonzero(np.logical_or.reduceat(keep, starts)))


def _build_caches(
    models: list[MultiSourceTransferGP], idx: np.ndarray, block: int
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The GP worker's half of :func:`share_pool_builds`: each model's
    :meth:`~MultiSourceTransferGP._pool_sums`."""
    return [model._pool_sums(idx, worker.unchecked, block) for model in models]


class _HandedBuilds:
    """Pool-cache builds handed to the GP worker for the request ``idx``.

    Each handed model's :meth:`~MultiSourceTransferGP.predict_pool`
    calls :meth:`finish`, so the caller's build, its wait and its race
    all count as that model's prediction.
    """

    def __init__(
        self, job: worker.Job, models: list[MultiSourceTransferGP],
        idx: np.ndarray,
    ) -> None:
        self.job = job
        self.models = models
        self.idx = idx

    def finish(
        self, model: MultiSourceTransferGP, idx: np.ndarray
    ) -> np.ndarray | None:
        """Build ``model``'s caches here, one block at a time, until the
        worker's builds arrive; then install its build of ``model``.

        Returns:
            The fused means of ``idx``, as
            :meth:`~MultiSourceTransferGP._build_pool_cache` returns
            them.
        """
        answered, out = self.job.race(
            lambda check: model._build_pool_cache(idx, check)
        )
        if not answered:
            return out
        s, mean = out[self.models.index(model)]
        model._install_pool_cache(s)
        return mean if np.array_equal(idx, self.idx) else None


@contextmanager
def share_pool_builds(
    models: list[MultiSourceTransferGP], idx: np.ndarray
) -> Iterator[None]:
    """Let the GP worker build half of the pool caches that predicting
    ``idx`` under each of ``models`` is about to build.

    When two or more of ``models`` have no pool cache (as after a fit)
    and a build would solve more than one :data:`POOL_BLOCK`, the last
    half of those builds go to the GP worker (:mod:`repro.gp.worker`),
    which runs the same :meth:`~MultiSourceTransferGP._pool_sums` on a
    pickled copy of each model.  Inside the block the caller's
    ``predict_pool`` calls build the first half themselves, then build
    the handed ones too, one block at a time, until the worker's
    builds arrive (:meth:`_HandedBuilds.finish`).  Either side computes
    the same ``s`` and means, so no prediction depends on where a cache
    was built.  Without the worker the block changes nothing.

    Args:
        models: The models about to predict ``idx``, in that order.
        idx: The request, as :func:`pool_indices` gives it.
    """
    unbuilt = [
        model for model in models
        if model.is_fitted and model._pool_X is not None
        and model._pool_rows is None
    ]
    handed = unbuilt[len(unbuilt) - len(unbuilt) // 2:]
    block = POOL_BLOCK
    job = None
    if (
        handed and len(idx)
        and all(_solved_blocks(model, block) > 1 for model in handed)
    ):
        job = worker.hand_over(_build_caches, handed, idx, block)
    if job is None:
        yield
        return
    builds = _HandedBuilds(job, handed, idx)
    for model in handed:
        model._handed = builds
    try:
        with job:
            yield
    finally:
        for model in handed:
            model._handed = None


__all__ = [
    "POOL_BLOCK",
    "POOL_SPARE",
    "MultiSourceTransferGP",
    "pool_indices",
    "share_pool_builds",
    "transfer_factor",
]
