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
and ``k(x_n, x_m)`` within one; K=0 is plain GP regression on the
target.

Each task also carries its own noise variance — the ``Lambda`` of
Eq. (8), ``beta_s^-1`` on source rows and ``beta_t^-1`` on target rows.
All hyperparameters (base kernel, Gamma parameters, noises) are learned
by maximizing the joint log marginal likelihood with analytic
gradients.  Prediction at a target-task input follows Eq. (8):

    mu(x)      = k(x, X)^T (K~ + Lambda)^-1 y
    sigma^2(x) = k(x, x) + beta_t^-1 - k(x, X)^T (K~ + Lambda)^-1 k(x, X)

where ``k(x, X)`` is the transfer covariance (source-``s`` columns
damped by ``lambda_s``).
"""

from __future__ import annotations

import numpy as np

from .incremental import IncrementalGPMixin
from .kernels import Kernel, RBFKernel
from .likelihood import gaussian_log_marginal, maximize_objective
from .linalg import cholesky_solve, require_finite, robust_cholesky

#: Log-space bounds for Gamma parameters and noise variances.
_GAMMA_BOUNDS = (-5.0, 4.0)
_NOISE_BOUNDS = (-12.0, 2.0)


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


class MultiSourceTransferGP(IncrementalGPMixin):
    """Transfer GP over K source tasks and one target task.

    One source archive is the paper's two-task model; several archives,
    or none, go through the same ``sources`` list.

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
        self._X: np.ndarray | None = None
        self._tasks: np.ndarray | None = None
        self._L: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._opt_theta: np.ndarray | None = None

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

    def _task_matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """The PSD task-correlation matrix B."""
        B = np.outer(coeffs, coeffs)
        np.fill_diagonal(B, 1.0)
        return B

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

        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std

        if self.optimize and len(X) >= 3:
            self._optimize_hyperparameters(X, tasks, z)

        K = self._full_kernel(X, tasks) + np.diag(
            np.exp(self._log_noise)[tasks]
        )
        self._L, self._jitter = robust_cholesky(K)
        self._alpha = cholesky_solve(self._L, z)
        self._X = X
        self._tasks = tasks
        self._y_raw = y.copy()
        self._invalidate_pool_cache()
        return self

    # ---- incremental hooks (see IncrementalGPMixin) -------------------

    def _cross_cov(
        self, X_query: np.ndarray, rows: slice | None = None
    ) -> np.ndarray:
        assert self._kernel is not None
        assert self._X is not None and self._tasks is not None
        X_query = np.atleast_2d(X_query)
        X2 = self._X if rows is None else self._X[rows]
        tasks2 = self._tasks if rows is None else self._tasks[rows]
        coeffs = self._coeffs()
        factors = coeffs[tasks2] * coeffs[-1]
        factors = np.where(tasks2 == self._n_sources, 1.0, factors)
        return self._kernel.eval(X_query, X2) * factors[None, :]

    def _cov_new_block(self, X_new: np.ndarray) -> np.ndarray:
        assert self._kernel is not None and self._log_noise is not None
        return self._kernel.eval(X_new) + float(
            np.exp(self._log_noise[-1])
        ) * np.eye(len(X_new))

    def _cov_full(self) -> np.ndarray:
        assert self._X is not None and self._tasks is not None
        assert self._log_noise is not None
        return self._full_kernel(self._X, self._tasks) + np.diag(
            np.exp(self._log_noise)[self._tasks]
        )

    def _prior_diag(self, X_query: np.ndarray) -> np.ndarray:
        assert self._kernel is not None
        return self._kernel.diag(np.atleast_2d(X_query))

    def _predict_noise(self) -> float:
        assert self._log_noise is not None
        return float(np.exp(self._log_noise[-1]))

    def _append_data(self, X_new: np.ndarray, y_new: np.ndarray) -> None:
        assert self._X is not None and self._tasks is not None
        assert self._y_raw is not None
        self._X = np.vstack([self._X, X_new])
        self._tasks = np.concatenate([
            self._tasks,
            np.full(len(y_new), self._n_sources, dtype=int),
        ])
        self._y_raw = np.concatenate([self._y_raw, y_new])

    def _full_kernel(self, X: np.ndarray, tasks: np.ndarray) -> np.ndarray:
        assert self._kernel is not None
        B = self._task_matrix(self._coeffs())
        return self._kernel.eval(X) * B[np.ix_(tasks, tasks)]

    def _optimize_hyperparameters(
        self, X: np.ndarray, tasks: np.ndarray, z: np.ndarray
    ) -> None:
        kernel = self._kernel
        assert kernel is not None
        n_src = self._n_sources
        n_kernel = kernel.n_params
        onehot = np.eye(n_src + 1)[tasks]
        # Flat index of each training pair's entry in the task matrix B.
        pairs = tasks[:, None] * (n_src + 1) + tasks[None, :]
        diag = np.diag_indices(len(tasks))

        def unpack(theta):
            kernel.theta = theta[:n_kernel]
            log_a = theta[n_kernel:n_kernel + n_src]
            log_b = theta[n_kernel + n_src:n_kernel + 2 * n_src]
            log_noise = theta[n_kernel + 2 * n_src:]
            return log_a, log_b, log_noise

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            log_a, log_b, log_noise = unpack(theta)
            self._log_a, self._log_b = log_a, log_b
            a = np.exp(log_a)
            b = np.exp(log_b)
            coeffs = self._coeffs()
            B_exp = self._task_matrix(coeffs).ravel().take(pairs)
            K_base, base_grad = kernel.eval_and_grad(X)
            noise = np.exp(log_noise)
            # A new array: base_grad may close over K_base.
            K = K_base * B_exp
            K[diag] += noise[tasks]
            lml, W, _ = gaussian_log_marginal(K, z)

            # <W, K_base * dB/dc_s[tasks, tasks]> through the task-block
            # sums T: dB/dc_s is ``coeffs`` along row and column s, zero
            # at (s, s).
            T = onehot.T @ (W * K_base) @ onehot
            dc = (T @ coeffs + T.T @ coeffs - 2.0 * np.diag(T) * coeffs)
            dc = dc[:n_src]
            # d lambda / d log a = -2 b a (1+a)^(-b-1) and
            # d lambda / d log b = -2 b log(1+a) (1+a)^(-b), per source.
            dlam_da = -2.0 * b * a * (1.0 + a) ** (-b - 1.0)
            dlam_db = -2.0 * b * np.log1p(a) * (1.0 + a) ** (-b)
            W_task_diag = np.bincount(
                tasks, weights=np.diag(W), minlength=n_src + 1
            )
            g = np.concatenate([
                base_grad(W * B_exp),
                dc * dlam_da,
                dc * dlam_db,
                noise * W_task_diag,
            ])
            return -lml, -g

        # Warm-start refits from the previously optimized vector (the
        # objective mutates the live parameters during evaluation).
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
