"""Transfer Gaussian process (paper Section 3.1, Eq. (4)-(8)).

One model per QoR metric.  Source-task and target-task observations are
stacked; the joint prior covariance is the :class:`TransferKernel` and the
noise is heteroskedastic per task (``beta_s^-1`` on source rows,
``beta_t^-1`` on target rows — the ``Lambda`` of Eq. (8)).  All
hyperparameters (base kernel, Gamma transfer parameters, both noises) are
learned by maximizing the joint log marginal likelihood.

Prediction at a target-task input follows Eq. (8):

    mu(x)      = k(x, X)^T (K~ + Lambda)^-1 y
    sigma^2(x) = k(x, x) + beta_t^-1 - k(x, X)^T (K~ + Lambda)^-1 k(x, X)

where ``k(x, X)`` itself is the transfer kernel (source columns damped by
``lambda``).
"""

from __future__ import annotations

import numpy as np

from .incremental import IncrementalGPMixin
from .kernels import Kernel, RBFKernel
from .likelihood import gaussian_log_marginal, maximize_objective
from .linalg import cholesky_solve, require_finite, robust_cholesky
from .transfer_kernel import TransferKernel

#: Log-space bounds for the two task noise variances.
_NOISE_BOUNDS = (-12.0, 2.0)
#: Task label of source rows.
SOURCE_TASK = 0
#: Task label of target rows.
TARGET_TASK = 1


def _resolve_source_kwargs(
    X_source, y_source, sources
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize the two ways of passing source data to one pair.

    The forms are ``X_source``/``y_source`` arrays or the ``sources``
    list of ``(X_k, y_k)`` pairs (shared with the multi-source model;
    pairs are stacked into a single source task).

    Raises:
        ValueError: When both forms are used at once, or a pair is
            half-specified.
    """
    if sources is not None:
        if X_source is not None or y_source is not None:
            raise ValueError(
                "pass either X_source/y_source or sources, not both"
            )
        pairs = [
            (np.atleast_2d(np.asarray(X, dtype=float)),
             np.asarray(y, dtype=float).ravel())
            for X, y in sources
        ]
        pairs = [(X, y) for X, y in pairs if X.size]
        if pairs:
            X_source = np.vstack([X for X, _ in pairs])
            y_source = np.concatenate([y for _, y in pairs])
        else:
            X_source, y_source = np.empty((0, 0)), np.empty(0)
    if (X_source is None) != (y_source is None):
        raise ValueError("X_source and y_source must be passed together")
    if X_source is None:
        X_source, y_source = np.empty((0, 0)), np.empty(0)
    return X_source, y_source


class TransferGP(IncrementalGPMixin):
    """Two-task transfer GP regressor.

    Example:
        >>> model = TransferGP()
        >>> model.fit(Xs, ys, Xt, yt)          # doctest: +SKIP
        >>> mean, var = model.predict(X_new)   # doctest: +SKIP
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        a: float = 1.0,
        b: float = 1.0,
        noise_source: float = 1e-2,
        noise_target: float = 1e-2,
        optimize: bool = True,
        n_restarts: int = 2,
        seed: int | None = 0,
    ) -> None:
        """Create the model.

        Args:
            kernel: Base within-task kernel (ARD RBF by default, sized at
                fit time).
            a: Initial Gamma scale of the transfer prior.
            b: Initial Gamma shape of the transfer prior.
            noise_source: Initial source-noise variance (``beta_s^-1``).
            noise_target: Initial target-noise variance (``beta_t^-1``).
            optimize: Whether :meth:`fit` tunes hyperparameters.
            n_restarts: Optimizer restarts.
            seed: Seed for restarts.
        """
        if noise_source <= 0 or noise_target <= 0:
            raise ValueError("noise variances must be positive")
        self._base_kernel = kernel
        self._init_a = a
        self._init_b = b
        self.transfer_kernel: TransferKernel | None = None
        self._log_noise_s = float(np.log(noise_source))
        self._log_noise_t = float(np.log(noise_target))
        self.optimize = optimize
        self.n_restarts = n_restarts
        self.seed = seed
        self._X: np.ndarray | None = None
        self._tasks: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._L: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._opt_theta: np.ndarray | None = None

    @property
    def noise_source(self) -> float:
        """Source observation-noise variance (standardized scale)."""
        return float(np.exp(self._log_noise_s))

    @property
    def noise_target(self) -> float:
        """Target observation-noise variance (standardized scale)."""
        return float(np.exp(self._log_noise_t))

    @property
    def lam(self) -> float:
        """Learned cross-task correlation factor ``lambda``."""
        if self.transfer_kernel is None:
            raise RuntimeError("model not fitted")
        return self.transfer_kernel.lam

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._alpha is not None

    def fit(
        self,
        X_source: np.ndarray | None = None,
        y_source: np.ndarray | None = None,
        X_target: np.ndarray | None = None,
        y_target: np.ndarray | None = None,
        *,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> "TransferGP":
        """Fit the joint model on stacked source + target data.

        Source data may be supplied either as explicit
        ``X_source``/``y_source`` arrays or — the keyword shared with
        :class:`~repro.gp.multisource.MultiSourceTransferGP` — as
        ``sources``, a list of ``(X_k, y_k)`` pairs (stacked into one
        source task here; empty list means no transfer).

        Args:
            X_source: ``(N, d)`` source inputs (may be empty).
            y_source: Length-``N`` source targets.
            X_target: ``(M, d)`` target inputs (``M >= 1``).
            y_target: Length-``M`` target targets.
            sources: ``(X_k, y_k)`` source archives; mutually exclusive
                with ``X_source``/``y_source``.

        Returns:
            ``self``.

        Raises:
            ValueError: On shape mismatch, empty target data, NaN/inf
                values, or conflicting source arguments.
        """
        X_source, y_source = _resolve_source_kwargs(
            X_source, y_source, sources
        )
        if X_target is None or y_target is None:
            raise ValueError("X_target and y_target are required")
        Xs = np.atleast_2d(np.asarray(X_source, dtype=float))
        Xt = np.atleast_2d(np.asarray(X_target, dtype=float))
        ys = np.asarray(y_source, dtype=float).ravel()
        yt = np.asarray(y_target, dtype=float).ravel()
        if Xs.size == 0:
            Xs = np.empty((0, Xt.shape[1]))
        if len(Xs) != len(ys) or len(Xt) != len(yt):
            raise ValueError("X/y misaligned")
        if len(yt) == 0:
            raise ValueError("need at least one target observation")
        if Xs.size and Xs.shape[1] != Xt.shape[1]:
            raise ValueError("source/target dimensionality mismatch")
        for name, values in (
            ("X_source", Xs), ("y_source", ys),
            ("X_target", Xt), ("y_target", yt),
        ):
            require_finite(name, values)

        X = np.vstack([Xs, Xt])
        y = np.concatenate([ys, yt])
        tasks = np.concatenate([
            np.full(len(ys), SOURCE_TASK, dtype=int),
            np.full(len(yt), TARGET_TASK, dtype=int),
        ])

        if self._base_kernel is None:
            self._base_kernel = RBFKernel(np.full(X.shape[1], 0.3))
        if self.transfer_kernel is None:
            self.transfer_kernel = TransferKernel(
                self._base_kernel, self._init_a, self._init_b
            )

        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std

        if self.optimize and len(X) >= 3:
            self._optimize_hyperparameters(X, tasks, z)

        K = self.transfer_kernel.eval(X, tasks) + self._noise_diag(tasks)
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
        assert self.transfer_kernel is not None
        assert self._X is not None and self._tasks is not None
        X_query = np.atleast_2d(X_query)
        q_tasks = np.full(len(X_query), TARGET_TASK, dtype=int)
        X2 = self._X if rows is None else self._X[rows]
        tasks2 = self._tasks if rows is None else self._tasks[rows]
        return self.transfer_kernel.eval(X_query, q_tasks, X2, tasks2)

    def _cov_new_block(self, X_new: np.ndarray) -> np.ndarray:
        assert self.transfer_kernel is not None
        # New rows are all target-task: the transfer factor is 1, so the
        # within-task base kernel plus the target noise applies.
        return self.transfer_kernel.base.eval(
            X_new
        ) + self.noise_target * np.eye(len(X_new))

    def _cov_full(self) -> np.ndarray:
        assert self.transfer_kernel is not None
        assert self._X is not None and self._tasks is not None
        return self.transfer_kernel.eval(
            self._X, self._tasks
        ) + self._noise_diag(self._tasks)

    def _prior_diag(self, X_query: np.ndarray) -> np.ndarray:
        assert self.transfer_kernel is not None
        return self.transfer_kernel.base.diag(np.atleast_2d(X_query))

    def _predict_noise(self) -> float:
        return self.noise_target

    def _append_data(self, X_new: np.ndarray, y_new: np.ndarray) -> None:
        assert self._X is not None and self._tasks is not None
        assert self._y_raw is not None
        self._X = np.vstack([self._X, X_new])
        self._tasks = np.concatenate([
            self._tasks, np.full(len(y_new), TARGET_TASK, dtype=int)
        ])
        self._y_raw = np.concatenate([self._y_raw, y_new])

    def _noise_diag(self, tasks: np.ndarray) -> np.ndarray:
        noise = np.where(
            tasks == SOURCE_TASK, self.noise_source, self.noise_target
        )
        return np.diag(noise)

    def _optimize_hyperparameters(
        self, X: np.ndarray, tasks: np.ndarray, z: np.ndarray
    ) -> None:
        tk = self.transfer_kernel
        assert tk is not None
        src = tasks == SOURCE_TASK
        has_source = bool(src.any())

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            tk.theta = theta[:-2]
            noise_s = float(np.exp(theta[-2]))
            noise_t = float(np.exp(theta[-1]))
            K, grad = tk.eval_and_grad(X, tasks)
            K = K + np.diag(np.where(src, noise_s, noise_t))
            lml, W, _ = gaussian_log_marginal(K, z)
            W_diag = np.diag(W)
            g = np.append(grad(W), [
                noise_s * W_diag[src].sum(), noise_t * W_diag[~src].sum(),
            ])
            return -lml, -g

        # Warm-start mid-loop refits from the previously *optimized*
        # hyperparameters rather than whatever the live kernel currently
        # holds — objective evaluations mutate ``tk.theta`` in place, so
        # after an aborted or externally perturbed optimization the live
        # value is not the default init the refit should resume from.
        theta0 = np.concatenate(
            [tk.theta, [self._log_noise_s, self._log_noise_t]]
        )
        if (
            self._opt_theta is not None
            and len(self._opt_theta) == len(theta0)
        ):
            theta0 = self._opt_theta
        bounds = tk.bounds() + [_NOISE_BOUNDS, _NOISE_BOUNDS]
        if not has_source:
            # Without source rows the transfer/source-noise parameters are
            # unidentifiable; pin them to their current values.
            idx_a = len(tk.bounds()) - 2
            for i in (idx_a, idx_a + 1, len(theta0) - 2):
                bounds[i] = (theta0[i], theta0[i])
        best = maximize_objective(
            objective, theta0, bounds,
            n_restarts=self.n_restarts, seed=self.seed,
        )
        tk.theta = best[:-2]
        self._log_noise_s = float(best[-2])
        self._log_noise_t = float(best[-1])
        self._opt_theta = np.asarray(best, dtype=float).copy()

    def predict(
        self, X_new: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predict at target-task inputs (paper Eq. (8)).

        Args:
            X_new: ``(m, d)`` target-task query inputs.
            include_noise: Add ``beta_t^-1`` to the variance (the ``c``
                term of Eq. (8) includes it; default off for the tuner's
                epistemic-uncertainty regions).

        Returns:
            ``(mean, variance)`` in the original target scale.

        Raises:
            RuntimeError: If called before :meth:`fit`.
        """
        if not self.is_fitted:
            raise RuntimeError("predict() before fit()")
        assert self._X is not None and self._tasks is not None
        assert self._L is not None and self._alpha is not None
        assert self.transfer_kernel is not None
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        new_tasks = np.full(len(X_new), TARGET_TASK, dtype=int)
        K_star = self.transfer_kernel.eval(
            X_new, new_tasks, self._X, self._tasks
        )
        mean_z = K_star @ self._alpha
        v = np.linalg.solve(self._L, K_star.T)
        prior_diag = self.transfer_kernel.base.diag(X_new)
        var_z = prior_diag - np.sum(v * v, axis=0)
        var_z = np.maximum(var_z, 1e-12)
        if include_noise:
            var_z = var_z + self.noise_target
        mean = mean_z * self._y_std + self._y_mean
        var = var_z * self._y_std**2
        return mean, var

    def log_marginal_likelihood(self) -> float:
        """Joint LML of the fitted model."""
        if not self.is_fitted:
            raise RuntimeError("log_marginal_likelihood() before fit()")
        assert self._L is not None and self._alpha is not None
        L, alpha = self._L, self._alpha
        z = L @ (L.T @ alpha)
        return float(
            -0.5 * z @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * len(z) * np.log(2 * np.pi)
        )
