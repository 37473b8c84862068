"""Standard (single-task) Gaussian-process regression.

Implements paper Eq. (1): posterior mean and variance under a Gaussian
noise model, with hyperparameters fitted by maximizing the log marginal
likelihood.  Targets are standardized internally, inputs are expected
pre-normalized (the tuners normalize to the unit cube).
"""

from __future__ import annotations

import numpy as np

from .incremental import IncrementalGPMixin
from .kernels import Kernel, RBFKernel
from .likelihood import gaussian_log_marginal, maximize_objective
from .linalg import cholesky_solve, require_finite, robust_cholesky

#: Log-space bounds for the observation-noise variance.
_NOISE_BOUNDS = (-12.0, 2.0)


class GPRegressor(IncrementalGPMixin):
    """Exact GP regression with marginal-likelihood hyperparameter fit.

    Example:
        >>> X = np.random.rand(20, 3); y = X.sum(axis=1)
        >>> gp = GPRegressor(RBFKernel(np.ones(3))).fit(X, y)
        >>> mean, var = gp.predict(X[:5])
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise_variance: float = 1e-2,
        optimize: bool = True,
        n_restarts: int = 2,
        seed: int | None = 0,
    ) -> None:
        """Create the regressor.

        Args:
            kernel: Covariance kernel; defaults to an ARD RBF sized at
                fit time.
            noise_variance: Initial observation-noise variance (in the
                standardized-target scale).
            optimize: Whether :meth:`fit` tunes hyperparameters.
            n_restarts: Optimizer restarts.
            seed: Seed for the restarts.
        """
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        self.kernel = kernel
        self._log_noise = float(np.log(noise_variance))
        self.optimize = optimize
        self.n_restarts = n_restarts
        self.seed = seed
        self._X: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._L: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._opt_theta: np.ndarray | None = None

    @property
    def noise_variance(self) -> float:
        """Observation-noise variance (standardized scale)."""
        return float(np.exp(self._log_noise))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GPRegressor":
        """Fit hyperparameters (optionally) and the posterior state.

        Args:
            X: ``(n, d)`` inputs.
            y: Length-``n`` targets.

        Returns:
            ``self``.

        Raises:
            ValueError: On shape mismatch, empty data, or NaN/inf.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y) or len(y) == 0:
            raise ValueError("X and y must be non-empty and aligned")
        require_finite("X", X)
        require_finite("y", y)
        if self.kernel is None:
            self.kernel = RBFKernel(np.full(X.shape[1], 0.3))

        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std

        if self.optimize and len(X) >= 3:
            self._optimize_hyperparameters(X, z)

        K = self.kernel.eval(X) + self.noise_variance * np.eye(len(X))
        self._L, self._jitter = robust_cholesky(K)
        self._alpha = cholesky_solve(self._L, z)
        self._X = X
        self._y_raw = y.copy()
        self._invalidate_pool_cache()
        return self

    # ---- incremental hooks (see IncrementalGPMixin) -------------------

    def _cross_cov(
        self, X_query: np.ndarray, rows: slice | None = None
    ) -> np.ndarray:
        assert self.kernel is not None and self._X is not None
        X2 = self._X if rows is None else self._X[rows]
        return self.kernel.eval(np.atleast_2d(X_query), X2)

    def _cov_new_block(self, X_new: np.ndarray) -> np.ndarray:
        assert self.kernel is not None
        return self.kernel.eval(X_new) + self.noise_variance * np.eye(
            len(X_new)
        )

    def _cov_full(self) -> np.ndarray:
        assert self.kernel is not None and self._X is not None
        return self.kernel.eval(self._X) + self.noise_variance * np.eye(
            len(self._X)
        )

    def _prior_diag(self, X_query: np.ndarray) -> np.ndarray:
        assert self.kernel is not None
        return self.kernel.diag(X_query)

    def _predict_noise(self) -> float:
        return self.noise_variance

    def _append_data(self, X_new: np.ndarray, y_new: np.ndarray) -> None:
        assert self._X is not None and self._y_raw is not None
        self._X = np.vstack([self._X, X_new])
        self._y_raw = np.concatenate([self._y_raw, y_new])

    def _optimize_hyperparameters(self, X: np.ndarray, z: np.ndarray) -> None:
        kernel = self.kernel
        assert kernel is not None
        n = len(X)

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            kernel.theta = theta[:-1]
            noise = float(np.exp(theta[-1]))
            K, grad = kernel.eval_and_grad(X)
            # A new array: ``grad`` reads the noise-free K.
            K = K + noise * np.eye(n)
            lml, W, _ = gaussian_log_marginal(K, z)
            g = np.append(grad(W), noise * np.trace(W))  # d/dlog noise
            return -lml, -g

        # Warm-start refits from the previously found optimum; the live
        # kernel theta may have been perturbed between fits (objective
        # evaluations mutate it in place).
        theta0 = np.append(kernel.theta, self._log_noise)
        if (
            self._opt_theta is not None
            and len(self._opt_theta) == len(theta0)
        ):
            theta0 = self._opt_theta
        bounds = kernel.bounds() + [_NOISE_BOUNDS]
        best = maximize_objective(
            objective, theta0, bounds,
            n_restarts=self.n_restarts, seed=self.seed,
        )
        kernel.theta = best[:-1]
        self._log_noise = float(best[-1])
        self._opt_theta = np.asarray(best, dtype=float).copy()

    def log_marginal_likelihood(self) -> float:
        """LML of the fitted model on its training data."""
        if not self.is_fitted:
            raise RuntimeError("log_marginal_likelihood() before fit()")
        assert self._L is not None and self._alpha is not None
        z_alpha = self._alpha
        L = self._L
        n = len(z_alpha)
        # Recover z from alpha: z = K alpha = L L^T alpha.
        z = L @ (L.T @ z_alpha)
        return float(
            -0.5 * z @ z_alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * n * np.log(2 * np.pi)
        )
