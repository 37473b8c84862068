"""Stationary covariance kernels with ARD lengthscales and analytic
hyperparameter gradients.

Hyperparameters live in log space (positivity for free, better-conditioned
optimization).  Every kernel exposes:

- ``theta`` — the log-hyperparameter vector (settable);
- ``eval(X1, X2)`` — cross-covariance matrix;
- ``eval_and_grad(X)`` — symmetric covariance ``K`` plus a function
  that maps a weight matrix ``W`` to the vector of ``<W, dK/dtheta_i>``.
  With the ``W`` of :func:`~repro.gp.likelihood.gaussian_log_marginal`
  that vector is the marginal-likelihood gradient, computed without
  materializing any ``dK/dtheta_i``.

Scaled squared distances come from ``cdist(..., "sqeuclidean")``, which
never forms the ``(n1, n2, d)`` difference tensor.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable

import numpy as np
from scipy.spatial.distance import cdist

#: Default log-space box constraints for lengthscales and variances.
_LOG_BOUNDS = (-6.0, 6.0)

#: Maps a weight matrix ``W`` to ``<W, dK/dtheta_i>`` for every ``i``.
GradFn = Callable[[np.ndarray], np.ndarray]


def _sq_diff_contraction(M: np.ndarray, S: np.ndarray) -> np.ndarray:
    """``sum_ab M_ab (S_aj - S_bj)^2`` for every column ``j`` at once.

    Expands the square into ``(S∘S)^T (M 1 + M^T 1) - 2 * 1^T (S∘(M S))``:
    one ``(n, n) @ (n, d)`` product instead of an ``(n, n, d)`` tensor.
    Differences are shift-invariant per column, so ``S`` is centred
    first; that keeps the expansion's cancellation small.
    """
    S = S - S.mean(axis=0)
    row = M.sum(axis=1) + M.sum(axis=0)
    return (S * S).T @ row - 2.0 * np.sum(S * (M @ S), axis=0)


class Kernel(ABC):
    """Abstract stationary kernel over R^d."""

    @property
    @abstractmethod
    def theta(self) -> np.ndarray:
        """Log-space hyperparameter vector (copy)."""

    @theta.setter
    @abstractmethod
    def theta(self, value: np.ndarray) -> None:
        """Set the log-space hyperparameters."""

    @property
    def n_params(self) -> int:
        """Number of hyperparameters."""
        return len(self.theta)

    @abstractmethod
    def bounds(self) -> list[tuple[float, float]]:
        """Per-hyperparameter log-space optimization bounds."""

    @abstractmethod
    def eval(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        """Covariance matrix between ``X1`` and ``X2`` (or ``X1`` itself)."""

    @abstractmethod
    def eval_and_grad(self, X: np.ndarray) -> tuple[np.ndarray, GradFn]:
        """Symmetric covariance of ``X`` and its gradient contraction.

        Returns:
            ``(K, grad)`` where ``grad(W)`` is the length-``n_params``
            vector of ``<W, dK/dtheta_i>``.  ``grad`` reads ``K``, so
            callers must not modify ``K`` in place.
        """

    def diag(self, X: np.ndarray) -> np.ndarray:
        """Diagonal of ``eval(X, X)`` without forming the matrix."""
        return np.full(len(X), float(self.variance))

    @property
    @abstractmethod
    def variance(self) -> float:
        """Signal variance (the kernel's value at zero distance)."""

    def clone(self) -> "Kernel":
        """Deep copy (same class and hyperparameters)."""
        new = self.__class__.__new__(self.__class__)
        new.__dict__.update(
            {k: np.copy(v) if isinstance(v, np.ndarray) else v
             for k, v in self.__dict__.items()}
        )
        return new


class _ArdKernel(Kernel):
    """Shared machinery for ARD kernels: theta = [log ls_1..d, log var].

    Subclasses give the covariance as a function of the scaled squared
    distance ``r2``: :meth:`_profile` returns ``k(r2)`` and
    :meth:`_profile_and_slope` also returns ``-2 dk/d(r2)``, the factor
    that turns ``(S_aj - S_bj)^2`` into ``dK_ab/d(log ls_j)``, where
    ``S = X / ls``.
    """

    def __init__(
        self, lengthscales: np.ndarray | list[float], variance: float = 1.0
    ) -> None:
        """Create the kernel.

        Args:
            lengthscales: Per-dimension positive lengthscales.
            variance: Positive signal variance.
        """
        ls = np.asarray(lengthscales, dtype=float).ravel()
        if np.any(ls <= 0) or variance <= 0:
            raise ValueError("lengthscales and variance must be positive")
        self._log_ls = np.log(ls)
        self._log_var = float(np.log(variance))

    @property
    def lengthscales(self) -> np.ndarray:
        """Per-dimension lengthscales (natural space)."""
        return np.exp(self._log_ls)

    @property
    def variance(self) -> float:
        return float(np.exp(self._log_var))

    @property
    def dim(self) -> int:
        """Input dimensionality."""
        return len(self._log_ls)

    @property
    def theta(self) -> np.ndarray:
        return np.append(self._log_ls, self._log_var)

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float).ravel()
        if len(value) != len(self._log_ls) + 1:
            raise ValueError(
                f"expected {len(self._log_ls) + 1} params, got {len(value)}"
            )
        self._log_ls = value[:-1].copy()
        self._log_var = float(value[-1])

    def bounds(self) -> list[tuple[float, float]]:
        return [_LOG_BOUNDS] * (self.dim + 1)

    @abstractmethod
    def _profile(self, r2: np.ndarray) -> np.ndarray:
        """Covariance at scaled squared distances ``r2`` (which it may
        overwrite)."""

    @abstractmethod
    def _profile_and_slope(
        self, r2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Covariance and ``-2 dk/d(r2)`` at ``r2``."""

    def eval(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        ls = self.lengthscales
        S1 = np.atleast_2d(X1) / ls
        S2 = S1 if X2 is None else np.atleast_2d(X2) / ls
        return self._profile(cdist(S1, S2, "sqeuclidean"))

    def eval_and_grad(self, X: np.ndarray) -> tuple[np.ndarray, GradFn]:
        S = np.atleast_2d(X) / self.lengthscales
        K, slope = self._profile_and_slope(cdist(S, S, "sqeuclidean"))

        def grad(W: np.ndarray) -> np.ndarray:
            # d(r2_ab)/d(log ls_j) = -2 (S_aj - S_bj)^2; dK/d(log var) = K,
            # which is the slope itself for the RBF.
            M = W * slope
            return np.append(
                _sq_diff_contraction(M, S),
                np.sum(M) if slope is K else np.sum(W * K),
            )

        return K, grad


class RBFKernel(_ArdKernel):
    """Squared-exponential kernel with ARD lengthscales.

    ``k(x, x') = variance * exp(-0.5 * sum_j ((x_j - x'_j) / ls_j)^2)``
    """

    def _profile(self, r2: np.ndarray) -> np.ndarray:
        # In place: r2 is always a fresh cdist output.
        r2 *= -0.5
        np.exp(r2, out=r2)
        r2 *= self.variance
        return r2

    def _profile_and_slope(
        self, r2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        K = self._profile(r2)
        return K, K  # dk/d(r2) = -k/2


class Matern52Kernel(_ArdKernel):
    """Matérn-5/2 kernel with ARD lengthscales.

    ``k = variance * (1 + sqrt(5) r + 5/3 r^2) * exp(-sqrt(5) r)`` where
    ``r`` is the ARD-scaled Euclidean distance.
    """

    def _profile(self, r2: np.ndarray) -> np.ndarray:
        s5r = np.sqrt(5.0) * np.sqrt(r2)
        return self.variance * (1.0 + s5r + 5.0 / 3.0 * r2) * np.exp(-s5r)

    def _profile_and_slope(
        self, r2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        s5r = np.sqrt(5.0) * np.sqrt(r2)
        expo = np.exp(-s5r)
        K = self.variance * (1.0 + s5r + 5.0 / 3.0 * r2) * expo
        # dk/d(r^2) = -(5/6) * variance * (1 + sqrt(5) r) * exp(-sqrt5 r)
        return K, (5.0 / 3.0) * self.variance * (1.0 + s5r) * expo


def make_kernel(
    name: str, dim: int, lengthscale: float = 1.0, variance: float = 1.0
) -> Kernel:
    """Kernel factory by name (``"rbf"`` or ``"matern52"``).

    Args:
        name: Kernel family.
        dim: Input dimensionality (one ARD lengthscale per dim).
        lengthscale: Initial lengthscale for every dimension.
        variance: Initial signal variance.

    Raises:
        ValueError: For an unknown kernel name.
    """
    families = {"rbf": RBFKernel, "matern52": Matern52Kernel}
    if name not in families:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(families)}"
        )
    return families[name](np.full(dim, lengthscale), variance)
