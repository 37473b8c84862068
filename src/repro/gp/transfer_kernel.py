"""The transfer kernel of paper Section 3.1 (Eq. (5)-(7)).

Cross-task covariance is the base kernel damped by a task-similarity
factor.  The paper places a Gamma(b, a) prior on the task dissimilarity
``phi`` in ``2 exp(-phi) - 1`` and integrates it out analytically, giving

    lambda = 2 * (1 / (1 + a)) ** b - 1            (Eq. (7))

so ``K~[n, m] = k(x_n, x_m) * lambda`` when ``x_n`` and ``x_m`` come from
different tasks and ``k(x_n, x_m)`` otherwise.  ``lambda`` lives in
``(-1, 1]``: positive transfer, no transfer (0), or *negative* correlation
between tasks — the "stronger expression ability" the paper highlights.
"""

from __future__ import annotations

import numpy as np

from .kernels import GradFn, Kernel

#: Log-space bounds for the Gamma hyperparameters a and b.
_GAMMA_BOUNDS = (-5.0, 4.0)


def transfer_factor(a: float, b: float) -> float:
    """The integrated cross-task damping ``lambda`` of Eq. (7).

    Args:
        a: Gamma scale parameter (> 0).
        b: Gamma shape parameter (> 0).

    Returns:
        ``2 * (1 + a) ** -b - 1`` in ``(-1, 1]``.

    Raises:
        ValueError: If ``a`` or ``b`` is not positive.
    """
    if a <= 0 or b <= 0:
        raise ValueError("Gamma parameters a, b must be positive")
    return float(2.0 * (1.0 + a) ** (-b) - 1.0)


class TransferKernel:
    """Base kernel wrapped with the Eq. (7) cross-task factor.

    Hyperparameters: the base kernel's theta followed by
    ``[log a, log b]``.

    Attributes:
        base: The within-task kernel ``k``.
    """

    def __init__(
        self, base: Kernel, a: float = 1.0, b: float = 1.0
    ) -> None:
        """Create the transfer kernel.

        Args:
            base: Within-task kernel.
            a: Initial Gamma scale (> 0).
            b: Initial Gamma shape (> 0).
        """
        if a <= 0 or b <= 0:
            raise ValueError("Gamma parameters a, b must be positive")
        self.base = base
        self._log_a = float(np.log(a))
        self._log_b = float(np.log(b))

    @property
    def a(self) -> float:
        """Gamma scale parameter."""
        return float(np.exp(self._log_a))

    @property
    def b(self) -> float:
        """Gamma shape parameter."""
        return float(np.exp(self._log_b))

    @property
    def lam(self) -> float:
        """Current cross-task factor ``lambda``."""
        return transfer_factor(self.a, self.b)

    @property
    def theta(self) -> np.ndarray:
        """Log hyperparameters: base theta + [log a, log b]."""
        return np.concatenate(
            [self.base.theta, [self._log_a, self._log_b]]
        )

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float).ravel()
        if len(value) != self.base.n_params + 2:
            raise ValueError(
                f"expected {self.base.n_params + 2} params, "
                f"got {len(value)}"
            )
        self.base.theta = value[:-2]
        self._log_a = float(value[-2])
        self._log_b = float(value[-1])

    def bounds(self) -> list[tuple[float, float]]:
        """Optimization bounds: base bounds + Gamma bounds."""
        return self.base.bounds() + [_GAMMA_BOUNDS, _GAMMA_BOUNDS]

    def _cross_mask(
        self, tasks1: np.ndarray, tasks2: np.ndarray
    ) -> np.ndarray:
        """1.0 where the pair is cross-task, 0.0 within-task."""
        return (
            np.asarray(tasks1).reshape(-1, 1)
            != np.asarray(tasks2).reshape(1, -1)
        ).astype(float)

    def eval(
        self,
        X1: np.ndarray,
        tasks1: np.ndarray,
        X2: np.ndarray | None = None,
        tasks2: np.ndarray | None = None,
    ) -> np.ndarray:
        """Transfer covariance between task-labelled inputs.

        Args:
            X1: ``(n1, d)`` inputs.
            tasks1: Length-``n1`` integer task labels.
            X2: ``(n2, d)`` inputs (defaults to ``X1``).
            tasks2: Labels for ``X2`` (defaults to ``tasks1``).

        Returns:
            The ``(n1, n2)`` covariance ``K~`` of Eq. (7).
        """
        if X2 is None:
            X2, tasks2 = X1, tasks1
        assert tasks2 is not None
        K = self.base.eval(X1, X2)
        cross = self._cross_mask(tasks1, tasks2)
        factor = 1.0 + cross * (self.lam - 1.0)
        return K * factor

    def eval_and_grad(
        self, X: np.ndarray, tasks: np.ndarray
    ) -> tuple[np.ndarray, GradFn]:
        """Symmetric transfer covariance and its gradient contraction.

        Returns:
            ``(K~, grad)`` where ``grad(W)`` is the vector of
            ``<W, dK~/dtheta_i>`` over :attr:`theta`.  The base kernel
            sees ``W`` damped by the same factor as ``K~``; ``a`` and
            ``b`` share one masked sum over the cross-task pairs.
        """
        K_base, base_grad = self.base.eval_and_grad(X)
        cross = self._cross_mask(tasks, tasks)
        factor = 1.0 + cross * (self.lam - 1.0)
        K = K_base * factor
        a, b = self.a, self.b
        dlam = np.array([
            # d lambda / d log a = -2 b a (1+a)^(-b-1)
            -2.0 * b * a * (1.0 + a) ** (-b - 1.0),
            # d lambda / d log b = -2 b log(1+a) (1+a)^(-b)
            -2.0 * b * np.log1p(a) * (1.0 + a) ** (-b),
        ])

        def grad(W: np.ndarray) -> np.ndarray:
            cross_sum = np.sum(W * K_base * cross)
            return np.concatenate([base_grad(W * factor), cross_sum * dlam])

        return K, grad
