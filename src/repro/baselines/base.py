"""Common interface for the reimplemented baseline tuners.

All prior-art methods (TCAD'19, MLCAD'19, DAC'19, ASPDAC'20) are
pool-based single-task tuners: they consume an evaluation budget over the
target pool and report the non-dominated subset of what they evaluated.
Most of them ignore source-task data — that contrast is the paper's point
— but the interface accepts it so the experiment runner can call every
tuner uniformly.

Transfer data arrives through the unified ``sources=[(X, y), ...]``
keyword (the same shape
:meth:`repro.gp.MultiSourceTransferGP.fit` takes).
Subclasses implement :meth:`PoolTuner._tune`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core.oracle import Oracle
from ..core.result import TuningResult
from ..core.session import validate_init_indices
from ..pareto.dominance import pareto_indices


class PoolTuner(ABC):
    """Abstract pool-based tuner (satisfies the
    :class:`~repro.core.Tuner` protocol)."""

    #: Human-readable method name (used in reports).
    name: str = "base"

    def tune(
        self,
        X_pool: np.ndarray,
        oracle: Oracle,
        *,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
        init_indices: np.ndarray | None = None,
    ) -> TuningResult:
        """Run the tuner over the candidate pool.

        Args:
            X_pool: ``(n, d)`` raw candidate features.
            oracle: Evaluation oracle aligned with the pool.
            sources: Historical tasks as ``(X_k, Y_k)`` pairs (ignored
                by non-transfer methods).
            init_indices: Optional fixed initial evaluations.

        Returns:
            A :class:`TuningResult`.

        Raises:
            ValueError: If ``init_indices`` fail
                :func:`~repro.core.validate_init_indices`.
        """
        return self._tune(
            X_pool, oracle, list(sources) if sources else [], init_indices
        )

    @abstractmethod
    def _tune(
        self,
        X_pool: np.ndarray,
        oracle: Oracle,
        sources: list[tuple[np.ndarray, np.ndarray]],
        init_indices: np.ndarray | None,
    ) -> TuningResult:
        """Method-specific loop; ``sources`` is already normalized."""

    @staticmethod
    def _stack_sources(
        sources: list[tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Stack all archives into one ``(X, Y)`` pair (single-archive
        consumers); ``(None, None)`` when there is no source data."""
        pairs = [
            (np.atleast_2d(np.asarray(X, float)),
             np.atleast_2d(np.asarray(Y, float)))
            for X, Y in sources
        ]
        pairs = [(X, Y) for X, Y in pairs if len(X)]
        if not pairs:
            return None, None
        return (
            np.vstack([X for X, _ in pairs]),
            np.vstack([Y for _, Y in pairs]),
        )

    @staticmethod
    def _normalize(X: np.ndarray) -> np.ndarray:
        """Min-max normalize features to the unit cube (degenerate
        columns map to 0.5)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        lo, hi = X.min(axis=0), X.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        out = (X - lo) / span
        return np.where(hi > lo, out, 0.5)

    @staticmethod
    def _result_from_evaluated(
        oracle: Oracle,
        evaluated: np.ndarray,
        y_evaluated: np.ndarray,
        n_iterations: int,
        stop_reason: str,
    ) -> TuningResult:
        """Standard baseline epilogue: non-dominated evaluated points."""
        evaluated = np.asarray(evaluated, dtype=int)
        nd_rows = pareto_indices(y_evaluated)
        return TuningResult(
            pareto_indices=evaluated[nd_rows],
            pareto_points=y_evaluated[nd_rows],
            n_evaluations=oracle.n_evaluations,
            n_iterations=n_iterations,
            evaluated_indices=evaluated,
            stop_reason=stop_reason,
        )

    @staticmethod
    def _initial_indices(
        n_pool: int,
        init_indices: np.ndarray | None,
        n_init: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Resolve the initial design (explicit, validated, or random)."""
        if init_indices is not None:
            return validate_init_indices(init_indices, n_pool)
        n_init = min(max(n_init, 2), n_pool)
        return rng.choice(n_pool, size=n_init, replace=False)
