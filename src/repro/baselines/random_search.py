"""Random-search tuner (sanity-floor baseline, not in the paper's tables)."""

from __future__ import annotations

import numpy as np

from ..core.result import TuningResult
from ..core.session import validate_init_indices
from .base import Oracle, PoolTuner


class RandomSearchTuner(PoolTuner):
    """Evaluate a uniform random subset of the pool."""

    name = "Random"

    def __init__(self, budget: int = 70, seed: int = 0) -> None:
        """Create the tuner.

        Args:
            budget: Tool runs to spend.
            seed: RNG seed.
        """
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self.seed = seed

    def _tune(
        self,
        X_pool: np.ndarray,
        oracle: Oracle,
        sources: list[tuple[np.ndarray, np.ndarray]],
        init_indices: np.ndarray | None,
    ) -> TuningResult:
        """Evaluate ``budget`` random candidates (sources are ignored)."""
        rng = np.random.default_rng(self.seed)
        n = len(np.atleast_2d(X_pool))
        k = min(self.budget, n)
        if init_indices is not None:
            init = validate_init_indices(init_indices, n)
            rest = np.setdiff1d(np.arange(n), init)
            extra = rng.choice(
                rest, size=max(k - len(init), 0), replace=False
            )
            chosen = np.concatenate([init, extra])[:k]
        else:
            chosen = rng.choice(n, size=k, replace=False)
        Y = np.vstack([oracle.evaluate(int(i)) for i in chosen])
        return self._result_from_evaluated(oracle, chosen, Y, 1, "budget")
