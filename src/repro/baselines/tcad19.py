"""TCAD'19 baseline: Pareto-driven active learning.

Ma, Roy, Miao, Chen, Yu, "Cross-layer optimization for high speed adders:
a Pareto driven machine learning approach" (IEEE TCAD 2019).  An active-
learning loop: fit per-objective surrogates on the labelled set, predict
the pool, and iteratively query the points the models consider closest to
the predicted Pareto front, preferring high model disagreement
(uncertainty) among them.  Runs until its own convergence test (the
predicted front stops changing) or the budget is hit — which is why its
run counts float above the fixed-budget methods in the paper's tables.
"""

from __future__ import annotations

import numpy as np

from ..core.result import TuningResult
from ..gp.kernels import make_kernel
from ..gp.multisource import MultiSourceTransferGP
from ..pareto.dominance import non_dominated_mask
from .base import Oracle, PoolTuner


class Tcad19ActiveLearner(PoolTuner):
    """Pareto-driven active learning with GP surrogates."""

    name = "TCAD'19"

    def __init__(
        self,
        budget: int = 92,
        n_init: int = 10,
        batch_size: int = 1,
        patience: int = 8,
        kernel: str = "rbf",
        refit_every: int = 5,
        seed: int = 0,
    ) -> None:
        """Create the tuner.

        Args:
            budget: Maximum tool runs.
            n_init: Random initial evaluations.
            batch_size: Queries per active-learning round.
            patience: Stop after this many rounds without a change in the
                predicted Pareto membership.
            kernel: GP kernel family.
            refit_every: Hyperparameter refit period.
            seed: RNG seed.
        """
        if budget < 2:
            raise ValueError("budget must be >= 2")
        self.budget = budget
        self.n_init = n_init
        self.batch_size = batch_size
        self.patience = patience
        self.kernel = kernel
        self.refit_every = refit_every
        self.seed = seed

    def _tune(
        self,
        X_pool: np.ndarray,
        oracle: Oracle,
        sources: list[tuple[np.ndarray, np.ndarray]],
        init_indices: np.ndarray | None,
    ) -> TuningResult:
        """Run active learning until convergence or budget (sources are
        ignored — single-task method)."""
        rng = np.random.default_rng(self.seed)
        Xn = self._normalize(X_pool)
        n = len(Xn)
        m = oracle.n_objectives

        init = self._initial_indices(n, init_indices, self.n_init, rng)
        evaluated = list(int(i) for i in init)
        Y = np.vstack([oracle.evaluate(i) for i in evaluated])

        models = [
            MultiSourceTransferGP(
                kernel=make_kernel(self.kernel, Xn.shape[1], 0.3),
                n_restarts=2,
                seed=self.seed + j,
            )
            for j in range(m)
        ]

        prev_front: frozenset[int] = frozenset()
        stable_rounds = 0
        iteration = 0
        stop_reason = "budget"
        while oracle.n_evaluations < min(self.budget, n):
            mu = np.empty((n, m))
            sigma = np.empty((n, m))
            for j, model in enumerate(models):
                model.optimize = (iteration % self.refit_every) == 0
                model.fit([], Xn[evaluated], Y[:, j])
                mean, var = model.predict(Xn)
                mu[:, j] = mean
                sigma[:, j] = np.sqrt(var)

            # Predicted Pareto membership over the pool.
            pred_front = non_dominated_mask(mu)
            front_now = frozenset(np.nonzero(pred_front)[0].tolist())
            if front_now == prev_front:
                stable_rounds += 1
                if stable_rounds >= self.patience:
                    stop_reason = "converged"
                    break
            else:
                stable_rounds = 0
            prev_front = front_now

            # Query the most uncertain unevaluated predicted-front points
            # (fall back to global uncertainty if the front is exhausted).
            mask = np.ones(n, dtype=bool)
            mask[evaluated] = False
            unc = sigma.sum(axis=1)
            cand = np.nonzero(pred_front & mask)[0]
            if len(cand) == 0:
                cand = np.nonzero(mask)[0]
            if len(cand) == 0:
                stop_reason = "pool_exhausted"
                break
            order = np.argsort(-unc[cand])[: self.batch_size]
            for pick in cand[order]:
                Y = np.vstack([Y, oracle.evaluate(int(pick))])
                evaluated.append(int(pick))
                if oracle.n_evaluations >= min(self.budget, n):
                    break
            iteration += 1

        return self._result_from_evaluated(
            oracle, np.array(evaluated), Y, iteration, stop_reason
        )
