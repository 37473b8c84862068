"""MLCAD'19 baseline: classical Bayesian optimization with LCB.

Ma, Yu, Yu, "CAD tool design space exploration via Bayesian optimization"
(MLCAD 2019).  Classical single-task BO: a GP surrogate with a lower-
confidence-bound acquisition.  Multi-objective handling follows the
standard random-scalarization recipe (ParEGO-style augmented Chebyshev
weights redrawn each iteration), which is how a single-acquisition BO flow
covers a Pareto front.
"""

from __future__ import annotations

import numpy as np

from ..core.result import TuningResult
from ..gp.kernels import make_kernel
from ..gp.multisource import MultiSourceTransferGP
from .base import Oracle, PoolTuner

#: Augmented-Chebyshev blend coefficient.
_RHO = 0.05


class Mlcad19LcbBayesOpt(PoolTuner):
    """BO + LCB with random scalarization over the candidate pool."""

    name = "MLCAD'19"

    def __init__(
        self,
        budget: int = 70,
        n_init: int = 10,
        kappa: float = 2.0,
        kernel: str = "rbf",
        refit_every: int = 5,
        seed: int = 0,
    ) -> None:
        """Create the tuner.

        Args:
            budget: Total tool runs (including initialization).
            n_init: Random initial evaluations.
            kappa: LCB exploration weight (``mu - kappa * sigma``).
            kernel: GP kernel family.
            refit_every: Hyperparameter refit period.
            seed: RNG seed.
        """
        if budget < 2:
            raise ValueError("budget must be >= 2")
        if kappa < 0:
            raise ValueError("kappa must be non-negative")
        self.budget = budget
        self.n_init = n_init
        self.kappa = kappa
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
        """Run BO until the budget is exhausted.

        Source data is ignored (single-task method).
        """
        rng = np.random.default_rng(self.seed)
        Xn = self._normalize(X_pool)
        n = len(Xn)
        m = oracle.n_objectives

        init = self._initial_indices(n, init_indices, self.n_init, rng)
        evaluated = list(int(i) for i in init)
        Y = np.vstack([oracle.evaluate(i) for i in evaluated])

        gp = MultiSourceTransferGP(
            kernel=make_kernel(self.kernel, Xn.shape[1], 0.3),
            n_restarts=2,
            seed=self.seed,
        )
        iteration = 0
        while oracle.n_evaluations < min(self.budget, n):
            # Random augmented-Chebyshev scalarization of the normalized
            # objectives.
            lo = Y.min(axis=0)
            span = np.where(np.ptp(Y, axis=0) > 0, np.ptp(Y, axis=0), 1.0)
            Yn = (Y - lo) / span
            w = rng.dirichlet(np.ones(m))
            scalar = np.max(Yn * w, axis=1) + _RHO * (Yn @ w)

            gp.optimize = (iteration % self.refit_every) == 0
            gp.fit([], Xn[evaluated], scalar)
            mask = np.ones(n, dtype=bool)
            mask[evaluated] = False
            candidates = np.nonzero(mask)[0]
            if len(candidates) == 0:
                break
            mu, var = gp.predict(Xn[candidates])
            lcb = mu - self.kappa * np.sqrt(var)
            pick = int(candidates[np.argmin(lcb)])
            Y = np.vstack([Y, oracle.evaluate(pick)])
            evaluated.append(pick)
            iteration += 1

        return self._result_from_evaluated(
            oracle, np.array(evaluated), Y, iteration, "budget"
        )
