"""ASPDAC'20 baseline: FIST — feature-importance sampling + tree boosting.

Xie et al., "FIST: a feature-importance sampling and tree-based method for
automatic design flow parameter tuning" (ASP-DAC 2020).  Two phases:

1. *Feature-importance sampling*: learn parameter importances (from prior
   data when available — FIST's own form of knowledge reuse), cluster the
   pool by the important parameters, and sample to cover those clusters.
2. *Model-guided search*: fit gradient-boosted trees per objective on the
   labelled set and greedily evaluate the best predicted candidates, with
   ε-greedy exploration.
"""

from __future__ import annotations

import numpy as np

from ..core.result import TuningResult
from ..core.session import validate_init_indices
from ..ml.boosting import GradientBoostingRegressor
from .base import Oracle, PoolTuner


class Aspdac20Fist(PoolTuner):
    """FIST tuner (our reimplementation; no xgboost offline)."""

    name = "ASPDAC'20"

    def __init__(
        self,
        budget: int = 70,
        n_init: int = 12,
        explore_fraction: float = 0.4,
        epsilon: float = 0.15,
        n_estimators: int = 60,
        max_depth: int = 3,
        top_features: int = 4,
        seed: int = 0,
    ) -> None:
        """Create the tuner.

        Args:
            budget: Total tool runs.
            n_init: Importance-sampling phase size.
            explore_fraction: Share of the budget spent in phase 1.
            epsilon: ε-greedy exploration rate in phase 2.
            n_estimators: Boosting rounds per objective model.
            max_depth: Weak-learner depth.
            top_features: Number of important features used for
                clustering coverage.
            seed: RNG seed.
        """
        if budget < 2:
            raise ValueError("budget must be >= 2")
        if not 0.0 <= explore_fraction < 1.0:
            raise ValueError("explore_fraction must be in [0, 1)")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.budget = budget
        self.n_init = n_init
        self.explore_fraction = explore_fraction
        self.epsilon = epsilon
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.top_features = top_features
        self.seed = seed

    def _importances(
        self,
        Xn: np.ndarray,
        X_source: np.ndarray | None,
        Y_source: np.ndarray | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Feature importances, from prior-design data when available."""
        d = Xn.shape[1]
        if X_source is None or Y_source is None or not len(
            np.atleast_2d(X_source)
        ):
            return np.full(d, 1.0 / d)
        Xs = self._normalize(X_source)
        Ys = np.atleast_2d(np.asarray(Y_source, dtype=float))
        imp = np.zeros(d)
        for j in range(Ys.shape[1]):
            model = GradientBoostingRegressor(
                n_estimators=30, max_depth=self.max_depth,
                seed=int(rng.integers(1 << 30)),
            ).fit(Xs, Ys[:, j])
            imp += model.feature_importances_
        total = imp.sum()
        return imp / total if total > 0 else np.full(d, 1.0 / d)

    def _tune(
        self,
        X_pool: np.ndarray,
        oracle: Oracle,
        sources: list[tuple[np.ndarray, np.ndarray]],
        init_indices: np.ndarray | None,
    ) -> TuningResult:
        """Run FIST's two phases."""
        rng = np.random.default_rng(self.seed)
        Xn = self._normalize(X_pool)
        n = len(Xn)
        m = oracle.n_objectives
        budget = min(self.budget, n)

        X_source, Y_source = self._stack_sources(sources)
        importances = self._importances(Xn, X_source, Y_source, rng)
        top = np.argsort(-importances)[: self.top_features]

        # ---- Phase 1: importance-guided coverage sampling. ----
        n_explore = max(
            self.n_init, int(round(budget * self.explore_fraction))
        )
        n_explore = min(n_explore, budget - 1, n)
        if init_indices is not None:
            evaluated = [
                int(i) for i in validate_init_indices(init_indices, n)
            ]
        else:
            evaluated = []
        # Greedy farthest-point coverage in the important-feature
        # subspace.
        weights = importances[top]
        sub = Xn[:, top] * weights
        if not evaluated:
            evaluated.append(int(rng.integers(n)))
        while len(evaluated) < n_explore:
            dists = np.min(
                np.linalg.norm(
                    sub[:, None, :] - sub[evaluated][None, :, :], axis=2
                ),
                axis=1,
            )
            dists[evaluated] = -1.0
            evaluated.append(int(np.argmax(dists)))
        Y = np.vstack([oracle.evaluate(i) for i in evaluated])

        # ---- Phase 2: boosted-tree guided exploitation. ----
        iteration = 0
        while oracle.n_evaluations < budget:
            models = [
                GradientBoostingRegressor(
                    n_estimators=self.n_estimators,
                    max_depth=self.max_depth,
                    seed=self.seed + 31 * iteration + j,
                ).fit(Xn[evaluated], Y[:, j])
                for j in range(m)
            ]
            pred = np.column_stack([mo.predict(Xn) for mo in models])
            mask = np.ones(n, dtype=bool)
            mask[evaluated] = False
            cand = np.nonzero(mask)[0]
            if len(cand) == 0:
                break
            if rng.uniform() < self.epsilon:
                pick = int(rng.choice(cand))
            else:
                # FIST optimizes a single (equal-weight) quality score of
                # the normalized metric predictions.
                lo = pred.min(axis=0)
                span = np.where(
                    np.ptp(pred, axis=0) > 0, np.ptp(pred, axis=0), 1.0
                )
                score = ((pred[cand] - lo) / span).sum(axis=1)
                pick = int(cand[np.argmin(score)])
            Y = np.vstack([Y, oracle.evaluate(pick)])
            evaluated.append(pick)
            iteration += 1

        return self._result_from_evaluated(
            oracle, np.array(evaluated), Y, iteration, "budget"
        )
