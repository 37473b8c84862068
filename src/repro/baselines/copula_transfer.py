"""Gaussian-copula transfer baseline (few-shot knowledge reuse).

The copula autotuning line ("Transfer-Learning-Based Autotuning Using
Gaussian Copula"; "A Copula approach for hyperparameter transfer
learning"): rank-transform the source records, fit a Gaussian copula
over (parameters, objectives), predict each target candidate's
objectives through the latent conditional median, and rank candidates
by a deterministic sweep of scalarization weights over the
rank-normalized predictions — so each batch spans the predicted
trade-off front.  Unlike the GP methods there is no per-iteration
surrogate optimization — a fit is one correlation matrix — so the
method is usable from a handful of records and its per-round cost is a
single matrix solve.  Target evaluations are folded back into the fit
each round (few-shot refinement), which adapts the predictions when
the source's ranking transfers imperfectly.
"""

from __future__ import annotations

import numpy as np

from ..copula.model import GaussianCopula
from ..copula.warm_start import (
    _round_robin,
    _weight_anchors,
    copula_seed_indices,
)
from ..core.result import TuningResult
from ..core.session import validate_init_indices
from .base import Oracle, PoolTuner


class CopulaTransferTuner(PoolTuner):
    """Few-shot copula-guided search over the candidate pool."""

    name = "CopulaTransfer"

    def __init__(
        self,
        budget: int = 70,
        n_init: int = 8,
        batch_size: int = 4,
        seed: int = 0,
    ) -> None:
        """Create the tuner.

        Args:
            budget: Total tool runs (including initialization).
            n_init: Initial evaluations when ``init_indices`` is not
                given (copula-seeded when sources exist, else random).
            batch_size: Candidates evaluated between copula refits.
            seed: RNG seed (tie-breaking and the no-source fallback).
        """
        if budget < 2:
            raise ValueError("budget must be >= 2")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.budget = budget
        self.n_init = n_init
        self.batch_size = batch_size
        self.seed = seed

    def _tune(
        self,
        X_pool: np.ndarray,
        oracle: Oracle,
        sources: list[tuple[np.ndarray, np.ndarray]],
        init_indices: np.ndarray | None,
    ) -> TuningResult:
        """Seed from the source copula, then rank-evaluate-refit."""
        X_pool = np.atleast_2d(np.asarray(X_pool, dtype=float))
        rng = np.random.default_rng(self.seed)
        n, d = X_pool.shape
        budget = min(self.budget, n)
        Xs, Ys = self._stack_sources(sources)

        # ---- Initialization: copula-ranked seeds when possible. ----
        if init_indices is not None:
            init = validate_init_indices(init_indices, n)
        else:
            n_init = min(max(self.n_init, 2), budget - 1, n)
            init = None
            if Xs is not None:
                init = copula_seed_indices(
                    X_pool, [(Xs, Ys)], n_init, seed=self.seed
                )
            if init is None:
                init = rng.choice(n, size=n_init, replace=False)
        evaluated = [int(i) for i in init]
        Y = np.vstack([oracle.evaluate(i) for i in evaluated])

        x_cols = np.arange(d)
        y_cols = np.arange(d, d + Y.shape[1])
        iteration = 0
        while oracle.n_evaluations < budget:
            mask = np.ones(n, dtype=bool)
            mask[evaluated] = False
            cand = np.nonzero(mask)[0]
            if len(cand) == 0:
                break
            scores = self._scores(
                X_pool, Xs, Ys, evaluated, Y, cand, x_cols, y_cols, rng
            )
            take = min(
                self.batch_size, budget - oracle.n_evaluations, len(cand)
            )
            orders = np.argsort(-scores, axis=1, kind="stable")
            picks = list(cand[_round_robin(orders, take)])
            # One exploration slot per batch: the copula's ranking is
            # only as good as its (source-dominated) fit, so a uniform
            # draw keeps feeding it off-ranking target evidence.
            if take > 1:
                explore = [c for c in cand if c not in picks]
                if explore:
                    picks[-1] = int(rng.choice(explore))
            for pick in picks:
                Y = np.vstack([Y, oracle.evaluate(int(pick))])
                evaluated.append(int(pick))
            iteration += 1

        return self._result_from_evaluated(
            oracle, np.array(evaluated), Y, iteration, "budget"
        )

    def _scores(
        self,
        X_pool: np.ndarray,
        Xs: np.ndarray | None,
        Ys: np.ndarray | None,
        evaluated: list[int],
        Y: np.ndarray,
        cand: np.ndarray,
        x_cols: np.ndarray,
        y_cols: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-anchor scores of each candidate under the current copula
        (source records + target observations).

        The copula's conditional-median objective predictions are
        rank-normalized across the candidates, then scalarized by a
        deterministic sweep of weight vectors over the objectives (each
        objective alone, the uniform blend, and their midpoints) — so
        one batch of picks spans the predicted trade-off front instead
        of piling onto its knee.  Returns an ``(a, len(cand))`` matrix,
        one row per weight anchor, higher scores better; a single row
        of random scores when there is not enough data for a fit.
        """
        X_fit = X_pool[evaluated]
        Y_fit = Y
        if Xs is not None:
            X_fit = np.vstack([Xs, X_fit])
            Y_fit = np.vstack([Ys, Y_fit])
        if len(X_fit) < 3:
            return rng.uniform(size=(1, len(cand)))
        cop = GaussianCopula().fit(np.hstack([X_fit, Y_fit]))
        pred = cop.predict(X_pool[cand], x_cols, y_cols)
        # Rank-normalize each predicted objective to [0, 1]: weights
        # then trade off positions along the front, not raw magnitudes.
        denom = max(len(cand) - 1, 1)
        ranks = np.argsort(np.argsort(pred, axis=0), axis=0) / denom
        return -(_weight_anchors(pred.shape[1]) @ ranks.T)
