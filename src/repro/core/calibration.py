"""Incremental GP calibration engine for the tuning loop.

Algorithm 1 calibrates one surrogate per QoR metric every iteration on
data that only grows by the freshly evaluated target points.  The engine
decides, per iteration, between two numerically equivalent paths:

- **Exact path** — a full ``fit`` per metric (kernel re-evaluation +
  refactorization), used for the initial calibration and on every
  hyperparameter re-optimization cadence tick (``reopt_every``,
  warm-started from the previous optimum inside the models).
- **Fast path** — ``update`` per metric: the new evaluations extend the
  cached Cholesky factor via rank-1 border updates and each cached pool
  row's cross-covariance and whitened sum of squares by the new columns
  only (see :mod:`repro.gp.multisource`).  If an update's Schur
  complement is not positive definite the model falls back to an exact
  refactorization on its own; the engine records the event in
  :attr:`CalibrationStats`.

Before either path, :meth:`CalibrationEngine.calibrate` shrinks every
model's pool caches to the live rows it is given, so border updates
never extend a candidate the loop has dropped or evaluated.  Cached
values are row-local, so shrinking changes no prediction.

Predictions over the candidate pool always go through the models'
``predict_pool`` so both paths share one code path (equivalence-tested
in ``tests/test_calibration_equivalence.py`` and
``tests/test_fastpath_equivalence.py``).  The first prediction after a
fit builds each model's pool cache; when two or more builds are due,
:meth:`CalibrationEngine.predict` lets the GP worker take the last half
of them (:func:`~repro.gp.multisource.share_pool_builds`), which changes
no bit of any prediction.

Every metric keeps its own factorization.  Re-optimization gives each
metric its own kernel hyperparameters, so a Cholesky factor shared
across the metrics would only ever apply under ``reopt_every=0``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..gp.multisource import pool_indices, share_pool_builds
from ..obs.events import CalibrationDone
from ..obs.recorder import NULL_RECORDER
from .config import PPATunerConfig


@dataclass
class CalibrationStats:
    """Counters of the engine's calibration activity.

    Attributes:
        n_full_fits: Per-model exact ``fit`` calls.
        n_incremental: Per-model fast-path ``update`` calls.
        n_fallbacks: Updates that fell back to an exact refactorization
            (jitter escalation).
        n_reopts: Per-model hyperparameter re-optimizations.
    """

    n_full_fits: int = 0
    n_incremental: int = 0
    n_fallbacks: int = 0
    n_reopts: int = 0


class CalibrationEngine:
    """Per-iteration surrogate calibration with an incremental fast path.

    Example:
        >>> engine = CalibrationEngine(models, cfg, sources) # doctest: +SKIP
        >>> engine.register_pool(Xn_pool)                    # doctest: +SKIP
        >>> engine.calibrate(t, Xn_pool, sampled, y_obs, new,
        ...                  live=active)                    # doctest: +SKIP
        >>> mean, std = engine.predict(active_ids)            # doctest: +SKIP
    """

    def __init__(
        self,
        models: list,
        config: PPATunerConfig,
        sources: list[tuple[np.ndarray, np.ndarray]],
        recorder=None,
    ) -> None:
        """Create the engine.

        Args:
            models: One fitted-or-fresh transfer GP per QoR metric.
            config: Loop configuration (the re-optimization cadence).
            sources: Normalized ``(X_k, Y_k)`` archives, ``Y_k`` with
                one column per metric (empty: no transfer).
            recorder: Optional :class:`~repro.obs.recorder.TraceRecorder`
                fed one ``CalibrationDone`` per :meth:`calibrate` call.
        """
        self.models = models
        self.config = config
        self.sources = sources
        self.stats = CalibrationStats()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._fitted = False

    def register_pool(self, X_pool: np.ndarray) -> None:
        """Attach the fixed candidate pool to every model."""
        for model in self.models:
            model.register_pool(X_pool)

    def extend_pool(self, X_new: np.ndarray) -> None:
        """Append refined candidates to every model's pool (append path).

        Adaptive pool refinement grows the candidate table mid-run; the
        prediction caches are extended by the new rows only — never
        rebuilt (see :meth:`~repro.gp.MultiSourceTransferGP.extend_pool`).
        """
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        if X_new.size == 0:
            return
        for model in self.models:
            model.extend_pool(X_new)

    def calibrate(
        self,
        t: int,
        X_pool: np.ndarray,
        sampled: np.ndarray,
        y_obs: np.ndarray,
        new_indices: list[int],
        live: np.ndarray | None = None,
    ) -> None:
        """Bring every surrogate up to date with the evaluated data.

        Args:
            t: Iteration counter (drives the re-optimization cadence).
            X_pool: ``(n, d)`` normalized candidate features.
            sampled: Mask of evaluated candidates.
            y_obs: ``(n, m)`` observed objectives (NaN where unsampled).
            new_indices: Pool indices evaluated since the previous
                :meth:`calibrate` call (the fast path absorbs exactly
                these).
            live: Mask over the registered pool of the rows later
                predictions ask for; every model keeps pool caches for
                these rows only (``None`` keeps the current ones).
        """
        cadence = self.config.reopt_every
        reopt = cadence > 0 and (t % cadence) == 0
        fast = (
            self._fitted
            and not reopt
            and all(m.is_fitted for m in self.models)
        )
        recorder = self.recorder
        start = time.perf_counter() if recorder else 0.0
        fallbacks_before = self.stats.n_fallbacks
        if live is not None:
            for model in self.models:
                model.keep_pool_rows(live)
        if fast:
            if not new_indices:
                # No new evidence; the posterior is current.
                if recorder:
                    recorder.emit(CalibrationDone(
                        iteration=t,
                        path="noop",
                        n_models=len(self.models),
                        n_new=0,
                        n_fallbacks=0,
                        reopt=False,
                        seconds=time.perf_counter() - start,
                    ))
                return
            idx = np.asarray(new_indices, dtype=int)
            X_new = X_pool[idx]
            partial = bool(np.isnan(y_obs[idx]).any())
            pool_rows = 0
            for j, model in enumerate(self.models):
                if partial:
                    # Partial QoR reports: absorb only the rows this
                    # metric was actually observed on.
                    keep = np.isfinite(y_obs[idx, j])
                    if not keep.any():
                        continue
                    model.update(X_new[keep], y_obs[idx[keep], j])
                else:
                    model.update(X_new, y_obs[idx, j])
                pool_rows = max(pool_rows, model.pool_cache_rows)
                self.stats.n_incremental += 1
                if model.last_update_fallback:
                    self.stats.n_fallbacks += 1
            if recorder:
                recorder.emit(CalibrationDone(
                    iteration=t,
                    path="incremental",
                    n_models=len(self.models),
                    n_new=len(idx),
                    n_fallbacks=self.stats.n_fallbacks - fallbacks_before,
                    reopt=False,
                    seconds=time.perf_counter() - start,
                    pool_rows=pool_rows,
                ))
            return

        Xt = X_pool[sampled]
        partial = bool(np.isnan(y_obs[sampled]).any())
        for j, model in enumerate(self.models):
            model.optimize = reopt
            src_j = [(Xs, Ys[:, j]) for Xs, Ys in self.sources]
            if partial:
                mask = sampled & np.isfinite(y_obs[:, j])
                model.fit(
                    sources=src_j, X_target=X_pool[mask],
                    y_target=y_obs[mask, j],
                )
            else:
                model.fit(
                    sources=src_j, X_target=Xt,
                    y_target=y_obs[sampled, j],
                )
            self.stats.n_full_fits += 1
            if reopt:
                self.stats.n_reopts += 1
        self._fitted = True
        if recorder:
            recorder.emit(CalibrationDone(
                iteration=t,
                path="full",
                n_models=len(self.models),
                n_new=len(new_indices),
                n_fallbacks=0,
                reopt=reopt,
                seconds=time.perf_counter() - start,
            ))

    def predict(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean/std per metric at registered pool ``indices``.

        Models without a pool cache build it here, half of them in the
        GP worker when it can take them (see the module docstring).

        Args:
            indices: Integer pool indices (or boolean mask).

        Returns:
            ``(mean, std)`` arrays of shape ``(len(indices), m)``.
        """
        idx = pool_indices(indices)
        mean = np.empty((len(idx), len(self.models)))
        std = np.empty_like(mean)
        with share_pool_builds(self.models, idx):
            for j, model in enumerate(self.models):
                mu, var = model.predict_pool(idx)
                mean[:, j] = mu
                std[:, j] = np.sqrt(var)
        return mean, std


__all__ = ["CalibrationEngine", "CalibrationStats"]
