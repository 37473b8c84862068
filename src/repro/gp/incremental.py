"""Shared incremental-calibration machinery for the GP models.

The tuning loop (Algorithm 1) refits every surrogate each iteration on
data that only ever *grows* by the freshly evaluated target points.  A
from-scratch refit re-evaluates the full kernel and refactorizes the
``(n_src + n_tgt)`` covariance — O(n^2 d + n^3) per metric per iteration.
This mixin gives every GP model an exact O(k n^2) fast path:

- :meth:`update` border-extends the cached Cholesky factor with the new
  target rows (:func:`~repro.gp.linalg.cholesky_append_rows`) and
  recomputes the standardization constants and ``alpha`` — the posterior
  is *identical* (to floating-point roundoff) to a from-scratch refit
  with the same hyperparameters.
- :meth:`register_pool` / :meth:`predict_pool` cache the pool-vs-train
  cross-covariance ``K*`` and the whitened block ``V = L^-1 K*^T``;
  updates extend both by the new columns/rows only, so a pool prediction
  costs O(n·p) instead of a fresh kernel evaluation plus an O(n^2 p)
  triangular solve.

Numerical safety: the initial fit's escalated jitter is carried onto the
appended diagonal so the extended factor matches the fitted covariance,
and whenever the Schur complement of an append is not positive definite
the model transparently falls back to an exact jittered refactorization
(``last_update_fallback`` is set so callers can count these).  Because
hyperparameter refits rebuild everything from scratch anyway, error from
long append chains cannot accumulate past one re-optimization cadence.

Pool caches are built and extended :data:`POOL_BLOCK` rows at a time.
That bounds each step's transients — the block's ``(block, train)``
cross-covariance and its triangular-solve right-hand side — instead of
allocating them at full pool size.  Blocking only partitions the solve
columns: built and pool-extended caches equal a single-shot build bit
for bit, and border updates agree with it to roundoff.  The block size
also fixes the whitened cache's memory layout (column-major for one
block, row-major for several), and that layout decides how border
updates round, so changing it can move trajectories.

Border updates grow the caches in place: both are views into buffers
with up to :data:`POOL_SPARE` spare training columns, so an update
writes only its new columns, and a full buffer is reallocated with that
much room again.  The buffers keep the layout a copy-based
``np.hstack``/``np.vstack`` growth would give, so predictions match it
bit for bit.  Anything that rebuilds the caches (``fit``, the fallback
refit, :meth:`register_pool`, :meth:`extend_pool`) drops the buffers
with them.

Subclasses must maintain ``_X``, ``_L``, ``_alpha``, ``_y_mean``,
``_y_std`` (the existing fit state) plus ``_y_raw`` and ``_jitter``, and
implement the small covariance hooks below; ``predict`` is built from
the same hooks, so every model predicts one way.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .linalg import (
    NotPositiveDefiniteError,
    cholesky_append_rows,
    cholesky_solve,
    require_finite,
    robust_cholesky,
)

#: Row-chunk size for building and extending the pool prediction caches.
POOL_BLOCK = 32768

#: Spare training columns a pool-cache buffer is (re)allocated with, so
#: that many border-updated points cost no reallocation.
POOL_SPARE = 16


def _stacked_order(*blocks: np.ndarray) -> str:
    """Memory order ``np.concatenate`` gives a stack of 2-D ``blocks``.

    Column-major only if every block without a unit dimension is
    column-major (row-major wins conflicts; unit dimensions carry no
    order).
    """
    ordered = [b for b in blocks if 1 not in b.shape]
    if ordered and all(b.strides[1] > b.strides[0] for b in ordered):
        return "F"
    return "C"


class IncrementalGPMixin:
    """Prediction, exact incremental updates and cached pool prediction
    for GP models."""

    # Fit state and incremental bookkeeping (instance attributes shadow
    # these).
    _alpha: np.ndarray | None = None
    _y_raw: np.ndarray | None = None
    _jitter: float = 0.0
    _pool_X: np.ndarray | None = None
    _pool_K: np.ndarray | None = None
    _pool_V: np.ndarray | None = None
    #: ``(K, V)`` buffers ``_pool_K``/``_pool_V`` are views into once a
    #: border update has grown them; ``None`` after every rebuild.
    _pool_buffers: tuple[np.ndarray, np.ndarray] | None = None
    #: Whether the last :meth:`update` call had to fall back to an exact
    #: from-scratch refactorization (jitter escalation).
    last_update_fallback: bool = False

    # ---- hooks implemented by each model -----------------------------

    def _cross_cov(
        self, X_query: np.ndarray, rows: slice | None = None
    ) -> np.ndarray:
        """Covariance of target-task queries vs training ``rows``."""
        raise NotImplementedError

    def _cov_new_block(self, X_new: np.ndarray) -> np.ndarray:
        """Covariance among new target rows, noise included."""
        raise NotImplementedError

    def _cov_full(self) -> np.ndarray:
        """Full training covariance (noise included), for refits."""
        raise NotImplementedError

    def _prior_diag(self, X_query: np.ndarray) -> np.ndarray:
        """Prior variance at target-task queries."""
        raise NotImplementedError

    def _predict_noise(self) -> float:
        """Target-task observation-noise variance."""
        raise NotImplementedError

    def _append_data(self, X_new: np.ndarray, y_new: np.ndarray) -> None:
        """Append new target rows to the stored training data."""
        raise NotImplementedError

    # ---- prediction --------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether ``fit`` has been called."""
        return self._alpha is not None

    def predict(
        self, X_new: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at target-task inputs.

        Paper Eq. (1) for a single-task model, Eq. (8) for the transfer
        GP: ``mu = k*^T alpha`` and ``sigma^2 = k(x, x) - v^T v`` with
        ``v = L^-1 k*``.

        Args:
            X_new: ``(m, d)`` query inputs.
            include_noise: Add the target observation-noise variance
                (off by default: the tuner's uncertainty regions are
                epistemic).

        Returns:
            ``(mean, variance)`` arrays of length ``m`` in the original
            target scale.

        Raises:
            RuntimeError: If called before ``fit``.
        """
        if not self.is_fitted:
            raise RuntimeError("predict() before fit()")
        assert self._L is not None and self._alpha is not None
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        K_star = self._cross_cov(X_new)
        mean_z = K_star @ self._alpha
        v = np.linalg.solve(self._L, K_star.T)
        var_z = self._prior_diag(X_new) - np.sum(v * v, axis=0)
        var_z = np.maximum(var_z, 1e-12)
        if include_noise:
            var_z = var_z + self._predict_noise()
        return (
            mean_z * self._y_std + self._y_mean,
            var_z * self._y_std**2,
        )

    # ---- incremental update ------------------------------------------

    def update(self, X_new: np.ndarray, y_new: np.ndarray):
        """Absorb new *target-task* observations without refitting.

        Extends the Cholesky factor by a border update and refreshes the
        standardization constants and ``alpha``; hyperparameters are
        left untouched.  The result is numerically equivalent to calling
        ``fit`` on the concatenated data with ``optimize=False``.

        Args:
            X_new: ``(k, d)`` new target inputs.
            y_new: Length-``k`` new target observations (original
                scale).

        Returns:
            ``self``.

        Raises:
            RuntimeError: If called before ``fit``.
            ValueError: On shape mismatch or NaN/inf values.
        """
        if not self.is_fitted:
            raise RuntimeError("update() before fit()")
        assert self._X is not None and self._L is not None
        assert self._y_raw is not None
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if len(X_new) != len(y_new):
            raise ValueError("X_new and y_new misaligned")
        require_finite("X_new", X_new)
        require_finite("y_new", y_new)
        self.last_update_fallback = False
        if len(y_new) == 0:
            return self
        if X_new.shape[1] != self._X.shape[1]:
            raise ValueError("dimensionality mismatch")

        n_old = len(self._L)
        k = len(y_new)
        K_cross = self._cross_cov(X_new).T  # (n_old, k)
        K_block = self._cov_new_block(X_new)
        if self._jitter:
            K_block = K_block + self._jitter * np.eye(k)
        try:
            L_ext = cholesky_append_rows(self._L, K_cross, K_block)
        except NotPositiveDefiniteError:
            # Jitter escalation: rebuild the exact factorization so the
            # posterior never silently drifts.
            self._append_data(X_new, y_new)
            self._refit_state()
            self.last_update_fallback = True
            return self

        self._append_data(X_new, y_new)
        self._L = L_ext
        self._restandardize()
        if self._pool_K is not None and self._pool_V is not None:
            Kp_new, V_new = self._pool_blocks(
                self._pool_X, L_ext[n_old:, n_old:],
                rows=slice(n_old, n_old + k),
                C=L_ext[n_old:, :n_old], V_old=self._pool_V,
            )
            self._append_pool_columns(Kp_new, V_new)
        return self

    def _append_pool_columns(
        self, K_new: np.ndarray, V_new: np.ndarray
    ) -> None:
        """Append training columns to the pool caches, in place.

        ``K_new`` is ``(p, k)`` and ``V_new`` is ``(k, p)``.  They are
        written into the spare columns of the caches' buffers.  Without
        room the buffers are reallocated with :data:`POOL_SPARE` spare
        columns, and so they are when the whitened cache must change
        layout: it keeps the layout ``np.vstack([V, V_new])`` would
        give, which decides how later border updates round.
        """
        K, V = self._pool_K, self._pool_V
        (p, n), k = K.shape, K_new.shape[1]
        order = _stacked_order(V, V_new)
        bufs = self._pool_buffers
        if (
            bufs is None
            or bufs[0].shape[1] < n + k
            or _stacked_order(bufs[1]) != order
        ):
            cap = n + k + POOL_SPARE
            bufs = (np.empty((p, cap)), np.empty((cap, p), order=order))
            bufs[0][:, :n] = K
            bufs[1][:n] = V
            self._pool_buffers = bufs
        K_buf, V_buf = bufs
        K_buf[:, n:n + k] = K_new
        V_buf[n:n + k] = V_new
        self._pool_K, self._pool_V = K_buf[:, :n + k], V_buf[:n + k]

    def _restandardize(self) -> None:
        """Refresh standardization constants and ``alpha`` from raw y."""
        assert self._y_raw is not None and self._L is not None
        y = self._y_raw
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std
        self._alpha = cholesky_solve(self._L, z)

    def _refit_state(self) -> None:
        """Exact posterior refresh from the current hyperparameters."""
        K = self._cov_full()
        self._L, self._jitter = robust_cholesky(K)
        self._restandardize()
        self._invalidate_pool_cache()

    # ---- cached pool prediction --------------------------------------

    def register_pool(self, X_pool: np.ndarray) -> None:
        """Attach a fixed candidate pool for cached prediction.

        Args:
            X_pool: ``(p, d)`` target-task candidate features; rows are
                addressed by index in :meth:`predict_pool`.
        """
        self._pool_X = np.atleast_2d(np.asarray(X_pool, dtype=float))
        self._invalidate_pool_cache()

    def extend_pool(self, X_new: np.ndarray) -> None:
        """Append candidate rows to the registered pool (append path).

        The adaptive-refinement counterpart of :meth:`update`: where
        ``update`` extends the caches by new *training* columns, this
        extends them by new *pool* rows.  Only the appended rows' cross-
        covariance (``(k, n)``) and whitened columns (``(n, k)``) are
        computed — the existing caches are never rebuilt, so growing the
        pool costs O(k·n²) instead of O(p·n²).

        Args:
            X_new: ``(k, d)`` new target-task candidate features,
                appended after the existing pool rows (indices continue
                from ``len(pool)``).

        Raises:
            RuntimeError: If no pool is registered.
            ValueError: On dimensionality mismatch.
        """
        if self._pool_X is None:
            raise RuntimeError("extend_pool() before register_pool()")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        if X_new.size == 0:
            return
        if X_new.shape[1] != self._pool_X.shape[1]:
            raise ValueError("dimensionality mismatch")
        self._pool_X = np.vstack([self._pool_X, X_new])
        if self._pool_K is None or self._pool_V is None or self._L is None:
            # No live caches to extend (pre-first-prediction): rebuild
            # lazily.
            self._invalidate_pool_cache()
            return
        K_new, V_new = self._pool_blocks(X_new, self._L)
        self._pool_K = np.vstack([self._pool_K, K_new])
        self._pool_V = np.hstack([self._pool_V, V_new])
        self._pool_buffers = None

    def _pool_blocks(
        self,
        X_query: np.ndarray,
        L: np.ndarray,
        rows: slice | None = None,
        C: np.ndarray | None = None,
        V_old: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cross-covariance and whitened blocks, :data:`POOL_BLOCK` rows
        at a time.

        Computes ``K = k(X_query, X[rows])`` and ``V = L^-1 (K^T - C
        V_old)`` column block by column block (the ``C V_old`` term is
        the border-update correction of :meth:`update`; omitted when
        ``C`` is ``None``).

        Returns:
            ``K`` of shape ``(len(X_query), len(L))`` and ``V`` of shape
            ``(len(L), len(X_query))``.
        """
        p, n = len(X_query), len(L)
        K = np.empty((p, n))
        # One block keeps the column-major layout solve_triangular
        # returns; several fill a row-major array.  Border updates
        # multiply against this cache and BLAS rounding depends on its
        # layout; these are the layouts earlier releases used, so
        # trajectories match them bit for bit.
        V = np.empty((n, p), order="F" if p <= POOL_BLOCK else "C")
        for s in range(0, p, POOL_BLOCK):
            e = min(s + POOL_BLOCK, p)
            Kb = self._cross_cov(X_query[s:e], rows)
            K[s:e] = Kb
            rhs = Kb.T if C is None else Kb.T - C @ V_old[:, s:e]
            V[:, s:e] = solve_triangular(L, rhs, lower=True)
        return K, V

    def _invalidate_pool_cache(self) -> None:
        self._pool_K = None
        self._pool_V = None
        self._pool_buffers = None

    def _ensure_pool_cache(self) -> None:
        """Materialize the pool cross-covariance / whitened caches."""
        if self._pool_K is not None and self._pool_V is not None:
            return
        assert self._pool_X is not None and self._L is not None
        self._pool_K, self._pool_V = self._pool_blocks(
            self._pool_X, self._L
        )

    def predict_pool(
        self, indices: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean/variance at registered pool rows ``indices``.

        Numerically equivalent to ``predict(X_pool[indices])`` but served
        from the cached cross-covariance and whitened blocks: after each
        incremental update only the new columns are computed, so the
        per-iteration cost is O(n·p) rather than a fresh kernel
        evaluation plus an O(n^2 p) solve.

        Args:
            indices: Integer row indices (or boolean mask) into the
                registered pool.
            include_noise: Add the target observation-noise variance.

        Returns:
            ``(mean, variance)`` in the original target scale.

        Raises:
            RuntimeError: If the model is unfitted or no pool is
                registered.
        """
        if not self.is_fitted:
            raise RuntimeError("predict_pool() before fit()")
        if self._pool_X is None:
            raise RuntimeError("predict_pool() before register_pool()")
        assert self._L is not None and self._alpha is not None
        self._ensure_pool_cache()
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.nonzero(idx)[0]
        V_cols = self._pool_V[:, idx]
        mean_z = self._pool_K[idx] @ self._alpha
        var_z = self._prior_diag(self._pool_X[idx]) - np.sum(
            V_cols * V_cols, axis=0
        )
        var_z = np.maximum(var_z, 1e-12)
        if include_noise:
            var_z = var_z + self._predict_noise()
        return (
            mean_z * self._y_std + self._y_mean,
            var_z * self._y_std**2,
        )


__all__ = ["POOL_BLOCK", "POOL_SPARE", "IncrementalGPMixin"]
