"""Row-locality of the GP pool caches, as a state machine.

:class:`~repro.gp.MultiSourceTransferGP` caches, for each kept
pool row, the cross-covariance ``k*`` and the whitened sum of squares
``s``, and every cached value depends on its own row alone.  This
machine drives one model through any interleaving of border updates,
pool extensions, dropped rows, re-optimising fits, forced fallbacks and
new pools, beside two twins that receive the same calls: one never
drops a row, the other builds and extends its caches in 7-row blocks.
One rule uses caches that hold only ``s`` (after a build, before the
first border update caches ``k*``): kept rows requested in pool order,
twice, then a pool extension.  After every step the kept rows,
requested in a random order, must predict

- bit for bit as both twins do;
- as the dense ``predict`` does, to 1e-8;
- bit for bit as the whole-pool whitened cache did, until the first
  border update since the caches were last rebuilt (pools of two rows
  or more).

Rows outside the kept set are still served, computed fresh.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import repro.gp.multisource as multisource
from repro.gp import MultiSourceTransferGP, NotPositiveDefiniteError, RBFKernel

from .reference_oracles import whitened_pool_predict_reference

D = 3


@contextmanager
def pool_block(rows: int):
    """Run with ``POOL_BLOCK = rows``."""
    saved = multisource.POOL_BLOCK
    multisource.POOL_BLOCK = rows
    try:
        yield
    finally:
        multisource.POOL_BLOCK = saved


@contextmanager
def forced_fallback():
    """Make every border update hit a non-positive-definite Schur
    complement, so ``update`` refactorizes from scratch."""

    def boom(*args, **kwargs):
        raise NotPositiveDefiniteError("forced")

    saved = multisource.cholesky_append_rows
    multisource.cholesky_append_rows = boom
    try:
        yield
    finally:
        multisource.cholesky_append_rows = saved


def _refit(model, optimize: bool = True) -> None:
    """Refit on the model's own data, re-optimising the hyperparameters
    unless ``optimize`` is false; either way the caches are dropped."""
    source = model._tasks == 0
    model.optimize = optimize
    model.fit(
        [(model._X[source], model._y_raw[source])],
        model._X[~source], model._y_raw[~source],
    )


class PoolCacheMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**32 - 1), n_pool=st.integers(1, 40))
    def setup(self, seed, n_pool):
        self.rng = np.random.default_rng(seed)
        Xs, Xt = self.rng.uniform(size=(15, D)), self.rng.uniform(size=(6, D))
        ys, yt = self.rng.normal(size=15), self.rng.normal(size=6)
        self.model, self.full, self.blocked = (
            MultiSourceTransferGP(
                kernel=RBFKernel(np.full(D, 0.4)), optimize=False,
                n_restarts=0,
            ).fit([(Xs, ys)], Xt, yt)
            for _ in range(3)
        )
        self._register(n_pool)

    def _each(self, call) -> None:
        """Apply ``call`` to the model and both twins."""
        call(self.model)
        call(self.full)
        with pool_block(7):
            call(self.blocked)

    def _register(self, n_pool: int) -> None:
        X = self.rng.uniform(size=(n_pool, D))
        self._each(lambda m: m.register_pool(X))
        self.keep = np.ones(n_pool, dtype=bool)
        self.fresh = True  # no border update since the last rebuild

    def _new_points(self, k: int):
        return self.rng.uniform(size=(k, D)), self.rng.normal(size=k)

    @rule(k=st.sampled_from([1, 2, 4]))
    def update(self, k):
        X_new, y_new = self._new_points(k)
        self._each(lambda m: m.update(X_new, y_new))
        fallbacks = {
            m.last_update_fallback
            for m in (self.model, self.full, self.blocked)
        }
        assert len(fallbacks) == 1
        self.fresh = self.model.last_update_fallback

    @rule(k=st.integers(1, 9))
    def extend_pool(self, k):
        X_new = self.rng.uniform(size=(k, D))
        self._each(lambda m: m.extend_pool(X_new))
        self.keep = np.append(self.keep, np.ones(k, dtype=bool))

    @rule(fraction=st.floats(0.0, 1.0))
    def keep_random_subset(self, fraction):
        kept = np.flatnonzero(self.keep)
        self.keep[kept[self.rng.random(len(kept)) < fraction]] = False
        self.model.keep_pool_rows(self.keep)
        with pool_block(7):
            self.blocked.keep_pool_rows(self.keep)

    @rule()
    def reoptimising_fit(self):
        self._each(_refit)
        self.fresh = True

    @rule(k=st.sampled_from([1, 2]))
    def forced_fallback(self, k):
        X_new, y_new = self._new_points(k)
        with forced_fallback():
            self._each(lambda m: m.update(X_new, y_new))
        assert self.model.last_update_fallback
        self.fresh = True

    @rule(n_pool=st.integers(1, 40))
    def register_pool(self, n_pool):
        self._register(n_pool)

    @rule(k=st.integers(1, 9))
    def use_sums_only_caches(self, k):
        """A rebuild, then uses of caches that hold only ``s``: the kept
        rows in pool order (as the session asks for them) twice — the
        build serves the first request's means, the second recomputes
        ``k*`` — and a pool extension, all before any border update."""
        self._each(lambda m: _refit(m, optimize=False))
        self.fresh = True
        for _ in range(2):
            self._check_kept(np.flatnonzero(self.keep))
        assert self.model._pool_K is None
        self.extend_pool(k)

    @invariant()
    def kept_rows_are_row_local(self):
        self._check_kept(self.rng.permutation(np.flatnonzero(self.keep)))

    def _check_kept(self, idx):
        got = self.model.predict_pool(idx)
        full = self.full.predict_pool(idx)
        with pool_block(7):
            blocked = self.blocked.predict_pool(idx)
        for a, b, c in zip(got, full, blocked):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)
        if len(idx):
            dense = self.model.predict(self.model._pool_X[idx])
            for a, d in zip(got, dense):
                np.testing.assert_allclose(a, d, rtol=1e-8, atol=1e-8)
        if self.fresh and len(self.keep) > 1:
            # (The whitened cache solved a one-row pool by LAPACK's
            # single right-hand-side routine, which rounds differently.)
            whitened = whitened_pool_predict_reference(self.model, idx)
            for a, w in zip(got, whitened):
                np.testing.assert_array_equal(a, w)
        assert self.model.pool_cache_rows == self.keep.sum()

    @invariant()
    def any_row_is_served(self):
        """A request mixing kept and dropped rows: dropped rows are
        computed fresh, kept ones still match the never-shrunk twin."""
        p = len(self.keep)
        idx = self.rng.permutation(p)[: self.rng.integers(1, p + 1)]
        kept = self.keep[idx]
        (mean, var), (full_mean, full_var) = (
            self.model.predict_pool(idx), self.full.predict_pool(idx)
        )
        np.testing.assert_array_equal(mean, full_mean)
        np.testing.assert_array_equal(var[kept], full_var[kept])
        dense_mean, dense_var = self.model.predict(self.model._pool_X[idx])
        np.testing.assert_allclose(mean, dense_mean, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(var, dense_var, rtol=1e-8, atol=1e-8)


PoolCacheMachine.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestPoolCacheMachine = PoolCacheMachine.TestCase
