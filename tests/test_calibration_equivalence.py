"""Equivalence suite for the incremental calibration engine.

The fast path (rank-1 border updates + cached pool cross-covariance)
must be numerically indistinguishable from a from-scratch refit: for
random kernels, noise levels, source/target splits, and append orders,
posterior mean/variance agree within 1e-8 — including when the border
update falls back to the exact jittered refactorization.  With one
source archive the transfer GP must also be the paper's two-task model:
its posterior matches a dense Eq. (7)-(8) reference within 1e-10.  The
golden-trajectory test then locks the whole loop: `PPATuner.tune` with
the engine's fast path selects the same evaluation indices and the same
final Pareto set as an engine that refits from scratch every iteration
(guards Eq. (9)-(13) behavior).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.session as session_mod
import repro.gp.multisource as multisource_mod
from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.core.calibration import CalibrationEngine
from repro.gp import (
    Matern52Kernel,
    MultiSourceTransferGP,
    NotPositiveDefiniteError,
    RBFKernel,
    cholesky_append_rows,
)

from .reference_oracles import transfer_posterior_reference

TOL = 1e-8

moderate = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


# ---------------------------------------------------------------------
# linalg helpers
# ---------------------------------------------------------------------


class TestCholeskyHelpers:
    @pytest.mark.parametrize("n,k", [(1, 1), (4, 1), (6, 3), (10, 4)])
    def test_append_rows_matches_full_factorization(self, n, k):
        rng = np.random.default_rng(n * 31 + k)
        A = _random_spd(rng, n + k)
        L = np.linalg.cholesky(A[:n, :n])
        L_ext = cholesky_append_rows(L, A[:n, n:], A[n:, n:])
        np.testing.assert_allclose(
            L_ext, np.linalg.cholesky(A), atol=1e-10
        )

    def test_append_rejects_indefinite_schur_complement(self):
        L = np.eye(2)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_append_rows(
                L, np.array([[0.9], [0.9]]), np.array([[0.1]])
            )

    def test_append_shape_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            cholesky_append_rows(
                np.eye(3), np.zeros((2, 1)), np.eye(1)
            )


# ---------------------------------------------------------------------
# property-based posterior equivalence
# ---------------------------------------------------------------------


def _make_kernel(name, d, ls, var):
    cls = {"rbf": RBFKernel, "matern52": Matern52Kernel}[name]
    return cls(np.full(d, ls), var)


@st.composite
def calibration_cases(draw):
    """Random kernel/noise/split/append-order scenarios."""
    seed = draw(st.integers(0, 10_000))
    d = draw(st.integers(1, 4))
    kernel = draw(st.sampled_from(["rbf", "matern52"]))
    ls = draw(st.floats(0.2, 1.5))
    var = draw(st.floats(0.3, 3.0))
    noise = draw(st.floats(1e-4, 1e-1))
    n_src = draw(st.integers(0, 25))
    n_t0 = draw(st.integers(1, 6))
    n_app = draw(st.integers(1, 8))
    n_batches = draw(st.integers(1, min(3, n_app)))
    return seed, d, kernel, ls, var, noise, n_src, n_t0, n_app, n_batches


def _split_batches(rng, n, k):
    """Split range(n) into k contiguous non-empty batches, shuffled."""
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False)) \
        if k > 1 else np.array([], dtype=int)
    return np.split(order, cuts)


class TestPosteriorEquivalence:
    @given(calibration_cases())
    @moderate
    def test_transfer_gp(self, case):
        seed, d, kname, ls, var, noise, n_src, n_t0, n_app, n_b = case
        rng = np.random.default_rng(seed)
        Xs = rng.uniform(size=(n_src, d))
        ys = rng.normal(size=n_src)
        Xt = rng.uniform(size=(n_t0 + n_app, d))
        yt = rng.normal(size=n_t0 + n_app)
        Xq = rng.uniform(size=(10, d))

        def make():
            return MultiSourceTransferGP(
                kernel=_make_kernel(kname, d, ls, var),
                noise=noise, optimize=False,
            )

        inc = make().fit([(Xs, ys)], Xt[:n_t0], yt[:n_t0])
        app = np.arange(n_t0, n_t0 + n_app)
        for batch in _split_batches(rng, n_app, n_b):
            ids = app[batch]
            inc.update(Xt[ids], yt[ids])
        # From-scratch refit on the same data in the same final order.
        order = np.concatenate(
            [np.arange(n_t0)]
            + [app[b] for b in _split_batches(
                np.random.default_rng(seed), n_app, n_b
            )]
        )
        ref = make().fit([(Xs, ys)], Xt[order], yt[order])
        mi, vi = inc.predict(Xq)
        mr, vr = ref.predict(Xq)
        np.testing.assert_allclose(mi, mr, atol=TOL)
        np.testing.assert_allclose(vi, vr, atol=TOL)

    @given(calibration_cases())
    @moderate
    def test_one_source_is_the_paper_model(self, case):
        """One archive gives the paper's two-task GP: ``predict``,
        ``predict_pool`` and the posterior after ``update`` all match
        the dense Eq. (7)-(8) reference, per-task noises included."""
        seed, d, kname, ls, var, noise, n_src, n_t0, n_app, _ = case
        rng = np.random.default_rng(seed)
        Xs = rng.uniform(size=(n_src, d))
        ys = rng.normal(size=n_src)
        Xt = rng.uniform(size=(n_t0 + n_app, d))
        yt = rng.normal(size=n_t0 + n_app)
        pool = rng.uniform(size=(12, d))
        a, b = rng.uniform(0.05, 3.0, size=2)
        noise_s = noise * rng.uniform(0.2, 5.0)
        kernel = _make_kernel(kname, d, ls, var)

        model = MultiSourceTransferGP(
            kernel=kernel, a=a, b=b, noise=noise, optimize=False
        ).fit([(Xs, ys)], Xt[:n_t0], yt[:n_t0])
        # Source noise first, target noise last; the refit without
        # optimization keeps them.
        model._log_noise[:-1] = np.log(noise_s)
        model.fit([(Xs, ys)], Xt[:n_t0], yt[:n_t0])
        model.register_pool(pool)

        def check(n_t):
            ref = transfer_posterior_reference(
                kernel, a, b, noise_s, noise, Xs, ys,
                Xt[:n_t], yt[:n_t], pool,
            )
            for got in (
                model.predict(pool), model.predict_pool(np.arange(12))
            ):
                for g, r in zip(got, ref):
                    np.testing.assert_allclose(
                        g, r, rtol=1e-10, atol=1e-10
                    )

        check(n_t0)
        model.update(Xt[n_t0:], yt[n_t0:])
        check(n_t0 + n_app)

    @given(calibration_cases())
    @moderate
    def test_gp_regressor(self, case):
        """No source archive: single-task GP regression (Eq. (1))."""
        seed, d, kname, ls, var, noise, _, n_t0, n_app, n_b = case
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n_t0 + n_app, d))
        y = rng.normal(size=n_t0 + n_app)
        Xq = rng.uniform(size=(10, d))

        def make():
            return MultiSourceTransferGP(
                kernel=_make_kernel(kname, d, ls, var),
                noise=noise, optimize=False,
            )

        inc = make().fit([], X[:n_t0], y[:n_t0])
        app = np.arange(n_t0, n_t0 + n_app)
        batches = _split_batches(rng, n_app, n_b)
        for batch in batches:
            inc.update(X[app[batch]], y[app[batch]])
        order = np.concatenate([np.arange(n_t0)] + [app[b] for b in batches])
        ref = make().fit([], X[order], y[order])
        mi, vi = inc.predict(Xq)
        mr, vr = ref.predict(Xq)
        np.testing.assert_allclose(mi, mr, atol=TOL)
        np.testing.assert_allclose(vi, vr, atol=TOL)

    @given(calibration_cases())
    @moderate
    def test_multisource(self, case):
        seed, d, kname, ls, var, noise, n_src, n_t0, n_app, n_b = case
        rng = np.random.default_rng(seed)
        sources = [
            (rng.uniform(size=(max(n_src, 2), d)),
             rng.normal(size=max(n_src, 2)))
            for _ in range(2)
        ]
        Xt = rng.uniform(size=(n_t0 + n_app, d))
        yt = rng.normal(size=n_t0 + n_app)
        Xq = rng.uniform(size=(10, d))

        def make():
            return MultiSourceTransferGP(
                kernel=_make_kernel(kname, d, ls, var),
                noise=noise, optimize=False,
            )

        inc = make().fit(sources, Xt[:n_t0], yt[:n_t0])
        app = np.arange(n_t0, n_t0 + n_app)
        batches = _split_batches(rng, n_app, n_b)
        for batch in batches:
            inc.update(Xt[app[batch]], yt[app[batch]])
        order = np.concatenate([np.arange(n_t0)] + [app[b] for b in batches])
        ref = make().fit(sources, Xt[order], yt[order])
        mi, vi = inc.predict(Xq)
        mr, vr = ref.predict(Xq)
        np.testing.assert_allclose(mi, mr, atol=TOL)
        np.testing.assert_allclose(vi, vr, atol=TOL)

    @given(calibration_cases())
    @moderate
    def test_pool_cache_matches_direct_predict(self, case):
        seed, d, kname, ls, var, noise, n_src, n_t0, n_app, _ = case
        rng = np.random.default_rng(seed)
        Xs = rng.uniform(size=(n_src, d))
        ys = rng.normal(size=n_src)
        Xt = rng.uniform(size=(n_t0 + n_app, d))
        yt = rng.normal(size=n_t0 + n_app)
        pool = rng.uniform(size=(15, d))

        model = MultiSourceTransferGP(
            kernel=_make_kernel(kname, d, ls, var),
            noise=noise, optimize=False,
        ).fit([(Xs, ys)], Xt[:n_t0], yt[:n_t0])
        model.register_pool(pool)
        # Build the cache, then grow incrementally: the extended cache
        # must keep matching the direct (uncached) predict.
        for _ in range(2):
            idx = rng.choice(15, size=8, replace=False)
            mp, vp = model.predict_pool(idx)
            md, vd = model.predict(pool[idx])
            np.testing.assert_allclose(mp, md, atol=TOL)
            np.testing.assert_allclose(vp, vd, atol=TOL)
            model.update(Xt[n_t0:], yt[n_t0:])


class TestFallbackPath:
    def _fitted(self):
        rng = np.random.default_rng(5)
        Xs = rng.uniform(size=(12, 3))
        Xt = rng.uniform(size=(6, 3))
        model = MultiSourceTransferGP(
            kernel=RBFKernel(np.full(3, 0.4)), optimize=False
        ).fit([(Xs, rng.normal(size=12))], Xt, rng.normal(size=6))
        return model, rng

    def _refit(self, model):
        """A from-scratch fit on ``model``'s source and target rows."""
        src = model._tasks == 0
        return MultiSourceTransferGP(
            kernel=RBFKernel(np.full(3, 0.4)), optimize=False
        ).fit(
            [(model._X[src], model._y_raw[src])],
            model._X[~src], model._y_raw[~src],
        )

    def test_forced_fallback_matches_refit(self, monkeypatch):
        """When the border update is rejected, the exact refactorization
        produces the same posterior as a from-scratch fit."""
        model, rng = self._fitted()
        X_new = rng.uniform(size=(2, 3))
        y_new = rng.normal(size=2)
        Xq = rng.uniform(size=(9, 3))

        def boom(*args, **kwargs):
            raise NotPositiveDefiniteError("forced")

        monkeypatch.setattr(multisource_mod, "cholesky_append_rows", boom)
        model.register_pool(Xq)
        model.predict_pool(np.arange(9))  # warm the cache pre-fallback
        model.update(X_new, y_new)
        assert model.last_update_fallback is True

        ref = self._refit(model)
        mi, vi = model.predict(Xq)
        mr, vr = ref.predict(Xq)
        np.testing.assert_allclose(mi, mr, atol=TOL)
        np.testing.assert_allclose(vi, vr, atol=TOL)
        # The invalidated pool cache rebuilds to the same numbers.
        mp, vp = model.predict_pool(np.arange(9))
        np.testing.assert_allclose(mp, mi, atol=TOL)
        np.testing.assert_allclose(vp, vi, atol=TOL)

    def test_near_singular_append_still_equivalent(self):
        """Appending near-duplicate points (ill-conditioned Schur
        complement) stays within tolerance of the exact refit whichever
        path it takes."""
        model, rng = self._fitted()
        x_dup = model._X[model._tasks == 1][:1]
        X_new = np.vstack([x_dup + 1e-9, x_dup + 2e-9])
        y_new = rng.normal(size=2)
        Xq = rng.uniform(size=(9, 3))
        model.update(X_new, y_new)
        ref = self._refit(model)
        mi, vi = model.predict(Xq)
        mr, vr = ref.predict(Xq)
        np.testing.assert_allclose(mi, mr, atol=1e-6)
        np.testing.assert_allclose(vi, vr, atol=1e-6)

    def test_update_validation(self):
        model, rng = self._fitted()
        with pytest.raises(ValueError, match="misaligned"):
            model.update(rng.uniform(size=(2, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="dimensionality"):
            model.update(rng.uniform(size=(2, 5)), np.zeros(2))
        with pytest.raises(RuntimeError, match="before fit"):
            MultiSourceTransferGP().update(np.zeros((1, 3)), np.zeros(1))
        # Empty update is a no-op.
        L_before = model._L.copy()
        model.update(np.empty((0, 3)), np.empty(0))
        np.testing.assert_array_equal(model._L, L_before)


# ---------------------------------------------------------------------
# warm-started hyperparameter refits
# ---------------------------------------------------------------------


class TestEmptyPoolRequests:
    """An empty request — a plain ``[]`` included, which numpy reads as
    a float array — returns empty arrays and builds no pool cache."""

    @staticmethod
    def _engine():
        rng = np.random.default_rng(4)
        X_pool, Y_pool = rng.uniform(size=(30, 3)), rng.normal(size=(30, 2))
        models = [
            MultiSourceTransferGP(
                kernel=RBFKernel(np.full(3, 0.4)), optimize=False
            )
            for _ in range(2)
        ]
        engine = CalibrationEngine(models, PPATunerConfig(), sources=[])
        engine.register_pool(X_pool)
        sampled = np.zeros(30, dtype=bool)
        sampled[:6] = True
        y_obs = np.where(sampled[:, None], Y_pool, np.nan)
        engine.calibrate(0, X_pool, sampled, y_obs, list(range(6)))
        return engine

    @pytest.mark.parametrize(
        "request_", [[], (), np.array([], dtype=int), np.zeros(30, bool)]
    )
    def test_predict_pool(self, request_):
        model = self._engine().models[0]
        mean, var = model.predict_pool(request_)
        assert mean.shape == var.shape == (0,)
        assert model.pool_cache_rows == 0 and model._pool_K is None
        mean, var = model.predict_pool([3, 0])
        assert mean.shape == (2,) and model.pool_cache_rows == 30

    @pytest.mark.parametrize(
        "request_", [[], (), np.array([], dtype=int), np.zeros(30, bool)]
    )
    def test_engine_predict(self, request_):
        engine = self._engine()
        mean, std = engine.predict(request_)
        assert mean.shape == std.shape == (0, 2)
        assert all(m.pool_cache_rows == 0 for m in engine.models)

    def test_float_indices_rejected(self):
        with pytest.raises(TypeError):
            self._engine().predict([1.0, 2.0])


class TestWarmStart:
    def test_refit_resumes_from_previous_optimum(self, monkeypatch):
        rng = np.random.default_rng(2)
        Xs = rng.uniform(size=(20, 3))
        Xt = rng.uniform(size=(10, 3))
        model = MultiSourceTransferGP(
            kernel=RBFKernel(np.full(3, 0.4)), n_restarts=0, seed=0
        )
        model.fit([(Xs, rng.normal(size=20))], Xt, rng.normal(size=10))
        theta_opt = model._opt_theta.copy()
        # Perturb the live kernel and Gamma parameters the way an
        # aborted objective evaluation would; the refit must resume
        # from the stored optimum, not the perturbed live values.
        model._kernel.theta = model._kernel.theta + 2.5
        model._log_a = model._log_a + 2.5
        model._log_b = model._log_b + 2.5
        seen_theta0 = {}
        original = multisource_mod.maximize_objective

        def spy(objective, theta0, bounds, **kwargs):
            seen_theta0["value"] = np.asarray(theta0).copy()
            return original(objective, theta0, bounds, **kwargs)

        monkeypatch.setattr(multisource_mod, "maximize_objective", spy)
        model.fit([(Xs, rng.normal(size=20))], Xt, rng.normal(size=10))
        np.testing.assert_allclose(seen_theta0["value"], theta_opt)


# ---------------------------------------------------------------------
# golden trajectory: the engine swap must not move Algorithm 1
# ---------------------------------------------------------------------


class _RefitEngine(CalibrationEngine):
    """The exact path on every calibration: a full ``fit`` per metric,
    never an ``update``."""

    def calibrate(self, *args, **kwargs):
        self._fitted = False
        super().calibrate(*args, **kwargs)


@contextmanager
def _calibration(incremental):
    """Sessions built inside use the engine's fast path, or not."""
    with pytest.MonkeyPatch.context() as mp:
        if not incremental:
            mp.setattr(session_mod, "CalibrationEngine", _RefitEngine)
        yield


class TestGoldenTrajectory:
    def _run(self, synthetic_pool, incremental, **kw):
        X, Y, Xs, Ys = synthetic_pool
        cfg = PPATunerConfig(max_iterations=40, seed=3, **kw)
        tuner = PPATuner(cfg)
        with _calibration(incremental):
            result = tuner.tune(X, PoolOracle(Y), sources=[(Xs, Ys)])
        return tuner, result

    def test_same_indices_and_pareto_set(self, synthetic_pool):
        _, fast = self._run(synthetic_pool, incremental=True)
        _, slow_ = self._run(synthetic_pool, incremental=False)
        assert [h.selected for h in fast.history] == [
            h.selected for h in slow_.history
        ]
        np.testing.assert_array_equal(
            fast.evaluated_indices, slow_.evaluated_indices
        )
        np.testing.assert_array_equal(
            fast.pareto_indices, slow_.pareto_indices
        )
        np.testing.assert_allclose(
            fast.pareto_points, slow_.pareto_points
        )
        assert fast.n_evaluations == slow_.n_evaluations

    def test_same_trajectory_multisource(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        sources = [(Xs[:60], Ys[:60]), (Xs[60:], Ys[60:])]

        def run(incremental):
            cfg = PPATunerConfig(max_iterations=25, seed=3)
            with _calibration(incremental):
                return PPATuner(cfg).tune(
                    X, PoolOracle(Y), sources=sources
                )

        fast, slow_ = run(True), run(False)
        np.testing.assert_array_equal(
            fast.evaluated_indices, slow_.evaluated_indices
        )
        np.testing.assert_array_equal(
            fast.pareto_indices, slow_.pareto_indices
        )

    def test_engine_uses_fast_path(self, synthetic_pool):
        tuner, result = self._run(synthetic_pool, incremental=True)
        stats = tuner.calibration_.stats
        assert stats.n_incremental > 0
        # Full fits only on the re-optimization cadence.
        m = len(tuner.models_)
        expected_ticks = 1 + (result.n_iterations - 1) // (
            tuner.config.reopt_every
        )
        assert stats.n_full_fits <= m * (expected_ticks + 1)
        assert stats.n_reopts >= m

    def test_reopt_never_cadence(self, synthetic_pool):
        tuner, result = self._run(
            synthetic_pool, incremental=True, reopt_every=0
        )
        stats = tuner.calibration_.stats
        # One initial (unoptimized) fit per metric, everything else
        # incremental.
        assert stats.n_reopts == 0
        assert stats.n_full_fits == len(tuner.models_)
        assert len(result.pareto_indices) > 0

    def test_reopt_every_validation(self):
        with pytest.raises(ValueError, match="reopt_every"):
            PPATunerConfig(reopt_every=-1)
        assert PPATunerConfig().reopt_every == 10
