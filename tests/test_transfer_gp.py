"""Tests for the paper's transfer GP (Eq. (5)-(8)).

The paper's two-task model is :class:`MultiSourceTransferGP` with one
source archive: ``fit([(Xs, ys)], Xt, yt)``, with the learned factor
``lambdas[0]``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import approx_fprime

import repro.gp.multisource as multisource_mod
from repro.gp import MultiSourceTransferGP, RBFKernel, transfer_factor

rng = np.random.default_rng(1)


class TestTransferFactor:
    def test_range(self):
        for a in (0.1, 1.0, 10.0):
            for b in (0.1, 1.0, 10.0):
                lam = transfer_factor(a, b)
                assert -1.0 < lam <= 1.0

    def test_limit_full_transfer(self):
        # a -> 0: lambda -> 1 (tasks identical).
        assert transfer_factor(1e-9, 1.0) == pytest.approx(1.0)

    def test_limit_negative_transfer(self):
        # Large a, b: lambda -> -1 (anti-correlated tasks).
        assert transfer_factor(100.0, 10.0) == pytest.approx(-1.0, abs=1e-3)

    def test_zero_crossing(self):
        # (1+a)^-b = 1/2 -> lambda = 0.
        a = 1.0
        b = 1.0  # (2)^-1 = 0.5
        assert transfer_factor(a, b) == pytest.approx(0.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            transfer_factor(-1.0, 1.0)
        with pytest.raises(ValueError):
            transfer_factor(1.0, 0.0)
        with pytest.raises(ValueError):
            transfer_factor(np.array([1.0, 0.0]), 1.0)

    def test_matches_eq7_form(self):
        a, b = 0.7, 2.3
        assert transfer_factor(a, b) == pytest.approx(
            2.0 * (1.0 / (1.0 + a)) ** b - 1.0
        )

    def test_elementwise(self):
        a = np.array([0.1, 1.0, 10.0])
        b = np.array([2.0, 1.0, 0.5])
        np.testing.assert_array_equal(
            transfer_factor(a, b),
            [transfer_factor(ai, bi) for ai, bi in zip(a, b)],
        )


class TestTransferKernel:
    """The one-source covariance: the Eq. (7) transfer kernel."""

    def _model(self, a=1.0, b=1.0):
        X = rng.uniform(size=(4, 2))
        return MultiSourceTransferGP(
            kernel=RBFKernel(np.full(2, 0.5)), a=a, b=b, optimize=False
        ).fit([(X[:2], np.zeros(2))], X[2:], np.ones(2))

    def test_within_task_is_base_kernel(self):
        model = self._model()
        X = rng.uniform(size=(6, 2))
        for task in (0, 1):
            tasks = np.full(6, task)
            assert np.allclose(
                model._full_kernel(X, tasks), model._kernel.eval(X)
            )

    def test_cross_task_damped(self):
        model = self._model(a=1.0, b=2.0)  # lambda = 2/4-1 = -0.5
        lam = model.lambdas[0]
        assert lam == pytest.approx(-0.5)
        X = rng.uniform(size=(4, 2))
        tasks = np.array([0, 0, 1, 1])
        K = model._full_kernel(X, tasks)
        K_base = model._kernel.eval(X)
        assert np.allclose(K[:2, 2:], lam * K_base[:2, 2:])
        assert np.allclose(K[:2, :2], K_base[:2, :2])

    def test_psd_for_positive_lambda(self):
        model = self._model(a=0.5, b=0.5)
        assert model.lambdas[0] > 0
        X = rng.uniform(size=(10, 2))
        tasks = np.arange(10) % 2
        eigs = np.linalg.eigvalsh(model._full_kernel(X, tasks))
        assert eigs.min() > -1e-8

    def test_gradients_match_finite_differences(self, monkeypatch):
        """The two-task likelihood gradient: kernel, ``a``, ``b`` and
        both task noises."""
        X = rng.uniform(size=(10, 2))
        y = np.sin(4 * X.sum(axis=1))
        seen = {}

        def spy(objective, theta0, bounds, **kwargs):
            seen["objective"] = objective
            return theta0

        monkeypatch.setattr(multisource_mod, "maximize_objective", spy)
        MultiSourceTransferGP(
            kernel=RBFKernel(np.full(2, 0.5)), a=0.8, b=1.2
        ).fit([(X[:5], y[:5])], X[5:], y[5:])
        objective = seen["objective"]
        theta0 = np.log([0.5, 0.5, 1.0, 0.8, 1.2, 0.01, 0.02])
        theta0 = theta0 + rng.normal(scale=0.05, size=len(theta0))
        numeric = approx_fprime(theta0, lambda t: objective(t)[0], 1e-6)
        assert np.allclose(objective(theta0)[1], numeric, atol=1e-4)


def _make_tasks(shift=0.05, flip=False, n_src=60, n_tgt=10):
    Xs = rng.uniform(size=(n_src, 3))
    f = lambda X: np.sin(3 * X.sum(axis=1))  # noqa: E731
    ys = -f(Xs) if flip else f(Xs)
    Xt = rng.uniform(size=(n_tgt, 3))
    yt = f(Xt) + shift
    Xq = rng.uniform(size=(60, 3))
    yq = f(Xq) + shift
    return Xs, ys, Xt, yt, Xq, yq


class TestTransferGP:
    def test_positive_transfer_learned(self):
        Xs, ys, Xt, yt, Xq, yq = _make_tasks()
        model = MultiSourceTransferGP(seed=0).fit([(Xs, ys)], Xt, yt)
        assert model.lambdas[0] > 0.5
        mean, _ = model.predict(Xq)
        assert np.sqrt(np.mean((mean - yq) ** 2)) < 0.15

    def test_negative_transfer_learned(self):
        Xs, ys, Xt, yt, Xq, yq = _make_tasks(flip=True)
        model = MultiSourceTransferGP(seed=0).fit([(Xs, ys)], Xt, yt)
        assert model.lambdas[0] < -0.5
        mean, _ = model.predict(Xq)
        assert np.sqrt(np.mean((mean - yq) ** 2)) < 0.3

    def test_transfer_beats_target_only(self):
        Xs, ys, Xt, yt, Xq, yq = _make_tasks()
        transfer = MultiSourceTransferGP(seed=0).fit([(Xs, ys)], Xt, yt)
        target_only = MultiSourceTransferGP(n_restarts=2, seed=0).fit(
            [], Xt, yt
        )
        rmse_t = np.sqrt(np.mean((transfer.predict(Xq)[0] - yq) ** 2))
        rmse_o = np.sqrt(np.mean((target_only.predict(Xq)[0] - yq) ** 2))
        assert rmse_t < rmse_o

    def test_no_source_data_still_works(self):
        _, _, Xt, yt, Xq, yq = _make_tasks(n_tgt=25)
        model = MultiSourceTransferGP(seed=0).fit(
            [(np.empty((0, 3)), np.empty(0))], Xt, yt
        )
        mean, var = model.predict(Xq)
        assert mean.shape == (60,)
        assert np.all(var > 0)
        assert len(model.lambdas) == 0

    def test_empty_target_raises(self):
        Xs, ys, *_ = _make_tasks()
        with pytest.raises(ValueError, match="target"):
            MultiSourceTransferGP().fit(
                [(Xs, ys)], np.empty((0, 3)), np.empty(0)
            )

    def test_dim_mismatch_raises(self):
        Xs, ys, Xt, yt, *_ = _make_tasks()
        with pytest.raises(ValueError, match="dimensionality"):
            MultiSourceTransferGP().fit([(Xs[:, :2], ys)], Xt, yt)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MultiSourceTransferGP().predict(np.zeros((1, 3)))

    def test_interpolates_target_points(self):
        Xs, ys, Xt, yt, *_ = _make_tasks(n_tgt=15)
        model = MultiSourceTransferGP(noise=1e-6, seed=0).fit(
            [(Xs, ys)], Xt, yt
        )
        mean, _ = model.predict(Xt)
        assert np.abs(mean - yt).max() < 0.1
