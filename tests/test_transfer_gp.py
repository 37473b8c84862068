"""Tests for the transfer kernel (Eq. (5)-(7)) and transfer GP (Eq. (8))."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import approx_fprime

from repro.gp import (
    SOURCE_TASK,
    TARGET_TASK,
    RBFKernel,
    TransferGP,
    TransferKernel,
    gaussian_log_marginal,
    transfer_factor,
)

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

    def test_matches_eq7_form(self):
        a, b = 0.7, 2.3
        assert transfer_factor(a, b) == pytest.approx(
            2.0 * (1.0 / (1.0 + a)) ** b - 1.0
        )


class TestTransferKernel:
    def _kernel(self, a=1.0, b=1.0):
        return TransferKernel(RBFKernel(np.full(2, 0.5)), a=a, b=b)

    def test_within_task_is_base_kernel(self):
        tk = self._kernel()
        X = rng.uniform(size=(6, 2))
        tasks = np.zeros(6, dtype=int)
        assert np.allclose(tk.eval(X, tasks), tk.base.eval(X))

    def test_cross_task_damped(self):
        tk = self._kernel(a=1.0, b=2.0)  # lambda = 2/4-1 = -0.5
        X = rng.uniform(size=(4, 2))
        tasks = np.array([0, 0, 1, 1])
        K = tk.eval(X, tasks)
        K_base = tk.base.eval(X)
        assert np.allclose(K[:2, 2:], tk.lam * K_base[:2, 2:])
        assert np.allclose(K[:2, :2], K_base[:2, :2])

    def test_psd_for_positive_lambda(self):
        tk = self._kernel(a=0.5, b=0.5)
        assert tk.lam > 0
        X = rng.uniform(size=(10, 2))
        tasks = (np.arange(10) % 2)
        eigs = np.linalg.eigvalsh(tk.eval(X, tasks))
        assert eigs.min() > -1e-8

    def test_theta_includes_gamma_params(self):
        tk = self._kernel()
        assert len(tk.theta) == tk.base.n_params + 2

    def test_theta_setter(self):
        tk = self._kernel()
        theta = tk.theta
        theta[-2:] = np.log([2.0, 3.0])
        tk.theta = theta
        assert tk.a == pytest.approx(2.0)
        assert tk.b == pytest.approx(3.0)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            TransferKernel(RBFKernel(np.ones(2)), a=-1.0)

    def test_gradients_match_finite_differences(self):
        X = rng.uniform(size=(10, 2))
        tasks = np.array([0] * 5 + [1] * 5)
        y = np.sin(4 * X.sum(axis=1))
        tk = self._kernel(a=0.8, b=1.2)

        def lml(theta):
            tk.theta = theta
            value, _, _ = gaussian_log_marginal(
                tk.eval(X, tasks) + 0.01 * np.eye(10), y
            )
            return value

        def grad(theta):
            tk.theta = theta
            K, grad_of = tk.eval_and_grad(X, tasks)
            _, W, _ = gaussian_log_marginal(
                K + 0.01 * np.eye(10), y
            )
            return grad_of(W)

        theta0 = tk.theta + rng.normal(scale=0.05, size=len(tk.theta))
        numeric = approx_fprime(theta0, lml, 1e-6)
        assert np.allclose(grad(theta0), numeric, atol=1e-4)


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
        model = TransferGP(seed=0).fit(Xs, ys, Xt, yt)
        assert model.lam > 0.5
        mean, _ = model.predict(Xq)
        assert np.sqrt(np.mean((mean - yq) ** 2)) < 0.15

    def test_negative_transfer_learned(self):
        Xs, ys, Xt, yt, Xq, yq = _make_tasks(flip=True)
        model = TransferGP(seed=0).fit(Xs, ys, Xt, yt)
        assert model.lam < -0.5
        mean, _ = model.predict(Xq)
        assert np.sqrt(np.mean((mean - yq) ** 2)) < 0.3

    def test_transfer_beats_target_only(self):
        from repro.gp import GPRegressor

        Xs, ys, Xt, yt, Xq, yq = _make_tasks()
        transfer = TransferGP(seed=0).fit(Xs, ys, Xt, yt)
        target_only = GPRegressor(seed=0).fit(Xt, yt)
        rmse_t = np.sqrt(np.mean((transfer.predict(Xq)[0] - yq) ** 2))
        rmse_o = np.sqrt(np.mean((target_only.predict(Xq)[0] - yq) ** 2))
        assert rmse_t < rmse_o

    def test_no_source_data_still_works(self):
        _, _, Xt, yt, Xq, yq = _make_tasks(n_tgt=25)
        model = TransferGP(seed=0).fit(
            np.empty((0, 3)), np.empty(0), Xt, yt
        )
        mean, var = model.predict(Xq)
        assert mean.shape == (60,)
        assert np.all(var > 0)

    def test_empty_target_raises(self):
        Xs, ys, *_ = _make_tasks()
        with pytest.raises(ValueError, match="target"):
            TransferGP().fit(Xs, ys, np.empty((0, 3)), np.empty(0))

    def test_dim_mismatch_raises(self):
        Xs, ys, Xt, yt, *_ = _make_tasks()
        with pytest.raises(ValueError, match="dimensionality"):
            TransferGP().fit(Xs[:, :2], ys, Xt, yt)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TransferGP().predict(np.zeros((1, 3)))

    def test_noise_properties(self):
        Xs, ys, Xt, yt, *_ = _make_tasks()
        model = TransferGP(
            noise_source=0.5, noise_target=0.25, optimize=False
        ).fit(Xs, ys, Xt, yt)
        assert model.noise_source == pytest.approx(0.5)
        assert model.noise_target == pytest.approx(0.25)

    def test_include_noise_adds_target_noise(self):
        Xs, ys, Xt, yt, Xq, _ = _make_tasks()
        model = TransferGP(seed=0).fit(Xs, ys, Xt, yt)
        _, v0 = model.predict(Xq[:3], include_noise=False)
        _, v1 = model.predict(Xq[:3], include_noise=True)
        assert np.all(v1 >= v0)

    def test_interpolates_target_points(self):
        Xs, ys, Xt, yt, *_ = _make_tasks(n_tgt=15)
        model = TransferGP(
            noise_target=1e-6, noise_source=1e-2, seed=0
        ).fit(Xs, ys, Xt, yt)
        mean, _ = model.predict(Xt)
        assert np.abs(mean - yt).max() < 0.1

    def test_lml_finite(self):
        Xs, ys, Xt, yt, *_ = _make_tasks()
        model = TransferGP(seed=0).fit(Xs, ys, Xt, yt)
        assert np.isfinite(model.log_marginal_likelihood())

    def test_task_constants(self):
        assert SOURCE_TASK != TARGET_TASK
