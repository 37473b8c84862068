"""Tests for kernels, linear algebra, marginal likelihood, and GPs."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import approx_fprime

from repro.gp import (
    Matern52Kernel,
    MultiSourceTransferGP,
    NotPositiveDefiniteError,
    RBFKernel,
    cholesky_solve,
    gaussian_log_marginal,
    log_det_from_cholesky,
    make_kernel,
    maximize_objective,
    robust_cholesky,
)

rng = np.random.default_rng(0)


class TestLinalg:
    def test_cholesky_roundtrip(self):
        A = rng.normal(size=(6, 6))
        K = A @ A.T + 1e-3 * np.eye(6)
        L, jitter = robust_cholesky(K)
        assert jitter == 0.0
        assert np.allclose(L @ L.T, K)

    def test_jitter_escalation(self):
        K = np.zeros((4, 4))  # singular
        L, jitter = robust_cholesky(K)
        assert jitter > 0
        assert np.allclose(L @ L.T, jitter * np.eye(4), atol=1e-12)

    def test_not_pd_raises(self):
        K = -np.eye(3) * 100
        with pytest.raises(NotPositiveDefiniteError):
            robust_cholesky(K, jitter=1e-12)

    def test_cholesky_solve(self):
        A = rng.normal(size=(5, 5))
        K = A @ A.T + np.eye(5)
        b = rng.normal(size=5)
        L, _ = robust_cholesky(K)
        assert np.allclose(K @ cholesky_solve(L, b), b)

    def test_log_det(self):
        A = rng.normal(size=(5, 5))
        K = A @ A.T + np.eye(5)
        L, _ = robust_cholesky(K)
        assert log_det_from_cholesky(L) == pytest.approx(
            np.linalg.slogdet(K)[1]
        )


class TestKernels:
    @pytest.mark.parametrize("cls", [RBFKernel, Matern52Kernel])
    def test_diagonal_is_variance(self, cls):
        k = cls(np.full(3, 0.5), variance=2.0)
        X = rng.uniform(size=(8, 3))
        K = k.eval(X)
        assert np.allclose(np.diag(K), 2.0)

    @pytest.mark.parametrize("cls", [RBFKernel, Matern52Kernel])
    def test_symmetry_and_psd(self, cls):
        k = cls(np.full(3, 0.5))
        X = rng.uniform(size=(10, 3))
        K = k.eval(X)
        assert np.allclose(K, K.T)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-8

    @pytest.mark.parametrize("cls", [RBFKernel, Matern52Kernel])
    def test_decay_with_distance(self, cls):
        k = cls(np.full(1, 0.5))
        near = k.eval(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = k.eval(np.array([[0.0]]), np.array([[2.0]]))[0, 0]
        assert near > far

    @pytest.mark.parametrize("cls", [RBFKernel, Matern52Kernel])
    def test_gradients_match_finite_differences(self, cls):
        X = rng.uniform(size=(12, 3))
        y = np.sin(3 * X.sum(axis=1))
        kernel = cls(np.full(3, 0.4), 1.3)

        def lml(theta):
            kernel.theta = theta
            value, _, _ = gaussian_log_marginal(
                kernel.eval(X) + 0.01 * np.eye(12), y
            )
            return value

        def grad(theta):
            kernel.theta = theta
            K, grad_of = kernel.eval_and_grad(X)
            _, W, _ = gaussian_log_marginal(
                K + 0.01 * np.eye(12), y
            )
            return grad_of(W)

        theta0 = kernel.theta + rng.normal(scale=0.05, size=4)
        numeric = approx_fprime(theta0, lml, 1e-6)
        assert np.allclose(grad(theta0), numeric, atol=1e-4)

    def test_theta_roundtrip(self):
        k = RBFKernel(np.array([0.2, 0.7]), 1.5)
        theta = k.theta
        k.theta = theta + 0.1
        assert np.allclose(k.theta, theta + 0.1)

    def test_theta_wrong_length(self):
        k = RBFKernel(np.array([0.2, 0.7]))
        with pytest.raises(ValueError):
            k.theta = np.zeros(5)

    def test_negative_lengthscale_rejected(self):
        with pytest.raises(ValueError):
            RBFKernel(np.array([-1.0]))

    def test_make_kernel(self):
        assert isinstance(make_kernel("rbf", 3), RBFKernel)
        assert isinstance(make_kernel("matern52", 3), Matern52Kernel)
        with pytest.raises(ValueError):
            make_kernel("exp", 3)

    def test_clone_independent(self):
        k = RBFKernel(np.array([0.5]))
        c = k.clone()
        c.theta = c.theta + 1.0
        assert not np.allclose(k.theta, c.theta)

    def test_ard_lengthscales_matter(self):
        k = RBFKernel(np.array([0.1, 10.0]))
        a = np.array([[0.0, 0.0]])
        move_fast_dim = np.array([[0.3, 0.0]])
        move_slow_dim = np.array([[0.0, 0.3]])
        assert (
            k.eval(a, move_fast_dim)[0, 0]
            < k.eval(a, move_slow_dim)[0, 0]
        )


class TestMaximizeObjective:
    def test_finds_quadratic_max(self):
        def objective(theta):
            value = float(np.sum((theta - 1.0) ** 2))
            return value, 2.0 * (theta - 1.0)

        best = maximize_objective(
            objective, np.zeros(3), [(-5, 5)] * 3, n_restarts=1, seed=0
        )
        assert np.allclose(best, 1.0, atol=1e-4)

    def test_respects_bounds(self):
        def objective(theta):
            return float(-theta[0]), np.array([-1.0])

        best = maximize_objective(
            objective, np.zeros(1), [(-2.0, 2.0)], n_restarts=0
        )
        assert best[0] <= 2.0 + 1e-9

    def test_pinned_bounds_ok(self):
        def objective(theta):
            return float(theta[0] ** 2), np.array([2 * theta[0], 0.0])

        best = maximize_objective(
            objective, np.array([1.0, 4.0]),
            [(-5.0, 5.0), (4.0, 4.0)], n_restarts=2, seed=1,
        )
        assert best[1] == 4.0


def _regressor(**kwargs):
    """Single-task GP regression (Eq. (1)): the transfer GP as the
    baselines build it, fitted with no source archive."""
    return MultiSourceTransferGP(n_restarts=2, **kwargs)


def _lml(gp):
    """Log marginal likelihood of a fitted model on its training data."""
    L, alpha = gp._L, gp._alpha
    z = L @ (L.T @ alpha)  # z = K alpha
    return float(
        -0.5 * z @ alpha
        - np.sum(np.log(np.diag(L)))
        - 0.5 * len(z) * np.log(2 * np.pi)
    )


class TestGPRegressor:
    """Single-task GP regression: the one GP model with no source."""

    def test_interpolates_training_data(self):
        X = rng.uniform(size=(20, 2))
        y = np.cos(4 * X[:, 0]) + X[:, 1]
        gp = _regressor(noise=1e-5).fit([], X, y)
        mean, var = gp.predict(X)
        assert np.abs(mean - y).max() < 0.05
        assert var.max() < 0.05

    def test_uncertainty_grows_off_data(self):
        X = rng.uniform(size=(15, 2)) * 0.3
        y = X.sum(axis=1)
        gp = _regressor().fit([], X, y)
        _, var_near = gp.predict(X[:3])
        _, var_far = gp.predict(np.full((1, 2), 0.95))
        assert var_far[0] > var_near.max()

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            _regressor().predict(np.zeros((1, 2)))

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            _regressor().fit([], np.zeros((3, 2)), np.zeros(4))

    def test_target_scale_invariance(self):
        X = rng.uniform(size=(15, 2))
        y = np.sin(3 * X[:, 0])
        gp1 = _regressor(seed=0).fit([], X, y)
        gp2 = _regressor(seed=0).fit([], X, 1000.0 * y + 5.0)
        m1, _ = gp1.predict(X[:4])
        m2, _ = gp2.predict(X[:4])
        assert np.allclose(m2, 1000.0 * m1 + 5.0, rtol=1e-3, atol=1e-2)

    def test_optimize_improves_lml(self):
        X = rng.uniform(size=(25, 2))
        y = np.sin(6 * X[:, 0])
        fixed = _regressor(optimize=False).fit([], X, y)
        tuned = _regressor(optimize=True, seed=0).fit([], X, y)
        assert _lml(tuned) >= _lml(fixed) - 1e-6

    def test_constant_targets_handled(self):
        X = rng.uniform(size=(8, 2))
        gp = _regressor().fit([], X, np.full(8, 3.0))
        mean, _ = gp.predict(X[:2])
        assert np.allclose(mean, 3.0, atol=1e-6)

    def test_default_kernel_sized_at_fit(self):
        X = rng.uniform(size=(10, 5))
        gp = _regressor().fit([], X, X.sum(axis=1))
        assert gp._kernel is not None
        assert gp._kernel.dim == 5  # type: ignore[attr-defined]
