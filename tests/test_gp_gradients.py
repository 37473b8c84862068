"""Gradient and kernel-evaluation checks for the GP hyperparameter fits.

Each model's whole marginal-likelihood objective — captured with a spy
on ``maximize_objective`` — must match finite differences, noise terms
included, and the transfer GP's trimmed objective must equal the one it
replaced bit for bit.  With no source archive that objective must also
equal, bit for bit, the single-task GP regression objective whose model
it replaced.  The kernels' single-contraction gradients must
equal the list-of-``dK/dtheta`` form they replaced, and the ``cdist``
kernel evaluation must equal the ``(n1, n2, d)`` broadcast: bit for bit
while the distance sum has at most seven terms, to roundoff beyond.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import approx_fprime

import repro.gp.multisource as multisource_mod
from repro.gp import (
    Matern52Kernel,
    MultiSourceTransferGP,
    RBFKernel,
    gaussian_log_marginal,
)

from .reference_oracles import (
    _sq_dists_per_dim,
    ard_eval_reference,
    ard_eval_with_grads_reference,
    lml_grads_reference,
    multisource_grads_reference,
    multisource_objective_reference,
    regressor_objective_reference,
    transfer_eval_with_grads_reference,
)

KERNELS = [RBFKernel, Matern52Kernel]


def _f(X):
    return np.sin(3 * X.sum(axis=1))


def _capture_objective(module, fit):
    """Run ``fit`` with ``module.maximize_objective`` replaced by a spy
    that records the objective and returns the start point."""
    seen = {}
    original = module.maximize_objective

    def spy(objective, theta0, bounds, **kwargs):
        seen["objective"] = objective
        seen["theta0"] = np.asarray(theta0, dtype=float).copy()
        return theta0

    module.maximize_objective = spy
    try:
        fit()
    finally:
        module.maximize_objective = original
    return seen["objective"], seen["theta0"]


def _data(d, seed=0):
    rng = np.random.default_rng(seed)
    Xs1 = rng.uniform(size=(15, d))
    Xs2 = rng.uniform(size=(12, d))
    Xt = rng.uniform(size=(8, d))
    return rng, Xs1, Xs2, Xt


def _model_objective(name, kernel_cls, d=3):
    """The captured objective and start point of one model's fit;
    ``"regressor"`` is the replaced single-task objective on the target
    data, from the start point that model used."""
    if name == "regressor":
        rng, _, _, Xt = _data(d)
        kernel = kernel_cls(np.full(d, 0.4))
        y = _f(Xt)
        objective = regressor_objective_reference(
            kernel, Xt, (y - y.mean()) / y.std()
        )
        return rng, objective, np.append(kernel.theta, np.log(1e-2))
    rng, _, objective, theta0 = _fitted_objective(name, kernel_cls, d)
    return rng, objective, theta0


def _fitted_objective(name, kernel_cls, d=3):
    """:func:`_model_objective` plus the model it was captured from."""
    rng, Xs1, Xs2, Xt = _data(d)
    kernel = kernel_cls(np.full(d, 0.4))
    sources = {
        "transfer": [(Xs1, _f(Xs1))],
        "transfer_no_source": [],
        "multisource": [(Xs1, _f(Xs1)), (Xs2, -_f(Xs2))],
    }
    model = MultiSourceTransferGP(kernel=kernel)

    def fit():
        model.fit(sources[name], Xt, _f(Xt))

    return rng, model, *_capture_objective(multisource_mod, fit)


class TestObjectiveGradients:
    """The whole objective each model hands to L-BFGS-B."""

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    @pytest.mark.parametrize(
        "name,n_params",
        [
            ("transfer", 8),
            ("transfer_no_source", 5),
            ("multisource", 11),
            ("regressor", 5),
        ],
    )
    def test_matches_finite_differences(self, name, n_params, kernel_cls):
        rng, objective, theta0 = _model_objective(name, kernel_cls)
        assert len(theta0) == n_params
        theta = theta0 + rng.normal(scale=0.1, size=n_params)
        value, grad = objective(theta)
        assert np.isfinite(value) and grad.shape == (n_params,)
        numeric = approx_fprime(theta, lambda t: objective(t)[0], 1e-6)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-4)


class TestObjectiveTrims:
    """The transfer GP's objective expands ``B`` by one flat index, adds
    the noises to ``K``'s diagonal in place and solves for ``alpha``
    without a finiteness check; none of that may move a bit."""

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    @pytest.mark.parametrize(
        "name", ["transfer_no_source", "transfer", "multisource"]
    )
    def test_bit_identical_to_untrimmed(self, name, kernel_cls):
        rng, model, objective, theta0 = _fitted_objective(name, kernel_cls)
        z = (model._y_raw - model._y_mean) / model._y_std
        reference = multisource_objective_reference(
            model, model._X, model._tasks, z
        )
        for _ in range(20):
            theta = theta0 + rng.normal(scale=0.5, size=len(theta0))
            value, grad = objective(theta)
            ref_value, ref_grad = reference(theta)
            assert value == ref_value
            np.testing.assert_array_equal(grad, ref_grad)


class TestNoSourceIsRegression:
    """With no source archive the transfer GP is the single-task GP
    regression of Eq. (1): its objective equals the regressor's, value
    and gradient, bit for bit — the noise gradient's per-task sum is
    ``np.trace`` for one task."""

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_bit_identical_to_regressor_objective(self, kernel_cls):
        rng, model, objective, theta0 = _fitted_objective(
            "transfer_no_source", kernel_cls
        )
        z = (model._y_raw - model._y_mean) / model._y_std
        reference = regressor_objective_reference(
            kernel_cls(np.ones(3)), model._X, z
        )
        for _ in range(20):
            theta = theta0 + rng.normal(scale=0.5, size=len(theta0))
            value, grad = objective(theta)
            ref_value, ref_grad = reference(theta)
            assert value == ref_value
            np.testing.assert_array_equal(grad, ref_grad)


def _assert_close_to_reference(new, ref):
    np.testing.assert_allclose(
        new, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max()
    )


class TestContractionMatchesListForm:
    """One contraction per kernel equals the per-parameter matrices."""

    @pytest.mark.parametrize("d", [3, 9])
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_ard_kernels(self, kernel_cls, d):
        rng = np.random.default_rng(d)
        X = rng.uniform(size=(30, d))
        y = _f(X)
        kernel = kernel_cls(np.exp(rng.uniform(-1, 1, size=d)), 1.3)
        noise = 0.01 * np.eye(len(X))

        K, grad = kernel.eval_and_grad(X)
        _, W, _ = gaussian_log_marginal(K + noise, y)
        K_ref, grads_ref = ard_eval_with_grads_reference(kernel, X)
        ref = lml_grads_reference(K_ref + noise, y, grads_ref)
        _assert_close_to_reference(grad(W), ref)

    @pytest.mark.parametrize("d", [3, 9])
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_transfer_kernel(self, kernel_cls, d):
        """One source archive: the paper's Eq. (7) kernel gradient."""
        _check_transfer_objective(kernel_cls, d, n_sources=1)

    @pytest.mark.parametrize("d", [3, 9])
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_multisource_objective(self, kernel_cls, d):
        # The task-block sums replace one n x n dB matrix per source.
        _check_transfer_objective(kernel_cls, d, n_sources=2)


def _check_transfer_objective(kernel_cls, d, n_sources):
    """The transfer GP's objective gradient over ``n_sources`` archives
    against the list-of-matrices form: the Eq. (7) reference for one
    source, the per-source ``dB`` loop for two."""
    name = "transfer" if n_sources == 1 else "multisource"
    rng, objective, theta0 = _model_objective(name, kernel_cls, d=d)
    theta = theta0 + rng.normal(scale=0.1, size=len(theta0))
    _, grad = objective(theta)

    _, Xs1, Xs2, Xt = _data(d)
    parts = [(Xs1, _f(Xs1)), (Xs2, -_f(Xs2))][:n_sources]
    parts.append((Xt, _f(Xt)))
    X = np.vstack([Xp for Xp, _ in parts])
    y = np.concatenate([yp for _, yp in parts])
    z = (y - y.mean()) / y.std()
    tasks = np.repeat(np.arange(n_sources + 1), [len(yp) for _, yp in parts])
    kernel = kernel_cls(np.ones(d))
    kernel.theta = theta[:d + 1]
    log_a, log_b, log_noise = np.split(
        theta[d + 1:], [n_sources, 2 * n_sources]
    )
    if n_sources == 1:
        K_ref, grads_ref = transfer_eval_with_grads_reference(
            kernel, np.exp(log_a[0]), np.exp(log_b[0]), X, tasks
        )
        noise = np.exp(log_noise)
        K_ref = K_ref + np.diag(noise[tasks])
        grads_ref += [np.diag(noise[k] * (tasks == k)) for k in (0, 1)]
    else:
        K_ref, grads_ref = multisource_grads_reference(
            kernel, X, tasks, log_a, log_b, log_noise
        )
    _assert_close_to_reference(
        -grad, lml_grads_reference(K_ref, z, grads_ref)
    )


class TestKernelEvalMatchesBroadcast:
    """``cdist`` distances against the ``(n1, n2, d)`` broadcast."""

    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_cross_and_symmetric(self, kernel_cls, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(10):
            kernel = kernel_cls(
                np.exp(rng.uniform(-2, 1, size=d)),
                float(np.exp(rng.uniform(-1, 1))),
            )
            X1 = rng.uniform(size=(37, d))
            X2 = rng.uniform(size=(23, d))
            for A, B in ((X1, X2), (X1, None)):
                new = kernel.eval(A, B)
                ref = ard_eval_reference(kernel, A, B)
                if d <= 7:
                    # cdist adds up to seven terms in numpy's order.
                    np.testing.assert_array_equal(new, ref)
                    continue
                # Beyond seven terms numpy sums pairwise, so the scaled
                # squared distance r2 may differ in its last bits; the
                # kernel's exponent scales that relative difference by
                # at most r2.
                ls = kernel.lengthscales
                r2 = _sq_dists_per_dim(
                    A / ls, (A if B is None else B) / ls
                ).sum(axis=2)
                rel = np.abs(new - ref) / np.abs(ref)
                assert np.all(rel <= 1e-14 * np.maximum(1.0, r2))

    @pytest.mark.parametrize("d", [1, 6, 9])
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_symmetric_diagonal_is_variance(self, kernel_cls, d):
        rng = np.random.default_rng(d)
        kernel = kernel_cls(np.exp(rng.uniform(-2, 1, size=d)), 1.7)
        K = kernel.eval(rng.uniform(size=(25, d)))
        assert np.all(np.diag(K) == kernel.variance)
        np.testing.assert_array_equal(K, K.T)
