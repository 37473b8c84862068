"""Edge-case and robustness tests for the GP substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gp import (
    Matern52Kernel,
    MultiSourceTransferGP,
    RBFKernel,
    gaussian_log_marginal,
)

rng = np.random.default_rng(11)


def _regressor(**kwargs):
    """Single-task GP regression: the transfer GP as the baselines build
    it, fitted with no source archive."""
    return MultiSourceTransferGP(n_restarts=2, **kwargs)


class TestDuplicateAndDegenerateData:
    def test_duplicate_inputs_different_targets(self):
        """Contradictory observations force learned noise, not a crash."""
        X = np.vstack([np.full((2, 2), 0.5), rng.uniform(size=(8, 2))])
        y = np.concatenate([[0.0, 1.0], rng.normal(size=8)])
        gp = _regressor(seed=0).fit([], X, y)
        mean, var = gp.predict(np.full((1, 2), 0.5))
        assert np.isfinite(mean).all()
        # The model must be uncertain (or noisy) at the contradiction.
        assert np.exp(gp._log_noise[-1]) > 1e-6 or var[0] > 1e-6

    def test_single_training_point(self):
        gp = _regressor().fit([], np.array([[0.5, 0.5]]), np.array([2.0]))
        mean, var = gp.predict(np.array([[0.5, 0.5]]))
        assert mean[0] == pytest.approx(2.0, abs=0.2)

    def test_collinear_inputs(self):
        t = np.linspace(0, 1, 12)
        X = np.column_stack([t, 2 * t])  # rank-1 input matrix
        y = np.sin(4 * t)
        gp = _regressor(seed=0).fit([], X, y)
        mean, _ = gp.predict(X)
        assert np.sqrt(np.mean((mean - y) ** 2)) < 0.2

    def test_extreme_target_magnitudes(self):
        X = rng.uniform(size=(12, 2))
        y = 1e9 * np.sin(3 * X[:, 0])
        gp = _regressor(seed=0).fit([], X, y)
        mean, var = gp.predict(X[:3])
        assert np.isfinite(mean).all() and np.isfinite(var).all()

    def test_tiny_target_magnitudes(self):
        X = rng.uniform(size=(12, 2))
        y = 1e-9 * np.sin(3 * X[:, 0])
        gp = _regressor(seed=0).fit([], X, y)
        mean, _ = gp.predict(X[:3])
        assert np.isfinite(mean).all()


class TestTransferGPEdgeCases:
    """The paper's two-task model: one source archive."""

    def test_single_target_point_with_source(self):
        Xs = rng.uniform(size=(30, 2))
        ys = Xs.sum(axis=1)
        model = MultiSourceTransferGP(seed=0).fit(
            [(Xs, ys)], np.array([[0.5, 0.5]]), np.array([1.0])
        )
        mean, var = model.predict(rng.uniform(size=(5, 2)))
        assert np.isfinite(mean).all()
        assert np.all(var >= 0)

    def test_source_much_larger_than_target(self):
        Xs = rng.uniform(size=(200, 2))
        ys = np.sin(3 * Xs.sum(axis=1))
        Xt = rng.uniform(size=(3, 2))
        yt = np.sin(3 * Xt.sum(axis=1))
        model = MultiSourceTransferGP(seed=0).fit([(Xs, ys)], Xt, yt)
        Xq = rng.uniform(size=(40, 2))
        mean, _ = model.predict(Xq)
        true = np.sin(3 * Xq.sum(axis=1))
        assert np.sqrt(np.mean((mean - true) ** 2)) < 0.2

    def test_constant_source_targets(self):
        Xs = rng.uniform(size=(20, 2))
        model = MultiSourceTransferGP(seed=0).fit(
            [(Xs, np.full(20, 5.0))],
            rng.uniform(size=(6, 2)), rng.normal(size=6),
        )
        mean, _ = model.predict(rng.uniform(size=(4, 2)))
        assert np.isfinite(mean).all()

    def test_refit_keeps_hyperparameters_without_optimize(self):
        Xs = rng.uniform(size=(40, 2))
        ys = np.sin(3 * Xs.sum(axis=1))
        Xt = rng.uniform(size=(8, 2))
        yt = np.sin(3 * Xt.sum(axis=1))
        model = MultiSourceTransferGP(seed=0).fit([(Xs, ys)], Xt, yt)
        lam_before = model.lambdas[0]
        model.optimize = False
        # Refit with one more target point; lambda must persist.
        Xt2 = np.vstack([Xt, rng.uniform(size=(1, 2))])
        yt2 = np.append(yt, 0.0)
        model.fit([(Xs, ys)], Xt2, yt2)
        assert model.lambdas[0] == pytest.approx(lam_before)


class TestNonFiniteData:
    """NaN/inf is rejected on entry with a message naming the array, not
    deep inside a factorization."""

    def _data(self):
        X = rng.uniform(size=(12, 3))
        return X, np.sin(3 * X.sum(axis=1))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_fit_rejects_nonfinite_inputs(self, value):
        X, y = self._data()
        X_bad = X.copy()
        X_bad[3, 1] = value
        with pytest.raises(ValueError, match="X_target contains"):
            MultiSourceTransferGP().fit([], X_bad, y)
        with pytest.raises(ValueError, match="source 0 X"):
            MultiSourceTransferGP().fit([(X_bad, y)], X, y)
        with pytest.raises(ValueError, match="source 1 X"):
            MultiSourceTransferGP().fit([(X, y), (X_bad, y)], X, y)

    def test_fit_rejects_nonfinite_targets(self):
        X, y = self._data()
        y_bad = y.copy()
        y_bad[0] = np.nan
        with pytest.raises(ValueError, match="y_target"):
            MultiSourceTransferGP().fit([], X, y_bad)
        with pytest.raises(ValueError, match="source 0 y"):
            MultiSourceTransferGP().fit([(X, y_bad)], X, y)

    @pytest.mark.parametrize("with_source", [
        pytest.param(False, id="GPRegressor"),
        pytest.param(True, id="MultiSourceTransferGP"),
    ])
    def test_update_rejects_nonfinite(self, with_source):
        """Border updates check their rows both on the single-task GP
        regression (no source archive) and on the transfer GP."""
        X, y = self._data()
        sources = [(X[::-1] * 0.9, y[::-1])] if with_source else []
        model = _regressor(optimize=False)
        model.fit(sources=sources, X_target=X, y_target=y)
        with pytest.raises(ValueError, match="y_new"):
            model.update(X[:2], np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match="X_new"):
            model.update(np.full((1, 3), np.inf), np.zeros(1))


class TestMarginalLikelihood:
    def test_matches_closed_form_1d(self):
        K = np.array([[2.0]])
        y = np.array([1.5])
        lml, _, alpha = gaussian_log_marginal(K, y)
        expected = (
            -0.5 * 1.5**2 / 2.0 - 0.5 * np.log(2.0)
            - 0.5 * np.log(2 * np.pi)
        )
        assert lml == pytest.approx(expected)
        assert alpha[0] == pytest.approx(1.5 / 2.0)

    def test_higher_noise_flattens_likelihood(self):
        X = rng.uniform(size=(10, 2))
        kernel = RBFKernel(np.full(2, 0.4))
        K = kernel.eval(X)
        y = rng.normal(size=10) * 3.0
        lml_tight, _, _ = gaussian_log_marginal(K + 1e-4 * np.eye(10), y)
        lml_loose, _, _ = gaussian_log_marginal(K + 10.0 * np.eye(10), y)
        # With targets far larger than the prior, more noise explains
        # the data better.
        assert lml_loose > lml_tight

    @pytest.mark.parametrize("cls", [RBFKernel, Matern52Kernel])
    def test_kernel_cross_eval_consistency(self, cls):
        k = cls(np.full(3, 0.5), 1.7)
        X = rng.uniform(size=(6, 3))
        K_sym = k.eval(X)
        K_cross = k.eval(X, X)
        assert np.allclose(K_sym, K_cross)
