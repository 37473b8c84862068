"""Tests for the multi-source transfer GP extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gp.multisource import MultiSourceTransferGP

rng = np.random.default_rng(7)


def _f(X):
    return np.sin(3 * X.sum(axis=1))


def _make(n_tgt=10, n_src=50):
    Xs1 = rng.uniform(size=(n_src, 3))
    ys1 = _f(Xs1)  # well-correlated source
    Xs2 = rng.uniform(size=(n_src, 3))
    ys2 = rng.normal(size=n_src)  # pure-noise source
    Xt = rng.uniform(size=(n_tgt, 3))
    yt = _f(Xt) + 0.03
    Xq = rng.uniform(size=(60, 3))
    yq = _f(Xq) + 0.03
    return [(Xs1, ys1), (Xs2, ys2)], Xt, yt, Xq, yq


class TestFit:
    def test_learns_per_source_similarity(self):
        sources, Xt, yt, Xq, yq = _make()
        model = MultiSourceTransferGP(seed=0).fit(sources, Xt, yt)
        lams = model.lambdas
        assert len(lams) == 2
        # The informative source must be rated more similar than the
        # noise source.
        assert lams[0] > lams[1]
        assert lams[0] > 0.4

    def test_beats_target_only(self):
        sources, Xt, yt, Xq, yq = _make()
        multi = MultiSourceTransferGP(seed=0).fit(sources, Xt, yt)
        solo = MultiSourceTransferGP(n_restarts=2, seed=0).fit([], Xt, yt)
        rmse_multi = np.sqrt(np.mean((multi.predict(Xq)[0] - yq) ** 2))
        rmse_solo = np.sqrt(np.mean((solo.predict(Xq)[0] - yq) ** 2))
        assert rmse_multi < rmse_solo

    def test_matches_two_task_model_with_one_source(self):
        sources, Xt, yt, Xq, yq = _make()
        one = MultiSourceTransferGP(seed=0).fit(sources[:1], Xt, yt)
        mean, var = one.predict(Xq)
        rmse = np.sqrt(np.mean((mean - yq) ** 2))
        assert rmse < 0.2
        assert np.all(var > 0)

    def test_no_sources(self):
        _, Xt, yt, Xq, _ = _make(n_tgt=20)
        model = MultiSourceTransferGP(seed=0).fit([], Xt, yt)
        mean, var = model.predict(Xq)
        assert mean.shape == (60,)
        assert model.lambdas.shape == (0,)

    def test_empty_source_entries_skipped(self):
        sources, Xt, yt, *_ = _make()
        sources = sources + [(np.empty((0, 3)), np.empty(0))]
        model = MultiSourceTransferGP(seed=0).fit(sources, Xt, yt)
        assert len(model.lambdas) == 2

    def test_task_matrix_psd(self):
        sources, Xt, yt, *_ = _make()
        model = MultiSourceTransferGP(seed=0).fit(sources, Xt, yt)
        B = model._task_matrix(model._coeffs())
        eigs = np.linalg.eigvalsh(B)
        assert eigs.min() > -1e-10
        assert np.allclose(np.diag(B), 1.0)


class TestValidation:
    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            MultiSourceTransferGP().fit(
                [], np.empty((0, 3)), np.empty(0)
            )

    def test_misaligned_source_rejected(self):
        _, Xt, yt, *_ = _make()
        with pytest.raises(ValueError, match="misaligned"):
            MultiSourceTransferGP().fit(
                [(np.zeros((5, 3)), np.zeros(4))], Xt, yt
            )

    def test_dim_mismatch_rejected(self):
        _, Xt, yt, *_ = _make()
        with pytest.raises(ValueError, match="dimensionality"):
            MultiSourceTransferGP().fit(
                [(np.zeros((5, 2)), np.zeros(5))], Xt, yt
            )

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            MultiSourceTransferGP().predict(np.zeros((1, 3)))

    def test_bad_init_params(self):
        with pytest.raises(ValueError):
            MultiSourceTransferGP(a=-1.0)
        with pytest.raises(ValueError):
            MultiSourceTransferGP(noise=0.0)
