"""Tests for PPATuner's multi-source extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.gp.multisource import MultiSourceTransferGP
from repro.pareto import hypervolume_error, pareto_front


@pytest.fixture()
def multi_pool(synthetic_pool):
    X, Y, Xs, Ys = synthetic_pool
    rng = np.random.default_rng(9)
    X_noise = rng.uniform(size=Xs.shape)
    Y_noise = rng.uniform(1.0, 3.0, size=Ys.shape)
    return X, Y, [(Xs, Ys), (X_noise, Y_noise)]


def _assert_transfer_models(tuner, n_sources):
    """Every surrogate is the one transfer GP, over ``n_sources``."""
    for m in tuner.models_:
        assert isinstance(m, MultiSourceTransferGP)
        assert len(m.lambdas) == n_sources


class TestMultiSourceTuning:
    def test_uses_multisource_models(self, multi_pool):
        X, Y, sources = multi_pool
        tuner = PPATuner(PPATunerConfig(max_iterations=15, seed=0))
        tuner.tune(X, PoolOracle(Y), sources=sources)
        _assert_transfer_models(tuner, n_sources=2)

    def test_single_entry_sources_uses_two_task_model(self, multi_pool):
        X, Y, sources = multi_pool
        tuner = PPATuner(PPATunerConfig(max_iterations=10, seed=0))
        tuner.tune(X, PoolOracle(Y), sources=sources[:1])
        _assert_transfer_models(tuner, n_sources=1)

    def test_quality_comparable_to_single_source(self, multi_pool):
        X, Y, sources = multi_pool
        golden = pareto_front(Y)

        def run(**kwargs):
            res = PPATuner(
                PPATunerConfig(max_iterations=60, seed=3)
            ).tune(X, PoolOracle(Y), **kwargs)
            return hypervolume_error(
                pareto_front(res.pareto_points), golden
            )

        err_multi = run(sources=sources)
        err_single = run(sources=sources[:1])
        # The irrelevant archive must not break tuning.
        assert err_multi <= err_single + 0.1

    def test_empty_sources_means_no_transfer(self, multi_pool):
        X, Y, _ = multi_pool
        tuner = PPATuner(PPATunerConfig(max_iterations=8, seed=0))
        result = tuner.tune(X, PoolOracle(Y), sources=[])
        assert len(result.pareto_indices) > 0
        _assert_transfer_models(tuner, n_sources=0)

    def test_misaligned_source_rejected(self, multi_pool):
        X, Y, sources = multi_pool
        bad = [(sources[0][0][:5], sources[0][1])]
        with pytest.raises(ValueError, match="misaligned"):
            PPATuner().tune(X, PoolOracle(Y), sources=bad)

    def test_transfer_off_ignores_sources(self, multi_pool):
        X, Y, sources = multi_pool
        tuner = PPATuner(
            PPATunerConfig(max_iterations=8, seed=0, transfer=False)
        )
        tuner.tune(X, PoolOracle(Y), sources=sources)
        _assert_transfer_models(tuner, n_sources=0)
