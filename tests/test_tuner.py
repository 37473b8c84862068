"""Integration tests for PPATuner (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.pareto import adrs, hypervolume_error, pareto_front


@pytest.fixture()
def tuned(synthetic_pool):
    X, Y, Xs, Ys = synthetic_pool
    oracle = PoolOracle(Y)
    tuner = PPATuner(PPATunerConfig(max_iterations=80, seed=3))
    result = tuner.tune(X, oracle, sources=[(Xs, Ys)])
    return tuner, result, X, Y


class TestOnSyntheticPool:
    def test_finds_accurate_front(self, tuned):
        _, result, _, Y = tuned
        golden = pareto_front(Y)
        approx = pareto_front(result.pareto_points)
        assert hypervolume_error(approx, golden) < 0.1
        assert adrs(golden, approx) < 0.1

    def test_uses_fraction_of_pool(self, tuned):
        _, result, X, _ = tuned
        assert result.n_evaluations < len(X) / 2

    def test_history_recorded(self, tuned):
        _, result, _, _ = tuned
        assert len(result.history) == result.n_iterations
        assert result.history[0].n_evaluations > 0

    def test_undecided_monotone_decreasing_tail(self, tuned):
        _, result, _, _ = tuned
        undecided = [h.n_undecided for h in result.history]
        assert undecided[-1] <= undecided[0]

    def test_pareto_points_match_indices(self, tuned):
        _, result, _, Y = tuned
        assert np.allclose(Y[result.pareto_indices], result.pareto_points)

    def test_stop_reason_set(self, tuned):
        _, result, _, _ = tuned
        assert result.stop_reason in (
            "all_decided", "max_iterations", "pool_exhausted",
        )

    def test_models_fitted_per_objective(self, tuned):
        tuner, _, _, Y = tuned
        assert len(tuner.models_) == Y.shape[1]
        assert all(m.is_fitted for m in tuner.models_)


class TestTransferBehavior:
    def test_transfer_reduces_runs_or_error(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        golden = pareto_front(Y)

        def run(transfer):
            oracle = PoolOracle(Y)
            cfg = PPATunerConfig(
                max_iterations=80, seed=3, transfer=transfer
            )
            res = PPATuner(cfg).tune(X, oracle, sources=[(Xs, Ys)])
            err = hypervolume_error(
                pareto_front(res.pareto_points), golden
            )
            return res.n_evaluations, err

        runs_t, err_t = run(True)
        runs_n, err_n = run(False)
        # Transfer must help on at least one axis without losing the
        # other by more than noise.
        assert (runs_t <= runs_n and err_t <= err_n + 0.05) or (
            err_t <= err_n and runs_t <= runs_n * 1.2
        )

    def test_works_without_source(self, synthetic_pool):
        X, Y, _, _ = synthetic_pool
        oracle = PoolOracle(Y)
        result = PPATuner(
            PPATunerConfig(max_iterations=40, seed=0)
        ).tune(X, oracle)
        assert len(result.pareto_indices) > 0


class TestValidation:
    def test_pool_oracle_mismatch(self, synthetic_pool):
        X, Y, _, _ = synthetic_pool
        with pytest.raises(ValueError, match="size mismatch"):
            PPATuner().tune(X[:10], PoolOracle(Y))

    def test_source_misaligned(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        with pytest.raises(ValueError, match="misaligned"):
            PPATuner().tune(X, PoolOracle(Y), sources=[(Xs[:5], Ys)])

    def test_source_objective_mismatch(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        with pytest.raises(ValueError, match="objectives"):
            PPATuner().tune(
                X, PoolOracle(Y), sources=[(Xs, Ys[:, :1])]
            )

    def test_explicit_init_indices_used(self, synthetic_pool):
        X, Y, _, _ = synthetic_pool
        oracle = PoolOracle(Y)
        init = np.array([0, 1, 2, 3, 4])
        result = PPATuner(
            PPATunerConfig(max_iterations=5, seed=0)
        ).tune(X, oracle, init_indices=init)
        assert set(init).issubset(set(result.evaluated_indices))


class TestBatchMode:
    def test_batch_reduces_iterations(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool

        def run(batch):
            oracle = PoolOracle(Y)
            cfg = PPATunerConfig(
                max_iterations=100, seed=3, q=batch
            )
            return PPATuner(cfg).tune(X, oracle, sources=[(Xs, Ys)])

        single = run(1)
        quad = run(4)
        assert quad.n_iterations <= single.n_iterations

    def test_batch_selection_counts(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        oracle = PoolOracle(Y)
        cfg = PPATunerConfig(max_iterations=10, seed=3, q=4)
        result = PPATuner(cfg).tune(X, oracle, sources=[(Xs, Ys)])
        for h in result.history[:-1]:
            assert len(h.selected) <= 4


class TestTinyBenchmarkIntegration:
    def test_tunes_real_flow_pool(self, tiny_benchmark):
        names = ("power", "delay")
        oracle = PoolOracle(tiny_benchmark.objectives(names))
        cfg = PPATunerConfig(max_iterations=25, seed=1)
        result = PPATuner(cfg).tune(tiny_benchmark.X, oracle)
        golden = tiny_benchmark.golden_front(names)
        approx = pareto_front(result.pareto_points)
        assert hypervolume_error(approx, golden) < 0.5
        assert result.n_evaluations <= 35
