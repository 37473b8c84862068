"""Cross-module property-based tests (hypothesis).

These encode invariants that must hold for *any* input: tuner contracts
over random pools, flow monotonicities, metric consistency.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import RandomSearchTuner
from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.pareto import (
    adrs,
    dominates,
    hypervolume,
    hypervolume_error,
    non_dominated_mask,
    pareto_front,
)

slow = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_pools(draw):
    """A random bi-objective pool with mild structure."""
    n = draw(st.integers(20, 60))
    d = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    w1 = rng.normal(size=d)
    w2 = rng.normal(size=d)
    Y = np.column_stack([
        1.5 + X @ w1 + 0.3 * rng.normal(size=n),
        1.5 + X @ w2 + 0.3 * rng.normal(size=n),
    ])
    Y = Y - Y.min(axis=0) + 1.0  # strictly positive (ADRS-safe)
    return X, Y


class TestTunerContracts:
    @slow
    @given(random_pools())
    def test_ppatuner_contract(self, pool):
        X, Y = pool
        oracle = PoolOracle(Y)
        cfg = PPATunerConfig(
            max_iterations=8, seed=0, min_init=3, init_fraction=0.05,
            reopt_every=4,
        )
        result = PPATuner(cfg).tune(X, oracle)
        # Indices in range, unique; points match the table.
        assert len(set(result.pareto_indices.tolist())) == len(
            result.pareto_indices
        )
        assert np.all(result.pareto_indices >= 0)
        assert np.all(result.pareto_indices < len(X))
        assert np.allclose(Y[result.pareto_indices], result.pareto_points)
        # Runs accounting: the loop never exceeds init + iterations*batch.
        assert result.n_evaluations <= 3 + max(
            int(round(0.05 * len(X))), 3
        ) + 8
        # The reported front is mutually non-dominated in golden QoR.
        assert non_dominated_mask(result.pareto_points).all()
        # Every sampled non-dominated point is reported, unless a
        # verified point (possibly evaluated only during the final
        # verification pass) strictly dominates it.
        sampled_front = pareto_front(Y[result.evaluated_indices])
        reported = {tuple(p) for p in result.pareto_points}
        for p in sampled_front:
            assert tuple(p) in reported or any(
                dominates(q, p) for q in result.pareto_points
            )

    @slow
    @given(random_pools())
    def test_random_tuner_contract(self, pool):
        X, Y = pool
        result = RandomSearchTuner(budget=12, seed=1).tune(
            X, PoolOracle(Y)
        )
        assert result.n_evaluations == min(12, len(X))
        front_mask = non_dominated_mask(result.pareto_points)
        assert front_mask.all()


class TestMetricConsistency:
    @slow
    @given(random_pools())
    def test_golden_front_has_zero_error(self, pool):
        _, Y = pool
        golden = pareto_front(Y)
        assert hypervolume_error(golden, golden) == pytest.approx(0.0)
        assert adrs(golden, golden) == pytest.approx(0.0, abs=1e-12)

    @slow
    @given(random_pools())
    def test_subset_error_nonnegative(self, pool):
        _, Y = pool
        golden = pareto_front(Y)
        subset = golden[: max(1, len(golden) // 2)]
        assert hypervolume_error(subset, golden) >= -1e-9

    @slow
    @given(random_pools())
    def test_hypervolume_translation_invariance(self, pool):
        _, Y = pool
        front = pareto_front(Y)
        ref = Y.max(axis=0) + 1.0
        shift = np.array([3.7, -0.9])
        h1 = hypervolume(front, ref)
        h2 = hypervolume(front + shift, ref + shift)
        assert h1 == pytest.approx(h2, rel=1e-9)

    @slow
    @given(random_pools())
    def test_hypervolume_scale_covariance(self, pool):
        _, Y = pool
        front = pareto_front(Y)
        ref = Y.max(axis=0) + 1.0
        h1 = hypervolume(front, ref)
        h2 = hypervolume(front * 2.0, ref * 2.0)
        assert h2 == pytest.approx(h1 * 4.0, rel=1e-9)


class TestFlowMonotonicity:
    """Deterministic directional invariants of the quiet flow, swept by
    hypothesis over the operating point."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(
        util=st.floats(min_value=0.55, max_value=0.85),
        freq=st.floats(min_value=900.0, max_value=1200.0),
    )
    def test_power_increases_with_frequency(self, quiet_flow, util, freq):
        from repro.pdtool.params import ToolParameters

        lo = quiet_flow.run(ToolParameters(
            freq=freq, max_density_util=util,
        ))
        hi = quiet_flow.run(ToolParameters(
            freq=freq + 120.0, max_density_util=util,
        ))
        assert hi.power > lo.power

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(util=st.floats(min_value=0.55, max_value=0.9))
    def test_area_inverse_in_utilization(self, quiet_flow, util):
        from repro.pdtool.params import ToolParameters

        a = quiet_flow.run(ToolParameters(max_density_util=util))
        b = quiet_flow.run(ToolParameters(
            max_density_util=min(util + 0.08, 1.0)
        ))
        assert b.area < a.area
