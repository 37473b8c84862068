"""Additional edge-case coverage for uncertainty regions and selection,
plus end-to-end sanity of the per-iteration bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PoolOracle,
    PPATuner,
    PPATunerConfig,
    UncertaintyRegions,
    select_next,
)


class TestRegionsProperties:
    @settings(max_examples=40)
    @given(
        st.integers(1, 8), st.integers(1, 3),
        st.integers(0, 10_000),
    )
    def test_intersection_monotone(self, n, m, seed):
        """Any sequence of intersections never grows any region."""
        rng = np.random.default_rng(seed)
        regions = UncertaintyRegions.unbounded(n, m)
        idx = np.arange(n)
        prev_lo = regions.lo.copy()
        prev_hi = regions.hi.copy()
        for _ in range(4):
            center = rng.uniform(-2, 2, size=(n, m))
            half = rng.uniform(0, 2, size=(n, m))
            regions.intersect(idx, center - half, center + half)
            assert np.all(regions.lo >= prev_lo - 1e-12)
            assert np.all(regions.hi <= prev_hi + 1e-12)
            prev_lo = regions.lo.copy()
            prev_hi = regions.hi.copy()

    @settings(max_examples=40)
    @given(st.integers(2, 10), st.integers(0, 10_000))
    def test_diameters_match_manual(self, n, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-1, 0, size=(n, 2))
        hi = lo + rng.uniform(0, 2, size=(n, 2))
        regions = UncertaintyRegions(lo=lo, hi=hi)
        manual = np.linalg.norm(hi - lo, axis=1)
        assert np.allclose(regions.diameters(), manual)

    def test_partial_intersection_indices(self):
        regions = UncertaintyRegions.unbounded(3, 2)
        regions.intersect(
            np.array([1]), np.zeros((1, 2)), np.ones((1, 2))
        )
        assert not regions.is_bounded()[0]
        assert regions.is_bounded()[1]
        assert not regions.is_bounded()[2]


class TestSelectionTies:
    def test_stable_tie_breaking(self):
        regions = UncertaintyRegions(
            lo=np.zeros((4, 2)),
            hi=np.ones((4, 2)),  # all identical diameters
        )
        chosen = select_next(regions, np.ones(4, bool), batch_size=2)
        assert list(chosen) == [0, 1]  # stable order on ties

    def test_batch_larger_than_eligible(self):
        regions = UncertaintyRegions(
            lo=np.zeros((2, 2)), hi=np.ones((2, 2))
        )
        chosen = select_next(regions, np.ones(2, bool), batch_size=10)
        assert len(chosen) == 2


class TestHistoryBookkeeping:
    @pytest.fixture(scope="class")
    def run(self, request):
        X, Y, Xs, Ys = request.getfixturevalue("synthetic_pool")
        oracle = PoolOracle(Y)
        result = PPATuner(
            PPATunerConfig(max_iterations=25, seed=2)
        ).tune(X, oracle, sources=[(Xs, Ys)])
        return result, len(X)

    def test_counts_partition_pool(self, run):
        result, n = run
        for record in result.history:
            assert (
                record.n_undecided + record.n_pareto + record.n_dropped
                == n
            )

    def test_evaluations_cumulative(self, run):
        result, _ = run
        evals = [h.n_evaluations for h in result.history]
        assert evals == sorted(evals)

    def test_dropped_monotone(self, run):
        result, _ = run
        dropped = [h.n_dropped for h in result.history]
        assert dropped == sorted(dropped)

    def test_selected_within_pool(self, run):
        result, n = run
        for record in result.history:
            for idx in record.selected:
                assert 0 <= idx < n

    def test_iteration_numbers_sequential(self, run):
        result, _ = run
        assert [h.iteration for h in result.history] == list(
            range(len(result.history))
        )
