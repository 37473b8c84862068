"""Additional edge-case coverage for uncertainty regions and selection,
plus end-to-end sanity of the per-iteration bookkeeping."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PoolOracle,
    PPATuner,
    PPATunerConfig,
    UncertaintyRegions,
    select_batch,
    select_next,
)
from repro.obs import MemorySink, TraceRecorder


def _odd_regions(rng, n, m):
    """Boxes with collapsed, unbounded, half-unbounded and NaN rows."""
    lo = rng.normal(size=(n, m))
    hi = lo + rng.uniform(0.0, 2.0, size=(n, m))
    collapsed = rng.random(n) < 0.2
    hi[collapsed] = lo[collapsed]
    unbounded = rng.random(n) < 0.2
    lo[unbounded], hi[unbounded] = -np.inf, np.inf
    half = rng.random((n, m)) < 0.1
    hi[half] = np.inf
    lo[rng.random(n) < 0.1] = np.nan
    return UncertaintyRegions(lo=lo, hi=hi)


class _WholePool(UncertaintyRegions):
    """Geometry over the whole pool, then indexed: the computation that
    ``diameters(ids)`` and ``is_bounded(ids)`` stand in for."""

    def diameters(self, ids=None):
        d = super().diameters()
        return d if ids is None else d[ids]

    def is_bounded(self, ids=None):
        b = super().is_bounded()
        return b if ids is None else b[ids]


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

    @settings(max_examples=40)
    @given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 10_000))
    def test_subset_geometry_is_row_local(self, n, m, seed):
        """``diameters(ids)``/``is_bounded(ids)`` equal the whole-pool
        arrays indexed by ``ids`` bit for bit: unsorted ids with repeats,
        a boolean mask, and no ids at all."""
        rng = np.random.default_rng(seed)
        regions = _odd_regions(rng, n, m)
        diam, bounded = regions.diameters(), regions.is_bounded()
        for ids in (
            rng.integers(0, n, size=rng.integers(0, 2 * n)),
            rng.random(n) < 0.5,
            np.empty(0, dtype=int),
        ):
            sub = regions.diameters(ids)
            assert sub.dtype == diam.dtype
            assert sub.tobytes() == diam[ids].tobytes()
            np.testing.assert_array_equal(
                regions.is_bounded(ids), bounded[ids]
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 10_000),
           st.integers(1, 5))
    def test_selection_events_match_whole_pool(self, n, m, seed, q):
        """``select_next`` and ``select_batch`` pick the same rows and emit
        the same ``SelectionMade``/``BatchSelected`` payloads as the
        whole-pool geometry."""
        rng = np.random.default_rng(seed)
        fast = _odd_regions(rng, n, m)
        whole = _WholePool(lo=fast.lo.copy(), hi=fast.hi.copy())
        eligible = rng.random(n) < 0.7

        def run(regions):
            sink = MemorySink()
            rec = TraceRecorder(sinks=[sink])
            picks = (
                select_next(regions, eligible, q, recorder=rec),
                select_batch(regions, eligible, q, recorder=rec),
            )
            return picks, json.dumps([e.to_json() for e in sink.events])

        (a_next, a_batch), a_events = run(fast)
        (b_next, b_batch), b_events = run(whole)
        np.testing.assert_array_equal(a_next, b_next)
        np.testing.assert_array_equal(a_batch, b_batch)
        assert a_events == b_events

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
