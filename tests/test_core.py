"""Tests for the PPATuner core: regions, decisions, selection, oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    PoolOracle,
    PPATunerConfig,
    UncertaintyRegions,
    apply_decision_rules,
    prediction_rectangle,
    select_next,
)
from repro.core.oracle import FlowOracle
from repro.core.result import TuningResult
from repro.pdtool.params import ToolParameters


class TestConfig:
    def test_defaults_valid(self):
        PPATunerConfig()

    @pytest.mark.parametrize("kw", [
        {"tau": 0.0}, {"tau": -1.0}, {"q": 0},
        {"max_iterations": 0}, {"init_fraction": 0.0},
        {"init_fraction": 1.5}, {"min_init": 0}, {"reopt_every": -1},
        {"delta_rel": -0.1},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            PPATunerConfig(**kw)


class TestUncertaintyRegions:
    def test_unbounded_start(self):
        r = UncertaintyRegions.unbounded(3, 2)
        assert not r.is_bounded().any()
        assert np.all(np.isinf(r.diameters()))

    def test_intersection_shrinks(self):
        r = UncertaintyRegions.unbounded(2, 2)
        idx = np.array([0, 1])
        r.intersect(idx, np.zeros((2, 2)), np.ones((2, 2)))
        d1 = r.diameters().copy()
        r.intersect(idx, 0.25 * np.ones((2, 2)), 0.75 * np.ones((2, 2)))
        assert np.all(r.diameters() <= d1)
        assert np.allclose(r.lo[0], 0.25)

    def test_intersection_never_grows(self):
        r = UncertaintyRegions.unbounded(1, 2)
        idx = np.array([0])
        r.intersect(idx, np.zeros((1, 2)), np.ones((1, 2)))
        # A wider new rectangle must not grow the region.
        r.intersect(idx, -np.ones((1, 2)), 2 * np.ones((1, 2)))
        assert np.allclose(r.lo[0], 0.0)
        assert np.allclose(r.hi[0], 1.0)

    def test_disjoint_intersection_degenerates_gracefully(self):
        r = UncertaintyRegions.unbounded(1, 1)
        idx = np.array([0])
        r.intersect(idx, np.array([[0.0]]), np.array([[1.0]]))
        r.intersect(idx, np.array([[2.0]]), np.array([[3.0]]))
        assert r.lo[0, 0] <= r.hi[0, 0]
        assert r.diameters()[0] == 0.0

    def test_collapse(self):
        r = UncertaintyRegions.unbounded(2, 2)
        r.collapse(1, np.array([3.0, 4.0]))
        assert r.is_bounded()[1]
        assert r.diameters()[1] == 0.0
        assert not r.is_bounded()[0]

    def test_diameter_euclidean(self):
        r = UncertaintyRegions(
            lo=np.array([[0.0, 0.0]]), hi=np.array([[3.0, 4.0]])
        )
        assert r.diameters()[0] == pytest.approx(5.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            UncertaintyRegions(lo=np.zeros((2, 2)), hi=np.zeros((3, 2)))

    def test_intersect_empty_indices_is_noop(self):
        r = UncertaintyRegions.unbounded(3, 2)
        r.intersect(np.array([0]), np.zeros((1, 2)), np.ones((1, 2)))
        lo, hi = r.lo.copy(), r.hi.copy()
        r.intersect(
            np.array([], dtype=int), np.empty((0, 2)), np.empty((0, 2))
        )
        np.testing.assert_array_equal(r.lo, lo)
        np.testing.assert_array_equal(r.hi, hi)

    def test_intersect_after_empty_intersection_stays_degenerate(self):
        r = UncertaintyRegions.unbounded(1, 2)
        idx = np.array([0])
        r.intersect(idx, np.zeros((1, 2)), np.ones((1, 2)))
        r.intersect(idx, np.full((1, 2), 5.0), np.full((1, 2), 6.0))
        assert r.diameters()[0] == 0.0
        # A further disjoint prediction keeps the collapsed point inside
        # the previous (degenerate) region — it cannot re-inflate.
        point = r.lo.copy()
        r.intersect(idx, np.full((1, 2), -9.0), np.full((1, 2), -8.0))
        np.testing.assert_array_equal(r.lo, point)
        np.testing.assert_array_equal(r.hi, point)

    def test_collapse_already_collapsed_repins(self):
        r = UncertaintyRegions.unbounded(2, 2)
        r.collapse(0, np.array([1.0, 2.0]))
        r.collapse(0, np.array([1.0, 2.0]))  # idempotent
        np.testing.assert_array_equal(r.lo[0], [1.0, 2.0])
        r.collapse(0, np.array([3.0, 4.0]))  # golden value wins
        np.testing.assert_array_equal(r.lo[0], [3.0, 4.0])
        np.testing.assert_array_equal(r.hi[0], [3.0, 4.0])
        assert r.diameters()[0] == 0.0

    def test_collapse_wrong_shape_rejected(self):
        r = UncertaintyRegions.unbounded(2, 2)
        with pytest.raises(ValueError, match="objective values"):
            r.collapse(0, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="objective values"):
            r.collapse(0, np.array([1.0]))


class TestPredictionRectangle:
    def test_widths(self):
        lo, hi = prediction_rectangle(
            np.array([[1.0, 2.0]]), np.array([[0.5, 0.1]]), tau=4.0
        )
        assert np.allclose(hi - lo, [[2.0, 0.4]])
        assert np.allclose((hi + lo) / 2, [[1.0, 2.0]])

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            prediction_rectangle(
                np.zeros((1, 2)), -np.ones((1, 2)), tau=1.0
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            prediction_rectangle(np.zeros((1, 2)), np.ones((1, 3)), 1.0)

    def test_zero_variance_degenerates_to_point(self):
        mean = np.array([[1.5, -2.0]])
        lo, hi = prediction_rectangle(mean, np.zeros((1, 2)), tau=4.0)
        np.testing.assert_array_equal(lo, mean)
        np.testing.assert_array_equal(hi, mean)


class TestDecisionRules:
    def _regions(self, lo, hi):
        return UncertaintyRegions(
            lo=np.asarray(lo, float), hi=np.asarray(hi, float)
        )

    def test_clearly_dominated_point_dropped(self):
        # Point 0 is better than point 1 even pessimistically.
        regions = self._regions(
            [[0.0, 0.0], [5.0, 5.0]], [[1.0, 1.0], [6.0, 6.0]]
        )
        undecided = np.array([True, True])
        pareto = np.zeros(2, bool)
        dropped, classified = apply_decision_rules(
            regions, undecided, pareto, np.zeros(2)
        )
        assert list(dropped) == [1]
        assert 0 in classified

    def test_uncertain_point_stays_undecided(self):
        # Overlapping boxes: neither dominates nor is safe.
        regions = self._regions(
            [[0.0, 0.0], [0.5, 0.5]], [[2.0, 2.0], [2.5, 2.5]]
        )
        dropped, classified = apply_decision_rules(
            regions, np.array([True, True]), np.zeros(2, bool),
            np.zeros(2),
        )
        assert len(dropped) == 0
        assert len(classified) == 0

    def test_delta_relaxation_drops_near_ties(self):
        # Point 1 is within delta of point 0 -> dropped under Eq. (11).
        regions = self._regions(
            [[0.0, 0.0], [0.05, 0.05]], [[0.0, 0.0], [0.05, 0.05]]
        )
        dropped, _ = apply_decision_rules(
            regions, np.array([True, True]), np.zeros(2, bool),
            np.full(2, 0.1),
        )
        assert 1 in dropped or 0 in dropped

    def test_incomparable_points_both_pareto(self):
        regions = self._regions(
            [[0.0, 1.0], [1.0, 0.0]], [[0.1, 1.1], [1.1, 0.1]]
        )
        dropped, classified = apply_decision_rules(
            regions, np.array([True, True]), np.zeros(2, bool),
            np.zeros(2),
        )
        assert len(dropped) == 0
        assert set(classified) == {0, 1}

    def test_unbounded_points_ignored(self):
        regions = UncertaintyRegions.unbounded(2, 2)
        regions.collapse(0, np.array([0.0, 0.0]))
        dropped, classified = apply_decision_rules(
            regions, np.array([True, True]), np.zeros(2, bool),
            np.zeros(2),
        )
        assert 1 not in dropped and 1 not in classified

    def test_pareto_points_can_drop_others(self):
        regions = self._regions(
            [[0.0, 0.0], [5.0, 5.0]], [[0.0, 0.0], [6.0, 6.0]]
        )
        undecided = np.array([False, True])
        pareto = np.array([True, False])
        dropped, _ = apply_decision_rules(
            regions, undecided, pareto, np.zeros(2)
        )
        assert list(dropped) == [1]

    def test_generous_pareto_delta_classifies_more(self):
        # Point 1's pessimistic corner is within pareto_delta of point
        # 0's optimistic corner -> classified under the generous rule.
        regions = self._regions(
            [[0.0, 0.0], [0.3, 0.3]], [[0.2, 0.2], [0.5, 0.5]]
        )
        _, strict = apply_decision_rules(
            regions, np.array([True, True]), np.zeros(2, bool),
            np.full(2, 0.01), pareto_delta=np.full(2, 0.01),
        )
        _, generous = apply_decision_rules(
            regions, np.array([True, True]), np.zeros(2, bool),
            np.full(2, 0.01), pareto_delta=np.full(2, 0.6),
        )
        assert len(generous) >= len(strict)

    def test_wrong_delta_shape_raises(self):
        regions = self._regions([[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            apply_decision_rules(
                regions, np.array([True]), np.zeros(1, bool),
                np.zeros(3),
            )


class TestSelection:
    def test_picks_largest_diameter(self):
        regions = UncertaintyRegions(
            lo=np.zeros((3, 2)),
            hi=np.array([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]]),
        )
        chosen = select_next(regions, np.ones(3, bool), batch_size=1)
        assert list(chosen) == [1]

    def test_batch_ordering(self):
        regions = UncertaintyRegions(
            lo=np.zeros((3, 2)),
            hi=np.array([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]]),
        )
        chosen = select_next(regions, np.ones(3, bool), batch_size=2)
        assert list(chosen) == [1, 2]

    def test_respects_eligibility(self):
        regions = UncertaintyRegions(
            lo=np.zeros((3, 2)),
            hi=np.array([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]]),
        )
        eligible = np.array([True, False, True])
        chosen = select_next(regions, eligible, batch_size=1)
        assert list(chosen) == [2]

    def test_unbounded_prioritized(self):
        regions = UncertaintyRegions.unbounded(2, 2)
        regions.intersect(
            np.array([0]), np.zeros((1, 2)), np.ones((1, 2))
        )
        chosen = select_next(regions, np.ones(2, bool), batch_size=1)
        assert list(chosen) == [1]

    def test_empty_eligible(self):
        regions = UncertaintyRegions.unbounded(2, 2)
        assert len(select_next(regions, np.zeros(2, bool))) == 0


class TestPoolOracle:
    def test_counts_unique_evaluations(self):
        oracle = PoolOracle(np.arange(6.0).reshape(3, 2))
        oracle.evaluate(0)
        oracle.evaluate(0)
        oracle.evaluate(2)
        assert oracle.n_evaluations == 2

    def test_returns_copies(self):
        Y = np.ones((2, 2))
        oracle = PoolOracle(Y)
        v = oracle.evaluate(0)
        v[0] = 99.0
        assert oracle.Y[0, 0] == 1.0

    def test_out_of_range(self):
        oracle = PoolOracle(np.ones((2, 2)))
        with pytest.raises(IndexError):
            oracle.evaluate(5)

    def test_batch(self):
        oracle = PoolOracle(np.arange(6.0).reshape(3, 2))
        batch = oracle.evaluate_batch(np.array([0, 2]))
        assert batch.shape == (2, 2)

    def test_reset(self):
        oracle = PoolOracle(np.ones((2, 2)))
        oracle.evaluate(0)
        oracle.reset()
        assert oracle.n_evaluations == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PoolOracle(np.empty((0, 2)))


class TestFlowOracle:
    def test_runs_and_caches(self, tiny_flow):
        configs = [ToolParameters(freq=f) for f in (950.0, 1000.0)]
        oracle = FlowOracle(tiny_flow, configs, ("power", "delay"))
        a = oracle.evaluate(0)
        b = oracle.evaluate(0)
        assert np.array_equal(a, b)
        assert oracle.n_evaluations == 1
        assert oracle.n_objectives == 2

    def test_accepts_dict_configs(self, tiny_flow):
        oracle = FlowOracle(
            tiny_flow, [{"freq": 999.0}], ("area", "delay")
        )
        v = oracle.evaluate(0)
        assert v.shape == (2,)

    def test_empty_pool_rejected(self, tiny_flow):
        with pytest.raises(ValueError):
            FlowOracle(tiny_flow, [])


class TestTuningResult:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            TuningResult(
                pareto_indices=np.array([0, 1]),
                pareto_points=np.ones((3, 2)),
                n_evaluations=1,
                n_iterations=1,
            )
