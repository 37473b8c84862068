"""Unit + property tests for dominance, hypervolume, ADRS."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.pareto import (
    adrs,
    coverage,
    dominates,
    epsilon_dominates,
    hypervolume,
    hypervolume_error,
    non_dominated_mask,
    pareto_front,
    pareto_indices,
    spacing,
)

point_sets = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.integers(1, 3)),
    elements=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)


class TestDominates:
    def test_strict_dominance(self):
        assert dominates([1, 1], [2, 2])

    def test_partial_better_not_dominating(self):
        assert not dominates([1, 3], [2, 2])

    def test_equal_points_do_not_dominate(self):
        assert not dominates([1, 1], [1, 1])

    def test_weak_dominance_counts(self):
        assert dominates([1, 2], [1, 3])

    def test_epsilon_dominance_scalar(self):
        assert epsilon_dominates([2, 2], [1.5, 1.5], 0.6)
        assert not epsilon_dominates([2, 2], [1.5, 1.5], 0.1)

    def test_epsilon_dominance_vector(self):
        assert epsilon_dominates(
            [2, 2], [1.5, 1.9], np.array([0.5, 0.1])
        )


class TestNonDominatedMask:
    def test_simple_front(self):
        pts = np.array([[1, 3], [2, 2], [3, 1], [3, 3]])
        mask = non_dominated_mask(pts)
        assert list(mask) == [True, True, True, False]

    def test_duplicates_all_kept(self):
        pts = np.array([[1, 1], [1, 1], [2, 2]])
        mask = non_dominated_mask(pts)
        assert list(mask) == [True, True, False]

    def test_single_point(self):
        assert non_dominated_mask(np.array([[5.0, 5.0]]))[0]

    def test_all_on_front(self):
        pts = np.array([[1, 4], [2, 3], [3, 2], [4, 1]])
        assert non_dominated_mask(pts).all()

    def test_dominated_by_equal_first_coordinate(self):
        pts = np.array([[1.0, 5.0], [1.0, 3.0]])
        mask = non_dominated_mask(pts)
        assert list(mask) == [False, True]

    @settings(max_examples=50)
    @given(point_sets)
    def test_front_members_not_dominated(self, pts):
        mask = non_dominated_mask(pts)
        front = pts[mask]
        for p in front:
            assert not any(dominates(q, p) for q in pts)

    @settings(max_examples=50)
    @given(point_sets)
    def test_non_front_members_dominated(self, pts):
        mask = non_dominated_mask(pts)
        for i in np.nonzero(~mask)[0]:
            assert any(dominates(q, pts[i]) for q in pts)


class TestParetoFront:
    def test_sorted_and_unique(self):
        pts = np.array([[3, 1], [1, 3], [3, 1], [2, 2]])
        front = pareto_front(pts)
        assert np.array_equal(front, np.array([[1, 3], [2, 2], [3, 1]]))

    def test_indices_match_mask(self):
        pts = np.random.default_rng(0).uniform(size=(30, 2))
        idx = pareto_indices(pts)
        assert np.array_equal(idx, np.nonzero(non_dominated_mask(pts))[0])


class TestHypervolume:
    def test_single_point_2d(self):
        assert hypervolume(np.array([[1.0, 1.0]]), [2.0, 2.0]) == 1.0

    def test_two_point_staircase(self):
        pts = np.array([[1.0, 2.0], [2.0, 1.0]])
        # Union of boxes to (3,3): 2*1 + 1*2 - 1*1 = 3.
        assert hypervolume(pts, [3.0, 3.0]) == pytest.approx(3.0)

    def test_dominated_point_ignored(self):
        pts = np.array([[1.0, 1.0], [1.5, 1.5]])
        assert hypervolume(pts, [2.0, 2.0]) == pytest.approx(1.0)

    def test_point_beyond_reference_ignored(self):
        pts = np.array([[1.0, 1.0], [3.0, 0.5]])
        assert hypervolume(pts, [2.0, 2.0]) == pytest.approx(1.0)

    def test_empty_contribution(self):
        assert hypervolume(np.array([[5.0, 5.0]]), [2.0, 2.0]) == 0.0

    def test_3d_single_box(self):
        pts = np.array([[1.0, 1.0, 1.0]])
        assert hypervolume(pts, [2.0, 3.0, 4.0]) == pytest.approx(6.0)

    def test_3d_union(self):
        pts = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        # Boxes to (2,2,2): each 1*2*... inclusive 2*1*1=2 each? compute:
        # box1 = (2-0)(2-1)(2-1)=2; box2 = (2-1)(2-0)(2-1)=2;
        # intersection = (2-1)(2-1)(2-1)=1; union = 3.
        assert hypervolume(pts, [2.0, 2.0, 2.0]) == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hypervolume(np.array([[1.0, 1.0]]), [2.0, 2.0, 2.0])

    def test_1d(self):
        assert hypervolume(np.array([[1.0], [0.5]]), [2.0]) == 1.5

    @settings(max_examples=40, deadline=2000)
    @given(point_sets)
    def test_monotone_in_points(self, pts):
        """Adding points never decreases hypervolume."""
        ref = pts.max(axis=0) + 1.0
        h_all = hypervolume(pts, ref)
        h_sub = hypervolume(pts[: max(1, len(pts) // 2)], ref)
        assert h_all >= h_sub - 1e-9

    @settings(max_examples=40, deadline=2000)
    @given(point_sets)
    def test_2d_matches_montecarlo(self, pts):
        """Exact HV agrees with a Monte-Carlo estimate."""
        if pts.shape[1] != 2:
            return
        ref = pts.max(axis=0) + 0.5
        lo = pts.min(axis=0)
        h = hypervolume(pts, ref)
        rng = np.random.default_rng(0)
        samples = rng.uniform(lo, ref, size=(4000, 2))
        covered = np.zeros(len(samples), dtype=bool)
        for p in pts:
            covered |= np.all(samples >= p, axis=1)
        estimate = covered.mean() * np.prod(ref - lo)
        assert h == pytest.approx(estimate, abs=0.12 * np.prod(ref - lo))

    @settings(max_examples=30, deadline=2000)
    @given(point_sets)
    def test_front_only_matters(self, pts):
        ref = pts.max(axis=0) + 1.0
        assert hypervolume(pts, ref) == pytest.approx(
            hypervolume(pareto_front(pts), ref)
        )


class TestHypervolumeError:
    def test_zero_for_identical(self):
        front = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert hypervolume_error(front, front) == pytest.approx(0.0)

    def test_positive_for_worse(self):
        golden = np.array([[1.0, 2.0], [2.0, 1.0]])
        worse = np.array([[1.5, 2.5], [2.5, 1.5]])
        assert hypervolume_error(worse, golden) > 0

    def test_explicit_reference(self):
        golden = np.array([[1.0, 1.0]])
        approx = np.array([[1.5, 1.5]])
        e = hypervolume_error(approx, golden, np.array([2.0, 2.0]))
        assert e == pytest.approx((1.0 - 0.25) / 1.0)

    def test_zero_golden_volume_raises(self):
        golden = np.array([[1.0, 1.0]])
        with pytest.raises(ValueError):
            hypervolume_error(golden, golden, np.array([1.0, 1.0]))


class TestAdrs:
    def test_zero_when_matched(self):
        ref = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert adrs(ref, ref) == 0.0

    def test_known_value(self):
        ref = np.array([[1.0, 1.0]])
        approx = np.array([[1.1, 1.2]])
        assert adrs(ref, approx) == pytest.approx(0.2)

    def test_takes_closest(self):
        ref = np.array([[1.0, 1.0]])
        approx = np.array([[5.0, 5.0], [1.1, 1.0]])
        assert adrs(ref, approx) == pytest.approx(0.1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            adrs(np.empty((0, 2)), np.array([[1.0, 1.0]]))

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            adrs(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0, 1.0]]))

    def test_zero_reference_coordinate_raises(self):
        with pytest.raises(ValueError):
            adrs(np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]]))

    @settings(max_examples=40)
    @given(point_sets)
    def test_nonnegative_and_zero_on_self(self, pts):
        assert adrs(pts, pts) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40)
    @given(point_sets)
    def test_superset_never_worse(self, pts):
        """Adding candidate points can only reduce ADRS."""
        ref = pts[: max(1, len(pts) // 2)]
        a_small = adrs(ref, pts[:1])
        a_big = adrs(ref, pts)
        assert a_big <= a_small + 1e-12


class TestSupplementaryMetrics:
    def test_coverage_total(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[2.0, 2.0], [3.0, 3.0]])
        assert coverage(a, b) == 1.0

    def test_coverage_none(self):
        a = np.array([[2.0, 2.0]])
        b = np.array([[1.0, 1.0]])
        assert coverage(a, b) == 0.0

    def test_coverage_of_a_set_by_itself_is_total(self):
        """Weak dominance: every point covers itself."""
        pts = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        assert coverage(pts, pts) == 1.0

    def test_coverage_counts_a_shared_point(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        b = np.array([[1.0, 2.0], [0.5, 0.5], [3.0, 0.0]])
        # [1, 2] is in both sets; [0.5, 0.5] and [3, 0] are not covered.
        assert coverage(a, b) == pytest.approx(1.0 / 3.0)
        assert coverage(b, a) == 1.0

    def test_coverage_empty_raises(self):
        with pytest.raises(ValueError):
            coverage(np.empty((0, 2)), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError, match="mismatch"):
            coverage(np.ones((1, 2)), np.ones((1, 3)))

    def test_spacing_uniform_front_is_zero(self):
        front = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        assert spacing(front) == pytest.approx(0.0)

    def test_spacing_nonuniform_positive(self):
        front = np.array([[0.0, 3.0], [0.1, 2.9], [3.0, 0.0]])
        assert spacing(front) > 0

    def test_spacing_single_point(self):
        assert spacing(np.array([[1.0, 1.0]])) == 0.0
