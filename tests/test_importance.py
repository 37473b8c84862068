"""Tests for FIST-style knob importance and space pruning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import knob_importance, prune_space
from repro.space import FloatParameter, ParameterSpace


def _space(d: int) -> ParameterSpace:
    return ParameterSpace(tuple(
        FloatParameter(f"k{i}", 0.0, 1.0) for i in range(d)
    ))


def _table(n=200, d=5, seed=0):
    """Synthetic golden table: k0/k1 drive the response, k2..k4 dead."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y1 = 3.0 * X[:, 0] + (X[:, 1] - 0.4) ** 2
    y2 = np.sin(4 * X[:, 0]) + 0.8 * X[:, 1]
    Y = np.column_stack([y1, y2]) + 0.01 * rng.normal(size=(n, 2))
    return X, Y


class TestKnobImportance:
    def test_deterministic(self):
        X, Y = _table()
        names = tuple(f"k{i}" for i in range(5))
        a = knob_importance(X, Y, names, seed=3)
        b = knob_importance(X, Y, names, seed=3)
        assert np.array_equal(a.importances, b.importances)
        assert np.array_equal(a.per_metric, b.per_metric)

    def test_finds_live_knobs(self):
        X, Y = _table()
        rep = knob_importance(X, Y, tuple(f"k{i}" for i in range(5)))
        ranked = [name for name, _ in rep.ranked()]
        assert set(ranked[:2]) == {"k0", "k1"}

    @pytest.mark.parametrize("method", ("tree", "permutation"))
    def test_methods_agree_on_top_knob(self, method):
        X, Y = _table()
        rep = knob_importance(
            X, Y, tuple(f"k{i}" for i in range(5)), method=method
        )
        assert rep.ranked()[0][0] == "k0"
        assert rep.method == method

    def test_normalized(self):
        X, Y = _table()
        rep = knob_importance(X, Y, tuple(f"k{i}" for i in range(5)))
        assert rep.importances.sum() == pytest.approx(1.0)
        assert np.allclose(rep.per_metric.sum(axis=1), 1.0)
        assert (rep.importances >= 0).all()

    def test_single_metric_and_vector_y(self):
        X, Y = _table()
        rep = knob_importance(X, Y[:, 0], tuple(f"k{i}" for i in range(5)))
        assert rep.metrics == ("y0",)
        assert rep.per_metric.shape == (1, 5)

    def test_constant_metric_degrades_to_flat(self):
        X, _ = _table(n=80)
        Y = np.ones((80, 1))
        rep = knob_importance(X, Y, tuple(f"k{i}" for i in range(5)))
        assert np.allclose(rep.per_metric, 0.2)

    def test_rejects_bad_inputs(self):
        X, Y = _table()
        with pytest.raises(ValueError, match="aligned"):
            knob_importance(X[:10], Y, tuple(f"k{i}" for i in range(5)))
        with pytest.raises(ValueError, match="names"):
            knob_importance(X, Y, ("a", "b"))
        with pytest.raises(ValueError, match="unknown importance"):
            knob_importance(X, Y, tuple(f"k{i}" for i in range(5)),
                            method="magic")

    def test_format_lists_every_knob(self):
        X, Y = _table()
        rep = knob_importance(X, Y, tuple(f"k{i}" for i in range(5)))
        text = rep.format()
        for name in rep.names:
            assert name in text


class TestPruneSpace:
    def test_drops_dead_knobs(self):
        X, Y = _table()
        pruned = prune_space(_space(5), X, Y, threshold=0.05)
        assert "k0" in pruned.kept and "k1" in pruned.kept
        assert set(pruned.dropped) <= {"k2", "k3", "k4"}
        assert len(pruned.dropped) >= 1

    def test_indices_in_original_order(self):
        X, Y = _table()
        pruned = prune_space(_space(5), X, Y)
        assert list(pruned.indices) == sorted(pruned.indices)
        assert pruned.kept == tuple(
            f"k{i}" for i in pruned.indices
        )
        assert pruned.space.names == list(pruned.kept)

    def test_slice_selects_columns(self):
        X, Y = _table()
        pruned = prune_space(_space(5), X, Y)
        sliced = pruned.slice(X)
        assert sliced.shape == (len(X), len(pruned.kept))
        assert np.array_equal(sliced, X[:, list(pruned.indices)])
        assert sliced.flags["C_CONTIGUOUS"]

    def test_min_keep_floor(self):
        X, Y = _table()
        pruned = prune_space(_space(5), X, Y, threshold=0.99, min_keep=3)
        assert len(pruned.kept) == 3
        top = [n for n, _ in pruned.report.ranked()[:3]]
        assert set(pruned.kept) == set(top)

    def test_zero_threshold_keeps_everything(self):
        X, Y = _table()
        pruned = prune_space(_space(5), X, Y, threshold=0.0)
        assert pruned.dropped == ()
        assert pruned.space is not None
        assert pruned.space.dim == 5

    def test_dimension_mismatch(self):
        X, Y = _table()
        with pytest.raises(ValueError, match="columns"):
            prune_space(_space(4), X, Y)


class TestPruningInvariance:
    """Pruning dead knobs must not shift the reachable Pareto front."""

    def test_dropped_columns_carry_no_signal(self):
        """A model on the pruned features predicts the table as well as
        one on the full features — the pruned columns were dead."""
        from repro.ml import GradientBoostingRegressor

        X, Y = _table(n=300)
        pruned = prune_space(_space(5), X, Y, threshold=0.05)
        assert pruned.dropped
        train, val = np.arange(0, 200), np.arange(200, 300)
        Xp = pruned.slice(X)
        for m in range(Y.shape[1]):
            full = GradientBoostingRegressor(
                n_estimators=40, max_depth=3, seed=0
            ).fit(X[train], Y[train, m])
            slim = GradientBoostingRegressor(
                n_estimators=40, max_depth=3, seed=0
            ).fit(Xp[train], Y[train, m])
            mse_full = np.mean((full.predict(X[val]) - Y[val, m]) ** 2)
            mse_slim = np.mean((slim.predict(Xp[val]) - Y[val, m]) ** 2)
            assert mse_slim <= 1.25 * mse_full + 1e-4

    def test_scenario_quality_within_tolerance(self):
        """A pruned-space tuning run stays close to the full-space
        run's front quality on a real cross-design scenario."""
        from repro.experiments import scenario

        kw = dict(n_points=120, scale=80, seed=11,
                  methods=("PPATuner",))
        full = scenario("mac_to_fabric", **kw)
        pruned = scenario("mac_to_fabric", prune_space=True, **kw)
        hv_full = np.mean([o.hv_error for o in full.outcomes])
        hv_pruned = np.mean([o.hv_error for o in pruned.outcomes])
        assert hv_pruned <= hv_full + 0.1
