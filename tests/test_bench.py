"""Tests for benchmark spaces (Table 1), datasets, and generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    BENCHMARKS,
    OBJECTIVE_SPACES,
    QOR_METRICS,
    generate_benchmark,
    source1_space,
    source2_space,
    target1_space,
    target2_space,
)
from repro.bench.dataset import BenchmarkDataset
from repro.space import EnumParameter, FloatParameter, IntParameter


class TestTable1Spaces:
    """The four spaces must match paper Table 1 verbatim."""

    def test_dimensions(self):
        assert source1_space().dim == 12
        assert target1_space().dim == 12
        assert source2_space().dim == 9
        assert target2_space().dim == 9

    def test_pool_sizes(self):
        assert {
            name: BENCHMARKS[name].n_points
            for name in ("source1", "target1", "source2", "target2")
        } == {
            "source1": 5000, "target1": 5000,
            "source2": 1440, "target2": 727,
        }

    def test_source1_ranges(self):
        s = source1_space()
        freq = s["freq"]
        assert isinstance(freq, FloatParameter)
        assert (freq.low, freq.high) == (950.0, 1050.0)
        unc = s["place_uncertainty"]
        assert (unc.low, unc.high) == (50.0, 200.0)
        tran = s["max_transition"]
        assert (tran.low, tran.high) == (0.19, 0.34)
        cap = s["max_capacitance"]
        assert (cap.low, cap.high) == (0.08, 0.13)
        fan = s["max_fanout"]
        assert isinstance(fan, IntParameter)
        assert (fan.low, fan.high) == (25, 50)

    def test_target1_ranges(self):
        s = target1_space()
        assert (s["freq"].low, s["freq"].high) == (1000.0, 1300.0)
        assert (
            s["place_uncertainty"].low, s["place_uncertainty"].high
        ) == (20.0, 100.0)
        assert (s["max_length"].low, s["max_length"].high) == (
            160.0, 300.0,
        )
        assert (s["max_transition"].low, s["max_transition"].high) == (
            0.10, 0.35,
        )
        assert (s["max_capacitance"].low, s["max_capacitance"].high) == (
            0.08, 0.20,
        )

    def test_source2_ranges(self):
        s = source2_space()
        assert (s["place_rcfactor"].low, s["place_rcfactor"].high) == (
            1.00, 1.30,
        )
        assert (s["max_length"].low, s["max_length"].high) == (
            250.0, 350.0,
        )
        assert (s["max_fanout"].low, s["max_fanout"].high) == (25, 40)
        assert (
            s["max_allowed_delay"].low, s["max_allowed_delay"].high
        ) == (0.06, 0.12)

    def test_target2_ranges(self):
        s = target2_space()
        assert (s["max_capacitance"].low, s["max_capacitance"].high) == (
            0.05, 0.15,
        )
        assert (s["max_fanout"].low, s["max_fanout"].high) == (25, 39)
        assert (
            s["max_allowed_delay"].low, s["max_allowed_delay"].high
        ) == (0.00, 0.12)
        assert (
            s["max_density_util"].low, s["max_density_util"].high
        ) == (0.50, 1.00)

    def test_effort_levels_span_paper_range(self):
        s = source1_space()
        fe = s["flow_effort"]
        assert isinstance(fe, EnumParameter)
        assert fe.levels[0] == "standard" and fe.levels[-1] == "extreme"
        ce = s["cong_effort"]
        assert ce.levels[0] == "AUTO" and ce.levels[-1] == "HIGH"

    def test_scenario_pairs_share_parameters(self):
        assert source1_space().names == target1_space().names
        assert source2_space().names == target2_space().names

    def test_designs(self):
        assert BENCHMARKS["target2"].design == "mac_large"
        assert {
            BENCHMARKS[n].design for n in ("source1", "target1", "source2")
        } == {"mac_small"}


class TestBenchmarkDataset:
    def test_metric_access(self, tiny_benchmark):
        assert tiny_benchmark.metric_column("power").shape == (
            tiny_benchmark.n,
        )
        with pytest.raises(ValueError):
            tiny_benchmark.metric_column("foo")

    def test_objectives_order(self, tiny_benchmark):
        pd = tiny_benchmark.objectives(("power", "delay"))
        assert np.array_equal(
            pd[:, 0], tiny_benchmark.metric_column("power")
        )
        dp = tiny_benchmark.objectives(("delay", "power"))
        assert np.array_equal(dp[:, 0], pd[:, 1])

    def test_golden_front_nondominated(self, tiny_benchmark):
        front = tiny_benchmark.golden_front(("power", "delay"))
        assert len(front) >= 1
        for p in front:
            better = np.all(
                tiny_benchmark.objectives(("power", "delay")) <= p,
                axis=1,
            ) & np.any(
                tiny_benchmark.objectives(("power", "delay")) < p, axis=1
            )
            assert not better.any()

    def test_golden_indices_consistent(self, tiny_benchmark):
        names = ("power", "delay")
        idx = tiny_benchmark.golden_indices(names)
        front = tiny_benchmark.golden_front(names)
        pts = tiny_benchmark.objectives(names)[idx]
        assert {tuple(p) for p in front} == {tuple(p) for p in pts}

    def test_subsample(self, tiny_benchmark):
        sub = tiny_benchmark.subsample(20, seed=0)
        assert sub.n == 20
        assert sub.space is tiny_benchmark.space

    def test_subsample_larger_is_identity(self, tiny_benchmark):
        assert tiny_benchmark.subsample(10_000) is tiny_benchmark

    def test_summary_fields(self, tiny_benchmark):
        s = tiny_benchmark.summary()
        assert s["n_points"] == tiny_benchmark.n
        assert s["area_range"][0] <= s["area_range"][1]

    def test_misaligned_rejected(self, tiny_benchmark):
        with pytest.raises(ValueError):
            BenchmarkDataset(
                "bad", tiny_benchmark.space, tiny_benchmark.configs,
                tiny_benchmark.X[:-1], tiny_benchmark.Y, "tiny",
            )

    def test_objective_spaces_constant(self):
        assert set(OBJECTIVE_SPACES) == {
            "area-delay", "power-delay", "area-power-delay",
        }
        assert OBJECTIVE_SPACES["area-power-delay"] == QOR_METRICS


class TestGeneration:
    def test_small_generation_uncached(self):
        b = generate_benchmark("target2", n_points=25, cache=False)
        assert b.n == 25
        assert b.Y.shape == (25, 3)
        assert np.all(b.Y > 0)

    def test_generation_deterministic(self):
        a = generate_benchmark("target2", n_points=10, cache=False)
        b = generate_benchmark("target2", n_points=10, cache=False)
        assert np.array_equal(a.Y, b.Y)

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            generate_benchmark("nope")

    def test_configs_respect_space(self):
        b = generate_benchmark("source2", n_points=15, cache=False)
        for c in b.configs:
            b.space.validate(c)

    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PPATUNER_CACHE", str(tmp_path))
        a = generate_benchmark("target2", n_points=12, cache=True)
        assert any(tmp_path.iterdir())
        b = generate_benchmark("target2", n_points=12, cache=True)
        assert np.array_equal(a.Y, b.Y)
        assert [dict(c) for c in a.configs] == [dict(c) for c in b.configs]
