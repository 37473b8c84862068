"""Tests for the structured-ASIC fabric and CPU-core design families."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import generate_benchmark
from repro.pdtool.cpu import (
    SMALL_CPU,
    CpuSpec,
    estimate_cpu_cell_count,
    generate_cpu_netlist,
)
from repro.pdtool.fabric import (
    SMALL_FABRIC,
    FabricSpec,
    estimate_fabric_cell_count,
    generate_fabric_netlist,
)
from repro.pdtool.flow import PDFlow
from repro.pdtool.params import ToolParameters

TINY_FABRIC = FabricSpec(rows=2, cols=2, lut_inputs=2, htree_depth=1,
                         channel_tracks=1, name="fabric_tiny")
TINY_CPU = CpuSpec(width=4, n_regs=4, name="cpu_tiny")


class TestFabric:
    def test_validates(self):
        generate_fabric_netlist(TINY_FABRIC).validate()

    def test_acyclic(self):
        nl = generate_fabric_netlist(TINY_FABRIC)
        for idx, inst in enumerate(nl.instances):
            for f in inst.fanins:
                assert f < idx or f == -1

    def test_cell_count_estimate_exact(self):
        for spec in (TINY_FABRIC, SMALL_FABRIC):
            nl = generate_fabric_netlist(spec)
            assert nl.n_cells == estimate_fabric_cell_count(spec)

    def test_tile_grid_scales_cells(self):
        small = generate_fabric_netlist(TINY_FABRIC)
        big = generate_fabric_netlist(FabricSpec(
            rows=4, cols=4, lut_inputs=2, htree_depth=1,
            channel_tracks=1, name="fabric_b",
        ))
        assert big.n_cells > 3 * small.n_cells

    def test_htree_structure(self):
        """The clock tree is CLKBUF-only and doubles per level."""
        nl = generate_fabric_netlist(SMALL_FABRIC)
        counts = nl.counts_by_function()
        # 1 + 2 + ... + 2^depth buffers in the H-tree.
        assert counts["CLKBUF"] == 2 ** (SMALL_FABRIC.htree_depth + 1) - 1
        assert counts.get("DFF", 0) > SMALL_FABRIC.rows * SMALL_FABRIC.cols

    def test_lut_mux_trees(self):
        """Each tile carries a full 2^L-leaf MUX2 tree plus routing."""
        nl = generate_fabric_netlist(TINY_FABRIC)
        counts = nl.counts_by_function()
        n_tiles = TINY_FABRIC.rows * TINY_FABRIC.cols
        lut_muxes = (2 ** TINY_FABRIC.lut_inputs - 1) * n_tiles
        assert counts["MUX2"] >= lut_muxes

    def test_regular_structure_dff_dominated(self):
        """Config storage makes fabrics DFF-heavy, unlike the MAC."""
        counts = generate_fabric_netlist(SMALL_FABRIC).counts_by_function()
        assert counts["DFF"] > 0.3 * sum(counts.values())

    def test_runs_through_flow(self):
        nl = generate_fabric_netlist(TINY_FABRIC)
        r = PDFlow(nl).run(ToolParameters(freq=1800.0))
        assert r.area > 0 and r.power > 0 and r.delay > 0

    def test_deterministic(self):
        a = generate_fabric_netlist(SMALL_FABRIC)
        b = generate_fabric_netlist(SMALL_FABRIC)
        assert [i.fanins for i in a.instances] == [
            i.fanins for i in b.instances
        ]


class TestCpu:
    def test_validates(self):
        generate_cpu_netlist(TINY_CPU).validate()

    def test_acyclic(self):
        nl = generate_cpu_netlist(TINY_CPU)
        for idx, inst in enumerate(nl.instances):
            for f in inst.fanins:
                assert f < idx or f == -1

    def test_cell_count_estimate_exact(self):
        for spec in (TINY_CPU, SMALL_CPU):
            nl = generate_cpu_netlist(spec)
            assert nl.n_cells == estimate_cpu_cell_count(spec)

    def test_regs_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            CpuSpec(width=8, n_regs=6, name="cpu_bad")

    def test_width_scales_cells(self):
        small = generate_cpu_netlist(TINY_CPU)
        big = generate_cpu_netlist(CpuSpec(width=16, n_regs=8,
                                           name="cpu_b"))
        assert big.n_cells > 2 * small.n_cells

    def test_register_file_state(self):
        """One DFF rank per register plus instruction/control state."""
        counts = generate_cpu_netlist(TINY_CPU).counts_by_function()
        assert counts["DFF"] > TINY_CPU.width * TINY_CPU.n_regs

    def test_write_enable_fanout(self):
        """The registered write-enable broadcasts across the decode
        network — CPUs carry high-fanout control nets fabrics lack."""
        compiled = generate_cpu_netlist(SMALL_CPU).compile()
        assert compiled.fanout_count.max() >= SMALL_CPU.n_regs

    def test_carry_chain_deeper_than_fabric(self):
        cpu = generate_cpu_netlist(TINY_CPU).compile()
        fab = generate_fabric_netlist(TINY_FABRIC).compile()
        assert len(cpu.levels) > len(fab.levels)

    def test_runs_through_flow(self):
        nl = generate_cpu_netlist(TINY_CPU)
        r = PDFlow(nl).run(ToolParameters(freq=1200.0))
        assert r.area > 0 and r.power > 0 and r.delay > 0

    def test_deterministic(self):
        a = generate_cpu_netlist(SMALL_CPU)
        b = generate_cpu_netlist(SMALL_CPU)
        assert [i.fanins for i in a.instances] == [
            i.fanins for i in b.instances
        ]


class TestGoldenTables:
    """The new benchmarks' golden tables are deterministic."""

    @pytest.mark.parametrize("name", ("fabric1", "cpu2"))
    def test_rebuild_bit_identical(self, name):
        a = generate_benchmark(name, n_points=40, cache=False)
        b = generate_benchmark(name, n_points=40, cache=False)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)

    @pytest.mark.parametrize("name,design", (
        ("source3", "mac_small"),
        ("fabric1", "fabric_small"),
        ("fabric2", "fabric_small"),
        ("cpu1", "cpu_small"),
        ("cpu2", "cpu_large"),
    ))
    def test_design_wiring(self, name, design):
        ds = generate_benchmark(name, n_points=25, cache=False)
        assert ds.design == design
        assert ds.n == 25
        assert np.isfinite(ds.Y).all()
        assert (ds.Y > 0).all()

    def test_pool_seeds_differ_across_benchmarks(self):
        """Distinct LHS seeds: fabric1/fabric2 pools must not repeat."""
        a = generate_benchmark("fabric1", n_points=30, cache=False)
        b = generate_benchmark("fabric2", n_points=30, cache=False)
        assert a.space.names != b.space.names

    def test_cross_design_pairs_share_columns(self):
        """The transfer GP needs column-aligned source/target features."""
        pairs = (("source3", "fabric1"), ("cpu1", "cpu2"),
                 ("fabric2", "cpu2"))
        from repro.bench import BENCHMARKS

        for src, tgt in pairs:
            assert (BENCHMARKS[src].space().names
                    == BENCHMARKS[tgt].space().names)
