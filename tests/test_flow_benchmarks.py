"""Flow integration across the benchmark parameter spaces.

Samples configurations from each Table 1 space and checks the simulated
tool's global contracts: finite positive QoR everywhere, determinism
across tool instances, and scale separation between designs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import BENCHMARKS
from repro.pdtool.flow import PDFlow
from repro.pdtool.mac import LARGE_MAC, SMALL_MAC, generate_mac_netlist
from repro.pdtool.params import ToolParameters
from repro.space.sampling import latin_hypercube


@pytest.fixture(scope="module")
def small_flow():
    return PDFlow(generate_mac_netlist(SMALL_MAC))


@pytest.fixture(scope="module")
def large_flow():
    return PDFlow(generate_mac_netlist(LARGE_MAC))


class TestAcrossSpaces:
    @pytest.mark.parametrize("space_name", sorted(BENCHMARKS))
    def test_every_sample_runs_clean(self, space_name, small_flow):
        space = BENCHMARKS[space_name].space()
        for config in latin_hypercube(space, 12, seed=5):
            report = small_flow.run(ToolParameters.from_dict(dict(config)))
            for value in (report.area, report.power, report.delay):
                assert np.isfinite(value) and value > 0
            assert report.wirelength > 0
            assert report.n_cells >= small_flow.compiled.n_cells

    @pytest.mark.parametrize("space_name", ["target1", "target2"])
    def test_qor_varies_across_space(self, space_name, small_flow):
        space = BENCHMARKS[space_name].space()
        reports = [
            small_flow.run(ToolParameters.from_dict(dict(c)))
            for c in latin_hypercube(space, 15, seed=9)
        ]
        delays = np.array([r.delay for r in reports])
        powers = np.array([r.power for r in reports])
        assert np.ptp(delays) / delays.mean() > 0.02
        assert np.ptp(powers) / powers.mean() > 0.02


class TestCrossInstanceDeterminism:
    def test_fresh_flow_reproduces(self):
        p = ToolParameters(freq=1012.0, max_density_util=0.71)
        a = PDFlow(generate_mac_netlist(SMALL_MAC)).run(p)
        b = PDFlow(generate_mac_netlist(SMALL_MAC)).run(p)
        assert a == b


class TestDesignScaleSeparation:
    def test_large_design_bigger_and_slower(self, small_flow, large_flow):
        p = ToolParameters(freq=450.0)
        small = small_flow.run(p)
        large = large_flow.run(p)
        assert large.area > 2 * small.area
        assert large.power > 1.5 * small.power
        assert large.delay > 1.3 * small.delay

    def test_large_design_runtime_model(self, small_flow, large_flow):
        p = ToolParameters()
        assert (
            large_flow.run(p).runtime_hours
            > small_flow.run(p).runtime_hours
        )


class TestToolRunCountAccounting:
    def test_counts_every_invocation(self, small_flow):
        before = small_flow.run_count
        small_flow.run(ToolParameters())
        small_flow.run(ToolParameters())  # identical config still a run
        assert small_flow.run_count == before + 2
