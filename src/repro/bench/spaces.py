"""Benchmark parameter spaces: paper Table 1 plus the cross-design set.

Source1/Target1 tune 12 parameters of the small MAC design; Source2 tunes
9 parameters of the same small MAC and Target2 the same 9 on the larger
MAC.  Ranges are copied from Table 1 ("-" rows excluded per benchmark).
The paper's ``max_density`` (placement bin cap) and ``max_Density`` (area
utilization) are distinct knobs; see DESIGN.md §9 for the naming.

The cross-design benchmarks (DESIGN.md §14) extend the matrix beyond
the MAC family: the *fabric* knob set (placement/congestion-centric,
8 knobs) is shared by Source3 (small MAC) and Fabric1 (structured-ASIC
fabric) so MAC→fabric transfer sees identical columns over different
response surfaces, and the *cpu* knob set (timing/DRV-centric, 9 knobs)
is shared by Cpu1/Cpu2 (small→large CPU core, different ``freq`` ranges
exactly as Table 1 varies ranges per benchmark) and Fabric2 (the fabric
design over the cpu knobs — the negative-transfer control source).
Frequency ranges bracket each design's measured achievable speed.

:data:`BENCHMARKS` is the one table of named benchmarks: generation,
the scenario table and the CLI all read it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..space.parameters import (
    BoolParameter,
    EnumParameter,
    FloatParameter,
    IntParameter,
)
from ..space.space import ParameterSpace

_FLOW_EFFORT = ("standard", "express", "extreme")
_CONG_EFFORT = ("AUTO", "MEDIUM", "HIGH")
_TIMING_EFFORT = ("medium", "high")


def source1_space() -> ParameterSpace:
    """Source1: 12 parameters of the small MAC (Table 1, columns 2-3)."""
    return ParameterSpace((
        FloatParameter("freq", 950.0, 1050.0),
        FloatParameter("place_uncertainty", 50.0, 200.0),
        EnumParameter("flow_effort", _FLOW_EFFORT),
        BoolParameter("uniform_density"),
        EnumParameter("cong_effort", _CONG_EFFORT),
        FloatParameter("max_density_place", 0.65, 0.90),
        FloatParameter("max_length", 160.0, 310.0),
        FloatParameter("max_density_util", 0.65, 0.90),
        FloatParameter("max_transition", 0.19, 0.34),
        FloatParameter("max_capacitance", 0.08, 0.13),
        IntParameter("max_fanout", 25, 50),
        FloatParameter("max_allowed_delay", 0.00, 0.25),
    ))


def target1_space() -> ParameterSpace:
    """Target1: 12 parameters of the small MAC (Table 1, columns 4-5)."""
    return ParameterSpace((
        FloatParameter("freq", 1000.0, 1300.0),
        FloatParameter("place_uncertainty", 20.0, 100.0),
        EnumParameter("flow_effort", _FLOW_EFFORT),
        BoolParameter("uniform_density"),
        EnumParameter("cong_effort", _CONG_EFFORT),
        FloatParameter("max_density_place", 0.65, 0.90),
        FloatParameter("max_length", 160.0, 300.0),
        FloatParameter("max_density_util", 0.65, 0.90),
        FloatParameter("max_transition", 0.10, 0.35),
        FloatParameter("max_capacitance", 0.08, 0.20),
        IntParameter("max_fanout", 25, 50),
        FloatParameter("max_allowed_delay", 0.00, 0.25),
    ))


def source2_space() -> ParameterSpace:
    """Source2: 9 parameters of the small MAC (Table 1, columns 6-7)."""
    return ParameterSpace((
        FloatParameter("place_rcfactor", 1.00, 1.30),
        EnumParameter("flow_effort", _FLOW_EFFORT),
        EnumParameter("timing_effort", _TIMING_EFFORT),
        BoolParameter("clock_power_driven"),
        FloatParameter("max_length", 250.0, 350.0),
        FloatParameter("max_density_util", 0.50, 1.00),
        FloatParameter("max_capacitance", 0.07, 0.12),
        IntParameter("max_fanout", 25, 40),
        FloatParameter("max_allowed_delay", 0.06, 0.12),
    ))


def target2_space() -> ParameterSpace:
    """Target2: 9 parameters of the large MAC (Table 1, columns 8-9)."""
    return ParameterSpace((
        FloatParameter("place_rcfactor", 1.00, 1.30),
        EnumParameter("flow_effort", _FLOW_EFFORT),
        EnumParameter("timing_effort", _TIMING_EFFORT),
        BoolParameter("clock_power_driven"),
        FloatParameter("max_length", 250.0, 350.0),
        FloatParameter("max_density_util", 0.50, 1.00),
        FloatParameter("max_capacitance", 0.05, 0.15),
        IntParameter("max_fanout", 25, 39),
        FloatParameter("max_allowed_delay", 0.00, 0.12),
    ))


def _fabric_knob_space(freq_lo: float, freq_hi: float) -> ParameterSpace:
    """The shared fabric knob set (8 placement/congestion knobs)."""
    return ParameterSpace((
        FloatParameter("freq", freq_lo, freq_hi),
        EnumParameter("flow_effort", _FLOW_EFFORT),
        EnumParameter("cong_effort", _CONG_EFFORT),
        BoolParameter("uniform_density"),
        FloatParameter("max_density_place", 0.65, 0.90),
        FloatParameter("max_density_util", 0.50, 0.95),
        FloatParameter("max_length", 120.0, 300.0),
        FloatParameter("place_uncertainty", 20.0, 150.0),
    ))


def _cpu_knob_space(freq_lo: float, freq_hi: float) -> ParameterSpace:
    """The shared cpu knob set (9 timing/DRV knobs)."""
    return ParameterSpace((
        FloatParameter("freq", freq_lo, freq_hi),
        FloatParameter("place_uncertainty", 20.0, 150.0),
        EnumParameter("flow_effort", _FLOW_EFFORT),
        EnumParameter("timing_effort", _TIMING_EFFORT),
        BoolParameter("clock_power_driven"),
        FloatParameter("max_transition", 0.10, 0.35),
        FloatParameter("max_capacitance", 0.05, 0.20),
        IntParameter("max_fanout", 20, 50),
        FloatParameter("max_allowed_delay", 0.00, 0.25),
    ))


def source3_space() -> ParameterSpace:
    """Source3: the fabric knob set on the small MAC (its freq range)."""
    return _fabric_knob_space(950.0, 1050.0)


def fabric1_space() -> ParameterSpace:
    """Fabric1: the fabric knob set on the small fabric (fast design)."""
    return _fabric_knob_space(1500.0, 2100.0)


def fabric2_space() -> ParameterSpace:
    """Fabric2: the cpu knob set on the small fabric (negative-transfer
    control source for fabric→CPU)."""
    return _cpu_knob_space(1500.0, 2100.0)


def cpu1_space() -> ParameterSpace:
    """Cpu1: the cpu knob set on the small CPU core."""
    return _cpu_knob_space(1000.0, 1350.0)


def cpu2_space() -> ParameterSpace:
    """Cpu2: the same 9 cpu knobs on the large CPU core (slower design,
    lower freq range — same-knobs/different-ranges as Table 1)."""
    return _cpu_knob_space(420.0, 570.0)


class Benchmark(NamedTuple):
    """One named offline benchmark.

    Attributes:
        space: Factory of the benchmark's knob space.
        design: Canonical design name the flow runs (the design-family
            registry resolves it to a spec and netlist).
        n_points: Default pool size.
        seed: Seed of the benchmark's Latin-hypercube draw.
    """

    space: Callable[[], ParameterSpace]
    design: str
    n_points: int
    seed: int


#: Every named benchmark.  The paper's four keep their Table 1 pool
#: sizes; the cross-design five are sized so cold builds stay in the
#: tens of seconds at reduced scale.  Distinct seeds give each
#: benchmark an independent pool draw.
BENCHMARKS: dict[str, Benchmark] = {
    "source1": Benchmark(source1_space, "mac_small", 5000, 11),
    "target1": Benchmark(target1_space, "mac_small", 5000, 13),
    "source2": Benchmark(source2_space, "mac_small", 1440, 17),
    "target2": Benchmark(target2_space, "mac_large", 727, 19),
    "source3": Benchmark(source3_space, "mac_small", 1200, 23),
    "fabric1": Benchmark(fabric1_space, "fabric_small", 900, 29),
    "fabric2": Benchmark(fabric2_space, "fabric_small", 900, 31),
    "cpu1": Benchmark(cpu1_space, "cpu_small", 900, 37),
    "cpu2": Benchmark(cpu2_space, "cpu_large", 800, 41),
}
