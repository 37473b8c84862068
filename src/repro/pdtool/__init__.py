"""Simulated physical-design tool (the paper's Cadence Innovus substitute).

See DESIGN.md §2 for the substitution rationale.  Public surface:

- :class:`ToolParameters` — the Table 1 knobs.
- :class:`PDFlow` — parameter configuration in, :class:`QoRReport` out.
- :class:`DesignFamily` / :func:`design_family` /
  :func:`register_design_family` — the design-family registry
  (DESIGN.md §14) unifying spec → netlist → parameter space for every
  family.
- :func:`generate_mac_netlist` / :class:`MacSpec` (and the FIR, ALU,
  fabric and CPU equivalents) — the benchmark design generators.
"""

from .cts import CtsResult, synthesize_clock_tree
from .drv import DrvResult, repair_drv
from .flow import FlowConfig, PDFlow, effective_frequency_mhz
from .library import CellLibrary, CellType
from .mac import (
    LARGE_MAC,
    PAPER_LARGE_MAC,
    PAPER_SMALL_MAC,
    SMALL_MAC,
    MacSpec,
    estimate_cell_count,
    generate_mac_netlist,
)
from .netlist import PRIMARY_INPUT, CompiledNetlist, Instance, Netlist
from .params import (
    CONG_EFFORT_LEVELS,
    FLOW_EFFORT_LEVELS,
    TIMING_EFFORT_LEVELS,
    ToolParameters,
)
from .placement import PlacementResult, place
from .power import PowerResult, analyze_power
from .qor import QoRReport
from .routing import RoutingResult, route
from .sta import TimingResult, analyze_timing
from .designs import (
    AluSpec,
    FirSpec,
    generate_alu_netlist,
    generate_fir_netlist,
)
from .fabric import (
    LARGE_FABRIC,
    PAPER_LARGE_FABRIC,
    PAPER_SMALL_FABRIC,
    SMALL_FABRIC,
    FabricSpec,
    estimate_fabric_cell_count,
    generate_fabric_netlist,
)
from .cpu import (
    LARGE_CPU,
    PAPER_LARGE_CPU,
    PAPER_SMALL_CPU,
    SMALL_CPU,
    CpuSpec,
    estimate_cpu_cell_count,
    generate_cpu_netlist,
)
from .family import (
    DesignFamily,
    design_family,
    family_token,
    register_design_family,
    registered_design_families,
)
from .paths import TimingPath, extract_critical_paths, format_path_report
from .reports import format_comparison, format_qor_report
from .variation import VariationField, normalize_params
from .verilog import VerilogParseError, read_verilog, write_verilog

__all__ = [
    "AluSpec",
    "CpuSpec",
    "DesignFamily",
    "FabricSpec",
    "FirSpec",
    "LARGE_CPU",
    "LARGE_FABRIC",
    "PAPER_LARGE_CPU",
    "PAPER_LARGE_FABRIC",
    "PAPER_SMALL_CPU",
    "PAPER_SMALL_FABRIC",
    "SMALL_CPU",
    "SMALL_FABRIC",
    "design_family",
    "estimate_cpu_cell_count",
    "estimate_fabric_cell_count",
    "family_token",
    "generate_cpu_netlist",
    "generate_fabric_netlist",
    "register_design_family",
    "registered_design_families",
    "TimingPath",
    "extract_critical_paths",
    "format_comparison",
    "format_path_report",
    "format_qor_report",
    "generate_alu_netlist",
    "generate_fir_netlist",
    "CONG_EFFORT_LEVELS",
    "FLOW_EFFORT_LEVELS",
    "LARGE_MAC",
    "PAPER_LARGE_MAC",
    "PAPER_SMALL_MAC",
    "PRIMARY_INPUT",
    "SMALL_MAC",
    "TIMING_EFFORT_LEVELS",
    "CellLibrary",
    "CellType",
    "CompiledNetlist",
    "CtsResult",
    "DrvResult",
    "FlowConfig",
    "Instance",
    "MacSpec",
    "Netlist",
    "PDFlow",
    "PlacementResult",
    "PowerResult",
    "QoRReport",
    "RoutingResult",
    "TimingResult",
    "ToolParameters",
    "VariationField",
    "VerilogParseError",
    "analyze_power",
    "analyze_timing",
    "effective_frequency_mhz",
    "estimate_cell_count",
    "generate_mac_netlist",
    "normalize_params",
    "read_verilog",
    "place",
    "repair_drv",
    "route",
    "synthesize_clock_tree",
    "write_verilog",
]
