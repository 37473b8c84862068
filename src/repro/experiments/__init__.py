"""Experiment harness: scenario runners, figures, paper-style reports."""

from .convergence import (
    ConvergenceCurve,
    convergence_curve,
    convergence_suite,
    format_convergence_table,
)
from .figures import (
    Figure2Data,
    figure2_uncertainty_shrinkage,
    figure3_frontiers,
)
from .reporting import (
    export_scenario_csv,
    export_scenario_json,
    format_benchmark_table,
    format_scenario_table,
    scenario_to_records,
)
from .sensitivity import SensitivityReport, analyze_sensitivity
from .scenario_three import (
    SCENARIO_THREE_VARIANTS,
    ScenarioThreeOutcome,
    format_scenario_three,
    scenario_three,
)
from .scenarios import (
    CROSS_DESIGN_METHODS,
    PAPER_BUDGET_FRACTIONS,
    PAPER_METHODS,
    SCENARIOS,
    MethodOutcome,
    Scenario,
    ScenarioResult,
    build_scenario_jobs,
    evaluate_outcome,
    make_method,
    register_method,
    registered_methods,
    run_scenario,
    scenario,
    scenario_refs,
)

__all__ = [
    "CROSS_DESIGN_METHODS",
    "SCENARIOS",
    "Scenario",
    "SCENARIO_THREE_VARIANTS",
    "ScenarioThreeOutcome",
    "build_scenario_jobs",
    "convergence_suite",
    "format_scenario_three",
    "scenario_three",
    "ConvergenceCurve",
    "SensitivityReport",
    "analyze_sensitivity",
    "convergence_curve",
    "format_convergence_table",
    "PAPER_BUDGET_FRACTIONS",
    "PAPER_METHODS",
    "Figure2Data",
    "MethodOutcome",
    "ScenarioResult",
    "evaluate_outcome",
    "export_scenario_csv",
    "export_scenario_json",
    "figure2_uncertainty_shrinkage",
    "figure3_frontiers",
    "format_benchmark_table",
    "format_scenario_table",
    "make_method",
    "register_method",
    "registered_methods",
    "run_scenario",
    "scenario",
    "scenario_refs",
]
