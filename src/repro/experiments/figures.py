"""Data generators for the paper's figures.

Figure 2(a): shrinkage of a candidate's uncertainty region across
iterations (diameter trace).  Figure 2(b): the δ-accurate frontier found
by PPATuner vs. the golden frontier.  Figure 3: per-method Pareto
frontiers in the power-delay space on Target2.

These return plain data structures (series of points) — the paper's plots
are scatter/line charts of exactly these series, so the benches print them
instead of rendering images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bench.dataset import BenchmarkDataset
from ..core import PPATuner, PPATunerConfig, PoolOracle
from ..pareto.dominance import pareto_front
from .scenarios import ScenarioResult


@dataclass
class Figure2Data:
    """Series behind Figure 2.

    Attributes:
        iterations: Iteration numbers.
        max_diameters: Largest live uncertainty-region diameter per
            iteration (the panel (a) shrinkage story).
        n_undecided: Undecided-count trace.
        n_pareto: Classified-Pareto-count trace.
        golden_front: Golden Pareto frontier points.
        found_front: PPATuner's (δ-accurate) frontier points.
    """

    iterations: list[int]
    max_diameters: list[float]
    n_undecided: list[int]
    n_pareto: list[int]
    golden_front: np.ndarray
    found_front: np.ndarray


def figure2_uncertainty_shrinkage(
    dataset: BenchmarkDataset,
    source: BenchmarkDataset | None = None,
    objective_names: tuple[str, ...] = ("power", "delay"),
    scale: int | None = 400,
    seed: int = 0,
    config: PPATunerConfig | None = None,
) -> Figure2Data:
    """Run PPATuner once and extract the Figure 2 series.

    Args:
        dataset: Target benchmark.
        source: Optional source benchmark for transfer.
        objective_names: Objective space (paper panel uses power-delay).
        scale: Target-pool subsample for speed (None = full).
        seed: RNG seed.
        config: Optional tuner configuration.

    Returns:
        The :class:`Figure2Data` series.
    """
    target = dataset if scale is None else dataset.subsample(scale, seed)
    Y = target.objectives(objective_names)
    oracle = PoolOracle(Y)
    cfg = config or PPATunerConfig(
        max_iterations=max(10, int(0.1 * target.n)), seed=seed
    )
    tuner = PPATuner(cfg)
    kwargs = {}
    if source is not None:
        rng = np.random.default_rng(seed)
        idx = rng.choice(source.n, size=min(200, source.n), replace=False)
        kwargs = {
            "sources": [(
                source.X[idx],
                source.objectives(objective_names)[idx],
            )],
        }
    result = tuner.tune(target.X, oracle, **kwargs)

    return Figure2Data(
        iterations=[h.iteration for h in result.history],
        max_diameters=[h.max_diameter for h in result.history],
        n_undecided=[h.n_undecided for h in result.history],
        n_pareto=[h.n_pareto for h in result.history],
        golden_front=target.golden_front(objective_names),
        found_front=pareto_front(result.pareto_points),
    )


def figure3_frontiers(
    scenario: ScenarioResult,
    dataset: BenchmarkDataset,
    objective_space: str = "power-delay",
    objective_names: tuple[str, ...] = ("power", "delay"),
) -> dict[str, np.ndarray]:
    """Per-method frontier point series of Figure 3.

    Args:
        scenario: A completed Scenario Two result.
        dataset: The target benchmark (golden frontier source).
        objective_space: Which scenario rows to read.
        objective_names: Metric names of that space.

    Returns:
        Mapping from series name (``"golden"`` + each method) to its
        frontier points, exactly the scatter series of the paper's plot.
    """
    series: dict[str, np.ndarray] = {
        "golden": dataset.golden_front(objective_names)
    }
    for outcome in scenario.outcomes:
        if outcome.objective_space != objective_space:
            continue
        if outcome.result is None:
            continue
        series[outcome.method] = pareto_front(
            outcome.result.pareto_points
        )
    return series
