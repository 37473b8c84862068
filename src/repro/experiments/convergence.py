"""Anytime convergence curves: front quality vs. tool runs.

The paper's tables report each method's *final* operating point; this
module traces the whole trajectory — after every tool run, the
hyper-volume error of the best front found so far — which shows *when*
each method gets good, not just where it ends (the crossovers the tables
hide).

Every tuner reports ``evaluated_indices`` in evaluation order, so the
front after k runs is the non-dominated subset of the first k
evaluations.  For the baselines that is exactly their reported front;
for PPATuner the same evaluated-set curve is a conservative lower bound
on its reported (classified) front, making the comparison fair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bench.dataset import BenchmarkDataset
from ..core.result import TuningResult
from ..pareto.dominance import non_dominated_mask
from ..pareto.hypervolume import hypervolume, reference_point


@dataclass
class ConvergenceCurve:
    """One method's anytime trajectory.

    Attributes:
        method: Method name.
        runs: Tool-run counts (x-axis), 1-based.
        hv_error: Hyper-volume error of the best-so-far front after each
            run.
    """

    method: str
    runs: np.ndarray
    hv_error: np.ndarray

    def runs_to_reach(self, threshold: float) -> int | None:
        """First run count at which ``hv_error <= threshold`` (None if
        never reached)."""
        hits = np.nonzero(self.hv_error <= threshold)[0]
        if len(hits) == 0:
            return None
        return int(self.runs[hits[0]])


def convergence_curve(
    method: str,
    result: TuningResult,
    dataset: BenchmarkDataset,
    names: tuple[str, ...],
) -> ConvergenceCurve:
    """Compute the anytime HV-error curve for one tuning result.

    Args:
        method: Label for the curve.
        result: The tuning result (its ``evaluated_indices`` are
            replayed in order).
        dataset: Benchmark supplying golden values and the reference.
        names: Objective names.

    Returns:
        A :class:`ConvergenceCurve`.
    """
    Y_all = dataset.objectives(names)
    golden = dataset.golden_front(names)
    reference = reference_point(Y_all)
    h_golden = hypervolume(golden, reference)
    if h_golden <= 0:
        raise ValueError("degenerate golden front")

    order = np.asarray(result.evaluated_indices, dtype=int)
    Y_seen = Y_all[order]
    runs = np.arange(1, len(order) + 1)
    errors = np.empty(len(order))
    # Incremental front maintenance: keep the running non-dominated set.
    front: np.ndarray | None = None
    for k in range(len(order)):
        point = Y_seen[k:k + 1]
        if front is None:
            front = point
        else:
            stacked = np.vstack([front, point])
            front = stacked[non_dominated_mask(stacked)]
        errors[k] = (h_golden - hypervolume(front, reference)) / h_golden
    return ConvergenceCurve(method=method, runs=runs, hv_error=errors)


def convergence_suite(
    source,
    target,
    names: tuple[str, ...],
    methods: tuple[str, ...],
    budget_key: str = "target2",
    min_budget: int = 20,
    seed: int = 0,
    workers: int | None = 1,
    runner=None,
    source_ref=None,
    target_ref=None,
) -> list[ConvergenceCurve]:
    """Trace every method's anytime curve, one runner cell per method.

    Each cell runs its tuner and computes the curve in the worker (the
    curve rides back in the record extras), so methods trace in
    parallel under ``workers > 1`` with bit-identical output to the
    serial order.

    Args:
        source: Source benchmark.
        target: Target benchmark pool.
        names: Objective names.
        methods: Methods to trace.
        budget_key: Paper budget-fraction key.
        min_budget: Floor on each method's tool-run budget.
        seed: Base seed (order-independent per-cell derivation).
        workers: Process count (1 = serial).
        runner: Explicit :class:`~repro.runner.ExperimentRunner`;
            overrides ``workers``.
        source_ref/target_ref: Optional cache refs for worker-side
            dataset resolution.

    Returns:
        One curve per method, in ``methods`` order.
    """
    from ..runner import (
        ExperimentRunner,
        RunJob,
        RunSpec,
        dataset_id,
        make_params,
    )

    source_id = source_ref.label if source_ref else dataset_id(source)
    target_id = target_ref.label if target_ref else dataset_id(target)
    jobs = [
        RunJob(
            spec=RunSpec(
                kind="convergence",
                scenario="convergence",
                method=method,
                objective_space="-".join(names),
                objectives=tuple(names),
                budget_key=budget_key,
                n_source=200,
                seed=seed,
                source_id=source_id,
                target_id=target_id,
                params=make_params(min_budget=min_budget),
            ),
            source=source_ref or source,
            target=target_ref or target,
        )
        for method in methods
    ]
    if runner is None:
        runner = ExperimentRunner(workers=workers, memo=None)
    records = runner.run(jobs)
    return [
        ConvergenceCurve(
            method=record.spec.method,
            runs=np.asarray(record.extras["curve_runs"], dtype=int),
            hv_error=np.asarray(
                record.extras["curve_hv_error"], dtype=float
            ),
        )
        for record in records
    ]


def format_convergence_table(
    curves: list[ConvergenceCurve],
    thresholds: tuple[float, ...] = (0.3, 0.2, 0.1, 0.05),
) -> str:
    """Tabulate runs-to-threshold for several curves."""
    header = f"{'method':<12}" + "".join(
        f" {'<=' + format(t, '.2f'):>9}" for t in thresholds
    ) + f" {'final':>8}"
    lines = [header]
    for curve in curves:
        row = f"{curve.method:<12}"
        for t in thresholds:
            hit = curve.runs_to_reach(t)
            row += f" {hit if hit is not None else '-':>9}"
        row += f" {curve.hv_error[-1]:8.3f}"
        lines.append(row)
    return "\n".join(lines)
