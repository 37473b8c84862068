"""Trace replay: reconstruct a tuning run from its event stream.

A recorded trace contains everything ``TuningResult`` derives from the
live loop — per-iteration bookkeeping (``IterationEnd`` is
field-for-field an :class:`~repro.core.result.IterationRecord`), the
final Pareto set and the loop's evaluation order (``RunEnd``), and every
observed QoR vector (``ToolEvaluation``).  Replaying therefore rebuilds
the run's history and result *exactly*, without touching the tool — the
post-hoc ADRS / hyper-volume-error convergence curves that previously
required a re-run come straight from the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..core.result import IterationRecord, TuningResult
from .events import (
    BatchSelected,
    IterationEnd,
    PoolRefined,
    RunEnd,
    RunStart,
    ToolEvaluation,
    TraceEvent,
)
from .sinks import read_trace

__all__ = [
    "TraceReplay",
    "convergence_from_trace",
    "records_equal",
    "replay_trace",
]


def records_equal(
    a: Sequence[IterationRecord], b: Sequence[IterationRecord]
) -> bool:
    """Field-exact history comparison over every
    :class:`IterationRecord` field, NaN-aware.

    Plain ``==`` on :class:`IterationRecord` fails whenever
    ``max_diameter`` is NaN (the first iterations before any bounded
    region exist); this helper treats NaN as equal to NaN, and compares
    sequence fields (``selected``) as lists.
    """
    if len(a) != len(b):
        return False
    names = [f.name for f in fields(IterationRecord)]
    return all(
        _values_equal(getattr(ra, name), getattr(rb, name))
        for ra, rb in zip(a, b)
        for name in names
    )


def _values_equal(x: object, y: object) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        return x == y or (math.isnan(x) and math.isnan(y))
    if isinstance(x, (list, tuple, np.ndarray)):
        return list(x) == list(y)
    return x == y


@dataclass
class TraceReplay:
    """A run reconstructed from its trace.

    Attributes:
        events: The full event stream, in emission order.
        run_start: The run's opening event (``None`` for a truncated
            trace).
        run_end: The closing event (``None`` when the run was killed
            mid-loop — history up to the kill point is still replayed).
        history: Reconstructed per-iteration records.
        evaluations: Candidate index → last observed QoR vector, from
            the ``ToolEvaluation`` stream.
        batch_selections: Every ``BatchSelected`` event (q > 1 runs),
            in emission order.
        pool_refinements: Every ``PoolRefined`` event, in emission
            order — their ``n_new`` sum is the run's pool growth.
    """

    events: list[TraceEvent]
    run_start: RunStart | None
    run_end: RunEnd | None
    history: list[IterationRecord]
    evaluations: dict[int, np.ndarray] = field(default_factory=dict)
    batch_selections: list[BatchSelected] = field(default_factory=list)
    pool_refinements: list[PoolRefined] = field(default_factory=list)

    @property
    def n_pool_grown(self) -> int:
        """Candidates added by refinement over the replayed run."""
        return sum(ev.n_new for ev in self.pool_refinements)

    @property
    def pareto_indices(self) -> np.ndarray:
        """Final reported Pareto indices (empty for a truncated trace)."""
        if self.run_end is None:
            return np.empty(0, dtype=int)
        return np.asarray(self.run_end.pareto_indices, dtype=int)

    def to_result(self) -> TuningResult:
        """Rebuild the run's :class:`TuningResult`.

        Pareto points are recovered from the recorded tool evaluations
        (the final verification pass evaluates — and therefore traces —
        every reported index).

        Raises:
            ValueError: If the trace has no ``RunEnd`` event or a
                Pareto index was never evaluated on record.
        """
        if self.run_end is None:
            raise ValueError(
                "trace is truncated (no run_end); cannot rebuild the "
                "final result — history is still available"
            )
        end = self.run_end
        idx = self.pareto_indices
        missing = [int(i) for i in idx if int(i) not in self.evaluations]
        if missing:
            raise ValueError(
                f"pareto indices {missing} have no recorded evaluation"
            )
        m = (
            self.run_start.n_objectives
            if self.run_start is not None
            else (len(next(iter(self.evaluations.values())))
                  if self.evaluations else 0)
        )
        points = (
            np.vstack([self.evaluations[int(i)] for i in idx])
            if len(idx) else np.empty((0, m))
        )
        return TuningResult(
            pareto_indices=idx,
            pareto_points=points,
            n_evaluations=end.n_evaluations,
            n_iterations=end.n_iterations,
            history=list(self.history),
            evaluated_indices=np.asarray(
                end.evaluated_indices, dtype=int
            ),
            stop_reason=end.stop_reason,
            quarantined_indices=np.asarray(
                end.quarantined_indices, dtype=int
            ),
            n_failed_evaluations=end.n_failed_evaluations,
        )


def replay_trace(
    source: str | Path | Iterable[TraceEvent],
) -> TraceReplay:
    """Replay a trace file (or event sequence) into a :class:`TraceReplay`.

    Only the *last* run in the stream is replayed when a file holds
    several (e.g. a shared path reused across runs): a fresh
    ``RunStart`` resets the reconstruction.
    """
    if isinstance(source, (str, Path)):
        events = read_trace(source)
    else:
        events = list(source)

    run_start: RunStart | None = None
    run_end: RunEnd | None = None
    history: list[IterationRecord] = []
    evaluations: dict[int, np.ndarray] = {}
    batch_selections: list[BatchSelected] = []
    pool_refinements: list[PoolRefined] = []
    for event in events:
        if isinstance(event, RunStart):
            run_start = event
            run_end = None
            history = []
            evaluations = {}
            batch_selections = []
            pool_refinements = []
        elif isinstance(event, IterationEnd):
            history.append(IterationRecord.from_json(event.to_json()))
        elif isinstance(event, ToolEvaluation):
            evaluations[event.index] = np.asarray(
                event.values, dtype=float
            )
        elif isinstance(event, BatchSelected):
            batch_selections.append(event)
        elif isinstance(event, PoolRefined):
            pool_refinements.append(event)
        elif isinstance(event, RunEnd):
            run_end = event
    return TraceReplay(
        events=events,
        run_start=run_start,
        run_end=run_end,
        history=history,
        evaluations=evaluations,
        batch_selections=batch_selections,
        pool_refinements=pool_refinements,
    )


def convergence_from_trace(
    source: str | Path | TraceReplay,
    dataset,
    names: tuple[str, ...],
    method: str = "replay",
):
    """Post-hoc anytime convergence curve from a recorded trace.

    Reuses the experiments' curve machinery on the replayed result, so
    the ADRS/HV-error trajectory of an old run is recomputable from its
    JSONL file alone — no tool re-runs.

    Args:
        source: Trace path or an already-built :class:`TraceReplay`.
        dataset: Benchmark dataset supplying golden values.
        names: Objective names.
        method: Curve label.

    Returns:
        A :class:`~repro.experiments.convergence.ConvergenceCurve`.
    """
    from ..experiments.convergence import convergence_curve

    replay = (
        source if isinstance(source, TraceReplay) else replay_trace(source)
    )
    return convergence_curve(method, replay.to_result(), dataset, names)
