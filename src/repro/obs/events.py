"""Typed trace events emitted by the tuning loop.

Every event is a frozen dataclass with JSON-serializable fields (ints,
floats, strings, bools, and flat lists thereof).  The event taxonomy
mirrors Algorithm 1:

- :class:`RunStart` / :class:`RunEnd` bracket one ``PPATuner.tune``
  call; ``RunEnd`` carries everything replay needs that is not
  per-iteration (final Pareto indices, the loop-evaluation set, the
  stop reason).
- :class:`IterationStart` → :class:`CalibrationDone` →
  :class:`DecisionSummary` → :class:`SelectionMade` →
  :class:`IterationEnd` trace one loop iteration; ``IterationEnd``
  carries exactly the fields of
  :class:`~repro.core.result.IterationRecord`, so a recorded run can be
  replayed into an identical history without re-running the tool.
- :class:`ToolEvaluation` is emitted by the oracles themselves (one per
  ``evaluate`` call, cached hits included) with the observed QoR vector
  and the oracle latency.

Serialization uses Python's :mod:`json` defaults, which round-trip
``NaN``/``Infinity`` literals — diameters of unbounded regions and the
pre-prediction ``max_diameter`` rely on this.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

__all__ = [
    "EVENT_TYPES",
    "BatchSelected",
    "CalibrationDone",
    "CircuitStateChange",
    "DecisionSummary",
    "EvaluationRetry",
    "IterationEnd",
    "IterationStart",
    "PointQuarantined",
    "PoolRefined",
    "RunEnd",
    "RunStart",
    "SelectionMade",
    "ToolEvaluation",
    "TraceEvent",
    "event_from_json",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base class; concrete events set the ``type`` class attribute."""

    type = "event"

    def to_json(self) -> dict:
        """Flat JSON-serializable dict, ``type`` tag included."""
        out: dict = {"type": self.type}
        out.update(asdict(self))
        return out


@dataclass(frozen=True)
class RunStart(TraceEvent):
    """One ``tune`` call begins.

    Attributes:
        n_candidates: Target-pool size.
        n_objectives: QoR metric count.
        seed: Config seed.
        n_init: Initial target evaluations (Algorithm 1 line 1).
        n_sources: Source archives made available for transfer.
        delta: Absolute δ vector derived from the initialization data.
    """

    type = "run_start"

    n_candidates: int
    n_objectives: int
    seed: int
    n_init: int
    n_sources: int
    delta: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class IterationStart(TraceEvent):
    """Loop iteration begins (counts *before* this iteration acts)."""

    type = "iteration_start"

    iteration: int
    n_undecided: int
    n_pareto: int
    n_dropped: int


@dataclass(frozen=True)
class CalibrationDone(TraceEvent):
    """All surrogates are calibrated for this iteration.

    Attributes:
        iteration: Loop iteration.
        path: ``"full"`` (exact refits), ``"incremental"`` (rank-1
            border updates) or ``"noop"`` (no new evidence).
        n_models: Surrogates calibrated (one per QoR metric).
        n_new: Evaluations absorbed since the previous calibration.
        n_fallbacks: Incremental updates that fell back to an exact
            refactorization this call.
        reopt: Whether hyperparameters were re-optimized.
        seconds: Wall-clock time of the calibration call.
        pool_rows: Pool rows whose prediction caches the call extended
            (largest over the models; 0 after a refit, which drops the
            caches, and in traces written before it was recorded).
    """

    type = "calibration_done"

    iteration: int
    path: str
    n_models: int
    n_new: int
    n_fallbacks: int
    reopt: bool
    seconds: float
    pool_rows: int = 0


@dataclass(frozen=True)
class DecisionSummary(TraceEvent):
    """One decision-making pass (Eq. (11)-(12)) finished.

    Counts are post-pass totals over the pool; ``newly_*`` are this
    pass's contributions.  ``seconds`` is the pass's wall-clock time
    (0.0 in traces written before it was recorded).
    """

    type = "decision_summary"

    iteration: int
    n_live: int
    n_undecided: int
    n_pareto: int
    n_dropped: int
    newly_dropped: int
    newly_pareto: int
    seconds: float = 0.0


@dataclass(frozen=True)
class SelectionMade(TraceEvent):
    """Selection rule (Eq. (13)) picked the next tool batch.

    Attributes:
        iteration: Loop iteration.
        selected: Chosen candidate indices, longest diameter first.
        diameters: Uncertainty-rectangle diameters of the chosen
            candidates at selection time (``Infinity`` for a candidate
            that has never been predicted).
    """

    type = "selection_made"

    iteration: int
    selected: list[int] = field(default_factory=list)
    diameters: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class BatchSelected(TraceEvent):
    """Batched selection (``q>1``) picked one diverse tool batch.

    Emitted *in addition to* the per-pick :class:`SelectionMade`
    events — consumers that only understand serial traces keep working,
    while batch-aware tooling can recover the greedy order and the
    diversity penalties actually applied.

    Attributes:
        iteration: Loop iteration.
        selected: Chosen candidate indices in greedy pick order.
        diameters: True (pre-fantasy) rectangle diameters of the picks.
        scores: Penalized scores at pick time (``diameters[0] ==
            scores[0]`` — the first pick is never penalized).
    """

    type = "batch_selected"

    iteration: int
    selected: list[int] = field(default_factory=list)
    diameters: list[float] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class PoolRefined(TraceEvent):
    """Adaptive pool refinement appended zoomed LHS candidates.

    Attributes:
        iteration: Loop iteration the refinement ran before.
        n_new: Candidates appended this round.
        n_pool: Pool size *after* the append.
        n_anchors: Live rectangles the zoom boxes were centred on.
        zoom: Zoom half-width (fraction of the parameter-space span).
    """

    type = "pool_refined"

    iteration: int
    n_new: int
    n_pool: int
    n_anchors: int
    zoom: float


@dataclass(frozen=True)
class ToolEvaluation(TraceEvent):
    """One oracle ``evaluate`` call.

    Attributes:
        index: Pool candidate index.
        values: Observed QoR vector.
        seconds: Oracle latency for this call.
        cached: Whether the value was served from the oracle's cache
            (not a fresh tool run).
        oracle: Oracle kind (``"pool"`` or ``"flow"``).
    """

    type = "tool_evaluation"

    index: int
    seconds: float
    cached: bool
    oracle: str
    values: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class IterationEnd(TraceEvent):
    """Iteration bookkeeping — field-for-field an
    :class:`~repro.core.result.IterationRecord`."""

    type = "iteration_end"

    iteration: int
    n_undecided: int
    n_pareto: int
    n_dropped: int
    n_evaluations: int
    max_diameter: float
    selected: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class EvaluationRetry(TraceEvent):
    """A transient evaluation failure is about to be retried.

    Emitted by :class:`~repro.reliability.ResilientOracle` before it
    sleeps the backoff; the deterministic wait is part of the trace so
    replayed runs can audit the full retry schedule.

    Attributes:
        index: Pool candidate index that failed.
        attempt: Failed attempts so far (1 = first retry upcoming).
        wait_s: Deterministic backoff about to be slept.
        error: Exception class name of the transient failure.
    """

    type = "evaluation_retry"

    index: int
    attempt: int
    wait_s: float
    error: str = ""


@dataclass(frozen=True)
class CircuitStateChange(TraceEvent):
    """The circuit breaker changed state.

    Attributes:
        old_state: State before (``closed``/``open``/``half_open``).
        new_state: State after.
        consecutive_failures: Consecutive permanent failures at the
            moment of transition.
        index: Candidate involved, or -1 when not tied to one (e.g.
            the half-open -> closed transition on a probe success).
    """

    type = "circuit_state_change"

    old_state: str
    new_state: str
    consecutive_failures: int
    index: int = -1


@dataclass(frozen=True)
class PointQuarantined(TraceEvent):
    """The loop permanently removed a candidate after evaluation failure.

    A quarantined point is treated as dropped (Eq. (11) semantics) and
    excluded from the reported Pareto set; see DESIGN.md §10.

    Attributes:
        index: Quarantined pool candidate index.
        iteration: Loop iteration at quarantine time (-1 during the
            initialization or final-verification passes).
        attempts: Evaluation attempts consumed before giving up.
        error: Exception class name of the permanent failure.
    """

    type = "point_quarantined"

    index: int
    iteration: int
    attempts: int = 0
    error: str = ""


@dataclass(frozen=True)
class RunEnd(TraceEvent):
    """One ``tune`` call finished.

    Attributes:
        stop_reason: Why the loop ended.
        n_iterations: Loop iterations executed.
        n_evaluations: Loop tool runs (the paper's "Runs"; the final
            verification pass is excluded, as in ``TuningResult``).
        pareto_indices: Final reported Pareto set.
        evaluated_indices: Every pool index sampled during the loop,
            in evaluation order (matches
            ``TuningResult.evaluated_indices``).
        seconds: Wall-clock time of the whole ``tune`` call.
        quarantined_indices: Candidates removed after permanent
            evaluation failure (ascending; empty on healthy runs).
        n_failed_evaluations: Permanent evaluation failures over the
            whole run (quarantines plus breaker fast-fails).
    """

    type = "run_end"

    stop_reason: str
    n_iterations: int
    n_evaluations: int
    seconds: float
    pareto_indices: list[int] = field(default_factory=list)
    evaluated_indices: list[int] = field(default_factory=list)
    quarantined_indices: list[int] = field(default_factory=list)
    n_failed_evaluations: int = 0


#: Registry of concrete event types by their ``type`` tag.
EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.type: cls
    for cls in (
        RunStart,
        IterationStart,
        CalibrationDone,
        DecisionSummary,
        SelectionMade,
        BatchSelected,
        PoolRefined,
        ToolEvaluation,
        IterationEnd,
        EvaluationRetry,
        CircuitStateChange,
        PointQuarantined,
        RunEnd,
    )
}


def event_from_json(payload: dict) -> TraceEvent:
    """Reconstruct an event from its :meth:`TraceEvent.to_json` dict.

    Unknown keys are ignored (forward compatibility: a newer writer may
    add fields); unknown types raise.

    Raises:
        ValueError: If the ``type`` tag is missing or unregistered.
    """
    tag = payload.get("type")
    cls = EVENT_TYPES.get(tag)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown trace event type {tag!r}")
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in payload.items() if k in names})
