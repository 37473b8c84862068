"""Tuning results shared by PPATuner and all baselines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class IterationRecord:
    """One iteration's bookkeeping (feeds the Figure 2 visualizations).

    Attributes:
        iteration: 0-based iteration number.
        n_undecided: Undecided candidates after decision-making.
        n_pareto: Candidates classified Pareto-optimal so far.
        n_dropped: Candidates dropped so far.
        n_evaluations: Cumulative tool runs.
        max_diameter: Largest uncertainty-region diameter among live
            candidates (NaN if none are bounded yet).
        selected: Candidate indices evaluated this iteration.
    """

    iteration: int
    n_undecided: int
    n_pareto: int
    n_dropped: int
    n_evaluations: int
    max_diameter: float
    selected: list[int] = field(default_factory=list)

    def to_json(self) -> dict:
        """Flat JSON dict (memo entries and session snapshots)."""
        return {
            "iteration": int(self.iteration),
            "n_undecided": int(self.n_undecided),
            "n_pareto": int(self.n_pareto),
            "n_dropped": int(self.n_dropped),
            "n_evaluations": int(self.n_evaluations),
            "max_diameter": float(self.max_diameter),
            "selected": [int(i) for i in self.selected],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "IterationRecord":
        """Rebuild from :meth:`to_json` output."""
        return cls(
            iteration=payload["iteration"],
            n_undecided=payload["n_undecided"],
            n_pareto=payload["n_pareto"],
            n_dropped=payload["n_dropped"],
            n_evaluations=payload["n_evaluations"],
            max_diameter=payload["max_diameter"],
            selected=list(payload["selected"]),
        )


@dataclass
class TuningResult:
    """Outcome of one tuning run.

    Attributes:
        pareto_indices: Pool indices predicted Pareto-optimal.
        pareto_points: Golden objective vectors of those indices
            (``(k, m)``) — evaluated through the tool for the final
            verification pass, as the paper does.
        n_evaluations: Total tool runs consumed (the paper's 'Runs').
        n_iterations: Loop iterations executed.
        history: Per-iteration records (empty for baselines that do not
            track it).
        evaluated_indices: Every pool index the tuner evaluated, in
            evaluation order: the initial design as given, then each
            iteration's picks (PPATuner's final verification runs are
            not included).
        stop_reason: Why the loop ended (``"all_decided"``,
            ``"max_iterations"`` or ``"pool_exhausted"``).
        quarantined_indices: Pool indices permanently removed from the
            loop after unrecoverable evaluation failure (empty on
            healthy runs; see :mod:`repro.reliability`).
        n_failed_evaluations: Permanent evaluation failures over the
            run (quarantines plus circuit-breaker fast-fails).
    """

    pareto_indices: np.ndarray
    pareto_points: np.ndarray
    n_evaluations: int
    n_iterations: int
    history: list[IterationRecord] = field(default_factory=list)
    evaluated_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int)
    )
    stop_reason: str = ""
    quarantined_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int)
    )
    n_failed_evaluations: int = 0

    def __post_init__(self) -> None:
        self.pareto_indices = np.asarray(self.pareto_indices, dtype=int)
        self.pareto_points = np.atleast_2d(
            np.asarray(self.pareto_points, dtype=float)
        )
        if len(self.pareto_indices) != len(self.pareto_points):
            raise ValueError("pareto indices/points misaligned")
        self.quarantined_indices = np.asarray(
            self.quarantined_indices, dtype=int
        )

    def to_json(self) -> dict:
        """Fully JSON-serializable dict (lossless modulo float repr).

        Arrays become nested lists; :meth:`from_json` restores exact
        values (Python floats round-trip through JSON bit-exactly).
        """
        return {
            "pareto_indices": [int(i) for i in self.pareto_indices],
            "pareto_points": [
                [float(v) for v in row] for row in self.pareto_points
            ],
            "n_objectives": int(self.pareto_points.shape[1]),
            "n_evaluations": int(self.n_evaluations),
            "n_iterations": int(self.n_iterations),
            "history": [h.to_json() for h in self.history],
            "evaluated_indices": [
                int(i) for i in self.evaluated_indices
            ],
            "stop_reason": self.stop_reason,
            "quarantined_indices": [
                int(i) for i in self.quarantined_indices
            ],
            "n_failed_evaluations": int(self.n_failed_evaluations),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TuningResult":
        """Rebuild from :meth:`to_json` output."""
        m = int(payload.get("n_objectives", 0))
        points = np.asarray(payload["pareto_points"], dtype=float)
        if points.size == 0:
            points = np.empty((0, m))
        return cls(
            pareto_indices=np.asarray(
                payload["pareto_indices"], dtype=int
            ),
            pareto_points=points,
            n_evaluations=int(payload["n_evaluations"]),
            n_iterations=int(payload["n_iterations"]),
            history=[
                IterationRecord.from_json(h)
                for h in payload.get("history", [])
            ],
            evaluated_indices=np.asarray(
                payload.get("evaluated_indices", []), dtype=int
            ),
            stop_reason=payload.get("stop_reason", ""),
            quarantined_indices=np.asarray(
                payload.get("quarantined_indices", []), dtype=int
            ),
            n_failed_evaluations=int(
                payload.get("n_failed_evaluations", 0)
            ),
        )
