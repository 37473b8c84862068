"""Configuration of the PPATuner loop."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..reliability.policy import FaultPolicy


@dataclass
class PPATunerConfig:
    """Hyperparameters of Algorithm 1.

    Attributes:
        tau: Uncertainty-region scaling (Eq. (9)); the hyper-rectangle
            half-width is ``sqrt(tau) * sigma``.
        delta_rel: Relaxation vector δ (Eq. (11)/(12)) as a *fraction of
            each objective's observed range*; the absolute δ is derived
            from the initialization data.  Scalar applies to all
            objectives.
        q: Candidates proposed per synchronous round by the *batched*
            selection rule.  ``q=1`` (default) is the paper's serial
            Eq. (13) rule and is bit-identical to the pre-batching
            trajectory.  ``q>1`` switches to greedy max-diameter
            selection with fantasy collapse and a pairwise distance
            penalty (see :func:`~repro.core.selection.select_batch`) so
            one batch spreads across the live front instead of
            clustering, and ``ask()`` hands back up to ``q`` pending
            indices to evaluate concurrently.
        q_penalty: Strength of the batch diversity penalty; candidate
            scores are damped by ``1 - exp(-dist / (q_penalty * scale))``
            against already-chosen batch members.  Larger values push
            picks further apart.  Ignored when ``q=1``.
        pool_refine_every: Adaptive candidate-pool refinement cadence:
            every this many loop iterations, spawn fresh LHS points
            zoomed around the surviving (live, non-collapsed)
            uncertainty rectangles and append them to the candidate
            pool (incremental cache append — no rebuild).  ``0``
            (default) disables refinement; the pool stays the fixed
            offline table.
        pool_refine_points: New candidates appended per refinement
            round.
        pool_zoom: Half-width of each zoom box, as a fraction of the
            parameter-space span, centred on a live anchor candidate.
        max_iterations: ``T_max``.
        kernel: Base kernel family (``"rbf"`` or ``"matern52"``).
        reopt_every: Hyperparameter re-optimization cadence of the
            calibration engine: every this many iterations each GP's
            hyperparameters are re-optimized (warm-started from the
            previous optimum) with an exact refactorization; between
            ticks new evaluations extend each posterior by exact border
            updates.  ``0`` disables re-optimization after the initial
            fit entirely.
        n_restarts: Hyperparameter-optimizer restarts.
        transfer: If False, source data is ignored (ablation switch).
        pareto_delta_scale: Multiplier on δ for the Pareto-classification
            rule (Eq. (12)).  Classification errors are repaired by the
            final tool verification while wrong drops are permanent, so
            classifying more generously than dropping is safe.
        seed: RNG seed for initial sampling and tie-breaking.
        init_fraction: Fraction of the target pool evaluated during
            initialization (the paper uses "no more than 5%").
        min_init: Lower bound on initial target evaluations.
        warm_start: How the initial design is drawn when no explicit
            ``init_indices`` are given.  ``"random"`` (default) is the
            paper's uniform draw and is bit-identical to the
            pre-warm-start trajectory; ``"copula"`` ranks pool
            candidates through a Gaussian copula fitted on the source
            archives and blends copula-anchored seeds with a uniform
            fill (see :func:`repro.copula.copula_warm_start_indices`)
            — the few-shot cold-start path.  With no source data the
            copula option falls back to the random draw.
        fault_policy: How evaluation failures are retried, broken and
            quarantined (see :class:`~repro.reliability.FaultPolicy`).
            The default policy retries transients and quarantines
            permanently failed candidates; ``None`` disables the
            resilience layer entirely — the oracle is called bare and
            every failure propagates.
    """

    tau: float = 16.0
    delta_rel: float | np.ndarray = 0.01
    q: int = 1
    q_penalty: float = 1.0
    pool_refine_every: int = 0
    pool_refine_points: int = 16
    pool_zoom: float = 0.1
    max_iterations: int = 500
    kernel: str = "rbf"
    reopt_every: int = 10
    n_restarts: int = 1
    transfer: bool = True
    pareto_delta_scale: float = 3.0
    seed: int = 0
    init_fraction: float = 0.02
    min_init: int = 5
    fault_policy: FaultPolicy | None = field(default_factory=FaultPolicy)
    warm_start: str = "random"

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if np.any(np.asarray(self.delta_rel) < 0):
            raise ValueError("delta_rel must be non-negative")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.q_penalty <= 0:
            raise ValueError("q_penalty must be positive")
        if self.pool_refine_every < 0:
            raise ValueError("pool_refine_every must be >= 0 (0 = off)")
        if self.pool_refine_points < 1:
            raise ValueError("pool_refine_points must be >= 1")
        if not 0.0 < self.pool_zoom <= 1.0:
            raise ValueError("pool_zoom must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.init_fraction <= 1.0:
            raise ValueError("init_fraction must be in (0, 1]")
        if self.min_init < 1:
            raise ValueError("min_init must be >= 1")
        if self.reopt_every < 0:
            raise ValueError("reopt_every must be >= 0 (0 = never)")
        if self.warm_start not in ("random", "copula"):
            raise ValueError(
                "warm_start must be 'random' or 'copula'"
            )
        if isinstance(self.fault_policy, dict):
            self.fault_policy = FaultPolicy.from_json(self.fault_policy)

    def to_json(self) -> dict:
        """Fully JSON-serializable dict (session snapshots, service).

        Every dataclass field is emitted, so a new knob cannot be
        silently dropped from snapshots.  Scalars are coerced to the
        Python type of the field's default (numpy scalars included);
        a vector ``delta_rel`` becomes a list and is restored as an
        array.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = [float(v) for v in value.ravel()]
            elif isinstance(value, FaultPolicy):
                value = value.to_json()
            elif isinstance(f.default, (bool, int, float, str)):
                value = type(f.default)(value)
            out[f.name] = value
        return out

    @classmethod
    def from_json(cls, payload: dict) -> "PPATunerConfig":
        """Rebuild from :meth:`to_json` output.

        ``__post_init__`` revalidates and revives the fault-policy dict.

        Raises:
            ValueError: On unknown keys (a snapshot from another layout
                should fail loudly, not half-apply) or a value of the
                wrong type.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"config must be a JSON object, got {type(payload).__name__}"
            )
        data = dict(payload)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(
                f"unknown config field(s): {', '.join(unknown)}"
            )
        delta = data.get("delta_rel")
        if isinstance(delta, list):
            data["delta_rel"] = np.asarray(delta, dtype=float)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"invalid config: {exc}") from exc
