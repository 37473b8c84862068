"""PPATuner — the paper's Algorithm 1.

Pool-based Pareto-driven auto-tuning: candidates are target-task parameter
configurations; per iteration the tuner (1) calibrates one transfer GP per
QoR metric on all source data plus the target evaluations so far,
(2) shrinks per-candidate uncertainty hyper-rectangles, (3) drops
δ-dominated candidates and classifies δ-accurate Pareto candidates, and
(4) sends the largest-uncertainty live candidate(s) to the tool.

The loop itself lives in :class:`~repro.core.session.TuningSession`, an
ask/tell state machine; :meth:`PPATuner.tune` is its closed-loop driver —
it wires the resilience layer around the oracle, adopts the trace
recorder, and feeds evaluations back until the session completes.  Both
surfaces produce identical results and event streams for the same seed.
With ``config.q > 1`` the driver dispatches each pending batch through
``Oracle.evaluate_batch`` — concurrent under oracles that advertise
``supports_parallel_batch`` (the paper's parallel tool licenses) — and
with ``config.pool_refine_every > 0`` the candidate pool grows mid-run,
which requires an oracle exposing ``extend`` (see
:class:`~repro.core.oracle.CallableOracle` and
:class:`~repro.core.oracle.FlowOracle` with a decoder).

The tuner accepts any object satisfying the
:class:`~repro.core.oracle.Oracle` protocol and, when given a
:class:`~repro.obs.recorder.TraceRecorder`, emits the full
:mod:`repro.obs` event stream (run/iteration brackets, calibration,
decision, selection, and — via the oracle — every tool evaluation), from
which the run replays exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..obs.recorder import NULL_RECORDER
from .calibration import CalibrationEngine
from .config import PPATunerConfig
from .result import TuningResult
from .session import TuningSession, drive

if TYPE_CHECKING:  # pragma: no cover
    from ..gp.multisource import MultiSourceTransferGP
    from .oracle import Oracle


@runtime_checkable
class Tuner(Protocol):
    """Structural contract every tuner satisfies (the tuner-side twin of
    :class:`~repro.core.oracle.Oracle`).

    A tuner is anything with a ``name`` and a ``tune`` accepting the
    pool, an oracle, and the unified keyword surface — ``PPATuner``, the
    :class:`~repro.baselines.PoolTuner` baselines,
    :class:`~repro.service.RemoteTuner`, or any duck-typed object.
    ``isinstance(obj, Tuner)`` checks the attributes exist (signatures
    are the conformance tests' job, as with ``Oracle``).
    """

    #: Human-readable method name (reports, registries).
    name: str

    def tune(
        self,
        X_pool: np.ndarray,
        oracle: "Oracle",
        *,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
        init_indices: np.ndarray | None = None,
    ) -> TuningResult:
        """Run the tuner over the candidate pool."""
        ...  # pragma: no cover - protocol stub


class PPATuner:
    """Pareto-driven tool-parameter auto-tuner with GP transfer learning.

    Example:
        >>> tuner = PPATuner(PPATunerConfig(max_iterations=100))
        >>> result = tuner.tune(X_pool, oracle, X_src, Y_src)  # doctest: +SKIP
    """

    #: Method name under the :class:`Tuner` protocol (matches the
    #: paper-table column and the method registry).
    name = "PPATuner"

    def __init__(
        self,
        config: PPATunerConfig | None = None,
        recorder=None,
    ) -> None:
        """Create the tuner.

        Args:
            config: Loop hyperparameters (defaults are the repo's
                reference settings; see :class:`PPATunerConfig`).
            recorder: Optional :class:`~repro.obs.recorder.TraceRecorder`;
                defaults to the allocation-free null recorder.
        """
        self.config = config or PPATunerConfig()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.models_: list[MultiSourceTransferGP] = []
        self.calibration_: CalibrationEngine | None = None
        self.session_: TuningSession | None = None

    def tune(
        self,
        X_pool: np.ndarray,
        oracle: "Oracle",
        X_source: np.ndarray | None = None,
        Y_source: np.ndarray | None = None,
        init_indices: np.ndarray | None = None,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> TuningResult:
        """Run Algorithm 1 over the candidate pool.

        Args:
            X_pool: ``(n, d)`` raw feature matrix of the target-task
                candidate configurations.
            oracle: Evaluation oracle over the same pool (row order must
                match); anything satisfying the
                :class:`~repro.core.oracle.Oracle` protocol.
            X_source: ``(N, d)`` source-task features (the historical
                dataset ``D^S``); omit to tune without transfer.
            Y_source: ``(N, m)`` source-task golden objectives.
            init_indices: Explicit initial target evaluations ``D^T``;
                sampled randomly per the config when omitted.
            sources: Historical tasks as ``(X_k, Y_k)`` pairs — more
                than one is an extension beyond the paper's single
                source; the :class:`MultiSourceTransferGP` surrogates
                learn a similarity per archive.  Mutually exclusive
                with ``X_source``/``Y_source``.

        Returns:
            A :class:`TuningResult`.

        Raises:
            ValueError: On shape mismatches or conflicting source
                arguments.
        """
        rec = self.recorder
        # If the oracle has no recorder of its own, adopt it into this
        # run's trace so tool evaluations land in the same stream.
        adopted = (
            rec
            and hasattr(oracle, "recorder")
            and not getattr(oracle, "recorder")
        )
        original_recorder = getattr(oracle, "recorder", None)
        if adopted:
            oracle.recorder = rec
        try:
            return self._tune(
                X_pool, oracle, X_source, Y_source, init_indices, sources
            )
        finally:
            if adopted:
                # Restore the caller's exact attribute value — it may
                # have been None or another falsy sentinel, which must
                # not be upgraded to NULL_RECORDER behind their back.
                oracle.recorder = original_recorder

    def _tune(
        self,
        X_pool: np.ndarray,
        oracle: "Oracle",
        X_source: np.ndarray | None,
        Y_source: np.ndarray | None,
        init_indices: np.ndarray | None,
        sources: list[tuple[np.ndarray, np.ndarray]] | None,
    ) -> TuningResult:
        cfg = self.config
        rec = self.recorder
        X_pool = np.atleast_2d(np.asarray(X_pool, dtype=float))
        if len(X_pool) != oracle.n_candidates:
            raise ValueError("pool and oracle size mismatch")

        # ---- Resilience layer. ----
        # Imported here, not at module top: resilient pulls in the obs
        # package, which imports back into core (replay -> result).
        from ..reliability.resilient import ResilientOracle

        policy = cfg.fault_policy
        if policy is not None and not isinstance(oracle, ResilientOracle):
            oracle = ResilientOracle(
                oracle, policy=policy, seed=cfg.seed,
                recorder=rec if rec else None,
            )

        session = TuningSession(
            cfg,
            X_pool,
            oracle.n_objectives,
            X_source=X_source,
            Y_source=Y_source,
            sources=sources,
            init_indices=init_indices,
            recorder=rec,
        )
        self.session_ = session
        try:
            return drive(session, oracle, policy)
        finally:
            # The fitted surrogates and engine stay inspectable whether
            # or not the drive completed (telemetry reads them).
            self.models_ = session.models
            self.calibration_ = session.engine
