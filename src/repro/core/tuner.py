"""PPATuner — the paper's Algorithm 1.

Pool-based Pareto-driven auto-tuning: candidates are target-task parameter
configurations; per iteration the tuner (1) calibrates one transfer GP per
QoR metric on all source data plus the target evaluations so far,
(2) shrinks per-candidate uncertainty hyper-rectangles, (3) drops
δ-dominated candidates and classifies δ-accurate Pareto candidates, and
(4) sends the largest-uncertainty live candidate(s) to the tool.

The loop itself lives in :class:`~repro.core.session.TuningSession`, an
ask/tell state machine; :meth:`PPATuner.tune` runs it through
:func:`~repro.core.session.drive` — after
:func:`~repro.core.session.tuning_oracle` has wired the resilience layer
around the oracle and adopted the trace recorder — until the session
completes.  Both surfaces produce identical results and event streams
for the same seed.
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
from .session import TuningSession, drive, tuning_oracle

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
        >>> result = tuner.tune(X, oracle, sources=[(Xs, Ys)])  # doctest: +SKIP
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
        *,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
        init_indices: np.ndarray | None = None,
    ) -> TuningResult:
        """Run Algorithm 1 over the candidate pool.

        Args:
            X_pool: ``(n, d)`` raw feature matrix of the target-task
                candidate configurations.
            oracle: Evaluation oracle over the same pool (row order must
                match); anything satisfying the
                :class:`~repro.core.oracle.Oracle` protocol.
            sources: Historical tasks (the source dataset ``D^S``) as
                ``(X_k, Y_k)`` pairs of ``(N_k, d)`` features and
                ``(N_k, m)`` golden objectives; omit to tune without
                transfer.  More than one is an extension beyond the
                paper's single source: the
                :class:`MultiSourceTransferGP` surrogates learn a
                similarity per archive.
            init_indices: Explicit initial target evaluations ``D^T``;
                sampled randomly per the config when omitted.

        Returns:
            A :class:`TuningResult`.

        Raises:
            ValueError: On shape mismatches, NaN/inf inputs or invalid
                ``init_indices`` (all before any tool run).
        """
        cfg = self.config
        X_pool = np.atleast_2d(np.asarray(X_pool, dtype=float))
        with tuning_oracle(oracle, len(X_pool), cfg, self.recorder) as oracle:
            session = TuningSession(
                cfg,
                X_pool,
                oracle.n_objectives,
                sources=sources,
                init_indices=init_indices,
                recorder=self.recorder,
            )
            self.session_ = session
            try:
                return drive(session, oracle, cfg.fault_policy)
            finally:
                # The fitted surrogates and engine stay inspectable
                # whether or not the drive completed (telemetry reads
                # them).
                self.models_ = session.models
                self.calibration_ = session.engine
