"""Ask/tell tuning core: Algorithm 1 as an explicit state machine.

:class:`TuningSession` inverts :meth:`PPATuner.tune
<repro.core.tuner.PPATuner.tune>`'s closed loop.  Instead of the tuner
calling the oracle, the *caller* owns the oracle and the session owns
the belief state:

- :meth:`TuningSession.ask` returns the next candidate indices the
  selection rule (Eq. (13)) wants evaluated — initialization samples
  first, then per-iteration max-diameter batches, then the final
  golden-verification set;
- :meth:`TuningSession.tell` feeds one candidate's golden QoR vector
  (or an :class:`EvaluationFailure`) back and advances calibration,
  decision-rule, quarantine and stop-reason state.

Driving a session with :func:`drive` reproduces ``PPATuner.tune``
exactly — same Pareto indices, same evaluation order, same trace event
stream — because ``tune`` itself is that driver.  The session's phases:

.. code-block:: text

          ask: init samples            ask: Eq. 13 batches
        +--------+  all told  +--------+  stop rule  +----------+
        |  init  | ---------> |  loop  | ----------> |  verify  |
        +--------+ delta, GPs +--------+  _finalize  +----------+
                                 ^  |                  ask: pareto set
                                 +--+                      | all told,
                             tell/reselect                 | dominance
                                                           v filter
                                                       +--------+
                                                       |  done  |
                                                       +--------+

The reported front is re-filtered for mutual non-dominance on the
*golden* values after verification: midpoint admission in ``_finalize``
decides what is worth a verification run, but only mutually
non-dominated golden rows are reported (the paper's δ-accurate set).

Sessions serialize: :meth:`TuningSession.snapshot` captures the full
state (masks, regions, observations, fault counters, pending
asks, and the calibration call log) as arrays plus JSON metadata, and
:meth:`TuningSession.restore` rebuilds a bit-identical session by
replaying the logged calibration calls against freshly constructed
GP models — a killed session resumes mid-run and finishes with output
identical to an uninterrupted one.  The service layer
(:mod:`repro.service`) persists these snapshots through an atomic
store and exposes ask/tell over HTTP.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..gp.kernels import make_kernel
from ..gp.linalg import require_finite
from ..gp.multisource import MultiSourceTransferGP
from ..obs.events import (
    IterationEnd,
    IterationStart,
    PointQuarantined,
    PoolRefined,
    RunEnd,
    RunStart,
)
from ..obs.recorder import NULL_RECORDER
from ..pareto.dominance import pareto_indices as pareto_rows
from ..space.sampling import latin_hypercube_unit
from .calibration import CalibrationEngine
from .config import PPATunerConfig
from .decision import apply_decision_rules
from .result import IterationRecord, TuningResult
from .selection import select_batch, select_next
from .uncertainty import UncertaintyRegions, prediction_rectangle

__all__ = [
    "SNAPSHOT_VERSION",
    "EvaluationFailure",
    "TuningSession",
    "drive",
    "tuning_oracle",
    "validate_init_indices",
]

#: Snapshot-format version; bump when the serialized layout changes.
SNAPSHOT_VERSION = 3

# The session state that the constructor sets up and that ``snapshot``,
# ``restore`` and ``_grow_pool`` carry by these tables.  Each attribute
# is stored under its name without the leading underscore; the state
# not listed here (the pool, sources, regions, δ, logs, history and
# result) is handled by name.

#: Per-candidate arrays -> (value of a new pool row, whether the array
#: has one column per metric).
_ROW_STATE = {
    "y_obs": (np.nan, True),
    "sampled": (False, False),
    "dropped": (False, False),
    "pareto": (False, False),
    "quarantined": (False, False),
    "_eligible": (False, False),
}

#: Lists of candidate indices, stored as ``int`` arrays.
_INDEX_LISTS = (
    "_eval_order", "_pending", "_evaluated_now", "_failed_now",
    "_new_indices", "_verify_kept",
)

#: Scalars kept in the meta -> initial value; its type reads the stored
#: value back.
_SCALARS = {
    "_phase": "init",
    "_t": 0,
    "_in_iteration": False,
    "_last_want": 0,
    "_last_chosen": 0,
    "stop_reason": "max_iterations",
    "n_failed": 0,
    "_n_evaluations": 0,
    "_loop_runs": 0,
    "_delta_norm": 0.0,
}


def _stored(name: str) -> str:
    """The snapshot key of a state-table attribute."""
    return name.lstrip("_")


@dataclass(frozen=True)
class EvaluationFailure:
    """A permanently failed evaluation, reported through ``tell``.

    Attributes:
        error: Exception class name of the permanent failure.
        attempts: Evaluation attempts consumed before giving up.
        circuit_open: True when the failure was the circuit breaker's
            systemic fast-fail — the candidate is skipped this round
            but *not* quarantined (it is not the candidate's fault).
    """

    error: str = ""
    attempts: int = 0
    circuit_open: bool = False

    def to_json(self) -> dict:
        """Flat JSON dict (service transport)."""
        return {
            "error": self.error,
            "attempts": int(self.attempts),
            "circuit_open": bool(self.circuit_open),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "EvaluationFailure":
        """Rebuild from :meth:`to_json` output."""
        return cls(
            error=str(payload.get("error", "")),
            attempts=int(payload.get("attempts", 0)),
            circuit_open=bool(payload.get("circuit_open", False)),
        )


def _tell_to_json(
    index: int,
    values: np.ndarray | None = None,
    failure: EvaluationFailure | None = None,
    n_evaluations: int | None = None,
) -> dict:
    """The JSON form of one tell: a snapshot's buffered tell, a service
    ``tell`` body or a ``tell_batch`` entry.  Absent parts are ``null``.
    """
    return {
        "index": int(index),
        "values": (
            None if values is None
            else np.asarray(values, dtype=float).ravel().tolist()
        ),
        "failure": None if failure is None else failure.to_json(),
        "n_evaluations": (
            None if n_evaluations is None else int(n_evaluations)
        ),
    }


def _tell_from_json(entry: dict) -> tuple:
    """``(index, values, failure, n_evaluations)`` of a tell's JSON form;
    a missing part reads as a ``null`` one.

    Raises:
        KeyError: Without an ``index``.
        TypeError, ValueError, AttributeError: On a malformed part.
    """
    values = entry.get("values")
    failure = entry.get("failure")
    n_evaluations = entry.get("n_evaluations")
    return (
        int(entry["index"]),
        None if values is None else np.asarray(values, dtype=float),
        None if failure is None else EvaluationFailure.from_json(failure),
        None if n_evaluations is None else int(n_evaluations),
    )


def validate_init_indices(init_indices, n_pool: int) -> np.ndarray:
    """Check a caller's explicit initial design against the pool.

    Every tuner runs explicit ``init_indices`` through this check when
    the run is created, before any tool run: a cast, clamped or repeated
    seed would spend tool runs on candidates nobody asked for and corrupt
    the budget far from the call site.

    Args:
        init_indices: Candidate indices, in evaluation order.
        n_pool: Number of candidates in the pool.

    Returns:
        The indices as an ``int`` array.

    Raises:
        ValueError: Naming ``init_indices`` when they are empty, not
            integers, out of ``[0, n_pool)`` or repeated.
    """
    init = np.asarray(init_indices)
    if init.ndim != 1 or init.size == 0:
        raise ValueError("init_indices must be a non-empty list of indices")
    if init.dtype.kind not in "iu":
        raise ValueError(
            f"init_indices must be integers, got {init.dtype} values"
        )
    init = init.astype(int)
    bad = init[(init < 0) | (init >= n_pool)]
    if len(bad):
        raise ValueError(
            f"init_indices out of range [0, {n_pool}): "
            f"{sorted(set(int(i) for i in bad))}"
        )
    values, counts = np.unique(init, return_counts=True)
    dups = values[counts > 1]
    if len(dups):
        raise ValueError(
            f"duplicate init_indices: {[int(i) for i in dups]}"
        )
    return init


class TuningSession:
    """Stepwise ask/tell state machine over one candidate pool.

    Example:
        >>> session = TuningSession(cfg, X_pool, oracle.n_objectives)
        ...                                             # doctest: +SKIP
        >>> while not session.done:                     # doctest: +SKIP
        ...     for idx in session.ask():
        ...         session.tell(idx, oracle.evaluate(idx))
        >>> session.result().pareto_indices             # doctest: +SKIP

    Args:
        config: Loop hyperparameters (see :class:`PPATunerConfig`).
        X_pool: ``(n, d)`` raw feature matrix of the target pool.
        n_objectives: QoR metric count the teller will report.
        sources: Historical ``(X_k, Y_k)`` archives (the source dataset
            ``D^S``); one is the paper's setting, none tunes without
            transfer.
        init_indices: Explicit initial evaluations (checked by
            :func:`validate_init_indices`); sampled from the config seed
            when omitted.
        recorder: Optional :class:`~repro.obs.recorder.TraceRecorder`;
            the session emits the exact event stream of a closed-loop
            ``PPATuner.tune`` run.

    Raises:
        ValueError: On shape mismatches, NaN/inf in ``X_pool`` or a
            source archive (the message names the array and source
            index), or invalid ``init_indices`` (same contract as
            ``PPATuner.tune``).
    """

    def __init__(
        self,
        config: PPATunerConfig,
        X_pool: np.ndarray,
        n_objectives: int,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
        init_indices: np.ndarray | None = None,
        recorder=None,
    ) -> None:
        cfg = config
        self.config = cfg
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._started = time.perf_counter()
        self._elapsed_before = 0.0

        self.X_pool = np.atleast_2d(np.asarray(X_pool, dtype=float))
        require_finite("X_pool", self.X_pool)
        n = len(self.X_pool)
        m = int(n_objectives)
        self.n = n
        self.m = m

        source_list: list[tuple[np.ndarray, np.ndarray]] = []
        if cfg.transfer:
            for k, (Xs, Ys) in enumerate(sources or []):
                Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
                Ys = np.atleast_2d(np.asarray(Ys, dtype=float))
                if len(Xs) == 0:
                    continue
                if len(Xs) != len(Ys):
                    raise ValueError("source X/Y misaligned")
                if Ys.shape[1] != m:
                    raise ValueError("source objectives mismatch oracle")
                # Fail before the initial design spends any tool runs.
                require_finite(f"source {k} X", Xs)
                require_finite(f"source {k} Y", Ys)
                source_list.append((Xs, Ys))
        self.source_list = source_list
        self._prepare_normalization()

        # ---- Initialization (Algorithm 1 lines 1-2). ----
        rng = np.random.default_rng(cfg.seed)
        if init_indices is not None:
            init_indices = validate_init_indices(init_indices, n)
        else:
            n_init = max(cfg.min_init, int(round(n * cfg.init_fraction)))
            n_init = min(n_init, n)
            if cfg.warm_start == "copula" and source_list:
                # Copula-ranked seeds blended with a uniform fill, both
                # from SeedSequence-derived streams: the main generator
                # is never consumed here, so the ``warm_start="random"``
                # path below stays bit-identical to the pre-warm-start
                # trajectory.
                from ..copula.warm_start import copula_warm_start_indices

                init_indices = copula_warm_start_indices(
                    self.X_pool, source_list, n_init, seed=cfg.seed,
                )
            if init_indices is None:
                init_indices = rng.choice(n, size=n_init, replace=False)
        self.init_indices = np.asarray(init_indices, dtype=int)

        for name, rows in self._new_rows(n):
            setattr(self, name, rows)
        for name in _INDEX_LISTS:
            setattr(self, name, [])
        self._pending = [int(i) for i in self.init_indices]
        for name, initial in _SCALARS.items():
            setattr(self, name, initial)
        self.regions = UncertaintyRegions.unbounded(n, m)
        self.delta = np.zeros(m)

        self.models: list = []
        self.engine: CalibrationEngine | None = None

        self.history: list[IterationRecord] = []
        self._calib_log: list[tuple[int, tuple[int, ...], int]] = []
        self._pool_log: list[tuple[int, int]] = []
        # Out-of-order tells within a batch buffer here until the head
        # of ``_pending`` arrives; application order stays ask order.
        self._told: dict[int, tuple] = {}
        self._verify_rows: list[np.ndarray] = []
        self._result: TuningResult | None = None

    # ------------------------------------------------------------------
    # construction helpers

    def _new_rows(self, k: int):
        """``(attribute, array)`` of each per-candidate state array for
        ``k`` new pool rows (see :data:`_ROW_STATE`)."""
        for name, (fill, per_metric) in _ROW_STATE.items():
            yield name, np.full((k, self.m) if per_metric else k, fill)

    def _prepare_normalization(self) -> None:
        """Joint unit-cube normalization of pool + source features."""
        stacked = np.vstack(
            [self.X_pool] + [Xs for Xs, _ in self.source_list]
        )
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        # Refined candidates are clipped into [lo, hi], so the joint
        # normalization is invariant under pool growth — a restored
        # grown pool reproduces these exact constants.
        self._norm_lo = lo
        self._norm_hi = hi
        self._norm_span = span
        self._Xn_pool = (self.X_pool - lo) / span
        self._Xn_sources = [
            ((Xs - lo) / span, Ys) for Xs, Ys in self.source_list
        ]

    def _build_models(self) -> None:
        """One fresh surrogate per metric (deterministic seeds).

        The same transfer GP serves every archive count: one source is
        the paper's two-task model, none fits the target alone.
        """
        cfg = self.config
        d = self.X_pool.shape[1]
        self.models = [
            MultiSourceTransferGP(
                kernel=make_kernel(cfg.kernel, d, 0.3, 1.0),
                n_restarts=cfg.n_restarts,
                seed=cfg.seed + j,
            )
            for j in range(self.m)
        ]

    def _build_engine(self, recorder, n_pool: int | None = None) -> None:
        self.engine = CalibrationEngine(
            self.models, self.config, sources=self._Xn_sources,
            recorder=recorder,
        )
        pool = (
            self._Xn_pool if n_pool is None else self._Xn_pool[:n_pool]
        )
        self.engine.register_pool(pool)

    # ------------------------------------------------------------------
    # public surface

    @property
    def phase(self) -> str:
        """Current phase: ``init``, ``loop``, ``verify`` or ``done``."""
        return self._phase

    @property
    def iteration(self) -> int:
        """Current loop iteration counter."""
        return self._t

    @property
    def done(self) -> bool:
        """Whether the session has produced its final result."""
        return self._phase == "done"

    @property
    def n_evaluations(self) -> int:
        """Tool runs the session believes have happened so far."""
        return self._n_evaluations

    def status(self) -> dict:
        """Small JSON-serializable progress digest (service surface)."""
        return {
            "phase": self._phase,
            "iteration": int(self._t),
            "n_evaluations": int(self._n_evaluations),
            "n_pareto": int(self.pareto.sum()),
            "n_dropped": int(self.dropped.sum()),
            "n_quarantined": int(self.quarantined.sum()),
            "n_pending": len(self._pending),
            "n_pool": int(self.n),
            "stop_reason": self.stop_reason if self.done else "",
            "done": self.done,
        }

    def ask(self) -> list[int]:
        """Candidate indices awaiting evaluation, in evaluation order.

        Advances the state machine until there is something to evaluate
        (or the session is done): finishing initialization derives δ and
        builds the surrogates; entering a loop iteration calibrates,
        shrinks rectangles, applies the decision rules, and selects per
        Eq. (13); exhausting the loop runs ``_finalize`` and queues the
        golden-verification set.  Idempotent while results are
        outstanding — repeated calls return the same not-yet-told
        indices (a buffered out-of-order tell is not re-asked).

        With ``config.q > 1`` the loop phase queues up to ``q`` diverse
        candidates per synchronous round (see
        :func:`~repro.core.selection.select_batch`); their tells may
        arrive in any order within the batch.

        Returns:
            Indices to evaluate and ``tell`` back, in order; empty once
            the session is done.
        """
        while not self._pending and self._phase != "done":
            if self._phase == "init":
                self._finish_init()
            elif self._phase == "loop":
                if self._in_iteration:
                    self._continue_iteration()
                else:
                    self._begin_iteration()
            elif self._phase == "verify":
                self._finish_verify()
        if self._told:
            return [i for i in self._pending if i not in self._told]
        return list(self._pending)

    def tell(
        self,
        index: int,
        values: np.ndarray | None = None,
        failure: EvaluationFailure | None = None,
        n_evaluations: int | None = None,
    ) -> None:
        """Report one asked candidate's evaluation outcome.

        Within one asked batch, tells may arrive in *any* order: a tell
        for a pending-but-not-head index is buffered and re-sequenced —
        outcomes are always applied in ask order, so the evaluation
        order (and with it the reproducibility contract) is independent
        of which concurrent evaluation finished first.  Every buffered
        outcome is applied before the next :meth:`ask` can advance the
        state machine.

        Args:
            index: A candidate index of the last :meth:`ask`; each
                pending index must be told exactly once.
            values: Golden QoR vector (NaN entries mark a partial
                report; the region stays open on those metrics).
            failure: Permanent-failure descriptor instead of a value;
                quarantines the candidate unless it was a circuit
                fast-fail.
            n_evaluations: The oracle's authoritative distinct-run count
                after this evaluation; when omitted the session counts
                distinct successful evaluations itself.

        Raises:
            RuntimeError: If the session is done or nothing is pending.
            ValueError: On an index that is not pending (or was already
                told), a missing/conflicting outcome, or a malformed
                QoR vector.
        """
        [(index, values)] = self.check_tells([(index, values, failure)])
        if index != self._pending[0]:
            # Out-of-order within the batch: buffer; applied in ask
            # order once the head outcome arrives.
            self._told[index] = (values, failure, n_evaluations)
            return
        self._apply_tell(index, values, failure, n_evaluations)
        while self._pending and self._pending[0] in self._told:
            head = self._pending[0]
            v, f, ne = self._told.pop(head)
            self._apply_tell(head, v, f, ne)

    def check_tells(self, tells) -> list:
        """Check tells as :meth:`tell` would take them in turn, applying
        none, so a caller can apply a batch all or nothing.

        Args:
            tells: ``(index, values, failure)`` per tell, in order.

        Returns:
            ``(index, values)`` per tell, as an ``int`` and a flat float
            array (or ``None``).

        Raises:
            RuntimeError: As :meth:`tell` does.
            ValueError: As :meth:`tell` does for the first bad tell; an
                index told earlier in ``tells`` counts as told.
        """
        checked = []
        told = set(self._told)
        for index, values, failure in tells:
            if self._phase == "done":
                raise RuntimeError("session is done; nothing to tell")
            if not self._pending:
                raise RuntimeError("tell() without an outstanding ask()")
            index = int(index)
            if (values is None) == (failure is None):
                raise ValueError("tell exactly one of values or failure")
            if values is not None:
                values = np.asarray(values, dtype=float).ravel()
                if values.shape != (self.m,):
                    raise ValueError(
                        f"expected {self.m} objective values, "
                        f"got {values.shape}"
                    )
            if index not in self._pending:
                raise ValueError(
                    f"out-of-order tell: expected one of pending "
                    f"candidate(s) {self._pending}, got {index}"
                )
            if index in told:
                raise ValueError(f"duplicate tell for candidate {index}")
            told.add(index)
            checked.append((index, values))
        return checked

    def _apply_tell(
        self,
        index: int,
        values: np.ndarray | None,
        failure: EvaluationFailure | None,
        n_evaluations: int | None,
    ) -> None:
        """Apply one outcome for the head of ``_pending``."""
        self._pending.pop(0)

        if values is not None:
            # ``tell`` checked the shape; a restored buffered tell comes
            # from a fingerprinted snapshot of such a vector.
            fresh = not self.sampled[index]
            if self._phase in ("init", "loop"):
                self.y_obs[index] = values
                self.sampled[index] = True
                if np.all(np.isfinite(values)):
                    self.regions.collapse(index, values)
                else:
                    # Partial QoR report: pin the observed metrics,
                    # keep the missing metrics' interval open.
                    self.regions.collapse_partial(index, values)
                if fresh:
                    self._eval_order.append(index)
                if self._phase == "loop":
                    self._evaluated_now.append(index)
                if n_evaluations is None and fresh:
                    self._n_evaluations += 1
            else:  # verify
                self._verify_kept.append(index)
                self._verify_rows.append(values)
            if n_evaluations is not None:
                # Counts are monotone; buffered out-of-order tells can
                # apply a stale (earlier-completed) count last, so the
                # largest reported count is the authoritative one.
                self._n_evaluations = max(
                    self._n_evaluations, int(n_evaluations)
                )
            return

        # ---- failure path ----
        self.n_failed += 1
        if n_evaluations is not None:
            self._n_evaluations = max(
                self._n_evaluations, int(n_evaluations)
            )
        if self._phase == "loop":
            self._failed_now.append(index)
        if failure.circuit_open:
            # Systemic rejection, not the candidate's fault: skip it
            # this round without quarantining.
            return
        self.quarantined[index] = True
        if self._phase in ("init", "loop"):
            self.dropped[index] = True
            self.pareto[index] = False
        rec = self.recorder
        if rec:
            rec.emit(PointQuarantined(
                index=index,
                iteration=self._t if self._phase == "loop" else -1,
                attempts=failure.attempts,
                error=failure.error,
            ))

    def stop(self, reason: str = "stopped") -> None:
        """Abort the loop and jump to golden verification.

        Pending asks are discarded; a partially completed iteration is
        closed out (its ``IterationEnd`` reflects what actually ran).
        Used by the service layer to enforce per-session evaluation
        budgets (``reason="budget_exhausted"``).
        """
        if self._phase in ("verify", "done"):
            return
        self._pending = []
        self._told.clear()
        if self._phase == "init":
            self._finish_init()
        if self._in_iteration:
            self._close_iteration()
            self._in_iteration = False
            self._t += 1
        self.stop_reason = reason
        self._enter_verify()

    def result(self) -> TuningResult:
        """The final :class:`TuningResult`.

        Raises:
            RuntimeError: While the session is still running.
        """
        if self._result is None:
            raise RuntimeError("session not finished; keep ask()ing")
        return self._result

    # ------------------------------------------------------------------
    # phase transitions

    def _finish_init(self) -> None:
        """Derive δ, emit ``RunStart`` and build the surrogates."""
        cfg = self.config
        m = self.m
        # Absolute δ from the observed objective ranges (Eq. (11)/(12)).
        seen = np.vstack(
            [Ys for _, Ys in self.source_list]
            + [self.y_obs[self.sampled]]
        )
        if seen.size == 0:
            obj_range = np.ones(m)
        else:
            with warnings.catch_warnings():
                # All-NaN columns (every observation of a metric was a
                # partial failure) warn before yielding NaN; the
                # finite-guard below handles them.
                warnings.simplefilter("ignore", RuntimeWarning)
                obj_range = np.nanmax(seen, axis=0) - np.nanmin(
                    seen, axis=0
                )
        obj_range = np.where(
            np.isfinite(obj_range) & (obj_range > 0), obj_range, 1.0
        )
        self.delta = np.broadcast_to(
            np.asarray(cfg.delta_rel, dtype=float), (m,)
        ) * obj_range
        self._delta_norm = float(np.linalg.norm(self.delta))

        rec = self.recorder
        if rec:
            rec.emit(RunStart(
                n_candidates=self.n,
                n_objectives=m,
                seed=cfg.seed,
                n_init=len(self.init_indices),
                n_sources=len(self.source_list),
                delta=[float(d) for d in self.delta],
            ))
        self._build_models()
        self._build_engine(rec)
        self._phase = "loop"

    def _begin_iteration(self) -> None:
        """Calibrate, shrink, decide and select for iteration ``t``."""
        cfg = self.config
        rec = self.recorder
        t = self._t
        if t >= cfg.max_iterations:
            self._enter_verify()
            return
        undecided = ~self.dropped & ~self.pareto
        # The loop runs while anything is undecided, and — per the
        # selection rule (Eq. (13)), which samples Pareto-classified
        # points too — while a classified point's region is still
        # materially larger than δ and unverified by the tool.
        unsampled = np.nonzero(self.pareto & ~self.sampled)[0]
        unverified = (
            (self.regions.diameters(unsampled) > self._delta_norm)
            & self.regions.is_bounded(unsampled)
        )
        if not undecided.any() and not unverified.any():
            self.stop_reason = "all_decided"
            self._enter_verify()
            return

        # ---- Adaptive pool refinement (zoom the discretization). ----
        if (
            cfg.pool_refine_every > 0
            and t > 0
            and t % cfg.pool_refine_every == 0
        ):
            self._refine_pool(t)
            undecided = ~self.dropped & ~self.pareto

        if rec:
            rec.emit(IterationStart(
                iteration=t,
                n_undecided=int(undecided.sum()),
                n_pareto=int(self.pareto.sum()),
                n_dropped=int(self.dropped.sum()),
            ))

        # ---- Model calibration (lines 4-6). ----
        active = ~self.dropped & ~self.sampled
        self._calib_log.append((
            t, tuple(int(i) for i in self._new_indices),
            len(self._eval_order),
        ))
        self.engine.calibrate(
            t, self._Xn_pool, self.sampled, self.y_obs, self._new_indices,
            live=active,
        )
        active_ids = np.nonzero(active)[0]
        mean, std = self.engine.predict(active_ids)
        rect_lo, rect_hi = prediction_rectangle(mean, std, cfg.tau)
        self.regions.intersect(active_ids, rect_lo, rect_hi)

        # ---- Decision-making (lines 7-9). ----
        newly_dropped, newly_pareto = apply_decision_rules(
            self.regions, undecided, self.pareto, self.delta,
            pareto_delta=cfg.pareto_delta_scale * self.delta,
            recorder=rec, iteration=t,
        )
        self.dropped[newly_dropped] = True
        self.pareto[newly_pareto] = True

        # ---- Selection (lines 10-11): first batch of Eq. (13). ----
        self._eligible = (
            (~self.dropped) & (~self.sampled) & (~self.quarantined)
        )
        self._evaluated_now = []
        self._failed_now = []
        self._in_iteration = True
        self._select(cfg.q)

    def _select(self, want: int) -> None:
        """One selection pass; queues the chosen batch.

        ``q=1`` is the serial Eq. (13) rule (bit-identical to the
        pre-batching path); ``q>1`` runs the greedy fantasy-collapse
        batch rule.
        """
        if self.config.q > 1:
            chosen = select_batch(
                self.regions, self._eligible, want,
                recorder=self.recorder, iteration=self._t,
                penalty=self.config.q_penalty,
            )
        else:
            chosen = select_next(
                self.regions, self._eligible, want,
                recorder=self.recorder, iteration=self._t,
            )
        self._last_want = want
        self._last_chosen = len(chosen)
        if len(chosen) == 0:
            self._end_iteration()
            return
        self._eligible[chosen] = False
        self._pending = [int(i) for i in chosen]

    def _continue_iteration(self) -> None:
        """Post-batch: fall through past failures or end the iteration.

        While the batch target is unmet and the previous pass was not
        short, select again (the fallback past quarantined candidates);
        otherwise close out the iteration.
        """
        want = self.config.q
        if (
            len(self._evaluated_now) < want
            and self._last_chosen >= self._last_want
        ):
            self._select(want - len(self._evaluated_now))
            return
        self._end_iteration()

    def _refine_pool(self, t: int) -> None:
        """Append zoomed LHS candidates around the live front.

        Adaptive discretization: instead of reasoning over a fixed
        offline table forever, every ``pool_refine_every`` iterations
        fresh Latin-hypercube points are spawned inside zoom boxes
        centred on the highest-diameter live (non-collapsed) rectangles
        — where belief is still widest near the predicted front — and
        appended to the pool.  The GP caches extend incrementally
        (:meth:`CalibrationEngine.extend_pool`); the sample is
        deterministic in ``(seed, t)``, so replay and restore reproduce
        the exact same rows.
        """
        cfg = self.config
        live = ~self.dropped & ~self.sampled & ~self.quarantined
        anchors = np.nonzero(live)[0]
        anchors = anchors[self.regions.is_bounded(anchors)]
        if len(anchors) == 0:
            return
        k = int(cfg.pool_refine_points)
        diam = self.regions.diameters(anchors)
        order = np.argsort(-diam, kind="stable")
        anchors = anchors[order[: min(len(anchors), k)]]
        rng = np.random.default_rng(np.random.SeedSequence(
            cfg.seed, spawn_key=(0x9E37, t)
        ))
        d = self.X_pool.shape[1]
        counts = np.full(len(anchors), k // len(anchors), dtype=int)
        counts[: k % len(anchors)] += 1
        # Zoom boxes as a fraction of the *observed* span; degenerate
        # dimensions (zero span) stay pinned so the joint normalization
        # constants survive the append unchanged.
        span = self._norm_hi - self._norm_lo
        width = cfg.pool_zoom * span
        rows = []
        for a, c in zip(anchors, counts):
            unit = latin_hypercube_unit(int(c), d, rng)
            box_lo = self.X_pool[int(a)] - 0.5 * width
            rows.append(np.clip(
                box_lo + unit * width, self._norm_lo, self._norm_hi
            ))
        X_new = np.vstack(rows)
        self._grow_pool(X_new)
        self._pool_log.append((t, len(X_new)))
        if self.recorder:
            self.recorder.emit(PoolRefined(
                iteration=t,
                n_new=len(X_new),
                n_pool=self.n,
                n_anchors=len(anchors),
                zoom=float(cfg.pool_zoom),
            ))

    def _grow_pool(self, X_new: np.ndarray) -> None:
        """Extend every per-candidate state array by the new rows."""
        k = len(X_new)
        self.X_pool = np.vstack([self.X_pool, X_new])
        Xn_new = (X_new - self._norm_lo) / self._norm_span
        self._Xn_pool = np.vstack([self._Xn_pool, Xn_new])
        self.n += k
        for name, rows in self._new_rows(k):
            setattr(self, name, np.concatenate([getattr(self, name), rows]))
        new = UncertaintyRegions.unbounded(k, self.m)
        self.regions = UncertaintyRegions(
            lo=np.vstack([self.regions.lo, new.lo]),
            hi=np.vstack([self.regions.hi, new.hi]),
        )
        if self.engine is not None:
            self.engine.extend_pool(Xn_new)

    def _close_iteration(self) -> None:
        """Record and emit this iteration's bookkeeping."""
        rec = self.recorder
        live = np.nonzero(~self.dropped)[0]
        bounded = live[self.regions.is_bounded(live)]
        max_diam = (
            float(self.regions.diameters(bounded).max())
            if len(bounded) else float("nan")
        )
        record = IterationRecord(
            iteration=self._t,
            n_undecided=int((~self.dropped & ~self.pareto).sum()),
            n_pareto=int(self.pareto.sum()),
            n_dropped=int(self.dropped.sum()),
            n_evaluations=self._n_evaluations,
            max_diameter=max_diam,
            selected=[int(i) for i in self._evaluated_now],
        )
        self.history.append(record)
        if rec:
            rec.emit(IterationEnd(**record.to_json()))

    def _end_iteration(self) -> None:
        self._close_iteration()
        self._new_indices = list(self._evaluated_now)
        stopped = False
        if not self._evaluated_now and not self._failed_now:
            if not (~self.dropped & ~self.pareto).any():
                self.stop_reason = "all_decided"
            else:
                # Nothing evaluable remains; classify leftovers in the
                # finalize pass.  (A failed-only iteration is neither:
                # the quarantine changed the pool, so loop again.)
                self.stop_reason = "pool_exhausted"
            stopped = True
        self._in_iteration = False
        self._t += 1
        if stopped:
            self._enter_verify()

    def _enter_verify(self) -> None:
        """Queue the predicted Pareto set for golden verification."""
        final_pareto = _finalize_mask(
            self.regions, self.dropped, self.pareto, self.y_obs,
            self.sampled, self.quarantined,
        )
        # The paper's "Runs" counts tuning-loop tool invocations; the
        # final verification of predicted Pareto configurations is
        # reported separately, so snapshot the count first.
        self._loop_runs = self._n_evaluations
        self._verify_kept = []
        self._verify_rows = []
        self._pending = [int(i) for i in np.nonzero(final_pareto)[0]]
        self._phase = "verify"

    def _finish_verify(self) -> None:
        """Dominance-filter the verified rows and close the run."""
        rec = self.recorder
        kept = np.asarray(self._verify_kept, dtype=int)
        rows = (
            np.vstack(self._verify_rows)
            if self._verify_rows else np.empty((0, self.m))
        )
        # Midpoint admission in ``_finalize`` selects what is *worth a
        # verification run*; the reported set must additionally be
        # mutually non-dominated in the golden values now in hand —
        # without this filter, dominated points leak into the verified
        # front whenever a region midpoint undersold its true QoR.
        if len(kept) > 1:
            nd = pareto_rows(rows)
            kept = kept[nd]
            rows = rows[nd]
        evaluated = np.asarray(self._eval_order, dtype=int)
        quarantined_idx = np.nonzero(self.quarantined)[0]
        if rec:
            rec.emit(RunEnd(
                stop_reason=self.stop_reason,
                n_iterations=len(self.history),
                n_evaluations=self._loop_runs,
                seconds=self._elapsed(),
                pareto_indices=[int(i) for i in kept],
                evaluated_indices=[int(i) for i in evaluated],
                quarantined_indices=[int(i) for i in quarantined_idx],
                n_failed_evaluations=self.n_failed,
            ))
            rec.flush()
        self._result = TuningResult(
            pareto_indices=kept,
            pareto_points=rows,
            n_evaluations=self._loop_runs,
            n_iterations=len(self.history),
            history=self.history,
            evaluated_indices=evaluated,
            stop_reason=self.stop_reason,
            quarantined_indices=quarantined_idx,
            n_failed_evaluations=self.n_failed,
        )
        self._phase = "done"

    def _elapsed(self) -> float:
        return self._elapsed_before + (
            time.perf_counter() - self._started
        )

    # ------------------------------------------------------------------
    # serialization

    def snapshot(self) -> dict:
        """Serialize the full session state.

        Returns:
            ``{"meta": <json dict>, "arrays": {name: ndarray}}`` — the
            service store writes this as one atomic ``.npz``.  The meta
            carries a SHA-256 fingerprint over every array and the
            metadata itself; :meth:`restore` verifies it.
        """
        # In-place-mutated arrays are copied: the snapshot must stay a
        # faithful point-in-time capture even if this session keeps
        # running (regions/masks/y_obs mutate in place every tell).
        arrays: dict[str, np.ndarray] = {
            _stored(name): getattr(self, name).copy() for name in _ROW_STATE
        }
        for name in _INDEX_LISTS:
            arrays[_stored(name)] = np.asarray(getattr(self, name), dtype=int)
        arrays.update(
            X_pool=self.X_pool.copy(),
            regions_lo=self.regions.lo.copy(),
            regions_hi=self.regions.hi.copy(),
            init_indices=self.init_indices.copy(),
            delta=np.asarray(self.delta, dtype=float),
            verify_rows=(
                np.vstack(self._verify_rows)
                if self._verify_rows else np.empty((0, self.m))
            ),
        )
        for k, (Xs, Ys) in enumerate(self.source_list):
            arrays[f"src_x_{k}"] = Xs
            arrays[f"src_y_{k}"] = Ys
        meta = {_stored(name): getattr(self, name) for name in _SCALARS}
        meta.update(
            version=SNAPSHOT_VERSION,
            config=self.config.to_json(),
            n_objectives=self.m,
            n_sources=len(self.source_list),
            elapsed=self._elapsed(),
            calib_log=[[t, list(new), n] for t, new, n in self._calib_log],
            pool_log=[[t, k] for t, k in self._pool_log],
            told=[
                _tell_to_json(index, *outcome)
                for index, outcome in self._told.items()
            ],
            history=[h.to_json() for h in self.history],
        )
        if self._result is not None:
            meta["result"] = self._result.to_json()
        meta["fingerprint"] = _fingerprint(meta, arrays)
        return {"meta": meta, "arrays": arrays}

    @classmethod
    def restore(cls, snapshot: dict, recorder=None) -> "TuningSession":
        """Rebuild a session from a :meth:`snapshot`.

        The constructor takes the snapshot's config, pool, sources and
        initial design, so they are checked and normalized as for a new
        session; the state tables and the special-cased state are then
        loaded.  The surrogates are reconstructed by replaying the
        logged calibration calls (exact same data, same order, same
        floating-point operations) against fresh models, so a resumed
        session continues bit-identically to the uninterrupted run.
        Replay emits no trace events — the original emissions are
        already in the run's trace.

        Raises:
            ValueError: On a version mismatch or fingerprint failure
                (torn or tampered snapshot).
        """
        meta = snapshot["meta"]
        arrays = snapshot["arrays"]
        if meta.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {meta.get('version')} != "
                f"{SNAPSHOT_VERSION}"
            )
        expected = meta.get("fingerprint")
        actual = _fingerprint(
            {k: v for k, v in meta.items() if k != "fingerprint"},
            arrays,
        )
        if expected != actual:
            raise ValueError("snapshot fingerprint mismatch")

        # Refined rows are clipped into the joint normalization's
        # bounds, so a grown pool normalizes with the original constants.
        self = cls(
            PPATunerConfig.from_json(meta["config"]),
            arrays["X_pool"],
            meta["n_objectives"],
            sources=[
                (arrays[f"src_x_{k}"], arrays[f"src_y_{k}"])
                for k in range(int(meta["n_sources"]))
            ],
            init_indices=arrays["init_indices"],
            recorder=recorder,
        )
        self._elapsed_before = float(meta["elapsed"])
        # Copy every mutable per-candidate array: an in-memory snapshot
        # holds references, and a restored session must never share
        # state with the donor session (or with a sibling restored from
        # the same snapshot).
        for name in _ROW_STATE:
            dtype = getattr(self, name).dtype
            setattr(self, name, np.array(arrays[_stored(name)], dtype=dtype))
        for name in _INDEX_LISTS:
            setattr(self, name, [int(i) for i in arrays[_stored(name)]])
        for name, initial in _SCALARS.items():
            setattr(self, name, type(initial)(meta[_stored(name)]))
        self.regions = UncertaintyRegions(
            lo=np.array(arrays["regions_lo"], dtype=float),
            hi=np.array(arrays["regions_hi"], dtype=float),
        )
        self.delta = np.asarray(arrays["delta"], dtype=float)
        self._verify_rows = list(
            np.asarray(arrays["verify_rows"], dtype=float)
        )
        self._calib_log = [
            (int(t), tuple(int(i) for i in new), int(n))
            for t, new, n in meta["calib_log"]
        ]
        self._pool_log = [(int(t), int(k)) for t, k in meta["pool_log"]]
        for tell in map(_tell_from_json, meta["told"]):
            self._told[tell[0]] = tell[1:]
        self.history = [
            IterationRecord.from_json(h) for h in meta["history"]
        ]
        if "result" in meta:
            self._result = TuningResult.from_json(meta["result"])
        if self.phase != "init":
            self._replay_calibration()
        return self

    def _replay_calibration(self) -> None:
        """Reconstruct the surrogate state from the calibration log.

        Fresh models run the exact calibrate sequence of the original
        session — same training subsets, same incremental-vs-refit
        cadence, same pool-cache materialization points — which makes
        the resumed posterior bit-identical, not merely close.  Events
        are suppressed (the engine gets the null recorder) because the
        original calibrations are already on the trace.

        Pool growth replays too: the engine starts from the *initial*
        pool and the logged refinement appends are re-applied right
        before the calibrate call of their iteration — the same
        cache-extension pattern (and therefore the same floating-point
        path) as the live run.

        The live run kept pool caches for ``~dropped & ~sampled`` at
        each call; replay keeps ``~dropped_now & ~sampled_then``, a
        subset that still holds every row the resumed session will ask
        for.  Cached values are row-local, so those rows' caches match
        the live run's bit for bit while replay extends fewer rows.
        """
        self._build_models()
        grown = self.n - sum(k for _, k in self._pool_log)
        self._build_engine(NULL_RECORDER, n_pool=grown)
        growth = list(self._pool_log)
        g = 0
        for t, new, n_order in self._calib_log:
            while g < len(growth) and growth[g][0] <= t:
                k = growth[g][1]
                self.engine.extend_pool(
                    self._Xn_pool[grown:grown + k]
                )
                grown += k
                g += 1
            sampled_then = np.zeros(self.n, dtype=bool)
            sampled_then[self._eval_order[:n_order]] = True
            self.engine.calibrate(
                t, self._Xn_pool, sampled_then, self.y_obs, list(new),
                live=(~sampled_then & ~self.dropped)[:grown],
            )
            # The live loop predicts right after calibrating, which is
            # when the models build their pool caches; building them at
            # the same points keeps every subsequent prediction on the
            # identical floating-point path.
            self.engine.predict(np.zeros(1, dtype=int))
        self.engine.recorder = (
            self.recorder if self.recorder else NULL_RECORDER
        )


@contextmanager
def tuning_oracle(oracle, n_pool: int, config: PPATunerConfig, recorder):
    """The oracle a tuner's :func:`drive` evaluates through.

    Checks that the oracle covers the ``n_pool``-row pool, adopts
    ``recorder`` into an oracle that has no recorder of its own (so tool
    evaluations join the run's stream), and wraps a
    :class:`~repro.reliability.ResilientOracle` when
    ``config.fault_policy`` is set.  On exit the caller's oracle gets
    back its exact ``recorder`` value — it may have been ``None`` or
    another falsy sentinel, which must not stay upgraded to the lent
    recorder.

    Raises:
        ValueError: If the pool and the oracle differ in size.
    """
    # Imported here, not at module top: resilient pulls in the obs
    # package, which imports back into core (replay -> result).
    from ..reliability.resilient import ResilientOracle

    if n_pool != oracle.n_candidates:
        raise ValueError("pool and oracle size mismatch")
    original = getattr(oracle, "recorder", None)
    adopted = bool(recorder) and hasattr(oracle, "recorder") and not original
    if adopted:
        oracle.recorder = recorder
    try:
        policy = config.fault_policy
        if policy is not None and not isinstance(oracle, ResilientOracle):
            yield ResilientOracle(
                oracle, policy=policy, seed=config.seed,
                recorder=recorder if recorder else None,
            )
        else:
            yield oracle
    finally:
        if adopted:
            oracle.recorder = original


def drive(session, oracle, policy=None) -> TuningResult:
    """Run a session to completion: ask, evaluate, tell, repeat.

    The one closed loop both tuners run.  ``session`` is a
    :class:`TuningSession` or anything offering what the loop reads —
    ``ask()``, ``tell(...)``, ``result()``, ``n``, ``X_pool`` and
    ``config`` (:class:`~repro.service.RemoteTuner` drives a service
    session this way).  Permanent failures are fed back as
    :class:`EvaluationFailure` (or re-raised when the policy says so).

    With ``config.q > 1``, multi-candidate loop batches are dispatched
    through ``oracle.evaluate_batch`` first — concurrent under a
    parallel oracle — and fall back to the serial per-index path on any
    batch-level failure, preserving per-point retry and quarantine
    semantics (already-evaluated points are then served from the
    oracle's cache).  A candidate whose batch evaluation failed
    permanently has spent its retries: the serial path tells that
    failure once instead of evaluating it again.  When adaptive pool
    refinement has grown the
    session's pool past the oracle, the new candidate rows are handed
    to ``oracle.extend`` before evaluation.

    Args:
        session: The session to drive.
        oracle: Any :class:`~repro.core.oracle.Oracle`; wrap it in a
            :class:`~repro.reliability.ResilientOracle` first for
            retry/breaker behavior (see :func:`tuning_oracle`).
        policy: The governing
            :class:`~repro.reliability.FaultPolicy`; ``None`` (or
            ``on_permanent_failure="raise"``) propagates failures.

    Returns:
        The session's final :class:`TuningResult`.

    Raises:
        RuntimeError: If pool refinement grew the pool and the oracle
            has no ``extend`` capability.
    """
    from ..reliability.errors import (
        CircuitOpenError,
        PermanentEvaluationError,
    )

    while True:
        pending = session.ask()
        if not pending:
            break
        if session.n > oracle.n_candidates:
            _extend_oracle(
                oracle, session.X_pool[oracle.n_candidates:]
            )
        failed = None
        if len(pending) > 1 and session.config.q > 1:
            try:
                if _drive_batch(session, oracle, pending):
                    continue
            except PermanentEvaluationError as exc:
                failed = exc
        for idx in pending:
            idx = int(idx)
            try:
                if failed is not None and failed.index == idx:
                    raise failed
                value = np.asarray(
                    oracle.evaluate(idx), dtype=float
                ).ravel()
            except PermanentEvaluationError as exc:
                if policy is None or policy.on_permanent_failure == "raise":
                    raise
                session.tell(
                    idx,
                    failure=EvaluationFailure(
                        error=type(exc).__name__,
                        attempts=exc.attempts,
                        circuit_open=isinstance(exc, CircuitOpenError),
                    ),
                    n_evaluations=oracle.n_evaluations,
                )
                continue
            session.tell(
                idx, value, n_evaluations=oracle.n_evaluations
            )
    return session.result()


def _drive_batch(session, oracle, pending: list[int]) -> bool:
    """One concurrent ``evaluate_batch`` dispatch of a pending batch.

    Returns True when every pending candidate was evaluated and told;
    False to fall back to the serial per-index path (which owns the
    per-point failure handling — any successes of the aborted batch
    attempt are re-served from the oracle's cache).

    Raises:
        PermanentEvaluationError: A candidate failed for good inside
            the batch; the serial path tells it, without a second try.
    """
    from ..reliability.errors import PermanentEvaluationError

    try:
        rows = np.atleast_2d(np.asarray(
            oracle.evaluate_batch([int(i) for i in pending]),
            dtype=float,
        ))
    except PermanentEvaluationError:
        raise
    except Exception:
        return False
    if rows.shape[0] != len(pending):
        return False
    n_eval = oracle.n_evaluations
    for idx, row in zip(pending, rows):
        session.tell(int(idx), row.ravel(), n_evaluations=n_eval)
    return True


def _extend_oracle(oracle, X_new: np.ndarray) -> None:
    """Hand refined candidate rows to an extendable oracle."""
    extend = getattr(oracle, "extend", None)
    if extend is None:
        raise RuntimeError(
            "pool refinement grew the candidate pool but the oracle "
            "cannot extend; use an extendable oracle (e.g. "
            "CallableOracle or a FlowOracle with a decoder) or set "
            "pool_refine_every=0"
        )
    extend(X_new)


def _finalize_mask(
    regions: UncertaintyRegions,
    dropped: np.ndarray,
    pareto: np.ndarray,
    y_obs: np.ndarray,
    sampled: np.ndarray,
    quarantined: np.ndarray,
) -> np.ndarray:
    """Final Pareto mask over the pool (verification admission).

    Classified-Pareto candidates are kept; undecided survivors are
    admitted if their representative point is non-dominated within the
    live set (handles the T_max-hit case).  Quarantined candidates
    never enter the reported set — their QoR cannot be verified by the
    tool.  This mask selects *candidates for golden verification*; the
    reported set is re-filtered for mutual non-dominance on the golden
    values afterwards.
    """
    final = pareto.copy()
    live_ids = np.nonzero(~dropped)[0]
    live_ids = live_ids[regions.is_bounded(live_ids)]
    if len(live_ids):
        # Metric-wise: use the observation where one exists (a partial
        # report observes only some metrics), else the region midpoint.
        y = y_obs[live_ids]
        observed = sampled[live_ids, None] & np.isfinite(y)
        mid = 0.5 * (regions.lo[live_ids] + regions.hi[live_ids])
        nd_rows = pareto_rows(np.where(observed, y, mid))
        final[live_ids[nd_rows]] = True
    # Golden values of every tool run are in hand; the observed
    # non-dominated points always belong in the reported set (a
    # δ-dropped point can still be truly Pareto-optimal — δ-accuracy
    # bounds how much better it can be, not whether it exists).
    # Partially-observed rows are excluded: NaN poisons dominance.
    full_rows = sampled & np.all(np.isfinite(y_obs), axis=1)
    sampled_ids = np.nonzero(full_rows)[0]
    if len(sampled_ids):
        nd_rows = pareto_rows(y_obs[sampled_ids])
        final[sampled_ids[nd_rows]] = True
    final[quarantined] = False
    return final


def _fingerprint(meta: dict, arrays: dict) -> str:
    """SHA-256 over the metadata and every array's bytes."""
    digest = hashlib.sha256()
    digest.update(
        json.dumps(meta, sort_keys=True, default=str).encode("utf-8")
    )
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name]))
        digest.update(name.encode("utf-8"))
        digest.update(str(arr.dtype).encode("utf-8"))
        digest.update(str(arr.shape).encode("utf-8"))
        digest.update(arr.tobytes())
    return digest.hexdigest()
