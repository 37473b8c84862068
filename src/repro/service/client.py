"""Client side of the tuning service: HTTP wrapper and remote driver.

:class:`ServiceClient` is a thin JSON-over-HTTP wrapper (stdlib
``urllib``, no dependencies) around the service endpoints.

:class:`RemoteTuner` is the client-side oracle adapter: it mirrors
:meth:`PPATuner.tune <repro.core.tuner.PPATuner.tune>` but the loop's
brain lives on the server — the client only evaluates what the service
asks for and tells the outcomes back.  The oracle (and the resilience
layer around it) stays fully client-side; trace events the oracle emits
(tool evaluations, retries, breaker transitions) are captured locally
and forwarded with each ``tell`` so the server-side trace is complete.
Because the server session runs the same state machine with the same
seeds, a remote run's Pareto indices are identical to an in-process
``PPATuner.tune`` on the same inputs.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np

from ..core.config import PPATunerConfig
from ..core.result import TuningResult
from ..obs.recorder import TraceRecorder
from ..obs.sinks import MemorySink

__all__ = ["RemoteTuner", "ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response from the tuning service.

    Attributes:
        status: HTTP status code.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = int(status)


class ServiceClient:
    """JSON-over-HTTP client for one tuning service.

    Args:
        base_url: Service root, e.g. ``http://127.0.0.1:8763``.
        timeout_s: Per-request socket timeout.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None else None
        )
        req = urllib.request.Request(
            f"{self.base_url}{path}",
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                req, timeout=self.timeout_s
            ) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8"))
                message = detail.get("error", str(exc))
            except (json.JSONDecodeError, UnicodeDecodeError, OSError):
                message = str(exc)
            raise ServiceError(exc.code, message) from exc

    # ------------------------------------------------------------------
    # endpoints

    def create_session(
        self,
        config: PPATunerConfig | dict,
        X_pool: np.ndarray,
        n_objectives: int,
        session_id: str | None = None,
        X_source: np.ndarray | None = None,
        Y_source: np.ndarray | None = None,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
        init_indices: np.ndarray | None = None,
        max_evaluations: int | None = None,
        warm_start: str | None = None,
        trace: bool = False,
    ) -> str:
        """Create a server-side session; returns its id.

        ``warm_start`` (``"random"``/``"copula"``) overrides the
        config's initialization mode — the cold-start path for a new
        session created with source archives but little target data.
        """
        if isinstance(config, PPATunerConfig):
            config = config.to_json()
        payload: dict = {
            "config": config,
            "X_pool": np.asarray(X_pool, dtype=float).tolist(),
            "n_objectives": int(n_objectives),
            "trace": bool(trace),
        }
        if session_id is not None:
            payload["session_id"] = session_id
        if X_source is not None:
            payload["X_source"] = np.asarray(
                X_source, dtype=float
            ).tolist()
        if Y_source is not None:
            payload["Y_source"] = np.asarray(
                Y_source, dtype=float
            ).tolist()
        if sources is not None:
            payload["sources"] = [
                [
                    np.asarray(Xs, dtype=float).tolist(),
                    np.asarray(Ys, dtype=float).tolist(),
                ]
                for Xs, Ys in sources
            ]
        if init_indices is not None:
            # Uncast: the server rejects non-integer indices.
            payload["init_indices"] = np.asarray(init_indices).tolist()
        if max_evaluations is not None:
            payload["max_evaluations"] = int(max_evaluations)
        if warm_start is not None:
            payload["warm_start"] = str(warm_start)
        return self._request("POST", "/sessions", payload)["session_id"]

    def ask(self, session_id: str) -> dict:
        """Advance the session; returns pending indices and status."""
        return self._request("POST", f"/sessions/{session_id}/ask")

    def tell(
        self,
        session_id: str,
        index: int,
        values: np.ndarray | None = None,
        failure: dict | None = None,
        n_evaluations: int | None = None,
        events: list[dict] | None = None,
    ) -> dict:
        """Report one evaluation outcome (or failure) to the session."""
        payload: dict = {"index": int(index)}
        if values is not None:
            payload["values"] = [
                float(v) for v in np.asarray(values, dtype=float).ravel()
            ]
        if failure is not None:
            payload["failure"] = failure
        if n_evaluations is not None:
            payload["n_evaluations"] = int(n_evaluations)
        if events:
            payload["events"] = events
        return self._request(
            "POST", f"/sessions/{session_id}/tell", payload
        )

    def tell_batch(self, session_id: str, tells: list[dict]) -> dict:
        """Report a whole batch of outcomes in one request.

        Args:
            session_id: Target session.
            tells: Entries with the same keys :meth:`tell` takes
                (``index`` plus ``values``/``failure`` and optional
                ``n_evaluations``/``events``); any order within the
                pending batch is accepted.
        """
        return self._request(
            "POST", f"/sessions/{session_id}/tell_batch",
            {"tells": tells},
        )

    def pool(self, session_id: str, start: int = 0) -> dict:
        """Fetch candidate-pool rows from index ``start`` on.

        Used after an ask reply whose ``n_pool`` exceeds the locally
        known pool size — refinement grew the server-side pool.
        """
        return self._request(
            "GET", f"/sessions/{session_id}/pool?from={int(start)}"
        )

    def stop(self, session_id: str, reason: str = "stopped") -> dict:
        """Force a session to wrap up through golden verification."""
        return self._request(
            "POST", f"/sessions/{session_id}/stop", {"reason": reason}
        )

    def status(self, session_id: str) -> dict:
        """One session's progress digest."""
        return self._request("GET", f"/sessions/{session_id}")

    def sessions(self) -> list[dict]:
        """Status digests of every hosted session."""
        return self._request("GET", "/sessions")["sessions"]

    def result(self, session_id: str) -> TuningResult:
        """A finished session's result (409 -> ServiceError until done)."""
        return TuningResult.from_json(
            self._request("GET", f"/sessions/{session_id}/result")
        )

    def delete(self, session_id: str) -> None:
        """Drop a session with its snapshot and trace."""
        self._request("DELETE", f"/sessions/{session_id}")


class RemoteTuner:
    """Drive a remote tuning session with a local oracle.

    Example:
        >>> client = ServiceClient(svc.url)            # doctest: +SKIP
        >>> tuner = RemoteTuner(client, cfg)           # doctest: +SKIP
        >>> result = tuner.tune(X_pool, oracle)        # doctest: +SKIP

    Args:
        client: The service connection.
        config: Loop hyperparameters, serialized to the server.
        max_evaluations: Optional per-session loop budget enforced
            server-side.
        trace: Record a server-side JSONL trace of the session.
        forward_events: Capture the local oracle's trace events and
            forward them with each ``tell`` (keeps the server trace
            complete).  Disabled automatically when the oracle carries
            its own recorder.
    """

    #: :class:`~repro.core.Tuner` protocol name (it drives the same
    #: algorithm as the in-process PPATuner, remotely).
    name = "PPATuner"

    def __init__(
        self,
        client: ServiceClient,
        config: PPATunerConfig | None = None,
        max_evaluations: int | None = None,
        trace: bool = False,
        forward_events: bool = True,
    ) -> None:
        self.client = client
        self.config = config or PPATunerConfig()
        self.max_evaluations = max_evaluations
        self.trace = trace
        self.forward_events = forward_events
        self.session_id: str | None = None

    def tune(
        self,
        X_pool: np.ndarray,
        oracle,
        X_source: np.ndarray | None = None,
        Y_source: np.ndarray | None = None,
        init_indices: np.ndarray | None = None,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> TuningResult:
        """Run one remote session to completion (same surface as
        :meth:`PPATuner.tune`)."""
        from ..reliability.errors import (
            CircuitOpenError,
            PermanentEvaluationError,
        )
        from ..reliability.resilient import ResilientOracle

        cfg = self.config
        X_pool = np.atleast_2d(np.asarray(X_pool, dtype=float))
        if len(X_pool) != oracle.n_candidates:
            raise ValueError("pool and oracle size mismatch")

        # Capture the oracle's event stream locally so it can be
        # forwarded; adopt only when the oracle has no recorder.
        capture: MemorySink | None = None
        adopted = (
            self.forward_events
            and hasattr(oracle, "recorder")
            and not getattr(oracle, "recorder")
        )
        original_recorder = getattr(oracle, "recorder", None)
        capture_recorder = None
        if adopted:
            capture = MemorySink()
            capture_recorder = TraceRecorder(sinks=[capture])
            oracle.recorder = capture_recorder

        policy = cfg.fault_policy
        if policy is not None and not isinstance(
            oracle, ResilientOracle
        ):
            oracle = ResilientOracle(
                oracle, policy=policy, seed=cfg.seed,
                recorder=capture_recorder,
            )

        def drain() -> list[dict]:
            if capture is None:
                return []
            events = [ev.to_json() for ev in capture._events]
            capture._events.clear()
            return events

        try:
            sid = self.client.create_session(
                cfg, X_pool, oracle.n_objectives,
                X_source=X_source, Y_source=Y_source, sources=sources,
                init_indices=init_indices,
                max_evaluations=self.max_evaluations, trace=self.trace,
            )
            self.session_id = sid
            while True:
                reply = self.client.ask(sid)
                pending = reply["pending"]
                if not pending:
                    break
                n_pool = int(reply.get("n_pool", oracle.n_candidates))
                if n_pool > oracle.n_candidates:
                    # Server-side refinement grew the pool; pull the new
                    # rows and teach the local oracle about them.
                    extend = getattr(oracle, "extend", None)
                    if extend is None:
                        raise RuntimeError(
                            f"{type(oracle).__name__} cannot evaluate "
                            "refined candidates; use an extendable "
                            "oracle or pool_refine_every=0"
                        )
                    rows = self.client.pool(
                        sid, start=oracle.n_candidates
                    )["X_pool"]
                    extend(np.asarray(rows, dtype=float))
                if len(pending) > 1 and cfg.q > 1:
                    if self._tell_pending_batch(sid, oracle, pending, drain):
                        continue
                for idx in pending:
                    idx = int(idx)
                    try:
                        value = np.asarray(
                            oracle.evaluate(idx), dtype=float
                        ).ravel()
                    except PermanentEvaluationError as exc:
                        if (
                            policy is None
                            or policy.on_permanent_failure == "raise"
                        ):
                            raise
                        self.client.tell(
                            sid, idx,
                            failure={
                                "error": type(exc).__name__,
                                "attempts": exc.attempts,
                                "circuit_open": isinstance(
                                    exc, CircuitOpenError
                                ),
                            },
                            n_evaluations=oracle.n_evaluations,
                            events=drain(),
                        )
                        continue
                    self.client.tell(
                        sid, idx, values=value,
                        n_evaluations=oracle.n_evaluations,
                        events=drain(),
                    )
            return self.client.result(sid)
        finally:
            self._cleanup(oracle, adopted, original_recorder)

    def _tell_pending_batch(
        self, sid: str, oracle, pending: list[int], drain
    ) -> bool:
        """Evaluate a pending batch concurrently and tell it in one shot.

        Returns False when the oracle's batch path errors — the caller
        then falls back to the serial per-point loop, whose retry and
        failure-reporting semantics are unchanged.
        """
        idx = [int(i) for i in pending]
        try:
            rows = np.atleast_2d(np.asarray(
                oracle.evaluate_batch(idx), dtype=float
            ))
        except Exception:
            return False
        if rows.shape[0] != len(idx):
            return False
        n_eval = oracle.n_evaluations
        events = drain()
        tells = []
        for k, (i, row) in enumerate(zip(idx, rows)):
            entry: dict = {
                "index": i,
                "values": [float(v) for v in row.ravel()],
                "n_evaluations": int(n_eval),
            }
            if k == 0 and events:
                entry["events"] = events
            tells.append(entry)
        self.client.tell_batch(sid, tells)
        return True

    def _cleanup(self, oracle, adopted, original_recorder) -> None:
        from ..reliability.resilient import ResilientOracle

        if adopted:
            # Restore the caller's exact attribute value (which may
            # be None or another falsy sentinel).
            oracle_attr = (
                oracle.inner
                if isinstance(oracle, ResilientOracle) else oracle
            )
            oracle_attr.recorder = original_recorder
