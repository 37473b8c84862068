"""Client side of the tuning service: HTTP wrapper and remote driver.

:class:`ServiceClient` is a thin JSON-over-HTTP wrapper (stdlib
``urllib``, no dependencies) around the service endpoints.

:class:`RemoteTuner` mirrors :meth:`PPATuner.tune
<repro.core.tuner.PPATuner.tune>` but the loop's brain lives on the
server: it runs the same :func:`~repro.core.session.drive` loop over the
service session, so the client only evaluates what the service asks for
and tells the outcomes back — one ``tell_batch`` per round.  The oracle
(and the resilience layer around it) stays fully client-side; trace
events the oracle emits (tool evaluations, retries, breaker transitions)
are captured locally and forwarded with each tell so the server-side
trace is complete.  Because the server session runs the same state
machine with the same seeds, a remote run's Pareto indices are
identical to an in-process ``PPATuner.tune`` on the same inputs.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np

from ..core.config import PPATunerConfig
from ..core.result import TuningResult
from ..core.session import (
    EvaluationFailure,
    _tell_to_json,
    drive,
    tuning_oracle,
)
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
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
        init_indices: np.ndarray | None = None,
        max_evaluations: int | None = None,
        trace: bool = False,
    ) -> str:
        """Create a server-side session; returns its id."""
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
        entry = _tell_to_json(
            index, values,
            None if failure is None else EvaluationFailure.from_json(failure),
            n_evaluations,
        )
        if events:
            entry["events"] = events
        return self._request("POST", f"/sessions/{session_id}/tell", entry)

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

    The oracle's trace events are forwarded with each tell (keeping the
    server trace complete) whenever the oracle has no recorder of its
    own.

    Args:
        client: The service connection.
        config: Loop hyperparameters, serialized to the server.
        max_evaluations: Optional per-session loop budget enforced
            server-side.
        trace: Record a server-side JSONL trace of the session.
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
    ) -> None:
        self.client = client
        self.config = config or PPATunerConfig()
        self.max_evaluations = max_evaluations
        self.trace = trace
        self.session_id: str | None = None

    def tune(
        self,
        X_pool: np.ndarray,
        oracle,
        *,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
        init_indices: np.ndarray | None = None,
    ) -> TuningResult:
        """Run one remote session to completion (same surface as
        :meth:`PPATuner.tune`)."""
        cfg = self.config
        X_pool = np.atleast_2d(np.asarray(X_pool, dtype=float))
        capture = MemorySink()
        recorder = TraceRecorder(sinks=[capture])
        with tuning_oracle(oracle, len(X_pool), cfg, recorder) as oracle:
            sid = self.client.create_session(
                cfg, X_pool, oracle.n_objectives, sources=sources,
                init_indices=init_indices,
                max_evaluations=self.max_evaluations, trace=self.trace,
            )
            self.session_id = sid
            session = _RemoteSession(self.client, sid, cfg, X_pool, capture)
            return drive(session, oracle, cfg.fault_policy)


class _RemoteSession:
    """What :func:`~repro.core.session.drive` reads of a session, over
    one service session.

    Each tell is queued with the oracle events captured since the
    previous one; the queue goes out as one ``tell_batch`` before the
    next ``ask`` or ``result``.  The server applies the entries in order
    and emits each entry's events before its tell, so the server trace
    keeps the in-process order.
    """

    def __init__(
        self,
        client: ServiceClient,
        session_id: str,
        config: PPATunerConfig,
        X_pool: np.ndarray,
        capture: MemorySink,
    ) -> None:
        self.client = client
        self.session_id = session_id
        self.config = config
        self.X_pool = X_pool
        self._capture = capture
        self._tells: list[dict] = []

    @property
    def n(self) -> int:
        """Candidate pool size as of the last ask."""
        return len(self.X_pool)

    def _send_tells(self) -> None:
        if self._tells:
            self.client.tell_batch(self.session_id, self._tells)
            self._tells = []

    def ask(self) -> list[int]:
        self._send_tells()
        reply = self.client.ask(self.session_id)
        if reply["n_pool"] > self.n:
            # Server-side refinement grew the pool: fetch the new rows
            # so the driver can hand them to the oracle.
            rows = self.client.pool(self.session_id, start=self.n)
            self.X_pool = np.vstack([
                self.X_pool, np.asarray(rows["X_pool"], dtype=float)
            ])
        return reply["pending"]

    def tell(self, index, values=None, failure=None, n_evaluations=None):
        entry = _tell_to_json(index, values, failure, n_evaluations)
        entry["events"] = [ev.to_json() for ev in self._capture.events]
        self._capture._events.clear()
        self._tells.append(entry)

    def result(self) -> TuningResult:
        self._send_tells()
        return self.client.result(self.session_id)
