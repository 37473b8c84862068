"""Multi-tenant tuning service over the ask/tell core.

:class:`TuningService` holds many concurrent
:class:`~repro.core.session.TuningSession`\\ s, each with its own trace
recorder, fault accounting and per-session evaluation budget.  Every
state-changing request (create/ask/tell/stop) is followed by an atomic
snapshot through the :class:`~repro.service.store.SessionStore`, so a
killed server restarts exactly where it stopped: on construction the
service reloads every stored snapshot, rebuilds the sessions by
calibration-log replay, and re-attaches their append-mode trace files.
A client that retries its last ``ask`` after a server restart continues
the run with output bit-identical to an uninterrupted session.

:class:`TuningServiceHTTP` exposes the service over stdlib HTTP
(``ThreadingHTTPServer``; one JSON body per request, no external
dependencies)::

    POST   /sessions                 create (config, pool, sources, ...)
    GET    /sessions                 list session statuses
    GET    /sessions/<id>            one session's status
    POST   /sessions/<id>/ask        -> {"pending": [...], "n_pool": ...}
    POST   /sessions/<id>/tell       report one evaluation or failure
    POST   /sessions/<id>/tell_batch report a whole batch in one request
    GET    /sessions/<id>/pool?from=N  refined pool rows from index N on
    POST   /sessions/<id>/stop       force wrap-up (golden verification)
    GET    /sessions/<id>/result     final TuningResult (409 until done)
    DELETE /sessions/<id>            drop session, snapshot and trace

The oracle stays on the *client*: the server never evaluates anything,
it only decides what should be evaluated next.  Clients forward the
trace events their oracle emits (tool evaluations, retries) with each
``tell`` so the server-side trace stays a complete, replayable record.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from ..core.config import PPATunerConfig
from ..core.session import TuningSession, _tell_from_json
from ..durable import TMP_MAX_AGE_S, sweep_tmp
from ..obs.events import event_from_json
from ..obs.recorder import TraceRecorder
from ..obs.sinks import JsonlSink
from .store import SessionStore, validate_session_id

__all__ = ["TuningService", "TuningServiceHTTP", "serve"]

log = logging.getLogger(__name__)

#: Keys a ``POST /sessions`` payload may carry.
_SESSION_KEYS = frozenset({
    "session_id", "config", "X_pool", "n_objectives", "sources",
    "init_indices", "max_evaluations", "trace",
})


class _Managed:
    """One hosted session plus its service-side bookkeeping."""

    def __init__(
        self,
        session: TuningSession,
        max_evaluations: int | None,
        traced: bool,
        sink: JsonlSink | None,
    ) -> None:
        self.session = session
        self.max_evaluations = max_evaluations
        self.traced = traced
        self.sink = sink
        self.lock = threading.RLock()

    def service_meta(self) -> dict:
        return {
            "max_evaluations": self.max_evaluations,
            "traced": self.traced,
        }


class TuningService:
    """Session manager: create, step, snapshot and resume sessions.

    Args:
        store: Snapshot persistence; defaults to a store rooted at
            ``root``.
        root: Store directory (used when ``store`` is omitted).

    All public methods are thread-safe; per-session operations
    serialize on a per-session lock, so concurrent sessions proceed
    in parallel.
    """

    def __init__(
        self,
        store: SessionStore | None = None,
        root: Path | str = ".cache/sessions",
    ) -> None:
        self.store = store if store is not None else SessionStore(root)
        self._sessions: dict[str, _Managed] = {}
        self._registry_lock = threading.Lock()
        self._recover()

    # ------------------------------------------------------------------
    # lifecycle

    def _recover(self) -> None:
        """Reload every stored snapshot (server restart).

        Also removes the temp files of snapshot writes that a kill cut
        short, once they are too old to belong to a write in flight.
        """
        sweep_tmp(self.store.root, TMP_MAX_AGE_S)
        for sid in self.store.list_ids():
            loaded = self.store.load(sid)
            if loaded is None:
                continue
            snapshot, service_meta = loaded
            traced = bool(service_meta.get("traced"))
            sink = (
                JsonlSink(self.store.trace_path(sid)) if traced else None
            )
            recorder = TraceRecorder(sinks=[sink]) if sink else None
            try:
                session = TuningSession.restore(
                    snapshot, recorder=recorder
                )
            except ValueError as exc:
                log.warning(
                    "session %s unrecoverable (%s); dropping", sid, exc
                )
                self.store.delete(sid)
                continue
            self._sessions[sid] = _Managed(
                session,
                service_meta.get("max_evaluations"),
                traced,
                sink,
            )
            log.info(
                "recovered session %s (phase=%s, t=%d)",
                sid, session.phase, session.iteration,
            )

    def create_session(self, payload: dict) -> dict:
        """Create (and snapshot) a new session from a JSON payload.

        Payload keys: ``session_id`` (optional; generated otherwise),
        ``config`` (a :meth:`PPATunerConfig.to_json` dict), ``X_pool``,
        ``n_objectives``, optional ``sources`` (``[[X_k, Y_k], ...]``),
        ``init_indices``, ``max_evaluations`` (loop-phase tool-run
        budget) and ``trace`` (record a server-side JSONL trace).

        Returns:
            ``{"session_id": ..., "status": {...}}``.

        Raises:
            ValueError: On any other key (a misspelt or retired key
                must not silently drop an input) or invalid input.
        """
        unknown = sorted(set(payload) - _SESSION_KEYS)
        if unknown:
            raise ValueError(f"unknown session key(s): {unknown}")
        sid = payload.get("session_id")
        if sid is None:
            with self._registry_lock:
                sid = f"session-{len(self._sessions):04d}"
                while sid in self._sessions:
                    sid = f"session-{int(sid.rsplit('-', 1)[1]) + 1:04d}"
        validate_session_id(sid)
        with self._registry_lock:
            if sid in self._sessions:
                raise ValueError(f"session {sid!r} already exists")

        cfg_payload = payload.get("config") or {}
        config = (
            cfg_payload if isinstance(cfg_payload, PPATunerConfig)
            else PPATunerConfig.from_json(cfg_payload)
        )
        X_pool = np.asarray(payload["X_pool"], dtype=float)
        n_objectives = int(payload["n_objectives"])
        sources = payload.get("sources")
        if sources is not None:
            sources = [
                (
                    np.asarray(Xs, dtype=float),
                    np.asarray(Ys, dtype=float),
                )
                for Xs, Ys in sources
            ]
        traced = bool(payload.get("trace"))
        sink = JsonlSink(self.store.trace_path(sid)) if traced else None
        recorder = TraceRecorder(sinks=[sink]) if sink else None
        session = TuningSession(
            config,
            X_pool,
            n_objectives,
            sources=sources,
            init_indices=payload.get("init_indices"),
            recorder=recorder,
        )
        budget = payload.get("max_evaluations")
        managed = _Managed(
            session,
            None if budget is None else int(budget),
            traced,
            sink,
        )
        with self._registry_lock:
            if sid in self._sessions:
                raise ValueError(f"session {sid!r} already exists")
            self._sessions[sid] = managed
        self._persist(sid, managed)
        return {"session_id": sid, "status": session.status()}

    def _managed(self, session_id: str) -> _Managed:
        with self._registry_lock:
            managed = self._sessions.get(session_id)
        if managed is None:
            raise KeyError(f"unknown session {session_id!r}")
        return managed

    def _persist(self, session_id: str, managed: _Managed) -> None:
        self.store.save(
            session_id, managed.session.snapshot(),
            managed.service_meta(),
        )

    # ------------------------------------------------------------------
    # session operations

    def ask(self, session_id: str) -> dict:
        """Advance a session and return its pending candidates.

        Enforces the per-session evaluation budget: once the loop-phase
        tool-run count reaches ``max_evaluations``, the session is
        stopped (``budget_exhausted``) and wraps up through golden
        verification.
        """
        managed = self._managed(session_id)
        with managed.lock:
            session = managed.session
            if (
                managed.max_evaluations is not None
                and not session.done
                and session.phase in ("init", "loop")
                and session.n_evaluations >= managed.max_evaluations
            ):
                session.stop("budget_exhausted")
            pending = session.ask()
            self._persist(session_id, managed)
            return {
                "pending": pending,
                "done": session.done,
                # Pool size rides along so batch clients notice
                # refinement growth and fetch the new rows (see
                # :meth:`pool`) before evaluating.
                "n_pool": int(session.n),
                "status": session.status(),
            }

    def tell(self, session_id: str, payload: dict) -> dict:
        """Feed one evaluation outcome (or failure) into a session.

        Payload keys: ``index``, exactly one of ``values`` /
        ``failure`` (an :meth:`EvaluationFailure.to_json
        <repro.core.session.EvaluationFailure.to_json>` dict), optional
        ``n_evaluations`` (the client oracle's authoritative count) and
        ``events`` (trace events the client oracle emitted for this
        evaluation, re-emitted into the server-side trace so it stays
        complete and replayable).  A missing part and a ``null`` one
        read alike.
        """
        managed = self._managed(session_id)
        with managed.lock:
            _tell_all(managed.session, [payload])
            self._persist(session_id, managed)
            return {"status": managed.session.status()}

    def tell_batch(self, session_id: str, payload: dict) -> dict:
        """Feed several evaluation outcomes under one session lock.

        Payload: ``{"tells": [<tell payload>, ...]}`` — each entry has
        the same shape :meth:`tell` accepts.  Outcomes may arrive in any
        order within a pending batch; the session buffers out-of-order
        members and applies everything in ask order.  The batch applies
        all or nothing: one bad entry rejects it whole.  One snapshot is
        written after the whole batch, so a crash between members can
        lose at most one batch of tells (the client's next ask re-issues
        the still-pending candidates).
        """
        managed = self._managed(session_id)
        tells = payload.get("tells") or []
        with managed.lock:
            _tell_all(managed.session, tells)
            self._persist(session_id, managed)
            return {"told": len(tells), "status": managed.session.status()}

    def pool(self, session_id: str, start: int = 0) -> dict:
        """Candidate-pool rows from index ``start`` on.

        Batch clients call this when an ask reply's ``n_pool`` exceeds
        the pool size they know, then extend their local oracle with
        the returned rows (refined candidates are *new* configurations
        the client has never seen).
        """
        managed = self._managed(session_id)
        with managed.lock:
            session = managed.session
            start = int(start)
            if not 0 <= start <= session.n:
                raise ValueError(
                    f"start {start} outside pool [0, {session.n}]"
                )
            return {
                "n_pool": int(session.n),
                "start": start,
                "X_pool": session.X_pool[start:].tolist(),
            }

    def stop(self, session_id: str, reason: str = "stopped") -> dict:
        """Force a session to wrap up through golden verification."""
        managed = self._managed(session_id)
        with managed.lock:
            managed.session.stop(reason)
            self._persist(session_id, managed)
            return {"status": managed.session.status()}

    def status(self, session_id: str) -> dict:
        """One session's progress digest."""
        managed = self._managed(session_id)
        with managed.lock:
            return managed.session.status()

    def result(self, session_id: str) -> dict:
        """A finished session's :meth:`TuningResult.to_json` dict.

        Raises:
            RuntimeError: While the session is still running.
        """
        managed = self._managed(session_id)
        with managed.lock:
            return managed.session.result().to_json()

    def delete(self, session_id: str) -> None:
        """Drop a session with its snapshot and trace."""
        with self._registry_lock:
            managed = self._sessions.pop(session_id, None)
        if managed is None:
            raise KeyError(f"unknown session {session_id!r}")
        with managed.lock:
            if managed.sink is not None:
                managed.sink.close()
            self.store.delete(session_id)

    def sessions(self) -> list[dict]:
        """Status digests of every hosted session."""
        with self._registry_lock:
            items = sorted(self._sessions.items())
        out = []
        for sid, managed in items:
            with managed.lock:
                status = managed.session.status()
            status["session_id"] = sid
            out.append(status)
        return out


def _tell_all(session: TuningSession, entries: list[dict]) -> None:
    """Apply tell payloads all or nothing.

    Every entry is decoded and checked (:meth:`TuningSession.check_tells`)
    before any outcome is told or any of the client's oracle events is
    re-emitted into the session trace, so a rejected request leaves the
    session, its trace and its stored snapshot as they were.
    """
    recorder = session.recorder
    decoded = []
    for entry in entries:
        try:
            decoded.append((
                *_tell_from_json(entry),
                [
                    event_from_json(event)
                    for event in entry.get("events") or []
                ] if recorder else [],
            ))
        except (KeyError, TypeError, AttributeError) as exc:
            # A KeyError would read as an unknown session (404).
            raise ValueError(f"malformed tell entry: {exc!r}") from exc
    session.check_tells([entry[:3] for entry in decoded])
    for index, values, failure, n_evaluations, events in decoded:
        for event in events:
            recorder.emit(event)
        session.tell(
            index, values=values, failure=failure,
            n_evaluations=n_evaluations,
        )


class _Handler(BaseHTTPRequestHandler):
    """JSON-over-HTTP routing onto the owning :class:`TuningService`."""

    server_version = "repro-tuning-service/1"
    protocol_version = "HTTP/1.1"

    # Set by TuningServiceHTTP.
    service: TuningService = None  # type: ignore[assignment]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        log.debug("%s - %s", self.address_string(), format % args)

    # -- helpers -------------------------------------------------------

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        return json.loads(raw.decode("utf-8"))

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _route(self) -> tuple[str | None, str | None]:
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if not parts or parts[0] != "sessions":
            return None, None
        sid = parts[1] if len(parts) > 1 else None
        action = parts[2] if len(parts) > 2 else None
        if len(parts) > 3:
            return None, None
        return sid, action

    def _dispatch(self, method: str) -> None:
        sid, action = self._route()
        service = self.service
        try:
            if method == "POST" and sid is None and action is None:
                if "sessions" not in self.path:
                    raise KeyError(self.path)
                self._reply(201, service.create_session(self._body()))
            elif method == "GET" and sid is None:
                self._reply(200, {"sessions": service.sessions()})
            elif sid is None:
                raise KeyError(self.path)
            elif method == "GET" and action is None:
                self._reply(200, service.status(sid))
            elif method == "GET" and action == "result":
                self._reply(200, service.result(sid))
            elif method == "POST" and action == "ask":
                self._reply(200, service.ask(sid))
            elif method == "POST" and action == "tell":
                self._reply(200, service.tell(sid, self._body()))
            elif method == "POST" and action == "tell_batch":
                self._reply(200, service.tell_batch(sid, self._body()))
            elif method == "GET" and action == "pool":
                query = self.path.split("?", 1)
                start = 0
                if len(query) > 1:
                    for pair in query[1].split("&"):
                        if pair.startswith("from="):
                            start = int(pair.split("=", 1)[1])
                self._reply(200, service.pool(sid, start))
            elif method == "POST" and action == "stop":
                body = self._body()
                self._reply(
                    200, service.stop(sid, body.get("reason", "stopped"))
                )
            elif method == "DELETE" and action is None:
                service.delete(sid)
                self._reply(200, {"deleted": sid})
            else:
                raise KeyError(self.path)
        except KeyError as exc:
            self._reply(404, {"error": f"not found: {exc}"})
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": str(exc)})
        except RuntimeError as exc:
            self._reply(409, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("unhandled service error")
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class TuningServiceHTTP:
    """The tuning service bound to a listening HTTP server.

    Example:
        >>> svc = TuningServiceHTTP(root=tmp, port=0)   # doctest: +SKIP
        >>> svc.start()                                 # doctest: +SKIP
        >>> svc.url                                     # doctest: +SKIP
        'http://127.0.0.1:49152'
    """

    def __init__(
        self,
        root: Path | str = ".cache/sessions",
        host: str = "127.0.0.1",
        port: int = 0,
        service: TuningService | None = None,
    ) -> None:
        self.service = (
            service if service is not None else TuningService(root=root)
        )
        handler = type("BoundHandler", (_Handler,), {
            "service": self.service,
        })
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "TuningServiceHTTP":
        """Serve on a daemon thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving and release the socket."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def serve(
    root: Path | str = ".cache/sessions",
    host: str = "127.0.0.1",
    port: int = 8763,
) -> TuningServiceHTTP:
    """Build a bound (not yet serving) tuning service.

    Call :meth:`TuningServiceHTTP.serve_forever` to block or
    :meth:`TuningServiceHTTP.start` for a background thread.
    """
    return TuningServiceHTTP(root=root, host=host, port=port)
