"""Atomic on-disk persistence of tuning-session snapshots.

One ``.npz`` per session under the store root, written through
:func:`repro.durable.atomic_write` (same-directory temp file + fsync +
``os.replace`` atomic rename, directory fsync) so a ``kill -9`` at any
instant leaves either the previous complete snapshot or the new one,
never a torn file; the service's startup sweeps the temp file such a
kill leaves, once aged.  Loading is self-healing: a torn, garbage or
version-skewed snapshot is deleted and ``None`` returned — the service
then reports the session lost instead of serving corrupt state (the
session's own trace remains on disk for forensics).

Layout::

    <root>/
        <session_id>.snapshot.npz   arrays + __meta__/__service__ JSON
        <session_id>.trace.jsonl    per-session event trace (optional)
"""

from __future__ import annotations

import contextlib
import json
import logging
import re
import zipfile
from pathlib import Path

import numpy as np

from ..durable import LOAD_ERRORS, TMP_PREFIX, atomic_write

__all__ = ["SessionStore", "validate_session_id"]

log = logging.getLogger(__name__)

_SNAPSHOT_SUFFIX = ".snapshot.npz"
_TRACE_SUFFIX = ".trace.jsonl"

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_session_id(session_id: str) -> str:
    """Reject ids that could escape the store directory.

    Returns:
        The id unchanged when well-formed.

    Raises:
        ValueError: On empty, over-long or path-unsafe ids.
    """
    if not isinstance(session_id, str) or not _ID_RE.match(session_id):
        raise ValueError(
            "session id must be 1-64 chars of [A-Za-z0-9._-], "
            "starting alphanumeric"
        )
    return session_id


class SessionStore:
    """Snapshot store for :class:`~repro.core.session.TuningSession`.

    Args:
        root: Store directory (created on first save).
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    def snapshot_path(self, session_id: str) -> Path:
        """Snapshot file path for one session."""
        return self.root / f"{validate_session_id(session_id)}" \
            f"{_SNAPSHOT_SUFFIX}"

    def trace_path(self, session_id: str) -> Path:
        """Trace file path for one session (exists only when traced)."""
        return self.root / f"{validate_session_id(session_id)}" \
            f"{_TRACE_SUFFIX}"

    def save(
        self,
        session_id: str,
        snapshot: dict,
        service_meta: dict | None = None,
    ) -> Path:
        """Atomically persist one session snapshot.

        Args:
            session_id: The session's id (also the file stem).
            snapshot: ``{"meta": ..., "arrays": ...}`` from
                :meth:`TuningSession.snapshot`.
            service_meta: Service-side sidecar (budget, trace flag, …)
                stored alongside, outside the session's fingerprint.
        """
        arrays = dict(snapshot["arrays"])
        arrays["__meta__"] = np.frombuffer(
            json.dumps(snapshot["meta"], sort_keys=True).encode("utf-8"),
            dtype=np.uint8,
        )
        arrays["__service__"] = np.frombuffer(
            json.dumps(service_meta or {}, sort_keys=True).encode("utf-8"),
            dtype=np.uint8,
        )
        target = self.snapshot_path(session_id)
        with atomic_write(target) as fh:
            # Uncompressed: a session saves after every request, and
            # zlib shrank its mostly-float snapshot by about 6% for most
            # of the save's time.  Compressed snapshots still load.
            np.savez(fh, **arrays)
        return target

    def load(self, session_id: str) -> tuple[dict, dict] | None:
        """Load one snapshot, or ``None``.

        A torn or garbage file is deleted (self-healing) and ``None``
        returned; corruption never raises.

        Returns:
            ``(snapshot, service_meta)`` or ``None``.
        """
        path = self.snapshot_path(session_id)
        if not path.exists():
            return None
        try:
            if not zipfile.is_zipfile(path):
                raise zipfile.BadZipFile("not a zip archive")
            with np.load(path, allow_pickle=False) as data:
                if "__meta__" not in data.files:
                    raise KeyError("missing __meta__")
                meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
                service_meta = (
                    json.loads(bytes(data["__service__"]).decode("utf-8"))
                    if "__service__" in data.files else {}
                )
                arrays = {
                    k: data[k] for k in data.files
                    if k not in ("__meta__", "__service__")
                }
        except LOAD_ERRORS as exc:
            log.warning(
                "session snapshot %s is unusable (%s: %s); dropping",
                path, type(exc).__name__, exc,
            )
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        return {"meta": meta, "arrays": arrays}, service_meta

    def delete(self, session_id: str) -> None:
        """Remove a session's snapshot and trace."""
        for path in (
            self.snapshot_path(session_id), self.trace_path(session_id)
        ):
            with contextlib.suppress(OSError):
                path.unlink()

    def list_ids(self) -> list[str]:
        """Ids of every stored snapshot (sorted)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name[: -len(_SNAPSHOT_SUFFIX)]
            for p in self.root.glob(f"*{_SNAPSHOT_SUFFIX}")
            if not p.name.startswith(TMP_PREFIX)
        )
