"""Crash-safe file primitives shared by the on-disk stores.

The golden-table cache (:mod:`repro.bench.store`), the run memo
(:mod:`repro.runner.memo`) and the session snapshots
(:mod:`repro.service.store`) must survive a ``kill -9``, a full disk or
a power loss.  All three write through :func:`atomic_write`, so a reader
sees the previous complete file or the new one, never a torn one.  A
kill leaves only a temp file behind, which :func:`sweep_tmp` removes
once no write can still be in flight.  :func:`locked` serializes the
writers of one entry across processes.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
import zipfile
import zlib
from pathlib import Path
from typing import IO, Iterator

try:  # advisory locking is POSIX-only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: Prefix of in-flight atomic-write temp files (dot: hidden from globs).
TMP_PREFIX = ".tmp-"

#: Abandoned temp files older than this many seconds are swept.
TMP_MAX_AGE_S = 600.0

#: Exceptions loading a damaged ``.npz`` can raise.  A damaged JSON blob
#: inside one raises ``json.JSONDecodeError`` or ``UnicodeDecodeError``,
#: and both are ``ValueError`` subclasses.
LOAD_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    ValueError,
    KeyError,
    EOFError,
    OSError,
)


def fsync_dir(path: Path | str) -> None:
    """fsync a directory so a rename survives power loss (best effort)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_write(target: Path | str, mode: str = "wb") -> Iterator[IO]:
    """Replace ``target`` with what the body writes, all or nothing.

    Yields a file opened in ``mode`` (``"w+b"`` reads back what was
    written) on a new temp file in ``target``'s directory, created if
    absent, so the rename never crosses file systems.  When the body
    returns, the file is flushed, fsync'd and ``os.replace``'d over
    ``target``, then the directory is fsync'd so the rename is durable.
    When anything raises, the temp file is removed and ``target`` is
    left as it was.
    """
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=TMP_PREFIX, suffix=target.suffix, dir=target.parent
    )
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    fsync_dir(target.parent)


@contextlib.contextmanager
def locked(path: Path | str) -> Iterator[None]:
    """Exclusive cross-process advisory lock on the file ``path``.

    Creates the (empty) lock file and its directory if needed and blocks
    until the lock is free.  A no-op where ``fcntl`` is unavailable.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def sweep_tmp(root: Path | str, max_age_s: float) -> list[str]:
    """Remove abandoned atomic-write temp files from ``root``.

    Only files last modified more than ``max_age_s`` seconds ago go: a
    younger one may belong to a write still in flight.

    Returns:
        The removed file names.
    """
    swept: list[str] = []
    cutoff = time.time() - max_age_s
    for path in Path(root).glob(f"{TMP_PREFIX}*"):
        try:
            if path.stat().st_mtime < cutoff:
                path.unlink()
                swept.append(path.name)
        except OSError:  # pragma: no cover - concurrent removal
            continue
    return swept
