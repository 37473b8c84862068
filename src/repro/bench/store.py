"""Crash-safe benchmark cache store.

The offline QoR tables (``.npz`` files under the cache directory) are a
shared hot path: every ``tune``/``generate``/scenario run loads them, and
concurrent workers may build them simultaneously.  A torn in-place write
(power loss, SIGKILL, full disk) used to leave a truncated zip behind that
poisoned the cache forever — every later ``np.load`` raised ``BadZipFile``.

This module makes the store impossible to poison:

- **Atomic writes.**  Tables and the manifest are written through
  :func:`repro.durable.atomic_write`; readers can never observe a
  half-written file.
- **Integrity verification on load.**  Every load checks zip structure and
  a per-file SHA-256 recorded in a small JSON manifest
  (``manifest.json``); torn, garbage, or silently-modified files are
  detected before their arrays are trusted.
- **Self-healing.**  A corrupt entry is logged, moved into a
  ``quarantine/`` subdirectory, and the caller regenerates — corruption
  never raises out of :func:`~repro.bench.generate.generate_benchmark`.
- **Cross-process locking.**  ``fcntl`` advisory locks serialize builders
  of the same table, so N concurrent generators produce exactly one build
  while the rest wait and load the winner's file.
- **Garbage collection.**  Tables from stale ``CACHE_VERSION``
  generations and abandoned temp files are swept.

Layout of the cache directory::

    .cache/benchmarks/
        manifest.json                     integrity manifest (see below)
        <bench>-<scale>-n<N>-v<V>.npz     one table per benchmark config
        <bench>-...-v<V>.npz.lock         advisory lock files (empty)
        .tmp-*.npz                        in-flight atomic writes
        quarantine/                       corrupt files kept for autopsy

Manifest format (``manifest.json``)::

    {
      "format": 1,
      "entries": {
        "target2-reduced-n727-v15.npz": {
          "sha256": "…hex…",
          "size": 25963,
          "builds": 1,
          "created": "2026-08-05T12:34:56+00:00"
        }
      }
    }

``builds`` counts how many times the entry was (re)built — under correct
locking, concurrent generators leave it at 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import re
import zipfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, ContextManager, Mapping

import numpy as np

from ..durable import (
    LOAD_ERRORS,
    TMP_MAX_AGE_S,
    TMP_PREFIX,
    atomic_write,
    locked,
    sweep_tmp,
)

log = logging.getLogger(__name__)

#: Name of the integrity manifest inside the cache directory.
MANIFEST_NAME = "manifest.json"

#: Subdirectory corrupt files are moved into instead of being trusted.
QUARANTINE_DIR = "quarantine"

_MANIFEST_FORMAT = 1
_VERSION_RE = re.compile(r"-v(\d+)\.npz$")


def default_cache_dir() -> Path:
    """Directory for cached benchmark tables.

    Honours the ``PPATUNER_CACHE`` environment variable; defaults to
    ``<repo>/.cache/benchmarks`` (see :func:`repro.env.bench_cache_dir`).
    """
    from .. import env

    return env.bench_cache_dir()


class CacheCorruptionError(Exception):
    """A cache file failed structural or checksum verification."""


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of verifying one cache file.

    Attributes:
        filename: Cache file name (relative to the store root).
        status: ``"ok"``, ``"quarantined"``, ``"stale"`` or
            ``"swept-tmp"``.
        detail: Human-readable explanation.
    """

    filename: str
    status: str
    detail: str = ""


def _sha256(fh: BinaryIO) -> str:
    """SHA-256 of the rest of an open binary file."""
    digest = hashlib.sha256()
    for block in iter(lambda: fh.read(1 << 20), b""):
        digest.update(block)
    return digest.hexdigest()


def file_cache_version(filename: str) -> int | None:
    """Parse the ``-v<N>.npz`` generation suffix from a cache file name."""
    m = _VERSION_RE.search(filename)
    return int(m.group(1)) if m else None


class BenchmarkStore:
    """Crash-safe, concurrency-safe store for benchmark ``.npz`` tables.

    All public methods are safe to call concurrently from multiple
    processes sharing the same cache directory.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    # ------------------------------------------------------------------
    # locking

    def lock(self, filename: str) -> ContextManager[None]:
        """Exclusive cross-process advisory lock for one cache entry.

        Blocks until the lock is free.  A no-op where ``fcntl`` is
        unavailable.
        """
        return locked(self.root / f"{filename}.lock")

    # ------------------------------------------------------------------
    # manifest

    def _read_manifest(self) -> dict:
        path = self.root / MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text())
        except FileNotFoundError:
            return {"format": _MANIFEST_FORMAT, "entries": {}}
        except (OSError, json.JSONDecodeError) as exc:
            log.warning("cache manifest %s unreadable (%s); resetting",
                        path, exc)
            return {"format": _MANIFEST_FORMAT, "entries": {}}
        if not isinstance(manifest.get("entries"), dict):
            return {"format": _MANIFEST_FORMAT, "entries": {}}
        return manifest

    def _update_manifest(self, filename: str, entry: dict | None) -> None:
        """Set (or, with ``entry=None``, drop) one manifest record."""
        with locked(self.root / ".manifest.lock"):
            manifest = self._read_manifest()
            if entry is None:
                manifest["entries"].pop(filename, None)
            else:
                manifest["entries"][filename] = entry
            with atomic_write(self.root / MANIFEST_NAME, "w") as fh:
                json.dump(manifest, fh, indent=1, sort_keys=True)

    def manifest_entry(self, filename: str) -> dict | None:
        """The manifest record for one cache file, if any."""
        return self._read_manifest()["entries"].get(filename)

    # ------------------------------------------------------------------
    # save / load

    def save(self, filename: str, arrays: Mapping[str, np.ndarray]) -> Path:
        """Atomically write ``arrays`` as ``<root>/<filename>``.

        The file is written to a same-directory temp file, fsync'd, and
        renamed into place, then its SHA-256 is recorded in the manifest.

        Returns:
            The final file path.
        """
        target = self.root / filename
        with atomic_write(target, "w+b") as fh:
            np.savez_compressed(fh, **arrays)
            # Hash the temp file's bytes: exactly what is renamed into
            # place, whatever another process does to ``target`` later.
            fh.seek(0)
            digest = _sha256(fh)
            size = fh.tell()
        previous = self.manifest_entry(filename) or {}
        self._update_manifest(filename, {
            "sha256": digest,
            "size": size,
            "builds": int(previous.get("builds", 0)) + 1,
            "created": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
        })
        return target

    def load(
        self,
        filename: str,
        required: tuple[str, ...] = (),
    ) -> dict[str, np.ndarray] | None:
        """Load and verify one cache entry.

        Verification: zip structure, SHA-256 against the manifest (when
        an entry exists — unmanifested legacy files fall back to the
        structural check), a full decompressing read, and presence of the
        ``required`` array keys.  Any failure quarantines the file and
        returns ``None`` so the caller regenerates; corruption never
        propagates as an exception.

        Returns:
            The arrays, or ``None`` if the file is absent or was corrupt.
        """
        path = self.root / filename
        if not path.exists():
            return None
        try:
            self._check_integrity(path, filename)
            with np.load(path, allow_pickle=False) as data:
                missing = set(required) - set(data.files)
                if missing:
                    raise CacheCorruptionError(
                        f"missing arrays {sorted(missing)}"
                    )
                return {key: data[key] for key in data.files}
        except CacheCorruptionError as exc:
            self._quarantine(filename, str(exc))
            return None
        except LOAD_ERRORS as exc:
            self._quarantine(filename, f"{type(exc).__name__}: {exc}")
            return None

    def _check_integrity(self, path: Path, filename: str) -> None:
        if not zipfile.is_zipfile(path):
            raise CacheCorruptionError("not a valid zip archive")
        entry = self.manifest_entry(filename)
        if entry and "sha256" in entry:
            with path.open("rb") as fh:
                actual = _sha256(fh)
            if actual != entry["sha256"]:
                raise CacheCorruptionError(
                    f"checksum mismatch (manifest {entry['sha256'][:12]}…,"
                    f" file {actual[:12]}…)"
                )

    def _quarantine(self, filename: str, reason: str) -> None:
        """Move a corrupt file out of the way and forget its manifest."""
        src = self.root / filename
        dest_dir = self.root / QUARANTINE_DIR
        log.warning(
            "benchmark cache entry %s is corrupt (%s); "
            "quarantining to %s and regenerating", src, reason, dest_dir,
        )
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(src, dest_dir / filename)
        except OSError:
            with contextlib.suppress(OSError):
                src.unlink()
        self._update_manifest(filename, None)

    # ------------------------------------------------------------------
    # maintenance

    def _tables(self) -> list[Path]:
        """Committed cache tables — in-flight ``.tmp-*`` files excluded
        (``pathlib`` globs match dotfiles)."""
        return sorted(
            p for p in self.root.glob("*.npz")
            if not p.name.startswith(TMP_PREFIX)
        )

    def gc_stale(self, current_version: int) -> list[str]:
        """Delete tables from cache generations other than the current.

        Also sweeps abandoned atomic-write temp files older than
        :data:`TMP_MAX_AGE_S`.

        Returns:
            The removed file names.
        """
        removed: list[str] = []
        if not self.root.is_dir():
            return removed
        for path in self._tables():
            version = file_cache_version(path.name)
            if version is None or version == current_version:
                continue
            with contextlib.suppress(OSError):
                path.unlink()
                removed.append(path.name)
                self._update_manifest(path.name, None)
            lock = self.root / f"{path.name}.lock"
            with contextlib.suppress(OSError):
                lock.unlink()
        removed.extend(sweep_tmp(self.root, TMP_MAX_AGE_S))
        if removed:
            log.info("cache gc removed %d stale file(s)", len(removed))
        return removed

    def verify(self, current_version: int | None = None) -> list[VerifyReport]:
        """Verify every cache entry, healing what it can.

        Corrupt files are quarantined (their tables regenerate on next
        use); when ``current_version`` is given, stale generations are
        garbage-collected; abandoned temp files are swept.

        Returns:
            One :class:`VerifyReport` per examined or removed file.
        """
        reports: list[VerifyReport] = []
        if not self.root.is_dir():
            return reports
        if current_version is not None:
            reports.extend(
                VerifyReport(name, "stale", "old cache generation")
                for name in self.gc_stale(current_version)
                if name.endswith(".npz")
            )
        else:
            reports.extend(
                VerifyReport(name, "swept-tmp", "abandoned temp file")
                for name in sweep_tmp(self.root, TMP_MAX_AGE_S)
            )
        for path in self._tables():
            if self.load(path.name) is None:
                reports.append(VerifyReport(
                    path.name, "quarantined",
                    f"corrupt; moved to {QUARANTINE_DIR}/",
                ))
            else:
                reports.append(VerifyReport(path.name, "ok"))
        return reports

    def clear(self) -> int:
        """Remove every cache artifact (tables, manifest, locks, temp
        files, quarantine).

        Returns:
            The number of files removed.
        """
        if not self.root.is_dir():
            return 0
        count = 0
        patterns = ("*.npz", "*.npz.lock", f"{TMP_PREFIX}*",
                    MANIFEST_NAME, ".manifest.lock")
        for pattern in patterns:
            for path in self.root.glob(pattern):
                with contextlib.suppress(OSError):
                    path.unlink()
                    count += 1
        quarantine = self.root / QUARANTINE_DIR
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                with contextlib.suppress(OSError):
                    path.unlink()
                    count += 1
            with contextlib.suppress(OSError):
                quarantine.rmdir()
        return count

    def info(self) -> dict[str, object]:
        """Summary of the cache contents (feeds ``repro cache info``)."""
        entries: list[dict[str, object]] = []
        total = 0
        manifest = self._read_manifest()["entries"]
        if self.root.is_dir():
            for path in self._tables():
                size = path.stat().st_size
                total += size
                record = manifest.get(path.name, {})
                entries.append({
                    "filename": path.name,
                    "size": size,
                    "version": file_cache_version(path.name),
                    "manifested": path.name in manifest,
                    "builds": record.get("builds"),
                })
        quarantined = (
            sorted(p.name for p in (self.root / QUARANTINE_DIR).glob("*"))
            if (self.root / QUARANTINE_DIR).is_dir() else []
        )
        return {
            "root": str(self.root),
            "n_files": len(entries),
            "total_bytes": total,
            "entries": entries,
            "quarantined": quarantined,
        }
