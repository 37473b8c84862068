"""Resumable result memoization for experiment cells.

Completed :class:`~repro.experiments.scenarios.MethodOutcome`s are
persisted to disk keyed by spec hash, with the crash-safe writes and
per-entry ``fcntl`` advisory locks of :mod:`repro.durable` (as in the
BenchmarkStore) and quarantine-free self-healing: a torn or stale entry
is deleted and simply re-executed.
A killed multi-run invocation therefore skips every finished cell on
restart, and ``--force`` invalidates.

Entry layout (one JSON document per cell under the memo root)::

    .cache/runs/
        <scenario>-<hash>.json      the cell's record
        <scenario>-<hash>.json.lock advisory lock files

The document records the memo format version, the full spec (verified
on load — a hash collision or renamed file can never serve the wrong
cell), a digest of the ``repro`` sources that computed the entry
(verified on load — a code change that moves a trajectory re-executes
the cell instead of serving the old outcome), the outcome with its
result in :meth:`~repro.core.result.TuningResult.to_json` form, the
telemetry and the extras.  Python floats round-trip through JSON
bit-exactly, so a served record equals the computed one, except that
its telemetry is marked ``memoized`` with a wall time of 0.0 s.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import logging
from pathlib import Path
from typing import ContextManager, Iterable

from ..core.result import TuningResult
from ..durable import LOAD_ERRORS, TMP_PREFIX, atomic_write, locked
from .spec import RunSpec

log = logging.getLogger(__name__)

#: Memo-format version; bump when the serialized layout changes.
MEMO_VERSION = 2


def default_memo_dir() -> Path:
    """Directory for memoized run results.

    Honours ``PPATUNER_RUN_CACHE``; defaults to ``<repo>/.cache/runs``
    (see :func:`repro.env.run_cache_dir`).
    """
    from .. import env

    return env.run_cache_dir()


@functools.lru_cache(maxsize=None)
def _code_digest() -> str:
    """SHA-256 over the ``repro`` package's Python sources.

    Files are hashed with their package-relative paths in sorted order,
    so the digest changes with any edit, addition, removal or rename and
    with nothing else.  Computed once per process.
    """
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class RunMemo:
    """Disk memoization of completed run records, keyed by spec hash.

    All methods are safe to call concurrently from multiple processes
    sharing the same memo directory.
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_memo_dir()

    # ------------------------------------------------------------------
    # keys and locking

    def entry_name(self, spec: RunSpec) -> str:
        """Memo file name for one spec."""
        return f"{spec.scenario}-{spec.spec_hash()}.json"

    def path_for(self, spec: RunSpec) -> Path:
        """Memo file path for one spec."""
        return self.root / self.entry_name(spec)

    def lock(self, spec: RunSpec) -> ContextManager[None]:
        """Exclusive cross-process lock for one entry (no-op without
        ``fcntl``)."""
        return locked(self.root / f"{self.entry_name(spec)}.lock")

    # ------------------------------------------------------------------
    # save / load

    def save(self, record) -> Path:
        """Atomically persist one completed :class:`RunRecord`."""
        from .runner import RunRecord  # local: avoid import cycle

        assert isinstance(record, RunRecord)
        outcome = {
            f.name: getattr(record.outcome, f.name)
            for f in dataclasses.fields(record.outcome)
        }
        outcome["result"] = outcome["result"].to_json()
        doc = {
            "version": MEMO_VERSION,
            "spec": record.spec.to_json(),
            "code": _code_digest(),
            "outcome": outcome,
            "telemetry": dataclasses.asdict(record.telemetry),
            "extras": record.extras,
        }
        target = self.path_for(record.spec)
        with self.lock(record.spec), atomic_write(target, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        return target

    def load(self, spec: RunSpec):
        """Load one memoized record, or ``None``.

        A torn, garbage, version-skewed, wrong-spec or other-code file
        is deleted (self-healing) and ``None`` returned so the caller
        re-executes; corruption never raises.
        """
        from ..experiments.scenarios import MethodOutcome
        from .runner import RunRecord, RunTelemetry

        path = self.path_for(spec)
        if not path.exists():
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError("memo entry is not a JSON object")
            if doc.get("version") != MEMO_VERSION:
                raise ValueError(
                    f"memo version {doc.get('version')} != {MEMO_VERSION}"
                )
            if doc.get("spec") != spec.to_json():
                raise ValueError("memo entry does not match spec")
            if doc.get("code") != _code_digest():
                raise ValueError(
                    "memo entry was computed by other library code"
                )
        except LOAD_ERRORS as exc:
            log.warning(
                "memoized run %s is unusable (%s: %s); re-executing",
                path, type(exc).__name__, exc,
            )
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        outcome = doc["outcome"]
        return RunRecord(
            spec=spec,
            outcome=MethodOutcome(**{
                **outcome,
                "result": TuningResult.from_json(outcome["result"]),
            }),
            telemetry=RunTelemetry(**{
                **doc["telemetry"], "wall_time": 0.0, "memoized": True,
            }),
            extras=doc["extras"],
        )

    # ------------------------------------------------------------------
    # maintenance

    def invalidate(self, specs: Iterable[RunSpec]) -> int:
        """Drop the memo entries for ``specs`` (``--force``).

        Returns:
            The number of entries removed.
        """
        removed = 0
        for spec in specs:
            path = self.path_for(spec)
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
            with contextlib.suppress(OSError):
                (self.root / f"{path.name}.lock").unlink()
        return removed

    def clear(self) -> int:
        """Remove every memo artifact.

        Returns:
            The number of files removed.
        """
        if not self.root.is_dir():
            return 0
        count = 0
        for pattern in ("*.json", "*.json.lock", f"{TMP_PREFIX}*"):
            for path in self.root.glob(pattern):
                with contextlib.suppress(OSError):
                    path.unlink()
                    count += 1
        return count

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(
            1 for p in self.root.glob("*.json")
            if not p.name.startswith(TMP_PREFIX)
        )
