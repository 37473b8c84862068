"""Resumable result memoization for experiment cells.

Completed :class:`~repro.experiments.scenarios.MethodOutcome`s are
persisted to disk keyed by spec hash, with the crash-safe writes and
per-entry ``fcntl`` advisory locks of :mod:`repro.durable` (as in the
BenchmarkStore) and quarantine-free self-healing: a torn or stale entry
is deleted and simply re-executed.
A killed multi-run invocation therefore skips every finished cell on
restart, and ``--force`` invalidates.

Entry layout (one ``.npz`` per cell under the memo root)::

    .cache/runs/
        <scenario>-<hash>.npz      arrays + a JSON metadata blob
        <scenario>-<hash>.npz.lock advisory lock files

The JSON blob records the memo format version, the full spec (verified
on load — a hash collision or renamed file can never serve the wrong
cell), a digest of the ``repro`` sources that computed the entry
(verified on load — a code change that moves a trajectory re-executes
the cell instead of serving the old outcome), scalar outcome fields,
iteration history, telemetry and extras; sibling arrays carry the
index/objective matrices bit-exactly.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import zipfile
from pathlib import Path
from typing import ContextManager, Iterable

import numpy as np

from ..core.result import IterationRecord, TuningResult
from ..durable import LOAD_ERRORS, TMP_PREFIX, atomic_write, locked
from .spec import RunSpec

log = logging.getLogger(__name__)

#: Memo-format version; bump when the serialized layout changes.
MEMO_VERSION = 1

_ARRAY_KEYS = ("pareto_indices", "pareto_points", "evaluated_indices")


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
        return f"{spec.scenario}-{spec.spec_hash()}.npz"

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
        outcome = record.outcome
        result = outcome.result
        meta = {
            "version": MEMO_VERSION,
            "spec": record.spec.to_json(),
            "code": _code_digest(),
            "method": outcome.method,
            "objective_space": outcome.objective_space,
            "hv_error": outcome.hv_error,
            "adrs": outcome.adrs,
            "runs": outcome.runs,
            "n_evaluations": int(result.n_evaluations),
            "n_iterations": int(result.n_iterations),
            "stop_reason": result.stop_reason,
            "n_failed_evaluations": int(result.n_failed_evaluations),
            "history": [h.to_json() for h in result.history],
            "telemetry": {
                "wall_time": record.telemetry.wall_time,
                "runs": record.telemetry.runs,
                "worker_pid": record.telemetry.worker_pid,
                "calibration": dict(record.telemetry.calibration),
                "trace_path": record.telemetry.trace_path,
                "n_events": record.telemetry.n_events,
            },
            "extras": record.extras,
        }
        arrays = {
            "pareto_indices": np.asarray(result.pareto_indices, dtype=int),
            "pareto_points": np.asarray(
                result.pareto_points, dtype=float
            ),
            "evaluated_indices": np.asarray(
                result.evaluated_indices, dtype=int
            ),
            "quarantined_indices": np.asarray(
                result.quarantined_indices, dtype=int
            ),
            "meta": np.frombuffer(
                json.dumps(meta, sort_keys=True).encode("utf-8"),
                dtype=np.uint8,
            ),
        }
        target = self.path_for(record.spec)
        with self.lock(record.spec), atomic_write(target) as fh:
            np.savez_compressed(fh, **arrays)
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
            if not zipfile.is_zipfile(path):
                raise zipfile.BadZipFile("not a zip archive")
            with np.load(path, allow_pickle=False) as data:
                missing = set(_ARRAY_KEYS + ("meta",)) - set(data.files)
                if missing:
                    raise KeyError(f"missing arrays {sorted(missing)}")
                arrays = {key: data[key] for key in _ARRAY_KEYS}
                # Optional array: absent in pre-reliability entries,
                # which stay loadable (same MEMO_VERSION).
                arrays["quarantined_indices"] = (
                    data["quarantined_indices"]
                    if "quarantined_indices" in data.files
                    else np.empty(0, dtype=int)
                )
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if meta.get("version") != MEMO_VERSION:
                raise ValueError(
                    f"memo version {meta.get('version')} != {MEMO_VERSION}"
                )
            if meta.get("spec") != spec.to_json():
                raise ValueError("memo entry does not match spec")
            if meta.get("code") != _code_digest():
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
        result = TuningResult(
            pareto_indices=arrays["pareto_indices"],
            pareto_points=arrays["pareto_points"],
            n_evaluations=int(meta["n_evaluations"]),
            n_iterations=int(meta["n_iterations"]),
            history=[
                IterationRecord.from_json(h) for h in meta["history"]
            ],
            evaluated_indices=arrays["evaluated_indices"],
            stop_reason=meta["stop_reason"],
            quarantined_indices=arrays["quarantined_indices"],
            n_failed_evaluations=int(
                meta.get("n_failed_evaluations", 0)
            ),
        )
        outcome = MethodOutcome(
            method=meta["method"],
            objective_space=meta["objective_space"],
            hv_error=float(meta["hv_error"]),
            adrs=float(meta["adrs"]),
            runs=int(meta["runs"]),
            result=result,
            repeat=int(meta["spec"].get("repeat", 0)),
        )
        telem = meta.get("telemetry", {})
        telemetry = RunTelemetry(
            wall_time=float(telem.get("wall_time", 0.0)),
            runs=int(telem.get("runs", outcome.runs)),
            worker_pid=int(telem.get("worker_pid", 0)),
            calibration=dict(telem.get("calibration", {})),
            memoized=True,
            trace_path=str(telem.get("trace_path", "")),
            n_events=int(telem.get("n_events", 0)),
        )
        return RunRecord(
            spec=spec,
            outcome=outcome,
            telemetry=telemetry,
            extras=dict(meta.get("extras", {})),
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
        for pattern in ("*.npz", "*.npz.lock", f"{TMP_PREFIX}*"):
            for path in self.root.glob(pattern):
                with contextlib.suppress(OSError):
                    path.unlink()
                    count += 1
        return count

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(
            1 for p in self.root.glob("*.npz")
            if not p.name.startswith(TMP_PREFIX)
        )
