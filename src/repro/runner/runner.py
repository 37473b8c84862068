"""Process-pool experiment runner with memoization and telemetry.

Turns a list of independent experiment cells (:class:`RunJob`s wrapping
hashable :class:`~repro.runner.spec.RunSpec`s) into results with three
guarantees:

- **Determinism** — cells derive every random stream from their spec
  (see :mod:`repro.runner.cells`), so the parallel output is
  bit-identical to the serial one and independent of completion order;
  results are always returned in submission order.
- **Resumability** — completed cells are memoized to disk through
  :class:`~repro.runner.memo.RunMemo`; a killed invocation skips
  finished cells on restart, and ``force=True`` invalidates first.
- **Observability** — per-run telemetry (wall time, tool runs,
  aggregated calibration counters, worker pid, memo hits) is collected
  and renderable as a progress table.  With ``trace_dir`` set, every
  cell additionally records its full :mod:`repro.obs` event stream to
  ``trace-<spec_hash>.jsonl`` in that directory — worker processes
  write their own cell's file, so parallel traces never interleave, and
  each file replays independently (``repro trace summary``).

Worker count follows the ``PPATUNER_WORKERS`` convention shared with
the benchmark cache builder.  Dataset arguments may be
:class:`~repro.runner.spec.DatasetRef`s — resolved inside each worker
through the concurrency-safe benchmark cache, so fan-out ships names,
not arrays — or in-memory pools (pickled; fine for test-scale data).
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .. import env
from ..bench.dataset import BenchmarkDataset
from ..core.config import PPATunerConfig
from .cells import execute_spec
from .memo import RunMemo
from .spec import DatasetRef, RunSpec

log = logging.getLogger(__name__)

__all__ = [
    "ExperimentRunner",
    "RunJob",
    "RunRecord",
    "RunTelemetry",
    "format_telemetry_table",
    "runner_workers",
]


def runner_workers(workers: int | None = None) -> int:
    """Effective worker count (``PPATUNER_WORKERS`` convention).

    An explicit argument wins; otherwise the environment variable, then
    the CPU count capped at 8 (same policy as the cache builder — see
    :func:`repro.env.workers`).
    """
    return env.workers(workers)


@dataclass(frozen=True)
class RunTelemetry:
    """Per-run observability record.

    Attributes:
        wall_time: Cell wall-clock seconds (0.0 when served from memo).
        runs: Tool runs the cell consumed.
        worker_pid: PID of the executing process.
        calibration: Aggregated ``CalibrationStats`` counters
            (``n_full_fits``/``n_incremental``/...), when the method
            exposes a calibration engine.
        memoized: Whether the record was served from the memo store.
        trace_path: JSONL trace file the cell wrote (empty when tracing
            was disabled).
        n_events: Trace events the cell emitted.
    """

    wall_time: float = 0.0
    runs: int = 0
    worker_pid: int = 0
    calibration: dict[str, int] = field(default_factory=dict)
    memoized: bool = False
    trace_path: str = ""
    n_events: int = 0


@dataclass
class RunRecord:
    """One completed cell: spec, scored outcome, telemetry, extras."""

    spec: RunSpec
    outcome: object  # MethodOutcome (kept loose to avoid an import cycle)
    telemetry: RunTelemetry
    extras: dict = field(default_factory=dict)


@dataclass
class RunJob:
    """One unit of queued work: a spec plus how to obtain its data.

    Attributes:
        spec: The hashable cell description.
        source: Source pool — a :class:`DatasetRef` (resolved in the
            worker via the benchmark cache), an in-memory dataset, or
            ``None``.
        target: Target pool (ref or dataset).
        ppa_config: Optional explicit tuner configuration.
    """

    spec: RunSpec
    source: DatasetRef | BenchmarkDataset | None
    target: DatasetRef | BenchmarkDataset
    ppa_config: PPATunerConfig | None = None


def _resolve(pool):
    return pool.resolve() if isinstance(pool, DatasetRef) else pool


def _init_worker() -> None:
    """Pool-worker initializer: one BLAS thread, for scipy's OpenBLAS
    copy too (``scipy.linalg`` maps it on import)."""
    import scipy.linalg  # noqa: F401

    env.set_blas_threads(1)


def _pool(workers: int) -> ProcessPoolExecutor:
    """Worker processes at one BLAS thread each: cells already fill the
    CPUs, and a cell's result must not depend on where it ran."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker)


def _execute_job(job: RunJob) -> RunRecord:
    """Top-level worker entry point (must stay picklable)."""
    source = _resolve(job.source)
    target = _resolve(job.target)
    return execute_spec(job.spec, source, target, job.ppa_config)


class ExperimentRunner:
    """Order-preserving fan-out of experiment cells.

    Args:
        workers: Process count (``None`` = ``PPATUNER_WORKERS``
            convention).  ``1`` executes inline, no pool.
        memo: Memo store for resumability (``None`` disables
            memoization entirely).
        resume: Serve completed specs from the memo store.
        force: Invalidate the jobs' memo entries before running
            (re-executes everything exactly once).
        progress: Optional callable fed one human-readable line per
            completed cell (e.g. ``print``).
        trace_dir: Record every cell's event stream to
            ``trace-<spec_hash>.jsonl`` under this directory (exported
            as ``PPATUNER_TRACE_DIR`` for the duration of each
            :meth:`run`, so pool workers inherit it).
    """

    def __init__(
        self,
        workers: int | None = None,
        memo: RunMemo | None = None,
        resume: bool = True,
        force: bool = False,
        progress: Callable[[str], None] | None = None,
        trace_dir: str | os.PathLike | None = None,
    ) -> None:
        self.workers = runner_workers(workers)
        self.memo = memo
        self.resume = resume
        self.force = force
        self.progress = progress
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        #: Every record this runner has produced, in completion order
        #: across calls (feeds suite-level telemetry tables).
        self.history: list[RunRecord] = []

    # ------------------------------------------------------------------

    def run(self, jobs: Sequence[RunJob]) -> list[RunRecord]:
        """Execute every job; results in submission order.

        Duplicate specs in one submission are executed once and the
        record shared.
        """
        # Inline cells run at one BLAS thread, as pool workers do.
        with env.blas_thread_limit(1):
            if self.trace_dir is None:
                return self._run(jobs)
            # Export the trace directory for the duration of the batch so
            # inline cells and forked pool workers alike pick it up.
            prev = os.environ.get("PPATUNER_TRACE_DIR")
            os.environ["PPATUNER_TRACE_DIR"] = self.trace_dir
            try:
                return self._run(jobs)
            finally:
                if prev is None:
                    os.environ.pop("PPATUNER_TRACE_DIR", None)
                else:
                    os.environ["PPATUNER_TRACE_DIR"] = prev

    def _run(self, jobs: Sequence[RunJob]) -> list[RunRecord]:
        jobs = list(jobs)
        if self.memo is not None and self.force:
            self.memo.invalidate(job.spec for job in jobs)
        records: list[RunRecord | None] = [None] * len(jobs)
        pending: list[int] = []
        done = 0
        for i, job in enumerate(jobs):
            cached = None
            if self.memo is not None and self.resume and not self.force:
                cached = self.memo.load(job.spec)
            if cached is not None:
                records[i] = cached
                done += 1
                self._emit(done, len(jobs), cached)
            else:
                pending.append(i)

        # Dedup identical specs so one execution serves every copy.
        first_of: dict[str, int] = {}
        to_run: list[int] = []
        for i in pending:
            key = jobs[i].spec.spec_hash()
            if key in first_of:
                continue
            first_of[key] = i
            to_run.append(i)

        if self.workers <= 1 or len(to_run) <= 1:
            fresh = {}
            for i in to_run:
                record = _execute_job(jobs[i])
                fresh[jobs[i].spec.spec_hash()] = record
                self._store(record)
                done += 1
                self._emit(done, len(jobs), record)
        else:
            fresh = self._run_pool(jobs, to_run, done, len(jobs))

        for i in pending:
            records[i] = fresh[jobs[i].spec.spec_hash()]
        assert all(r is not None for r in records)
        self.history.extend(records)  # type: ignore[arg-type]
        return records  # type: ignore[return-value]

    def _run_pool(
        self,
        jobs: Sequence[RunJob],
        to_run: list[int],
        done: int,
        total: int,
    ) -> dict[str, RunRecord]:
        fresh: dict[str, RunRecord] = {}
        workers = min(self.workers, len(to_run))
        try:
            with _pool(workers) as pool:
                futures = {
                    pool.submit(_execute_job, jobs[i]): i for i in to_run
                }
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED
                    )
                    for fut in finished:
                        record = fut.result()
                        i = futures[fut]
                        fresh[jobs[i].spec.spec_hash()] = record
                        self._store(record)
                        done += 1
                        self._emit(done, total, record)
        except Exception:
            log.warning(
                "process pool failed; finishing %d cell(s) serially",
                len(to_run) - len(fresh), exc_info=True,
            )
            for i in to_run:
                key = jobs[i].spec.spec_hash()
                if key in fresh:
                    continue
                record = _execute_job(jobs[i])
                fresh[key] = record
                self._store(record)
                done += 1
                self._emit(done, total, record)
        return fresh

    def map(
        self,
        fn: Callable,
        items: Sequence[object],
        workers: int | None = None,
    ) -> list[object]:
        """Generic order-preserving parallel map (no memoization).

        ``fn`` must be a picklable top-level callable.  Falls back to a
        serial loop for one worker, one item, or pool failure.
        """
        items = list(items)
        workers = min(
            self.workers if workers is None else runner_workers(workers),
            len(items),
        )
        with env.blas_thread_limit(1):
            if workers <= 1 or len(items) <= 1:
                return [fn(item) for item in items]
            try:
                with _pool(workers) as pool:
                    return list(pool.map(fn, items))
            except Exception:
                log.warning(
                    "process pool failed; mapping %d item(s) serially",
                    len(items), exc_info=True,
                )
                return [fn(item) for item in items]

    # ------------------------------------------------------------------

    def _store(self, record: RunRecord) -> None:
        if self.memo is not None:
            self.memo.save(record)

    def _emit(self, done: int, total: int, record: RunRecord) -> None:
        if self.progress is None:
            return
        t = record.telemetry
        tag = "memo" if t.memoized else f"{t.wall_time:.1f}s"
        outcome = record.outcome
        self.progress(
            f"[{done}/{total}] {record.spec.label}: "
            f"hv={outcome.hv_error:.3f} adrs={outcome.adrs:.3f} "
            f"runs={t.runs} ({tag})"
        )


def format_telemetry_table(records: Sequence[RunRecord]) -> str:
    """Per-run telemetry table (wall time, tool runs, calibration,
    trace events)."""
    header = (
        f"{'cell':<44} {'runs':>5} {'wall':>8} {'src':>5} "
        f"{'fits':>5} {'incr':>5} {'reopt':>5} {'events':>6}"
    )
    lines = [header]
    total_wall = 0.0
    total_runs = 0
    total_events = 0
    memo_hits = 0
    for record in records:
        t = record.telemetry
        total_wall += t.wall_time
        total_runs += t.runs
        total_events += t.n_events
        memo_hits += int(t.memoized)
        calib = t.calibration
        src = "memo" if t.memoized else str(t.worker_pid)
        lines.append(
            f"{record.spec.label:<44} {t.runs:>5} "
            f"{t.wall_time:>7.1f}s {src:>5} "
            f"{calib.get('n_full_fits', 0):>5} "
            f"{calib.get('n_incremental', 0):>5} "
            f"{calib.get('n_reopts', 0):>5} "
            f"{t.n_events if t.n_events else '-':>6}"
        )
    lines.append(
        f"{'total':<44} {total_runs:>5} {total_wall:>7.1f}s "
        f"({memo_hits} memoized, {total_events} trace events, "
        f"pid {os.getpid()} is the parent)"
    )
    return "\n".join(lines)
