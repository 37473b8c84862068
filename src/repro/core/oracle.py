"""Evaluation oracles: how tuners obtain golden QoR values.

All tuners in this repository are *pool-based*, like the paper's
experiments: candidates are the rows of an offline benchmark table, and
"running the PD tool" on candidate ``i`` reveals its golden QoR vector.
:class:`PoolOracle` serves precomputed tables (the offline benchmarks);
:class:`FlowOracle` invokes the live simulated tool, for use outside the
benchmark protocol (e.g. the examples); :class:`CallableOracle` calls a
plain function of the pool rows.

The stable contract all three satisfy — and the one :class:`PPATuner
<repro.core.tuner.PPATuner>` and every baseline are typed against — is
the :class:`Oracle` protocol.  Third-party oracles (a real EDA tool, an
RPC service) only need to implement it; no inheritance and no
``isinstance`` checks against concrete classes anywhere in the loop.
Because the contract is structural, oracles compose by decoration:
:class:`~repro.reliability.ResilientOracle` adds retry/timeout/breaker
behavior and :class:`~repro.reliability.FaultInjectingOracle` injects
seeded chaos, and both are again valid oracles.

Every oracle counts evaluations — the paper's cost metric ("Runs").
Re-evaluating an index is served from cache and not recounted.  The
built-in oracles share that cache, and everything built on it, through
one private base class: each also emits a
:class:`~repro.obs.events.ToolEvaluation` trace event per evaluated
index (latency, cache hit, observed vector) when given a
:class:`~repro.obs.recorder.TraceRecorder`; the default null recorder
makes the disabled path one truthiness check.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..obs.events import ToolEvaluation
from ..obs.recorder import NULL_RECORDER
from ..pdtool.flow import PDFlow
from ..pdtool.params import ToolParameters
from ..space.space import Configuration

__all__ = ["CallableOracle", "FlowOracle", "Oracle", "PoolOracle"]


@runtime_checkable
class Oracle(Protocol):
    """The evaluation contract of the tuning loop.

    Implementations map a fixed candidate pool (by index) to golden
    objective vectors, count distinct tool runs, and can be reset for a
    fresh tuning run.
    """

    @property
    def n_candidates(self) -> int:
        """Pool size."""
        ...

    @property
    def n_objectives(self) -> int:
        """Number of QoR metrics."""
        ...

    @property
    def n_evaluations(self) -> int:
        """Distinct tool runs so far (the paper's 'Runs')."""
        ...

    def evaluate(self, index: int) -> np.ndarray:
        """Golden QoR vector of pool candidate ``index``."""
        ...

    def evaluate_batch(self, indices: np.ndarray) -> np.ndarray:
        """Row-per-index golden QoR matrix, in ``indices`` order."""
        ...

    def reset(self) -> None:
        """Forget the evaluation count (fresh tuning run)."""
        ...


class _CachedOracle:
    """What the built-in oracles share: the run cache and its accounting.

    A subclass supplies ``n_candidates``, ``n_objectives``, ``_name``
    (the ``oracle`` field of its trace events) and ``_run(index)``: one
    tool run, returning the candidate's QoR row.  This class caches each
    row the first time it is run, which counts it in
    :attr:`n_evaluations`, serves repeats from the cache, and emits one
    ``ToolEvaluation`` per evaluated index.

    With ``workers > 1``, :meth:`evaluate_batch` runs a batch's distinct
    uncached indices at once through :meth:`_run_concurrently`: on a
    thread pool here, on a process pool in :class:`FlowOracle`.

    Attributes:
        recorder: Trace recorder fed one ``ToolEvaluation`` per
            evaluated index.
        workers: Parallel runs per batch; 1 keeps the serial path.
    """

    def __init__(self, recorder=None, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._cache: dict[int, np.ndarray] = {}
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.workers = int(workers)

    @property
    def n_evaluations(self) -> int:
        """Distinct tool runs so far (the paper's 'Runs')."""
        return len(self._cache)

    @property
    def supports_parallel_batch(self) -> bool:
        """Whether :meth:`evaluate_batch` runs batch members concurrently."""
        return self.workers > 1

    def _check(self, index: int) -> int:
        if not 0 <= index < self.n_candidates:
            raise IndexError(f"candidate {index} out of range")
        return int(index)

    def _emit(
        self, index: int, seconds: float, cached: bool, value: np.ndarray
    ) -> None:
        self.recorder.emit(ToolEvaluation(
            index=index,
            seconds=seconds,
            cached=cached,
            oracle=self._name,
            values=[float(v) for v in value],
        ))

    def evaluate(self, index: int) -> np.ndarray:
        """QoR vector of pool candidate ``index`` (cached).

        Raises:
            IndexError: If ``index`` is out of range.
        """
        index = self._check(index)
        start = time.perf_counter()
        cached = index in self._cache
        if not cached:
            self._cache[index] = self._run(index)
        value = self._cache[index].copy()
        if self.recorder:
            self._emit(index, time.perf_counter() - start, cached, value)
        return value

    def evaluate_batch(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`evaluate`; rows follow ``indices`` order.

        With ``workers > 1`` the distinct uncached indices of the batch
        run concurrently (duplicates run once and are served from the
        cache).  Trace events are emitted in ``indices`` order, with the
        cached flags the serial path produces; a concurrent run's event
        carries the seconds the run took where it ran.  If runs raise,
        the runs that succeeded are still cached and emitted, and the
        batch then raises the first error in ``indices`` order.
        """
        indices = [int(i) for i in indices]
        if not indices:
            return np.empty((0, self.n_objectives))
        if self.workers > 1:
            fresh = [
                self._check(i) for i in dict.fromkeys(indices)
                if i not in self._cache
            ]
            if len(fresh) > 1:
                seconds: dict[int, float] = {}
                errors = []
                for i, outcome in zip(fresh, self._run_concurrently(fresh)):
                    if isinstance(outcome, BaseException):
                        errors.append(outcome)
                    else:
                        self._cache[i], seconds[i] = outcome
                if self.recorder:
                    for i in indices:
                        hot = i in seconds
                        if hot or not errors:
                            self._emit(i, seconds.pop(i, 0.0), not hot,
                                       self._cache[i])
                if errors:
                    raise errors[0]
                return np.vstack([self._cache[i] for i in indices])
        return np.vstack([self.evaluate(i) for i in indices])

    def _run_concurrently(self, fresh: list[int]) -> list:
        """``(row, seconds)`` of each index in ``fresh``, run at once,
        or the exception its run raised."""
        with ThreadPoolExecutor(min(self.workers, len(fresh))) as pool:
            return _outcomes([
                pool.submit(_timed, self._run, i) for i in fresh
            ])

    def reset(self) -> None:
        """Forget every run and the evaluation count (fresh tuning run).

        Later evaluations run the tool again and are counted anew.
        """
        self._cache.clear()


def _outcomes(futures: list) -> list:
    """Each future's result, or the exception it raised."""
    return [future.exception() or future.result() for future in futures]


def _timed(run: Callable, *args) -> tuple[np.ndarray, float]:
    """``(run(*args), seconds)``, timed where it runs (module level so it
    pickles into a worker process)."""
    start = time.perf_counter()
    row = run(*args)
    return row, time.perf_counter() - start


class PoolOracle(_CachedOracle):
    """Oracle over a precomputed objective table.

    Attributes:
        Y: ``(n, m)`` golden objective matrix (minimization).
        recorder: Trace recorder fed one ``ToolEvaluation`` per call.
    """

    _name = "pool"

    def __init__(self, Y: np.ndarray, recorder=None) -> None:
        """Wrap the golden table ``Y``.

        Args:
            Y: ``(n, m)`` objective matrix.
            recorder: Optional :class:`~repro.obs.recorder.TraceRecorder`.
        """
        self.Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if self.Y.size == 0:
            raise ValueError("empty objective table")
        super().__init__(recorder)

    @property
    def n_candidates(self) -> int:
        """Pool size."""
        return self.Y.shape[0]

    @property
    def n_objectives(self) -> int:
        """Number of QoR metrics."""
        return self.Y.shape[1]

    def _run(self, index: int) -> np.ndarray:
        return self.Y[index]


def _flow_run(
    flow: PDFlow, names: tuple[str, ...], config: ToolParameters
) -> np.ndarray:
    """One flow run's QoR vector (module level so it pickles: a worker
    process gets the flow, the metric names and the configuration, never
    the oracle, whose recorder may hold an open trace file)."""
    return np.array(flow.run(config).objectives(names))


def _as_params(config: ToolParameters | Configuration) -> ToolParameters:
    return (
        config if isinstance(config, ToolParameters)
        else ToolParameters.from_dict(dict(config))
    )


class FlowOracle(_CachedOracle):
    """Oracle that invokes the simulated PD flow on demand.

    With ``workers > 1``, :meth:`evaluate_batch` fans the uncached
    configurations of a batch out over a process pool — the paper's
    parallel tool licenses.  The flow is deterministic per
    configuration, so pool results are bit-identical to serial runs;
    only wall-clock changes.

    Attributes:
        flow: The tool instance.
        configs: Pool of tool configurations, by index.
        objective_names: QoR metrics to extract from each report.
        recorder: Trace recorder fed one ``ToolEvaluation`` per call.
        workers: Parallel licenses for :meth:`evaluate_batch`.
    """

    _name = "flow"

    def __init__(
        self,
        flow: PDFlow,
        configs: list[ToolParameters] | list[Configuration],
        objective_names: tuple[str, ...] = ("power", "delay"),
        recorder=None,
        workers: int = 1,
        decoder: Callable[[np.ndarray], ToolParameters | Configuration]
        | None = None,
    ) -> None:
        """Create the oracle.

        Args:
            flow: Simulated PD tool.
            configs: Candidate configurations (``ToolParameters`` or
                plain dicts of tool-parameter fields).
            objective_names: Report fields to minimize.
            recorder: Optional :class:`~repro.obs.recorder.TraceRecorder`.
            workers: Process-pool width for batch evaluation; 1 keeps
                the serial path.
            decoder: Optional ``(pool row) -> configuration`` mapping
                enabling :meth:`extend` — required when the tuning
                session refines its candidate pool mid-run.
        """
        if not configs:
            raise ValueError("empty configuration pool")
        super().__init__(recorder, workers)
        self.flow = flow
        self.configs = [_as_params(c) for c in configs]
        self.objective_names = tuple(objective_names)
        self._decoder = decoder

    @property
    def n_candidates(self) -> int:
        """Pool size."""
        return len(self.configs)

    @property
    def n_objectives(self) -> int:
        """Number of QoR metrics."""
        return len(self.objective_names)

    def _run(self, index: int) -> np.ndarray:
        return _flow_run(self.flow, self.objective_names, self.configs[index])

    def _run_concurrently(self, fresh: list[int]) -> list:
        """``(row, seconds)`` of each index in ``fresh``, one process
        per license, or the exception its run raised."""
        task = partial(_timed, _flow_run, self.flow, self.objective_names)
        with ProcessPoolExecutor(min(self.workers, len(fresh))) as pool:
            runs = _outcomes([
                pool.submit(task, self.configs[i]) for i in fresh
            ])
        # Worker processes advance their own copies of the flow; mirror
        # the run count here so the paper's cost unit stays honest.
        self.flow._run_count += len(runs)
        return runs

    def extend(self, X_new: np.ndarray) -> None:
        """Append decoded pool rows as new candidate configurations.

        Args:
            X_new: ``(k, d)`` normalized feature rows (the tuning
                session's pool representation).

        Raises:
            RuntimeError: If the oracle was built without a ``decoder``.
        """
        if self._decoder is None:
            raise RuntimeError(
                "FlowOracle cannot extend its pool without a decoder; "
                "pass decoder= at construction or disable pool "
                "refinement (pool_refine_every=0)"
            )
        for row in np.atleast_2d(np.asarray(X_new, dtype=float)):
            self.configs.append(_as_params(self._decoder(row)))


class CallableOracle(_CachedOracle):
    """Oracle over a plain function of the pool's feature rows.

    Evaluating candidate ``i`` calls ``func(X[i])`` and expects the QoR
    vector back.  Batches run on a thread pool when ``workers > 1`` —
    the natural fit for functions that sleep (latency models in the
    batching benchmarks) or release the GIL.  The pool is extendable,
    so refined candidates need no decoder: new rows simply join ``X``.

    Attributes:
        func: ``(x,) -> (m,)`` objective function (minimization).
        X: ``(n, d)`` candidate feature matrix.
        recorder: Trace recorder fed one ``ToolEvaluation`` per call.
        workers: Thread-pool width for batch evaluation.
    """

    _name = "callable"

    def __init__(
        self,
        func: Callable[[np.ndarray], np.ndarray],
        X: np.ndarray,
        n_objectives: int,
        recorder=None,
        workers: int = 1,
    ) -> None:
        """Wrap ``func`` over the candidate rows of ``X``.

        Args:
            func: Objective function; must be thread-safe when
                ``workers > 1``.
            X: ``(n, d)`` candidate matrix.
            n_objectives: Length of the vectors ``func`` returns.
            recorder: Optional :class:`~repro.obs.recorder.TraceRecorder`.
            workers: Parallel evaluations per batch; 1 keeps the
                serial path.
        """
        self.X = np.atleast_2d(np.asarray(X, dtype=float)).copy()
        if self.X.size == 0:
            raise ValueError("empty candidate matrix")
        if n_objectives < 1:
            raise ValueError("n_objectives must be >= 1")
        super().__init__(recorder, workers)
        self.func = func
        self._n_objectives = int(n_objectives)

    @property
    def n_candidates(self) -> int:
        """Pool size."""
        return self.X.shape[0]

    @property
    def n_objectives(self) -> int:
        """Number of QoR metrics."""
        return self._n_objectives

    def _run(self, index: int) -> np.ndarray:
        row = np.asarray(self.func(self.X[index]), dtype=float).ravel()
        if row.shape != (self._n_objectives,):
            raise ValueError(
                f"func returned shape {row.shape}, expected "
                f"({self._n_objectives},)"
            )
        return row

    def extend(self, X_new: np.ndarray) -> None:
        """Append new candidate rows to the pool.

        Args:
            X_new: ``(k, d)`` feature rows matching ``X``'s width.
        """
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        if X_new.shape[1] != self.X.shape[1]:
            raise ValueError(
                f"row width {X_new.shape[1]} != pool width "
                f"{self.X.shape[1]}"
            )
        self.X = np.vstack([self.X, X_new])
