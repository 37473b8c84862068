"""Deterministic fault injection for chaos-testing the tuning stack.

:class:`FaultInjectingOracle` wraps a real oracle and injects failures
according to a :class:`FaultPlan` — a seeded, immutable schedule mapping
candidate indices to fault sequences.  Because the plan is derived from
a seed (never wall-clock or global RNG state), a chaos run is exactly
reproducible: the same seed yields the same faults at the same indices,
which is what lets CI assert that a fault-injected tuning run recovers
to *bit-identical* Pareto indices versus the fault-free run.

Fault kinds:

- ``"transient"`` — raise :class:`TransientEvaluationError` once, then
  succeed (a dropped license / flaky report).
- ``"persistent"`` — raise on *every* attempt, exhausting the retry
  budget into a :class:`~repro.reliability.errors.PermanentEvaluationError`.
- ``"nan"`` — return an all-NaN QoR vector once (failed run wearing a
  return value; :class:`~repro.reliability.ResilientOracle` retries it).
- ``"partial"`` — return the true QoR with one metric NaN'd out (a
  partially parsed report; the loop imputes it).
- ``"latency"`` — sleep ``latency_s`` then delegate (a slow job; trips
  the timeout when one is configured, otherwise just adds wall time).
- ``"crash"`` — ``os._exit(13)``: kill the worker process outright
  (pool-worker chaos; only ever use inside a sacrificial subprocess).

``TRANSIENT_KINDS`` holds the value-preserving kinds — the ones a
:class:`~repro.reliability.ResilientOracle` fully absorbs, so injected
runs still produce bit-identical results.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import TransientEvaluationError

__all__ = [
    "FAULT_KINDS",
    "TRANSIENT_KINDS",
    "FaultInjectingOracle",
    "FaultPlan",
]

#: Every fault kind the injector understands.
FAULT_KINDS: tuple[str, ...] = (
    "transient",
    "persistent",
    "nan",
    "partial",
    "latency",
    "crash",
)

#: Value-preserving kinds a ResilientOracle absorbs without changing
#: any observed QoR — safe for bit-identity chaos checks.
TRANSIENT_KINDS: tuple[str, ...] = ("transient", "latency")


@dataclass(frozen=True)
class FaultPlan:
    """Immutable schedule: which candidates fail, how, in what order.

    Attributes:
        faults: ``((index, (kind, ...)), ...)`` — for each listed
            candidate, the fault kinds consumed left-to-right across its
            successive evaluation attempts.
    """

    faults: tuple[tuple[int, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        for index, kinds in self.faults:
            for kind in kinds:
                if kind not in FAULT_KINDS:
                    raise ValueError(
                        f"unknown fault kind {kind!r} for index {index}"
                    )

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_candidates: int,
        rate: float = 0.1,
        kinds: tuple[str, ...] = ("transient",),
    ) -> "FaultPlan":
        """Sample a reproducible plan from ``seed``.

        Each candidate independently faults with probability ``rate``;
        a faulting candidate is assigned one kind drawn uniformly from
        ``kinds``.

        Args:
            seed: Plan seed (same seed -> same plan, always).
            n_candidates: Pool size to sample over.
            rate: Per-candidate fault probability.
            kinds: Fault kinds to draw from.
        """
        rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
        faults = []
        for index in range(int(n_candidates)):
            if rng.random() < rate:
                kind = kinds[int(rng.integers(len(kinds)))]
                faults.append((index, (kind,)))
        return cls(faults=tuple(faults))

    def for_index(self, index: int) -> tuple[str, ...]:
        """Fault kinds scheduled for ``index`` (empty if none)."""
        for idx, kinds in self.faults:
            if idx == index:
                return kinds
        return ()


class FaultInjectingOracle:
    """Oracle decorator that injects the faults scheduled in a plan.

    Satisfies the Oracle protocol; stack it *inside* a
    :class:`~repro.reliability.ResilientOracle` so the resilience layer
    is what gets exercised.

    Attributes:
        inner: The wrapped oracle.
        plan: The governing :class:`FaultPlan`.
        latency_s: Sleep injected by ``"latency"`` faults.
        injected: Per-kind count of faults actually fired so far.
    """

    def __init__(
        self,
        oracle,
        plan: FaultPlan,
        latency_s: float = 0.05,
    ) -> None:
        self.inner = oracle
        self.plan = plan
        self.latency_s = float(latency_s)
        self.injected: dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self._queues: dict[int, list[str]] = {}
        self._arm()

    def _arm(self) -> None:
        self._queues = {
            idx: list(kinds) for idx, kinds in self.plan.faults
        }

    # ------------------------------------------------------------------
    # Oracle protocol

    @property
    def n_candidates(self) -> int:
        """Pool size of the wrapped oracle."""
        return self.inner.n_candidates

    @property
    def n_objectives(self) -> int:
        """QoR metric count of the wrapped oracle."""
        return self.inner.n_objectives

    @property
    def n_evaluations(self) -> int:
        """Distinct tool runs of the wrapped oracle."""
        return self.inner.n_evaluations

    @property
    def recorder(self):
        """The wrapped oracle's recorder (proxied verbatim)."""
        return getattr(self.inner, "recorder", None)

    @recorder.setter
    def recorder(self, rec) -> None:
        if hasattr(self.inner, "recorder"):
            self.inner.recorder = rec

    def reset(self) -> None:
        """Reset the wrapped oracle and re-arm the full fault plan."""
        self.inner.reset()
        self.injected = {k: 0 for k in FAULT_KINDS}
        self._arm()

    def evaluate(self, index: int) -> np.ndarray:
        """Evaluate ``index``, firing any scheduled fault first."""
        index = int(index)
        queue = self._queues.get(index)
        if not queue:
            return np.asarray(self.inner.evaluate(index), dtype=float)
        kind = queue[0]
        if kind == "persistent":
            # Never consumed: fails every attempt until the caller's
            # retry budget runs out.
            self.injected[kind] += 1
            raise TransientEvaluationError(
                f"injected persistent fault at candidate {index}"
            )
        queue.pop(0)
        self.injected[kind] += 1
        if kind == "transient":
            raise TransientEvaluationError(
                f"injected transient fault at candidate {index}"
            )
        if kind == "crash":
            os._exit(13)
        if kind == "latency":
            time.sleep(self.latency_s)
            return np.asarray(self.inner.evaluate(index), dtype=float)
        value = np.asarray(self.inner.evaluate(index), dtype=float)
        if kind == "nan":
            return np.full_like(value, np.nan)
        # kind == "partial": NaN out one metric, keep the rest.
        value = value.copy()
        value[index % max(1, value.size)] = np.nan
        return value

    def evaluate_batch(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`evaluate`; rows follow ``indices`` order."""
        rows = [self.evaluate(int(i)) for i in indices]
        if not rows:
            return np.empty((0, self.n_objectives))
        return np.vstack(rows)
