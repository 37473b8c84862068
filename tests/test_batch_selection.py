"""Batched q-point selection, fantasy collapse, and pool refinement.

Covers the PR's contracts:

- ``select_batch`` degenerates to the serial Eq. (13) rule at ``q=1``
  and spreads its picks under the fantasy-collapse diversity penalty;
- a ``q=1`` session with refinement off is bit-identical to the serial
  driver (same Pareto indices, selection sequence, and trace stream);
- out-of-order tells within a batch re-sequence deterministically, and
  a snapshot taken mid-batch (buffered tells outstanding) restores
  bit-identically — including after pool refinement has grown the pool;
- pool refinement grows the pool deterministically, extends the GP
  caches incrementally (append == rebuild), and replays on restore;
- oracle batch edge cases: duplicates, empty batches, and evaluation
  accounting when a batch partially fails under ``ResilientOracle``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import (
    CallableOracle,
    EvaluationFailure,
    PoolOracle,
    PPATunerConfig,
    TuningSession,
    drive,
    select_batch,
    select_next,
)
from repro.core.uncertainty import UncertaintyRegions
from repro.obs import MemorySink, TraceRecorder
from repro.obs.events import (
    BatchSelected,
    PoolRefined,
    SelectionMade,
    ToolEvaluation,
)
from repro.obs.replay import replay_trace
from repro.reliability import FaultPolicy, ResilientOracle
from repro.reliability.errors import (
    PermanentEvaluationError,
    TransientEvaluationError,
)


def random_pool(seed: int, n: int = 40, d: int = 3, m: int = 2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    Y = rng.uniform(0.5, 2.0, size=(n, m))
    return X, Y


def stripped_events(sink: MemorySink) -> list[dict]:
    out = []
    for ev in sink.events:
        d = ev.to_json()
        d.pop("seconds", None)
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# select_batch unit behavior


class TestSelectBatch:
    def _regions(self):
        # Three tight boxes sharing a centre plus one far-away box:
        # naive top-3 would take the three clustered ones.
        lo = np.array([
            [0.0, 0.0],    # diam 1.41, centre (.5, .5)
            [0.05, 0.05],  # diam 1.34, same neighbourhood
            [0.1, 0.1],    # diam 1.27, same neighbourhood
            [5.0, 5.0],    # diam 1.13, centre (5.4, 5.4) — far away
        ])
        hi = np.array([
            [1.0, 1.0],
            [1.0, 1.0],
            [1.0, 1.0],
            [5.8, 5.8],
        ])
        return UncertaintyRegions(lo=lo, hi=hi)

    def test_q1_matches_serial_rule(self):
        regions = self._regions()
        eligible = np.ones(4, dtype=bool)
        batch = select_batch(regions, eligible, q=1)
        serial = select_next(regions, eligible, batch_size=1)
        assert list(batch) == list(serial)

    def test_fantasy_collapse_spreads_the_batch(self):
        regions = self._regions()
        eligible = np.ones(4, dtype=bool)
        naive = select_next(regions, eligible, batch_size=2)
        batch = select_batch(regions, eligible, q=2)
        # Serial top-2 clusters on the shared centre; the penalized
        # batch takes the far candidate second.
        assert list(naive) == [0, 1]
        assert list(batch) == [0, 3]

    def test_unbounded_regions_keep_priority(self):
        regions = UncertaintyRegions.unbounded(3, 2)
        regions.intersect(
            np.array([1]), np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
        )
        chosen = select_batch(regions, np.ones(3, dtype=bool), q=2)
        # Both never-predicted candidates (inf diameter) come first.
        assert set(chosen) == {0, 2}

    def test_empty_and_exhausted(self):
        regions = self._regions()
        assert len(select_batch(regions, np.zeros(4, dtype=bool), q=2)) == 0
        chosen = select_batch(regions, np.ones(4, dtype=bool), q=10)
        assert sorted(chosen) == [0, 1, 2, 3]
        assert len(set(chosen)) == 4

    def test_emits_selection_and_batch_events(self):
        sink = MemorySink()
        rec = TraceRecorder(sinks=[sink])
        regions = self._regions()
        chosen = select_batch(
            regions, np.ones(4, dtype=bool), q=2, recorder=rec,
            iteration=7,
        )
        kinds = [type(e) for e in sink.events]
        assert kinds == [SelectionMade, BatchSelected]
        sel, bat = sink.events
        assert sel.selected == [int(i) for i in chosen]
        assert bat.selected == sel.selected
        assert bat.iteration == 7
        assert len(bat.scores) == len(chosen)
        # First score is the raw max diameter (no penalty applied yet).
        assert bat.scores[0] == pytest.approx(bat.diameters[0])

    def test_fallback_respects_quarantine_mask(self):
        """A permanently failed loop pick is quarantined; the session's
        fallback selects past it and never proposes it again."""
        X, Y = random_pool(3)
        session = TuningSession(
            PPATunerConfig(max_iterations=10, seed=0, q=2),
            X, Y.shape[1],
        )
        failed = None
        proposed_after = []
        n_evals = 0
        while not session.done:
            pending = session.ask()
            if not pending:
                break
            if failed is not None:
                proposed_after.extend(pending)
            for idx in pending:
                if failed is None and session.phase == "loop":
                    failed = idx
                    session.tell(idx, failure=EvaluationFailure("boom"))
                    continue
                n_evals += 1
                session.tell(idx, Y[idx], n_evaluations=n_evals)
        assert failed is not None
        assert failed not in proposed_after
        assert failed in session.result().quarantined_indices


# ---------------------------------------------------------------------------
# q=1 bit-identity (the PR's backward-compatibility guarantee)


@pytest.mark.fastpath
class TestSerialEquivalence:
    def _drive(self, config, seed=3):
        X, Y = random_pool(seed)
        sink = MemorySink()
        session = TuningSession(
            config, X, Y.shape[1],
            recorder=TraceRecorder(sinks=[sink]),
        )
        result = drive(session, PoolOracle(Y))
        return result, stripped_events(sink)

    def test_explicit_q1_identical_to_default_config(self):
        base = PPATunerConfig(max_iterations=12, seed=0)
        explicit = PPATunerConfig(
            max_iterations=12, seed=0, q=1, pool_refine_every=0,
        )
        r_base, ev_base = self._drive(base)
        r_explicit, ev_explicit = self._drive(explicit)
        np.testing.assert_array_equal(
            r_base.pareto_indices, r_explicit.pareto_indices
        )
        assert [h.selected for h in r_base.history] == [
            h.selected for h in r_explicit.history
        ]
        assert ev_base == ev_explicit

    def test_q1_trace_has_no_batch_events(self):
        cfg = PPATunerConfig(max_iterations=10, seed=1)
        _, events = self._drive(cfg)
        assert all(e["type"] != "batch_selected" for e in events)
        assert all(e["type"] != "pool_refined" for e in events)

    def test_batched_run_still_covers_serial_consumers(self):
        # q>1 traces keep one aggregate SelectionMade per round, so
        # replay/history tooling built on the serial stream still works.
        X, Y = random_pool(5)
        cfg = PPATunerConfig(max_iterations=8, seed=2, q=3)
        sink = MemorySink()
        session = TuningSession(
            cfg, X, Y.shape[1], recorder=TraceRecorder(sinks=[sink])
        )
        result = drive(session, PoolOracle(Y))
        replay = replay_trace(list(sink.events))
        np.testing.assert_array_equal(
            replay.pareto_indices, result.pareto_indices
        )
        assert replay.batch_selections  # q>1 emits the batched view
        for ev in replay.batch_selections:
            assert len(ev.selected) <= 3
            assert len(set(ev.selected)) == len(ev.selected)


# ---------------------------------------------------------------------------
# batched drive: same verified front, fewer synchronous rounds


class TestBatchedDrive:
    def test_batched_front_mutually_non_dominated(self):
        from repro.pareto import non_dominated_mask

        X, Y = random_pool(11, n=50)
        cfg = PPATunerConfig(max_iterations=15, seed=4, q=4)
        result = drive(
            TuningSession(cfg, X, Y.shape[1]), PoolOracle(Y)
        )
        assert len(result.pareto_indices) > 0
        assert non_dominated_mask(result.pareto_points).all()

    def test_batch_dispatch_counts_once_per_candidate(self):
        X, Y = random_pool(13, n=30)
        cfg = PPATunerConfig(max_iterations=10, seed=0, q=4)
        oracle = PoolOracle(Y)
        result = drive(TuningSession(cfg, X, Y.shape[1]), oracle)
        assert result.n_evaluations == oracle.n_evaluations

    def test_ask_returns_at_most_q_in_loop_phase(self):
        X, Y = random_pool(7)
        cfg = PPATunerConfig(max_iterations=10, seed=0, q=3)
        s = TuningSession(cfg, X, Y.shape[1])
        # Clear initialization first.
        pending = s.ask()
        while pending and s.phase == "init":
            for i in list(pending):
                s.tell(int(i), Y[int(i)])
            pending = s.ask()
        while not s.done and s.phase == "loop":
            assert len(pending) <= 3
            assert len(set(pending)) == len(pending)
            for i in list(pending):
                s.tell(int(i), Y[int(i)])
            pending = s.ask()


# ---------------------------------------------------------------------------
# out-of-order tells and mid-batch snapshots


def assert_snapshots_equal(a: dict, b: dict) -> None:
    """Full state equality, excluding wall-clock (elapsed feeds the
    fingerprint, so fingerprints differ across re-snapshots by design)."""
    volatile = {"elapsed", "fingerprint"}
    meta_a = {k: v for k, v in a["meta"].items() if k not in volatile}
    meta_b = {k: v for k, v in b["meta"].items() if k not in volatile}
    assert meta_a == meta_b
    assert set(a["arrays"]) == set(b["arrays"])
    for k in a["arrays"]:
        np.testing.assert_array_equal(a["arrays"][k], b["arrays"][k])


class TestMidBatchSnapshot:
    def _advance_to_loop_batch(self, s, Y):
        pending = s.ask()
        while pending and s.phase != "loop":
            for i in list(pending):
                s.tell(int(i), Y[int(i) % len(Y)])
            pending = s.ask()
        return pending

    def test_snapshot_with_buffered_tells_restores_bit_identically(self):
        X, Y = random_pool(17, n=36)
        cfg = PPATunerConfig(max_iterations=12, seed=1, q=4)
        s = TuningSession(cfg, X, Y.shape[1])
        pending = self._advance_to_loop_batch(s, Y)
        assert len(pending) > 1
        # Tell the *last* batch member first: it buffers out of order.
        tail = int(pending[-1])
        s.tell(tail, Y[tail])
        assert tail not in s.ask()

        snap = s.snapshot()
        restored = TuningSession.restore(snap)
        assert_snapshots_equal(restored.snapshot(), snap)

        # Both finish identically from the interrupted point.
        r_live = drive(s, PoolOracle(Y))
        r_rest = drive(restored, PoolOracle(Y))
        np.testing.assert_array_equal(
            r_live.pareto_indices, r_rest.pareto_indices
        )
        assert [h.selected for h in r_live.history] == [
            h.selected for h in r_rest.history
        ]

    def test_duplicate_buffered_tell_rejected(self):
        X, Y = random_pool(19, n=36)
        cfg = PPATunerConfig(max_iterations=12, seed=1, q=4)
        s = TuningSession(cfg, X, Y.shape[1])
        pending = self._advance_to_loop_batch(s, Y)
        assert len(pending) > 1
        tail = int(pending[-1])
        s.tell(tail, Y[tail])
        with pytest.raises(ValueError, match="duplicate"):
            s.tell(tail, Y[tail])


# ---------------------------------------------------------------------------
# pool refinement


def _quadratic_oracle(X_pool: np.ndarray, workers: int = 1):
    def f(x: np.ndarray) -> np.ndarray:
        return np.array([
            float(np.sum((x - 0.3) ** 2)),
            float(np.sum((x - 0.7) ** 2)),
        ])

    return CallableOracle(f, X_pool, 2, workers=workers)


class TestPoolRefinement:
    def _config(self, **kw):
        base = dict(
            max_iterations=14, seed=2, pool_refine_every=4,
            pool_refine_points=6, reopt_every=0, n_restarts=0,
        )
        base.update(kw)
        return PPATunerConfig(**base)

    def test_pool_grows_and_emits_events(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(30, 3))
        sink = MemorySink()
        s = TuningSession(
            self._config(), X, 2, recorder=TraceRecorder(sinks=[sink])
        )
        result = drive(s, _quadratic_oracle(X))
        refined = [e for e in sink.events if isinstance(e, PoolRefined)]
        assert refined
        assert s.n == 30 + sum(e.n_new for e in refined)
        assert s.n > 30
        for ev in refined:
            assert 0 < ev.n_new <= 6
            assert ev.zoom == pytest.approx(s.config.pool_zoom)
        # Refined rows stay inside the original normalization box, so
        # restore-time normalization is invariant under growth.
        lo, hi = X.min(axis=0), X.max(axis=0)
        assert (s.X_pool >= lo - 1e-12).all()
        assert (s.X_pool <= hi + 1e-12).all()
        assert len(result.pareto_indices) > 0

    def test_refinement_is_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(30, 3))
        runs = []
        for _ in range(2):
            s = TuningSession(self._config(), X, 2)
            r = drive(s, _quadratic_oracle(X))
            runs.append((s.X_pool.copy(), list(r.pareto_indices)))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_snapshot_after_growth_restores_bit_identically(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(30, 3))
        s = TuningSession(self._config(), X, 2)
        oracle = _quadratic_oracle(X)
        # Step manually until the pool has grown at least once.
        pending = s.ask()
        while pending and s.n == 30:
            if s.n > oracle.n_candidates:
                oracle.extend(s.X_pool[oracle.n_candidates:])
            for i in list(pending):
                s.tell(
                    int(i), oracle.evaluate(int(i)),
                    n_evaluations=oracle.n_evaluations,
                )
            pending = s.ask()
        assert s.n > 30, "refinement never fired"

        snap = s.snapshot()
        restored = TuningSession.restore(snap)
        assert restored.n == s.n
        assert_snapshots_equal(restored.snapshot(), snap)

        oracle2 = _quadratic_oracle(X)
        r_live = drive(s, oracle)
        r_rest = drive(restored, oracle2)
        np.testing.assert_array_equal(
            r_live.pareto_indices, r_rest.pareto_indices
        )
        assert [h.selected for h in r_live.history] == [
            h.selected for h in r_rest.history
        ]

    def test_drive_raises_for_non_extendable_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(24, 3))
        Y = np.column_stack([
            np.sum((X - 0.3) ** 2, axis=1),
            np.sum((X - 0.7) ** 2, axis=1),
        ])
        s = TuningSession(self._config(), X, 2)
        with pytest.raises(RuntimeError, match="extend"):
            drive(s, PoolOracle(Y))


# ---------------------------------------------------------------------------
# incremental GP pool-append equivalence


@pytest.mark.fastpath
class TestExtendPoolEquivalence:
    def test_append_matches_full_registration(self):
        from repro.gp import MultiSourceTransferGP, RBFKernel

        rng = np.random.default_rng(9)
        Xs = rng.uniform(size=(20, 3))
        ys = rng.normal(size=20)
        Xt = rng.uniform(size=(8, 3))
        yt = rng.normal(size=8)
        pool = rng.uniform(size=(25, 3))
        X_new = rng.uniform(size=(7, 3))
        grown = np.vstack([pool, X_new])

        def fitted():
            return MultiSourceTransferGP(
                kernel=RBFKernel(np.full(3, 0.4)), optimize=False
            ).fit([(Xs, ys)], Xt, yt)

        # Arm A: register the prefix, warm the cache, append.
        a = fitted()
        a.register_pool(pool)
        a.predict_pool(np.arange(len(pool)))
        a.extend_pool(X_new)
        ma, va = a.predict_pool(np.arange(len(grown)))

        # Arm B: register the full grown pool up front.
        b = fitted()
        b.register_pool(grown)
        mb, vb = b.predict_pool(np.arange(len(grown)))

        np.testing.assert_allclose(ma, mb, atol=1e-10)
        np.testing.assert_allclose(va, vb, atol=1e-10)
        # The appended rows' cache also matches a direct predict.
        md, vd = a.predict(X_new)
        np.testing.assert_allclose(ma[len(pool):], md, atol=1e-10)
        np.testing.assert_allclose(va[len(pool):], vd, atol=1e-10)


# ---------------------------------------------------------------------------
# oracle batch edge cases


class TestOracleBatchEdges:
    def test_empty_batch_returns_zero_rows(self):
        _, Y = random_pool(0)
        oracle = PoolOracle(Y)
        out = oracle.evaluate_batch([])
        assert out.shape == (0, Y.shape[1])
        assert oracle.n_evaluations == 0

    def test_callable_batch_duplicates_evaluated_once(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(10, 3))
        calls = []

        def f(x):
            calls.append(tuple(np.round(x, 12)))
            return np.array([float(x.sum()), float(x.prod())])

        oracle = CallableOracle(f, X, 2, workers=3)
        out = oracle.evaluate_batch([2, 5, 2, 7])
        assert out.shape == (4, 2)
        np.testing.assert_array_equal(out[0], out[2])
        assert oracle.n_evaluations == 3
        assert len(calls) == 3  # the duplicate never hit the function

    def test_callable_batch_matches_serial(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(12, 3))

        def f(x):
            return np.array([float(x.sum()), float((x ** 2).sum())])

        par = CallableOracle(f, X, 2, workers=4)
        ser = CallableOracle(f, X, 2, workers=1)
        idx = [3, 1, 4, 1, 5]
        np.testing.assert_array_equal(
            par.evaluate_batch(idx), ser.evaluate_batch(idx)
        )
        assert par.n_evaluations == ser.n_evaluations

    def test_concurrent_runs_report_their_own_seconds(self):
        X = np.random.default_rng(8).uniform(size=(6, 2))

        def slow(x):
            time.sleep(0.02)
            return np.array([float(x.sum()), float(x[0])])

        sink = MemorySink()
        oracle = CallableOracle(
            slow, X, 2, recorder=TraceRecorder(sinks=[sink]), workers=3
        )
        oracle.evaluate_batch([0, 1, 2, 1])
        assert [e.cached for e in sink.events] == [False, False, False, True]
        for event in sink.events[:3]:
            assert event.seconds >= 0.02
        assert sink.events[3].seconds == 0.0

    def test_resilient_partial_failure_accounting(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(8, 2))
        attempts: dict[int, int] = {}

        def flaky(x):
            key = int(np.argmin(np.abs(X[:, 0] - x[0])))
            attempts[key] = attempts.get(key, 0) + 1
            # Fails the batch prefetch AND the first serial attempt, so
            # the fallback path must retry it to succeed.
            if key == 2 and attempts[key] <= 2:
                raise TransientEvaluationError("injected")
            return np.array([float(x.sum()), float(x[0])])

        inner = CallableOracle(flaky, X, 2, workers=3)
        oracle = ResilientOracle(
            inner, FaultPolicy(max_retries=2, backoff_base=0.0),
            sleep=lambda s: None,
        )
        out = oracle.evaluate_batch([1, 2, 3])
        assert out.shape == (3, 2)
        # The batch prefetch failed on candidate 2's first attempt; the
        # serial fallback retried it and re-served 1 and 3 from cache.
        assert oracle.n_retries >= 1
        assert inner.n_evaluations == 3  # each candidate counted once
        assert np.isfinite(out).all()

    def test_failed_batch_keeps_its_finished_runs(self):
        """A concurrent batch whose one run fails for good still caches,
        counts and emits the run that finished beside it, so the loop
        never pays for that candidate twice."""
        X = np.arange(40, dtype=float)[:, None]
        calls: dict[int, int] = {}

        def f(x):
            i = int(x[0])
            calls[i] = calls.get(i, 0) + 1
            time.sleep(0.02)
            if i == 8:
                raise TransientEvaluationError("injected")
            return np.array([x[0], -x[0]])

        sink = MemorySink()
        inner = CallableOracle(
            f, X, 2, recorder=TraceRecorder(sinks=[sink]), workers=2
        )
        oracle = ResilientOracle(
            inner, FaultPolicy(max_retries=2, backoff_base=0.0)
        )
        with pytest.raises(PermanentEvaluationError):
            oracle.evaluate_batch([8, 24])
        # The concurrent prefetch ran both; the serial fallback retried
        # only candidate 8, three times.
        assert calls == {8: 4, 24: 1}
        assert oracle.n_evaluations == 1
        np.testing.assert_array_equal(oracle.evaluate(24), [24.0, -24.0])
        assert calls[24] == 1
        runs = [e for e in sink.events if isinstance(e, ToolEvaluation)]
        assert [(e.index, e.cached) for e in runs] == [
            (24, False), (24, True),
        ]
        assert runs[0].seconds >= 0.02

    def test_failing_batches_pay_each_good_candidate_once(self):
        bad = self._drive_failing(2, 2)[0].history[0].selected[0]
        _, calls, oracle = self._drive_failing(2, 2, bad)
        good = sum(n for i, n in calls.items() if i != bad)
        assert good == oracle.n_evaluations

    @staticmethod
    def _drive_failing(q: int, workers: int, bad: int | None = None):
        """Drive a retrying session over a function that always fails at
        candidate ``bad``; returns the result, the function's calls per
        candidate and the resilient oracle."""
        X, Y = random_pool(0)
        rows = {x.tobytes(): i for i, x in enumerate(X)}
        calls: dict[int, int] = {}

        def f(x):
            i = rows[x.tobytes()]
            calls[i] = calls.get(i, 0) + 1
            if i == bad:
                raise TransientEvaluationError("injected")
            return Y[i]

        policy = FaultPolicy(max_retries=2, backoff_base=0.0)
        oracle = ResilientOracle(
            CallableOracle(f, X, 2, workers=workers), policy
        )
        cfg = PPATunerConfig(
            max_iterations=8, seed=3, q=q, fault_policy=policy
        )
        result = drive(TuningSession(cfg, X, 2), oracle, policy)
        return result, calls, oracle

    def test_batch_failure_spends_its_retries_once(self):
        """A candidate that fails for good inside a q=2 batch is tried as
        often as at q=1, plus the concurrent prefetch when the oracle has
        workers, and counts as one failure."""
        tries = {}
        for q, workers in ((1, 1), (2, 1), (2, 2)):
            clean, _, _ = self._drive_failing(q, workers)
            first_batch = clean.history[0].selected
            assert len(first_batch) == q
            bad = first_batch[0]
            result, calls, oracle = self._drive_failing(q, workers, bad)
            assert list(result.quarantined_indices) == [bad]
            assert oracle.n_failures == 1
            assert oracle.n_retries == 2
            tries[q, workers] = calls[bad]
        assert tries[1, 1] == 3
        assert tries[2, 1] == tries[1, 1]
        assert tries[2, 2] == tries[1, 1] + 1

    def test_resilient_empty_batch(self):
        _, Y = random_pool(1)
        oracle = ResilientOracle(PoolOracle(Y))
        assert oracle.evaluate_batch([]).shape == (0, Y.shape[1])

    def test_resilient_extend_delegates_or_raises(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(6, 2))
        inner = CallableOracle(
            lambda x: np.array([1.0, 2.0]), X, 2
        )
        oracle = ResilientOracle(inner)
        oracle.extend(rng.uniform(size=(3, 2)))
        assert inner.n_candidates == 9

        _, Y = random_pool(2)
        plain = ResilientOracle(PoolOracle(Y))
        with pytest.raises(RuntimeError, match="pool extension"):
            plain.extend(np.zeros((1, 3)))
