"""Tests for the ask/tell core: state machine, snapshots, invariants.

Covers the two behavioral guarantees this layer introduced:

- the verified front is *mutually non-dominated* (the dominance bugfix:
  golden verification can reveal that a kept point dominates another,
  and the dominated one must not be reported), clean and under faults;
- ``TuningSession`` + :func:`drive` is bit-identical to
  :meth:`PPATuner.tune` — same Pareto indices, same trace events —
  and a snapshot taken at *any* tell boundary resumes to the same
  final result.
"""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.core import (
    EvaluationFailure,
    PoolOracle,
    PPATuner,
    PPATunerConfig,
    TuningSession,
    drive,
)
from repro.core.result import IterationRecord, TuningResult
from repro.core.session import (
    _ROW_STATE,
    SNAPSHOT_VERSION,
    _fingerprint,
)
from repro.obs import MemorySink, TraceRecorder
from repro.pareto import dominates, non_dominated_mask
from repro.reliability import (
    FaultInjectingOracle,
    FaultPlan,
    FaultPolicy,
    ResilientOracle,
)
from repro.reliability.errors import PermanentEvaluationError


def random_pool(seed: int, n: int = 40, d: int = 3, m: int = 2):
    """A small random pool with correlated objectives."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    Y = rng.uniform(0.5, 2.0, size=(n, m))
    return X, Y


def stripped_events(sink: MemorySink) -> list[dict]:
    """Event stream as JSON dicts with wall-clock fields removed."""
    out = []
    for ev in sink.events:
        d = ev.to_json()
        d.pop("seconds", None)
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# dominance invariant (the bugfix)


class TestFrontNonDominance:
    def test_seed2_regression(self):
        """The original repro: seed-2 run on a 40x2 random pool leaked a
        dominated point into the verified front."""
        X, Y = random_pool(2)
        cfg = PPATunerConfig(max_iterations=15, seed=2)
        result = PPATuner(cfg).tune(X, PoolOracle(Y))
        assert non_dominated_mask(result.pareto_points).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_front_mutually_non_dominated(self, seed):
        X, Y = random_pool(seed)
        cfg = PPATunerConfig(max_iterations=15, seed=seed)
        result = PPATuner(cfg).tune(X, PoolOracle(Y))
        assert non_dominated_mask(result.pareto_points).all()
        # Reported points must really come from the pool.
        assert np.allclose(Y[result.pareto_indices], result.pareto_points)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_front_non_dominated_under_faults(self, seed):
        X, Y = random_pool(seed, n=50)
        plan = FaultPlan.seeded(
            seed, len(X), rate=0.25,
            kinds=("transient", "partial", "persistent"),
        )
        oracle = FaultInjectingOracle(PoolOracle(Y), plan, latency_s=0.0)
        cfg = PPATunerConfig(
            max_iterations=15, seed=seed,
            fault_policy=FaultPolicy(max_retries=2),
        )
        result = PPATuner(cfg).tune(X, oracle)
        assert non_dominated_mask(result.pareto_points).all()

    def test_unreported_sampled_points_are_dominated(self):
        """A sampled point missing from the front must be dominated by a
        reported one (the corrected contract)."""
        X, Y = random_pool(2)
        cfg = PPATunerConfig(max_iterations=15, seed=2)
        result = PPATuner(cfg).tune(X, PoolOracle(Y))
        reported = {tuple(p) for p in result.pareto_points}
        sampled = Y[result.evaluated_indices]
        for p in sampled[non_dominated_mask(sampled)]:
            assert tuple(p) in reported or any(
                dominates(q, p) for q in result.pareto_points
            )


# ---------------------------------------------------------------------------
# ask/tell equivalence with the closed-loop tuner


class TestAskTellEquivalence:
    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_drive_matches_tune(self, seed):
        X, Y = random_pool(seed)
        cfg = PPATunerConfig(max_iterations=15, seed=seed)

        sink_a = MemorySink()
        oracle = PoolOracle(Y)
        ref = PPATuner(
            cfg, recorder=TraceRecorder(sinks=[sink_a])
        ).tune(X, oracle)

        # tune() lends its recorder to the oracle for ToolEvaluation
        # events; the ask/tell caller wires both sides explicitly.
        sink_b = MemorySink()
        rec_b = TraceRecorder(sinks=[sink_b])
        session = TuningSession(cfg, X, Y.shape[1], recorder=rec_b)
        got = drive(session, PoolOracle(Y, recorder=rec_b))

        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.allclose(ref.pareto_points, got.pareto_points)
        assert np.array_equal(
            ref.evaluated_indices, got.evaluated_indices
        )
        assert ref.n_evaluations == got.n_evaluations
        assert ref.stop_reason == got.stop_reason
        assert ref.history == got.history
        assert stripped_events(sink_a) == stripped_events(sink_b)

    def test_manual_ask_tell_loop(self):
        """Hand-rolled ask/evaluate/tell loop, no drive() helper."""
        X, Y = random_pool(4)
        cfg = PPATunerConfig(max_iterations=15, seed=4)
        ref = PPATuner(cfg).tune(X, PoolOracle(Y))

        session = TuningSession(cfg, X, Y.shape[1])
        oracle = PoolOracle(Y)
        while not session.done:
            pending = session.ask()
            if not pending:
                break
            for idx in pending:
                session.tell(
                    idx,
                    oracle.evaluate(idx),
                    n_evaluations=oracle.n_evaluations,
                )
        got = session.result()
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert ref.n_evaluations == got.n_evaluations
        assert ref.stop_reason == got.stop_reason

    def test_ask_is_idempotent_while_pending(self):
        X, Y = random_pool(1)
        session = TuningSession(
            PPATunerConfig(max_iterations=15, seed=1), X, Y.shape[1]
        )
        first = session.ask()
        assert first
        assert session.ask() == first

    def test_faulted_drive_matches_tune(self):
        X, Y = random_pool(9, n=50)
        plan = FaultPlan.seeded(
            9, len(X), rate=0.3,
            kinds=("transient", "partial", "persistent"),
        )
        policy = FaultPolicy(max_retries=2)
        cfg = PPATunerConfig(
            max_iterations=12, seed=9, fault_policy=policy
        )

        ref = PPATuner(cfg).tune(
            X,
            FaultInjectingOracle(PoolOracle(Y), plan, latency_s=0.0),
        )

        session = TuningSession(cfg, X, Y.shape[1])
        resilient = ResilientOracle(
            FaultInjectingOracle(PoolOracle(Y), plan, latency_s=0.0),
            policy,
        )
        got = drive(session, resilient, policy)

        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.array_equal(
            ref.quarantined_indices, got.quarantined_indices
        )
        assert ref.n_failed_evaluations == got.n_failed_evaluations
        assert ref.stop_reason == got.stop_reason

    def test_drive_raises_without_policy(self):
        X, Y = random_pool(9, n=50)
        # Every index fails permanently, so the first evaluation raises.
        plan = FaultPlan(
            faults=tuple(
                (i, ("persistent",) * 4) for i in range(len(X))
            )
        )
        session = TuningSession(
            PPATunerConfig(max_iterations=5, seed=0), X, Y.shape[1]
        )
        resilient = ResilientOracle(
            FaultInjectingOracle(PoolOracle(Y), plan, latency_s=0.0),
            FaultPolicy(max_retries=1),
        )
        with pytest.raises(PermanentEvaluationError):
            drive(session, resilient, policy=None)


# ---------------------------------------------------------------------------
# tell() contract


class TestTellContract:
    def _session(self):
        X, Y = random_pool(0)
        s = TuningSession(
            PPATunerConfig(max_iterations=15, seed=0), X, Y.shape[1]
        )
        return s, Y

    def test_rejects_non_pending_index(self):
        s, Y = self._session()
        pending = s.ask()
        assert len(pending) >= 1
        wrong = max(pending) + 1
        with pytest.raises(ValueError, match="expected"):
            s.tell(wrong, Y[wrong % len(Y)])

    def test_out_of_order_tell_buffers_and_resequences(self):
        s, Y = self._session()
        pending = s.ask()
        if len(pending) < 2:
            pytest.skip("init batch has a single pending candidate")
        tail = pending[-1]
        s.tell(tail, Y[tail])  # buffered, not yet applied
        # The told candidate is no longer offered...
        assert tail not in s.ask()
        # ...and a second tell for it is rejected.
        with pytest.raises(ValueError, match="duplicate"):
            s.tell(tail, Y[tail])
        # Outcomes flush in ask order once the head arrives.
        for idx in pending[:-1]:
            s.tell(idx, Y[idx])
        assert tail not in s.ask()
        assert list(s._eval_order[-len(pending):]) == list(pending)

    def test_rejects_values_and_failure_together(self):
        s, Y = self._session()
        idx = s.ask()[0]
        with pytest.raises(ValueError):
            s.tell(idx, Y[idx], failure=EvaluationFailure("boom"))

    def test_rejects_neither_values_nor_failure(self):
        s, _ = self._session()
        idx = s.ask()[0]
        with pytest.raises(ValueError):
            s.tell(idx)

    def test_rejects_bad_shape(self):
        s, Y = self._session()
        idx = s.ask()[0]
        with pytest.raises(ValueError):
            s.tell(idx, np.zeros(Y.shape[1] + 1))

    def test_tell_after_done_raises(self):
        s, Y = self._session()
        drive(s, PoolOracle(Y))
        assert s.done
        with pytest.raises(RuntimeError):
            s.tell(0, np.zeros(2))

    def test_stop_jumps_to_verification(self):
        """stop() discards pending asks and queues golden verification;
        the stop reason survives through to the result."""
        s, Y = self._session()
        idx = s.ask()[0]
        s.tell(idx, Y[idx], n_evaluations=1)
        s.stop("operator")
        assert s.phase in ("verify", "done")
        while not s.done:
            pending = s.ask()
            if not pending:
                break
            for i in pending:
                s.tell(i, Y[i])
        result = s.result()
        assert result.stop_reason == "operator"
        assert s.ask() == []

    def test_result_before_done_raises(self):
        s, _ = self._session()
        s.ask()
        with pytest.raises(RuntimeError):
            s.result()


# ---------------------------------------------------------------------------
# snapshot / resume


class TestSnapshotResume:
    def _roundtrip(self, snapshot: dict) -> dict:
        """Push the snapshot through a real npz buffer, like the store."""
        buf = io.BytesIO()
        np.savez(
            buf,
            __meta__=np.frombuffer(
                json.dumps(snapshot["meta"]).encode(), dtype=np.uint8
            ),
            **snapshot["arrays"],
        )
        buf.seek(0)
        with np.load(buf) as data:
            return {
                "meta": json.loads(bytes(data["__meta__"]).decode()),
                "arrays": {
                    k: data[k] for k in data.files if k != "__meta__"
                },
            }

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("cut", [1, 9, 23])
    def test_resume_bit_identical(self, seed, cut):
        X, Y = random_pool(seed)
        cfg = PPATunerConfig(max_iterations=15, seed=seed)
        ref = PPATuner(cfg).tune(X, PoolOracle(Y))

        # Interrupt after `cut` tells, snapshot, discard the session.
        session = TuningSession(cfg, X, Y.shape[1])
        oracle = PoolOracle(Y)
        told = 0
        interrupted = False
        while not session.done and not interrupted:
            pending = session.ask()
            if not pending:
                break
            for idx in pending:
                session.tell(
                    idx,
                    oracle.evaluate(idx),
                    n_evaluations=oracle.n_evaluations,
                )
                told += 1
                if told >= cut:
                    interrupted = True
                    break
        snap = self._roundtrip(session.snapshot())
        del session

        resumed = TuningSession.restore(snap)
        got = drive(resumed, oracle)
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.allclose(ref.pareto_points, got.pareto_points)
        assert np.array_equal(
            ref.evaluated_indices, got.evaluated_indices
        )
        assert ref.n_evaluations == got.n_evaluations
        assert ref.stop_reason == got.stop_reason
        assert ref.history == got.history

    @pytest.mark.fastpath
    @pytest.mark.parametrize("cut", [3, 11])
    def test_resume_bit_identical_under_fast_paths(self, cut, monkeypatch):
        """Mid-run resume with the hot paths engaged: pool caches built
        and updated in 16-row blocks, incremental border updates only
        (``reopt_every=0``) and vectorized decisions.  The replayed
        session must continue bit-identically."""
        import repro.gp.multisource as multisource

        monkeypatch.setattr(multisource, "POOL_BLOCK", 16)
        X, Y = random_pool(7)
        cfg = PPATunerConfig(max_iterations=15, seed=7, reopt_every=0)
        ref = PPATuner(cfg).tune(X, PoolOracle(Y))

        session = TuningSession(cfg, X, Y.shape[1])
        oracle = PoolOracle(Y)
        told = 0
        interrupted = False
        while not session.done and not interrupted:
            pending = session.ask()
            if not pending:
                break
            for idx in pending:
                session.tell(
                    idx,
                    oracle.evaluate(idx),
                    n_evaluations=oracle.n_evaluations,
                )
                told += 1
                if told >= cut:
                    interrupted = True
                    break
        snap = self._roundtrip(session.snapshot())
        del session

        resumed = TuningSession.restore(snap)
        # The restored engine replays calibration with the incremental
        # path re-engaged, not just configured.
        got = drive(resumed, oracle)
        assert resumed.engine.stats.n_incremental > 0
        assert resumed.engine.stats.n_full_fits == Y.shape[1]
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.allclose(ref.pareto_points, got.pareto_points)
        assert np.array_equal(
            ref.evaluated_indices, got.evaluated_indices
        )
        assert ref.n_evaluations == got.n_evaluations
        assert ref.history == got.history

    @pytest.mark.parametrize("via", ["memory", "npz"])
    def test_resume_after_drops_and_reoptimisation(self, via):
        """Cut once decision passes have dropped rows and after a
        re-optimisation (``reopt_every=3``) with border updates since.
        Replay keeps pool caches for ``~dropped_now & ~sampled_then``,
        fewer rows than the live run extended; the resumed session must
        still continue bit-identically."""
        X, Y = random_pool(0, n=80)
        cfg = PPATunerConfig(max_iterations=15, seed=0, reopt_every=3)
        ref = PPATuner(cfg).tune(X, PoolOracle(Y))

        session = TuningSession(cfg, X, Y.shape[1])
        oracle = PoolOracle(Y)
        while session.iteration < 5:
            for idx in session.ask():
                session.tell(
                    idx,
                    oracle.evaluate(idx),
                    n_evaluations=oracle.n_evaluations,
                )
        assert session.dropped.any()
        assert session.engine.stats.n_reopts > Y.shape[1]
        snap = session.snapshot()
        if via == "npz":
            snap = self._roundtrip(snap)
        del session

        resumed = TuningSession.restore(snap)
        for model in resumed.engine.models:
            assert not resumed.dropped[model._pool_rows].any()
        got = drive(resumed, oracle)
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.array_equal(ref.pareto_points, got.pareto_points)
        assert np.array_equal(
            ref.evaluated_indices, got.evaluated_indices
        )
        assert ref.n_evaluations == got.n_evaluations
        assert ref.stop_reason == got.stop_reason
        assert ref.history == got.history

    def test_resume_exact_past_one_blas_panel(self):
        """A 600-row source archive puts the training set past the size
        (about 512 rows) up to which a triangular solve over many
        columns treats them alike.  Replay builds the pool caches while
        keeping fewer rows than the live run did; whole-block solves
        must still give every row the live run's bits, so the resumed
        rectangles equal the uninterrupted run's exactly."""
        rng = np.random.default_rng(5)
        X, Y = random_pool(5, n=400)
        Xs = rng.uniform(size=(600, 3))
        Ys = rng.uniform(0.5, 2.0, size=(600, 2))
        cfg = PPATunerConfig(max_iterations=8, seed=5, reopt_every=0)

        def fresh():
            return TuningSession(cfg, X, 2, sources=[(Xs, Ys)])

        ref = fresh()
        drive(ref, PoolOracle(Y))
        session, oracle = fresh(), PoolOracle(Y)
        while session.iteration < 3:
            for idx in session.ask():
                session.tell(
                    idx, oracle.evaluate(idx),
                    n_evaluations=oracle.n_evaluations,
                )
        assert session.dropped.any()
        resumed = TuningSession.restore(
            self._roundtrip(session.snapshot())
        )
        drive(resumed, oracle)
        np.testing.assert_array_equal(resumed.regions.lo, ref.regions.lo)
        np.testing.assert_array_equal(resumed.regions.hi, ref.regions.hi)
        assert resumed.history == ref.history

    def test_snapshot_of_done_session(self):
        X, Y = random_pool(3)
        cfg = PPATunerConfig(max_iterations=15, seed=3)
        session = TuningSession(cfg, X, Y.shape[1])
        ref = drive(session, PoolOracle(Y))
        resumed = TuningSession.restore(
            self._roundtrip(session.snapshot())
        )
        assert resumed.done
        got = resumed.result()
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert ref.stop_reason == got.stop_reason

    def test_corrupt_snapshot_rejected(self):
        X, Y = random_pool(3)
        session = TuningSession(
            PPATunerConfig(max_iterations=15, seed=3), X, Y.shape[1]
        )
        idx = session.ask()[0]
        session.tell(idx, Y[idx], n_evaluations=1)
        snap = session.snapshot()
        snap["arrays"]["y_obs"] = snap["arrays"]["y_obs"] + 1.0
        with pytest.raises(ValueError, match="fingerprint"):
            TuningSession.restore(snap)

    def test_version_2_snapshot_rejected_on_its_version(self):
        """A version-2 snapshot, whose config still has ``incremental``,
        ``noise_in_regions`` and ``extra`` and whose meta has an RNG
        state, fails on its version, before its config is read."""
        X, Y = random_pool(3)
        snap = TuningSession(
            PPATunerConfig(max_iterations=15, seed=3), X, Y.shape[1]
        ).snapshot()
        meta = snap["meta"]
        meta["version"] = 2
        meta["config"].update(
            incremental=True, noise_in_regions=False, extra={}
        )
        meta["rng_state"] = {"bit_generator": "PCG64"}
        del meta["fingerprint"]
        meta["fingerprint"] = _fingerprint(meta, snap["arrays"])
        with pytest.raises(ValueError, match="snapshot version 2 != 3"):
            TuningSession.restore(snap)


# ---------------------------------------------------------------------------
# the state table


def smooth_objectives(X: np.ndarray, m: int) -> np.ndarray:
    """QoR of any pool row, refined rows included."""
    cols = [
        X.sum(axis=1),
        3.0 * (1.0 - X).prod(axis=1),
        np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2,
    ]
    return np.stack(cols[:m], axis=1) + 1.0


def scripted_run(session: TuningSession, stop_after: int | None = None):
    """Drive ``session`` to the end, yielding after every tell.

    Every other batch of a ``q > 1`` session is told in reverse, so
    tells are buffered; tell 5 fails, tell 16 is a circuit-open
    failure, every 13th tell (from the 7th) misses its last metric,
    and ``stop_after`` tells stop the loop for verification.
    """
    m, told, batch = session.m, 0, 0
    while not session.done:
        pending = session.ask()
        batch += 1
        if session.config.q > 1 and batch % 2 == 0:
            pending = pending[::-1]
        for idx in pending:
            told += 1
            y = smooth_objectives(session.X_pool[idx:idx + 1], m)[0]
            if told in (5, 16):
                session.tell(idx, failure=EvaluationFailure(
                    error="ToolCrash", attempts=2, circuit_open=told == 16,
                ))
            else:
                if told % 13 == 7:
                    y[-1] = np.nan
                session.tell(idx, y, n_evaluations=told)
            yield
            if told == stop_after:
                session.stop("budget_exhausted")
                yield
                break


def assert_same(a, b, path="session"):
    """Deep equality over the session's attribute values; NaN == NaN."""
    assert type(a) is type(b), path
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        np.testing.assert_array_equal(a, b, err_msg=path)
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            assert_same(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(
                getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}"
            )
    elif isinstance(a, float):
        assert a == b or (np.isnan(a) and np.isnan(b)), path
    else:
        assert a == b, path


class TestStateTable:
    #: Attributes that are not state: the restore re-creates them.
    UNSTORED = {"recorder", "_started", "_elapsed_before", "models", "engine"}

    #: The version-3 layout: array name -> dtype kind, and meta keys.
    V3_ARRAYS = {
        "X_pool": "f", "y_obs": "f", "regions_lo": "f", "regions_hi": "f",
        "sampled": "b", "dropped": "b", "pareto": "b", "quarantined": "b",
        "eligible": "b", "init_indices": "i", "delta": "f",
        "eval_order": "i", "pending": "i", "evaluated_now": "i",
        "failed_now": "i", "new_indices": "i", "verify_kept": "i",
        "verify_rows": "f", "src_x_0": "f", "src_y_0": "f",
    }
    V3_META = {
        "version", "config", "n_objectives", "n_sources", "phase", "t",
        "in_iteration", "last_want", "last_chosen", "stop_reason",
        "n_failed", "n_evaluations", "loop_runs", "delta_norm", "elapsed",
        "calib_log", "pool_log", "told", "history", "fingerprint",
    }
    V3_TOLD = {"index", "values", "failure", "n_evaluations"}

    def test_layout_is_version_3(self):
        """Renaming, losing or adding a stored field needs a version
        bump; this pins the version-3 layout it would change."""
        assert SNAPSHOT_VERSION == 3
        rng = np.random.default_rng(2)
        X, Y = random_pool(2)
        sources = [(rng.uniform(size=(20, 3)), rng.uniform(size=(20, 2)))]
        session = TuningSession(
            PPATunerConfig(max_iterations=6, seed=2, q=3), X, 2,
            sources=sources,
        )
        snaps = [session.snapshot()]
        while session.phase != "loop" or not session._in_iteration:
            for idx in session.ask():
                session.tell(idx, Y[idx])
        last = session.ask()[-1]
        session.tell(last, Y[last])
        snaps.append(session.snapshot())
        drive(session, PoolOracle(Y))
        snaps.append(session.snapshot())

        for snap, meta_keys in zip(
            snaps, [self.V3_META, self.V3_META, self.V3_META | {"result"}]
        ):
            kinds = {k: a.dtype.kind for k, a in snap["arrays"].items()}
            assert kinds == self.V3_ARRAYS
            assert set(snap["meta"]) == meta_keys
        [told] = snaps[1]["meta"]["told"]
        assert set(told) == self.V3_TOLD

    @pytest.mark.parametrize("q,refine,stop_after", [
        (1, 2, None), (3, 2, None), (3, 0, 12),
    ])
    def test_restore_leaves_nothing_behind(self, q, refine, stop_after):
        rng = np.random.default_rng(q)
        X = rng.uniform(size=(30, 3))
        Xs = rng.uniform(size=(20, 3))
        cfg = PPATunerConfig(
            max_iterations=6, seed=q, q=q, pool_refine_every=refine,
            pool_refine_points=4,
        )
        session = TuningSession(
            cfg, X, 2, sources=[(Xs, smooth_objectives(Xs, 2))]
        )
        taken = []
        for _ in scripted_run(session, stop_after):
            snap = session.snapshot()
            taken.append(snap)
            restored = TuningSession.restore(snap)
            assert vars(restored).keys() == vars(session).keys()
            for name, value in vars(session).items():
                if name not in self.UNSTORED:
                    assert_same(value, getattr(restored, name), name)
            owned = [getattr(restored, name) for name in _ROW_STATE]
            owned += [restored.regions.lo, restored.regions.hi]
            for array in owned:
                for stored in snap["arrays"].values():
                    assert not np.shares_memory(array, stored)
        assert session.done
        assert session.n > 30 or not refine
        assert session.n_failed == 2
        if stop_after:
            assert session.stop_reason == "budget_exhausted"
        # Every snapshot still verifies after the donor ran on.
        for snap in taken:
            meta = dict(snap["meta"])
            expected = meta.pop("fingerprint")
            assert _fingerprint(meta, snap["arrays"]) == expected


# ---------------------------------------------------------------------------
# non-finite input


class TestNonFiniteInput:
    """NaN or inf in the pool or a source archive fails at construction,
    with a message naming the array, before any tool run is spent."""

    def _source(self, seed: int, n: int = 40):
        rng = np.random.default_rng(seed)
        return rng.uniform(size=(n, 3)), rng.uniform(0.5, 2.0, size=(n, 2))

    @pytest.mark.parametrize("which,value", [("X", np.nan), ("Y", np.inf)])
    def test_nonfinite_source_rejected(self, which, value):
        X, Y = random_pool(0)
        Xs, Ys = self._source(5)
        (Xs if which == "X" else Ys)[7, -1] = value
        cfg = PPATunerConfig(max_iterations=5, seed=0)
        with pytest.raises(ValueError, match=f"source 1 {which}"):
            TuningSession(
                cfg, X, Y.shape[1], sources=[self._source(6), (Xs, Ys)]
            )
        oracle = PoolOracle(Y)
        with pytest.raises(ValueError, match=f"source 0 {which}"):
            PPATuner(cfg).tune(X, oracle, sources=[(Xs, Ys)])
        assert oracle.n_evaluations == 0

    def test_nonfinite_pool_rejected(self):
        X, Y = random_pool(0)
        X[3, 2] = np.nan
        oracle = PoolOracle(Y)
        with pytest.raises(ValueError, match="X_pool"):
            PPATuner(PPATunerConfig(max_iterations=5, seed=0)).tune(
                X, oracle
            )
        assert oracle.n_evaluations == 0


# ---------------------------------------------------------------------------
# JSON round-trips


class TestJsonRoundTrips:
    def test_evaluation_failure(self):
        f = EvaluationFailure("Timeout", attempts=3, circuit_open=True)
        g = EvaluationFailure.from_json(
            json.loads(json.dumps(f.to_json()))
        )
        assert g == f

    def test_config_roundtrip(self):
        cfg = PPATunerConfig(
            max_iterations=7, seed=11, q=2,
            delta_rel=np.array([0.05, 0.07]),
        )
        got = PPATunerConfig.from_json(
            json.loads(json.dumps(cfg.to_json()))
        )
        assert got.max_iterations == cfg.max_iterations
        assert got.seed == cfg.seed
        assert np.allclose(got.delta_rel, cfg.delta_rel)

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="not_a_field"):
            PPATunerConfig.from_json({"not_a_field": 1})

    def test_config_rejects_wrong_types(self):
        with pytest.raises(ValueError, match="invalid config"):
            PPATunerConfig.from_json({"max_iterations": "five"})
        with pytest.raises(ValueError, match="JSON object"):
            PPATunerConfig.from_json([["seed", 1]])

    def test_config_to_json_covers_every_field(self):
        cfg = PPATunerConfig(
            seed=np.int64(3), tau=np.float64(4.0), q=np.int32(2),
            transfer=np.bool_(False),
        )
        payload = cfg.to_json()
        assert list(payload) == [
            f.name for f in dataclasses.fields(PPATunerConfig)
        ]
        assert type(payload["seed"]) is int
        assert type(payload["tau"]) is float
        assert type(payload["q"]) is int
        assert type(payload["transfer"]) is bool
        json.dumps(payload)  # numpy scalars coerced
        assert PPATunerConfig.from_json(payload) == cfg

    def test_result_roundtrip(self):
        X, Y = random_pool(5)
        cfg = PPATunerConfig(max_iterations=15, seed=5)
        ref = PPATuner(cfg).tune(X, PoolOracle(Y))
        got = TuningResult.from_json(
            json.loads(json.dumps(ref.to_json()))
        )
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.allclose(ref.pareto_points, got.pareto_points)
        assert ref.history == got.history
        assert ref.stop_reason == got.stop_reason

    def test_empty_result_roundtrip(self):
        empty = TuningResult(
            pareto_indices=np.empty(0, dtype=int),
            pareto_points=np.empty((0, 2)),
            n_evaluations=0,
            n_iterations=0,
            history=[],
            evaluated_indices=np.empty(0, dtype=int),
            stop_reason="stopped",
        )
        got = TuningResult.from_json(
            json.loads(json.dumps(empty.to_json()))
        )
        assert got.pareto_points.shape == (0, 2)
        assert len(got.pareto_indices) == 0

    def test_iteration_record_roundtrip(self):
        rec = IterationRecord(
            iteration=3, n_undecided=10, n_pareto=4, n_dropped=2,
            n_evaluations=8, max_diameter=0.5, selected=[1, 2],
        )
        assert IterationRecord.from_json(
            json.loads(json.dumps(rec.to_json()))
        ) == rec


# ---------------------------------------------------------------------------
# recorder adoption (satellite bugfix)


class TestRecorderRestoration:
    def test_tune_restores_none_recorder(self):
        X, Y = random_pool(6)
        oracle = PoolOracle(Y)
        oracle.recorder = None
        PPATuner(
            PPATunerConfig(max_iterations=5, seed=6),
            recorder=TraceRecorder(sinks=[MemorySink()]),
        ).tune(X, oracle)
        assert oracle.recorder is None

    def test_tune_restores_custom_recorder(self):
        X, Y = random_pool(6)
        oracle = PoolOracle(Y)
        sentinel = TraceRecorder(sinks=[MemorySink()])
        oracle.recorder = sentinel
        PPATuner(PPATunerConfig(max_iterations=5, seed=6)).tune(
            X, oracle
        )
        assert oracle.recorder is sentinel
