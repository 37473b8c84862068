"""Tests for the multi-session tuning service (HTTP + snapshots).

The server runs in-thread (``TuningServiceHTTP`` on an ephemeral port,
store under ``tmp_path``) so these tests exercise the real wire
protocol end to end: remote runs must be bit-identical to in-process
``PPATuner.tune``, a killed server must recover every session from its
snapshot store, and the error mapping must hold (404 unknown session,
400 bad input, 409 wrong state).
"""

from __future__ import annotations

import logging
import os
import time

import numpy as np
import pytest

from repro.core import PoolOracle, PPATuner, PPATunerConfig, TuningSession
from repro.core.session import (
    SNAPSHOT_VERSION,
    _fingerprint,
    _tell_from_json,
)
from repro.durable import TMP_PREFIX
from repro.obs import TraceRecorder, read_trace, replay_trace
from repro.pareto import non_dominated_mask
from repro.reliability import (
    FaultInjectingOracle,
    FaultPlan,
    FaultPolicy,
    ResilientOracle,
)
from repro.service import (
    RemoteTuner,
    ServiceClient,
    ServiceError,
    SessionStore,
    TuningService,
    TuningServiceHTTP,
)


def random_pool(seed: int, n: int = 40, d: int = 3, m: int = 2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    Y = rng.uniform(0.5, 2.0, size=(n, m))
    return X, Y


@pytest.fixture()
def http(tmp_path):
    """An in-thread service over a tmp store; yields (server, client)."""
    server = TuningServiceHTTP(root=tmp_path / "store", port=0)
    server.start()
    try:
        yield server, ServiceClient(server.url)
    finally:
        server.shutdown()


class TestRemoteIdentity:
    def test_remote_matches_inprocess(self, http):
        _, client = http
        X, Y = random_pool(2)
        cfg = PPATunerConfig(max_iterations=15, seed=2)
        ref = PPATuner(cfg).tune(X, PoolOracle(Y))

        remote = RemoteTuner(client, config=cfg)
        got = remote.tune(X, PoolOracle(Y))

        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.allclose(ref.pareto_points, got.pareto_points)
        assert np.array_equal(
            ref.evaluated_indices, got.evaluated_indices
        )
        assert ref.n_evaluations == got.n_evaluations
        assert ref.stop_reason == got.stop_reason
        assert ref.history == got.history
        assert non_dominated_mask(got.pareto_points).all()

    def test_remote_matches_inprocess_under_faults(self, http):
        _, client = http
        X, Y = random_pool(9, n=50)
        plan = FaultPlan.seeded(
            9, len(X), rate=0.3,
            kinds=("transient", "partial", "persistent"),
        )
        cfg = PPATunerConfig(
            max_iterations=12, seed=9,
            fault_policy=FaultPolicy(max_retries=2),
        )
        ref = PPATuner(cfg).tune(
            X, FaultInjectingOracle(PoolOracle(Y), plan, latency_s=0.0)
        )
        got = RemoteTuner(client, config=cfg).tune(
            X, FaultInjectingOracle(PoolOracle(Y), plan, latency_s=0.0)
        )
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.array_equal(
            ref.quarantined_indices, got.quarantined_indices
        )
        assert ref.n_failed_evaluations == got.n_failed_evaluations
        assert non_dominated_mask(got.pareto_points).all()

    def test_caller_resilient_oracle_keeps_its_recorder(self, http):
        """A remote run lends its event capture to a caller-built
        ResilientOracle and hands the recorder back: a later traced
        in-process run on that oracle records one tool evaluation per
        call."""
        _, client = http
        X, Y = random_pool(1, n=60)
        cfg = PPATunerConfig(max_iterations=3, seed=1)

        class CountingOracle(PoolOracle):
            calls = 0

            def evaluate(self, index):
                self.calls += 1
                return super().evaluate(index)

        inner = CountingOracle(Y)
        oracle = ResilientOracle(inner, policy=cfg.fault_policy)
        before = oracle.recorder
        RemoteTuner(client, config=cfg).tune(X, oracle)
        assert oracle.recorder is before

        calls = inner.calls
        rec = TraceRecorder()
        PPATuner(cfg, recorder=rec).tune(X, oracle)
        n_tool = sum(ev.type == "tool_evaluation" for ev in rec.events)
        assert n_tool == inner.calls - calls > 0

    def test_server_side_trace_replays_to_result(self, http, tmp_path):
        server, client = http
        X, Y = random_pool(4)
        cfg = PPATunerConfig(max_iterations=15, seed=4)
        remote = RemoteTuner(client, config=cfg, trace=True)
        got = remote.tune(X, PoolOracle(Y))

        trace = server.service.store.trace_path(remote.session_id)
        assert trace.exists()
        replayed = replay_trace(trace).to_result()
        assert np.array_equal(
            got.pareto_indices, replayed.pareto_indices
        )
        assert got.stop_reason == replayed.stop_reason


class TestRestartSurvival:
    def test_kill_and_restart_resumes_bit_identical(self, tmp_path):
        X, Y = random_pool(5)
        cfg = PPATunerConfig(max_iterations=15, seed=5)
        ref = PPATuner(cfg).tune(X, PoolOracle(Y))

        root = tmp_path / "store"
        oracle = PoolOracle(Y)

        # First server: create the session, feed nine tells, die.
        server = TuningServiceHTTP(root=root, port=0)
        server.start()
        client = ServiceClient(server.url)
        sid = client.create_session(cfg, X, Y.shape[1], session_id="job-a")
        told = 0
        while told < 9:
            pending = client.ask(sid)["pending"]
            assert pending
            for idx in pending:
                client.tell(
                    sid, idx, values=oracle.evaluate(idx),
                    n_evaluations=oracle.n_evaluations,
                )
                told += 1
                if told >= 9:
                    break
        server.shutdown()

        # Second server over the same store: session must be back.
        server = TuningServiceHTTP(root=root, port=0)
        server.start()
        try:
            client = ServiceClient(server.url)
            assert [s["session_id"] for s in client.sessions()] == [sid]
            while True:
                pending = client.ask(sid)["pending"]
                if not pending:
                    break
                for idx in pending:
                    client.tell(
                        sid, idx, values=oracle.evaluate(idx),
                        n_evaluations=oracle.n_evaluations,
                    )
            got = client.result(sid)
        finally:
            server.shutdown()

        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.allclose(ref.pareto_points, got.pareto_points)
        assert ref.n_evaluations == got.n_evaluations
        assert ref.stop_reason == got.stop_reason
        assert ref.history == got.history

    @pytest.mark.parametrize("version", [1, 2, SNAPSHOT_VERSION])
    def test_old_layout_snapshot_dropped_on_recovery(
        self, tmp_path, caplog, version
    ):
        """A snapshot whose config carries the knobs removed in snapshot
        version 2 is dropped with a warning and the service starts —
        whether it says an older version or claims the current one."""
        X, Y = random_pool(0)
        session = TuningSession(
            PPATunerConfig(max_iterations=5, seed=0), X, Y.shape[1]
        )
        snap = session.snapshot()
        meta = snap["meta"]
        meta["version"] = version
        meta["config"].update(
            batch_size=1, refit_every=10, reopt_every=None,
            shared_factor=True, float32_pool=False, pool_block=32768,
            decision_backend="vectorized",
        )
        del meta["fingerprint"]
        meta["fingerprint"] = _fingerprint(meta, snap["arrays"])
        store = SessionStore(tmp_path / "store")
        store.save("old", snap, {"max_evaluations": None, "traced": False})

        with caplog.at_level(logging.WARNING, logger="repro.service"):
            service = TuningService(store=store)
        assert service.sessions() == []
        assert not store.snapshot_path("old").exists()
        assert "session old unrecoverable" in caplog.text

    def test_corrupt_snapshot_dropped_on_recovery(self, tmp_path):
        root = tmp_path / "store"
        store = SessionStore(root)
        root.mkdir(parents=True, exist_ok=True)
        store.snapshot_path("broken").write_bytes(b"not an npz")

        service = TuningService(root=root)
        assert service.sessions() == []
        assert not store.snapshot_path("broken").exists()

    def test_recovery_sweeps_aged_temp_files_only(self, tmp_path):
        """A save killed mid-write leaves its temp file; startup removes
        it once aged, and keeps a fresh one (a write still in flight)."""
        root = tmp_path / "store"
        root.mkdir()
        aged = root / f"{TMP_PREFIX}killed.npz"
        aged.write_bytes(b"torn snapshot")
        two_hours_ago = time.time() - 7200
        os.utime(aged, (two_hours_ago, two_hours_ago))
        fresh = root / f"{TMP_PREFIX}inflight.npz"
        fresh.write_bytes(b"being written")

        TuningService(root=root)
        assert not aged.exists()
        assert fresh.exists()


class TestBudget:
    def test_budget_exhaustion_stops_session(self, http):
        _, client = http
        X, Y = random_pool(7)
        cfg = PPATunerConfig(max_iterations=30, seed=7)
        result = RemoteTuner(
            client, config=cfg, max_evaluations=8
        ).tune(X, PoolOracle(Y))
        assert result.stop_reason == "budget_exhausted"
        assert result.n_evaluations <= 8
        assert non_dominated_mask(result.pareto_points).all()


class TestProtocolErrors:
    def test_unknown_session_is_404(self, http):
        _, client = http
        with pytest.raises(ServiceError) as exc:
            client.ask("no-such-session")
        assert exc.value.status == 404

    def test_bad_session_id_is_400(self, http):
        _, client = http
        X, Y = random_pool(0)
        with pytest.raises(ServiceError) as exc:
            client.create_session(
                PPATunerConfig(), X, Y.shape[1],
                session_id="../escape",
            )
        assert exc.value.status == 400

    def test_duplicate_session_id_is_400(self, http):
        _, client = http
        X, Y = random_pool(0)
        cfg = PPATunerConfig(max_iterations=5, seed=0)
        client.create_session(cfg, X, Y.shape[1], session_id="dup")
        with pytest.raises(ServiceError) as exc:
            client.create_session(cfg, X, Y.shape[1], session_id="dup")
        assert exc.value.status == 400

    def test_result_before_done_is_409(self, http):
        _, client = http
        X, Y = random_pool(0)
        sid = client.create_session(
            PPATunerConfig(max_iterations=5, seed=0), X, Y.shape[1]
        )
        with pytest.raises(ServiceError) as exc:
            client.result(sid)
        assert exc.value.status == 409

    def test_out_of_order_tell_is_400(self, http):
        _, client = http
        X, Y = random_pool(0)
        sid = client.create_session(
            PPATunerConfig(max_iterations=5, seed=0), X, Y.shape[1]
        )
        pending = client.ask(sid)["pending"]
        wrong = next(i for i in range(len(X)) if i not in pending)
        with pytest.raises(ServiceError) as exc:
            client.tell(sid, wrong, values=Y[wrong])
        assert exc.value.status == 400

    def test_delete_removes_session_and_snapshot(self, http):
        server, client = http
        X, Y = random_pool(0)
        sid = client.create_session(
            PPATunerConfig(max_iterations=5, seed=0), X, Y.shape[1]
        )
        assert server.service.store.snapshot_path(sid).exists()
        client.delete(sid)
        assert not server.service.store.snapshot_path(sid).exists()
        with pytest.raises(ServiceError) as exc:
            client.status(sid)
        assert exc.value.status == 404

    @pytest.mark.parametrize("config", [
        {"batch_sizee": 2}, {"max_iterations": "five"},
    ])
    def test_bad_config_is_400(self, http, config):
        _, client = http
        X, Y = random_pool(0)
        with pytest.raises(ServiceError) as exc:
            client.create_session(config, X, Y.shape[1])
        assert exc.value.status == 400
        assert "config" in str(exc.value)

    @pytest.mark.parametrize("where", ["X_pool", "source 0 X"])
    def test_nonfinite_input_is_400(self, http, where):
        server, client = http
        X, Y = random_pool(0)
        Xs, Ys = random_pool(1)
        (X if where == "X_pool" else Xs)[4, 2] = np.nan
        with pytest.raises(ServiceError) as exc:
            client.create_session(
                PPATunerConfig(max_iterations=5, seed=0), X, Y.shape[1],
                sources=[(Xs, Ys)],
            )
        assert exc.value.status == 400
        assert where in str(exc.value)
        assert server.service.store.list_ids() == []

    def test_bad_init_indices_is_400(self, http, bad_init_indices):
        """Rejected at creation, uncast: nothing is stored and no
        candidate is handed out."""
        server, client = http
        X, Y = random_pool(0)
        init, _ = bad_init_indices
        with pytest.raises(ServiceError) as exc:
            client.create_session(
                PPATunerConfig(max_iterations=5, seed=0), X, Y.shape[1],
                init_indices=init,
            )
        assert exc.value.status == 400
        assert "init_indices" in str(exc.value)
        assert server.service.store.list_ids() == []

    @pytest.mark.parametrize("key", ["X_source", "warm_start"])
    def test_unknown_session_key_is_400(self, http, key):
        """A key the service does not read (here a retired one) fails
        loudly instead of silently dropping an input."""
        server, client = http
        X, Y = random_pool(0)
        payload = {
            "config": PPATunerConfig(max_iterations=5, seed=0).to_json(),
            "X_pool": X.tolist(),
            "n_objectives": Y.shape[1],
            key: X[:5].tolist() if key == "X_source" else "copula",
        }
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/sessions", payload)
        assert exc.value.status == 400
        assert key in str(exc.value)
        assert server.service.store.list_ids() == []

    def test_malformed_json_is_400(self, http):
        server, _ = http
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            f"{server.url}/sessions",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400


class TestStoreValidation:
    def test_session_id_rejects_traversal(self, tmp_path):
        from repro.service.store import validate_session_id

        for bad in ("../x", "a/b", "", "." , "-lead", "x" * 80):
            with pytest.raises(ValueError):
                validate_session_id(bad)
        for ok in ("job-a", "A1", "run_2.try-3"):
            validate_session_id(ok)

    def test_store_roundtrip_preserves_service_meta(self, tmp_path):
        from repro.core import TuningSession

        X, Y = random_pool(1)
        session = TuningSession(
            PPATunerConfig(max_iterations=5, seed=1), X, Y.shape[1]
        )
        session.ask()
        store = SessionStore(tmp_path / "s")
        store.save(
            "one", session.snapshot(),
            service_meta={"max_evaluations": 8, "traced": False},
        )
        loaded = store.load("one")
        assert loaded is not None
        snapshot, meta = loaded
        assert meta == {"max_evaluations": 8, "traced": False}
        restored = TuningSession.restore(snapshot)
        assert restored.phase == session.phase
        assert list(store.list_ids()) == ["one"]


class TestAllOrNothingTells:
    """A rejected tell request applies nothing: not in the live
    session, not in its trace, not in the stored snapshot."""

    @staticmethod
    def _service(root, trace=False):
        X, Y = random_pool(1, n=40)
        service = TuningService(store=SessionStore(root))
        sid = service.create_session({
            "session_id": "job",
            "config": PPATunerConfig(seed=1, q=4).to_json(),
            "X_pool": X.tolist(),
            "n_objectives": Y.shape[1],
            "trace": trace,
        })["session_id"]
        pending = service.ask(sid)["pending"]
        tells = [
            {"index": i, "values": Y[i].tolist()} for i in pending
        ]
        return service, sid, tells

    @pytest.mark.parametrize("fault", ["one value", "no index"])
    def test_rejected_batch_applies_no_entry(self, tmp_path, fault):
        service, sid, tells = self._service(tmp_path / "store")
        n_pending = service.status(sid)["n_pending"]
        if fault == "one value":
            second = dict(tells[1], values=tells[1]["values"][:1])
            message = "objective values"
        else:  # a KeyError here used to answer 404, "unknown session"
            second = {"values": tells[1]["values"]}
            message = "malformed tell entry"
        with pytest.raises(ValueError, match=message):
            service.tell_batch(sid, {"tells": [tells[0], second]})
        assert service.status(sid)["n_pending"] == n_pending
        reopened = TuningService(store=SessionStore(tmp_path / "store"))
        assert reopened.status(sid)["n_pending"] == n_pending
        out = service.tell_batch(sid, {"tells": tells})
        assert out["told"] == len(tells)
        assert out["status"]["n_pending"] == 0

    @pytest.mark.parametrize("repeat", [0, 1])
    def test_repeated_index_rejects_the_batch(self, tmp_path, repeat):
        service, sid, tells = self._service(tmp_path / "store")
        n_pending = service.status(sid)["n_pending"]
        with pytest.raises(ValueError, match="duplicate tell"):
            service.tell_batch(sid, {"tells": tells + [tells[repeat]]})
        assert service.status(sid)["n_pending"] == n_pending

    def test_rejected_tell_leaves_no_events_in_trace(self, tmp_path):
        service, sid, tells = self._service(tmp_path / "store", trace=True)
        event = {
            "type": "tool_evaluation", "index": tells[0]["index"],
            "seconds": 0.0, "cached": False, "oracle": "pool",
            "values": tells[0]["values"],
        }
        path = service.store.trace_path(sid)

        def n_tool_events():
            if not path.exists():
                return 0
            return len(
                [e for e in read_trace(path)
                 if e.type == "tool_evaluation"]
            )

        with pytest.raises(ValueError, match="exactly one"):
            service.tell(
                sid, {"index": tells[0]["index"], "events": [event]}
            )
        assert n_tool_events() == 0
        service.tell(sid, dict(tells[0], events=[event]))
        assert n_tool_events() == 1

    def test_missing_and_null_parts_decode_alike(self, tmp_path):
        """perfbench sends entries without ``failure`` or ``events``; a
        snapshot's buffered tells carry every key, with ``null`` for an
        absent part.  Both forms must tell the same thing."""
        failure = {"error": "ToolCrash", "attempts": 2, "circuit_open": False}
        stored = []
        for shape in ("missing", "null"):
            service, sid, tells = self._service(tmp_path / shape)
            ok, failed = tells[0], tells[1]
            if shape == "missing":
                entries = [
                    dict(ok, n_evaluations=3),
                    {"index": failed["index"], "failure": failure},
                ]
            else:
                entries = [
                    dict(ok, failure=None, n_evaluations=3),
                    {
                        "index": failed["index"], "values": None,
                        "failure": failure, "n_evaluations": None,
                    },
                ]
            stored.append([_tell_from_json(e) for e in entries])
            service.tell_batch(sid, {"tells": entries[::-1] + tells[2:]})
            snapshot, _ = service.store.load(sid)
            for key in ("elapsed", "fingerprint"):
                del snapshot["meta"][key]
            stored.append(snapshot)
        missing_tells, missing, null_tells, null = stored
        np.testing.assert_equal(missing_tells, null_tells)
        np.testing.assert_equal(missing, null)
        assert missing["meta"]["n_failed"] == 1


class TestBatchEndpoints:
    def test_batched_remote_matches_inprocess(self, http):
        _, client = http
        X, Y = random_pool(12, n=44)
        cfg = PPATunerConfig(max_iterations=12, seed=3, q=4)
        ref = PPATuner(cfg).tune(X, PoolOracle(Y))
        got = RemoteTuner(client, config=cfg).tune(X, PoolOracle(Y))
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.array_equal(
            ref.evaluated_indices, got.evaluated_indices
        )
        assert ref.n_evaluations == got.n_evaluations
        assert ref.history == got.history
        assert non_dominated_mask(got.pareto_points).all()

    def test_tell_batch_accepts_out_of_order(self, http):
        _, client = http
        X, Y = random_pool(13, n=40)
        cfg = PPATunerConfig(max_iterations=10, seed=1, q=4)
        sid = client.create_session(cfg, X, Y.shape[1])
        oracle = PoolOracle(Y)
        while True:
            reply = client.ask(sid)
            pending = reply["pending"]
            assert "n_pool" in reply
            if not pending:
                break
            rows = oracle.evaluate_batch(pending)
            tells = [
                {
                    "index": int(i),
                    "values": [float(v) for v in row],
                    "n_evaluations": oracle.n_evaluations,
                }
                for i, row in zip(pending, rows)
            ]
            # Reversed within the batch: the session re-sequences.
            out = client.tell_batch(sid, list(reversed(tells)))
            assert out["told"] == len(tells)
        got = client.result(sid)
        ref = PPATuner(cfg).tune(X, PoolOracle(Y))
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert ref.n_evaluations == got.n_evaluations

    def test_pool_endpoint_serves_rows_and_validates_range(self, http):
        _, client = http
        X, Y = random_pool(14, n=30)
        cfg = PPATunerConfig(max_iterations=8, seed=0)
        sid = client.create_session(cfg, X, Y.shape[1])
        reply = client.pool(sid)
        assert reply["n_pool"] == 30
        assert reply["start"] == 0
        np.testing.assert_allclose(np.asarray(reply["X_pool"]), X)
        tail = client.pool(sid, start=28)
        np.testing.assert_allclose(np.asarray(tail["X_pool"]), X[28:])
        assert client.pool(sid, start=30)["X_pool"] == []
        with pytest.raises(ServiceError) as exc:
            client.pool(sid, start=31)
        assert exc.value.status == 400

    def test_refined_pool_flows_through_service(self, http):
        from repro.core import CallableOracle

        _, client = http
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(30, 3))

        def f(x):
            return np.array([
                float(np.sum((x - 0.3) ** 2)),
                float(np.sum((x - 0.7) ** 2)),
            ])

        cfg = PPATunerConfig(
            max_iterations=14, seed=2, pool_refine_every=4,
            pool_refine_points=6, reopt_every=0, n_restarts=0,
        )
        ref_oracle = CallableOracle(f, X, 2)
        ref = PPATuner(cfg).tune(X, ref_oracle)
        assert ref_oracle.n_candidates > 30  # refinement fired

        oracle = CallableOracle(f, X, 2)
        got = RemoteTuner(client, config=cfg).tune(X, oracle)
        assert oracle.n_candidates == ref_oracle.n_candidates
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert np.allclose(ref.pareto_points, got.pareto_points)
        assert ref.n_evaluations == got.n_evaluations
