"""Tests for the fault-tolerant evaluation layer.

Covers the FaultPolicy knob-set, the ResilientOracle retry / timeout /
circuit-breaker machinery (with its deterministic backoff schedule),
seeded fault injection, loop-level quarantine and partial-QoR
imputation in PPATuner, trace/replay round-trips of the new events, the
typed ``repro.env`` accessors, memo backward compatibility, the CLI
flags, and a subprocess chaos run that kills a pool worker mid-cell and
resumes from the memo.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import env
from repro.core import FlowOracle, Oracle, PoolOracle, PPATuner, PPATunerConfig
from repro.obs import (
    JsonlSink,
    MemorySink,
    TraceRecorder,
    replay_trace,
    summarize_trace,
)
from repro.obs.events import (
    CircuitStateChange,
    EvaluationRetry,
    PointQuarantined,
)
from repro.reliability import (
    FAULT_KINDS,
    TRANSIENT_KINDS,
    CircuitOpenError,
    EvaluationTimeout,
    FaultInjectingOracle,
    FaultPlan,
    FaultPolicy,
    PermanentEvaluationError,
    ResilientOracle,
    TransientEvaluationError,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def pool_oracle(n: int = 30, m: int = 2, seed: int = 0) -> PoolOracle:
    Y = np.random.default_rng(seed).random((n, m)) + 0.5
    return PoolOracle(Y)


def no_wait(policy: FaultPolicy | None = None, **kw) -> FaultPolicy:
    """A FaultPolicy with zero backoff (tests never sleep)."""
    base = policy or FaultPolicy(**{"backoff_base": 0.0, **kw})
    return base


# ----------------------------------------------------------------------
# FaultPolicy


class TestFaultPolicy:
    def test_defaults_valid(self):
        p = FaultPolicy()
        assert p.max_retries == 2
        assert p.timeout_s is None
        assert p.on_permanent_failure == "quarantine"

    @pytest.mark.parametrize("kw", [
        {"max_retries": -1},
        {"timeout_s": 0.0},
        {"timeout_s": -1.0},
        {"backoff_base": -0.1},
        {"breaker_threshold": 0},
        {"breaker_cooldown": 0},
        {"on_permanent_failure": "explode"},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            FaultPolicy(**kw)

    def test_json_round_trip(self):
        p = FaultPolicy(max_retries=5, timeout_s=1.5, backoff_base=0.01,
                        breaker_threshold=3, breaker_cooldown=4,
                        on_permanent_failure="raise")
        assert FaultPolicy.from_json(p.to_json()) == p
        # Transportable through actual JSON text (spec params, CLI).
        assert FaultPolicy.from_json(json.loads(json.dumps(p.to_json()))) == p

    def test_from_json_ignores_unknown_keys(self):
        payload = FaultPolicy().to_json()
        payload["added_in_a_future_version"] = 42
        assert FaultPolicy.from_json(payload) == FaultPolicy()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FaultPolicy().max_retries = 7  # type: ignore[misc]

    def test_carried_on_config(self):
        cfg = PPATunerConfig()
        assert cfg.fault_policy == FaultPolicy()
        cfg = PPATunerConfig(fault_policy={"max_retries": 9})
        assert cfg.fault_policy == FaultPolicy(max_retries=9)
        assert PPATunerConfig(fault_policy=None).fault_policy is None


# ----------------------------------------------------------------------
# FaultPlan / FaultInjectingOracle


class TestFaultPlan:
    def test_seeded_reproducible(self):
        a = FaultPlan.seeded(7, 200, rate=0.2)
        b = FaultPlan.seeded(7, 200, rate=0.2)
        assert a == b
        assert a != FaultPlan.seeded(8, 200, rate=0.2)
        assert all(k in FAULT_KINDS for _, ks in a.faults for k in ks)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(faults=((0, ("meteor",)),))

    def test_for_index(self):
        plan = FaultPlan(faults=((3, ("transient", "nan")),))
        assert plan.for_index(3) == ("transient", "nan")
        assert plan.for_index(4) == ()

    def test_transient_kinds_subset(self):
        assert set(TRANSIENT_KINDS) <= set(FAULT_KINDS)


class TestFaultInjectingOracle:
    def test_transient_fires_once(self):
        inner = pool_oracle()
        oracle = FaultInjectingOracle(
            inner, FaultPlan(faults=((2, ("transient",)),))
        )
        with pytest.raises(TransientEvaluationError):
            oracle.evaluate(2)
        np.testing.assert_array_equal(oracle.evaluate(2), inner.Y[2])
        assert oracle.injected["transient"] == 1

    def test_persistent_never_consumed(self):
        oracle = FaultInjectingOracle(
            pool_oracle(), FaultPlan(faults=((1, ("persistent",)),))
        )
        for _ in range(5):
            with pytest.raises(TransientEvaluationError):
                oracle.evaluate(1)
        assert oracle.injected["persistent"] == 5

    def test_nan_and_partial(self):
        inner = pool_oracle(m=3)
        oracle = FaultInjectingOracle(
            inner, FaultPlan(faults=((4, ("nan",)), (5, ("partial",))))
        )
        assert np.isnan(oracle.evaluate(4)).all()
        partial = oracle.evaluate(5)
        assert np.isnan(partial).sum() == 1
        finite = np.isfinite(partial)
        np.testing.assert_array_equal(partial[finite], inner.Y[5][finite])

    def test_reset_rearms(self):
        oracle = FaultInjectingOracle(
            pool_oracle(), FaultPlan(faults=((0, ("transient",)),))
        )
        with pytest.raises(TransientEvaluationError):
            oracle.evaluate(0)
        oracle.evaluate(0)
        oracle.reset()
        assert oracle.n_evaluations == 0
        assert sum(oracle.injected.values()) == 0
        with pytest.raises(TransientEvaluationError):
            oracle.evaluate(0)

    def test_empty_batch_has_zero_rows(self):
        oracle = FaultInjectingOracle(pool_oracle(m=3), FaultPlan())
        assert oracle.evaluate_batch([]).shape == (0, 3)

    def test_satisfies_oracle_protocol(self):
        oracle = FaultInjectingOracle(pool_oracle(), FaultPlan())
        assert isinstance(oracle, Oracle)
        assert isinstance(ResilientOracle(oracle), Oracle)


# ----------------------------------------------------------------------
# ResilientOracle: retry, backoff, timeout


class TestResilientRetry:
    def test_no_fault_passthrough(self):
        inner = pool_oracle()
        oracle = ResilientOracle(PoolOracle(inner.Y), policy=no_wait())
        np.testing.assert_array_equal(oracle.evaluate(3), inner.Y[3])
        assert oracle.n_retries == 0
        assert oracle.n_failures == 0
        assert oracle.state == "closed"
        assert oracle.n_candidates == inner.n_candidates
        assert oracle.n_objectives == inner.n_objectives
        assert oracle.n_evaluations == 1

    def test_transient_retried_with_accounting(self):
        inner = pool_oracle()
        oracle = ResilientOracle(
            FaultInjectingOracle(
                PoolOracle(inner.Y),
                FaultPlan(faults=((6, ("transient", "transient")),)),
            ),
            policy=no_wait(),
        )
        np.testing.assert_array_equal(oracle.evaluate(6), inner.Y[6])
        assert oracle.n_retries == 2
        assert oracle.n_failures == 0
        assert [(i, a) for i, a, _ in oracle.backoff_log] == [(6, 1), (6, 2)]

    def test_retry_budget_exhausted(self):
        oracle = ResilientOracle(
            FaultInjectingOracle(
                pool_oracle(), FaultPlan(faults=((0, ("persistent",)),))
            ),
            policy=no_wait(max_retries=2),
        )
        with pytest.raises(PermanentEvaluationError) as err:
            oracle.evaluate(0)
        assert err.value.index == 0
        assert err.value.attempts == 3  # first try + 2 retries
        assert oracle.n_failures == 1

    def test_all_nan_vector_retried(self):
        inner = pool_oracle()
        oracle = ResilientOracle(
            FaultInjectingOracle(
                PoolOracle(inner.Y), FaultPlan(faults=((7, ("nan",)),))
            ),
            policy=no_wait(),
        )
        np.testing.assert_array_equal(oracle.evaluate(7), inner.Y[7])
        assert oracle.n_retries == 1

    def test_partial_nan_passes_through(self):
        oracle = ResilientOracle(
            FaultInjectingOracle(
                pool_oracle(m=3), FaultPlan(faults=((8, ("partial",)),))
            ),
            policy=no_wait(),
        )
        value = oracle.evaluate(8)
        assert np.isnan(value).sum() == 1
        assert oracle.n_retries == 0

    def test_non_retryable_propagates(self):
        oracle = ResilientOracle(pool_oracle(), policy=no_wait())
        with pytest.raises(IndexError):
            oracle.evaluate(10_000)
        assert oracle.n_retries == 0

    def test_backoff_schedule_deterministic(self):
        plan = FaultPlan(faults=((5, ("transient",) * 3),))
        policy = FaultPolicy(max_retries=3, backoff_base=0.1)

        def run(seed):
            waits: list[float] = []
            oracle = ResilientOracle(
                FaultInjectingOracle(pool_oracle(), plan),
                policy=policy, seed=seed, sleep=waits.append,
            )
            oracle.evaluate(5)
            return waits, list(oracle.backoff_log)

        waits_a, log_a = run(42)
        waits_b, log_b = run(42)
        assert waits_a == waits_b
        assert log_a == log_b
        waits_c, _ = run(43)
        assert waits_a != waits_c
        # Exponential envelope with jitter in [0.5, 1.0] * base * 2**k.
        for k, wait in enumerate(waits_a):
            base = 0.1 * 2.0 ** k
            assert 0.5 * base <= wait <= base

    def test_zero_backoff_never_sleeps(self):
        calls: list[float] = []
        oracle = ResilientOracle(
            FaultInjectingOracle(
                pool_oracle(), FaultPlan(faults=((1, ("transient",)),))
            ),
            policy=no_wait(), sleep=calls.append,
        )
        oracle.evaluate(1)
        assert calls == []

    def test_timeout_retried_then_permanent(self):
        class SlowOracle:
            n_candidates = 4
            n_objectives = 2
            n_evaluations = 0

            def evaluate(self, index):
                import time
                time.sleep(0.2)
                return np.zeros(2)

            def evaluate_batch(self, indices):
                return np.vstack([self.evaluate(i) for i in indices])

            def reset(self):
                pass

        oracle = ResilientOracle(
            SlowOracle(),
            policy=FaultPolicy(
                max_retries=1, timeout_s=0.02, backoff_base=0.0
            ),
        )
        with pytest.raises(PermanentEvaluationError) as err:
            oracle.evaluate(0)
        assert oracle.n_timeouts == 2
        assert isinstance(err.value.__cause__, EvaluationTimeout)

    def test_latency_without_timeout_just_succeeds(self):
        inner = pool_oracle()
        oracle = ResilientOracle(
            FaultInjectingOracle(
                PoolOracle(inner.Y),
                FaultPlan(faults=((2, ("latency",)),)),
                latency_s=0.001,
            ),
            policy=no_wait(),
        )
        np.testing.assert_array_equal(oracle.evaluate(2), inner.Y[2])
        assert oracle.n_retries == 0

    def test_evaluate_batch_under_faults(self):
        inner = pool_oracle()
        oracle = ResilientOracle(
            FaultInjectingOracle(
                PoolOracle(inner.Y),
                FaultPlan(faults=((1, ("transient",)), (3, ("nan",)))),
            ),
            policy=no_wait(),
        )
        got = oracle.evaluate_batch(np.array([0, 1, 3]))
        np.testing.assert_array_equal(got, inner.Y[[0, 1, 3]])
        assert oracle.n_retries == 2


# ----------------------------------------------------------------------
# ResilientOracle: circuit breaker


class TestCircuitBreaker:
    def make(self, failing=(0, 1, 2, 3), threshold=2, cooldown=3):
        plan = FaultPlan(faults=tuple(
            (i, ("persistent",)) for i in failing
        ))
        return ResilientOracle(
            FaultInjectingOracle(pool_oracle(), plan),
            policy=FaultPolicy(
                max_retries=0, backoff_base=0.0,
                breaker_threshold=threshold, breaker_cooldown=cooldown,
            ),
        )

    def test_trips_after_consecutive_failures(self):
        oracle = self.make()
        for i in (0, 1):
            with pytest.raises(PermanentEvaluationError):
                oracle.evaluate(i)
        assert oracle.state == "open"

    def test_open_fast_fails_without_tool_runs(self):
        oracle = self.make()
        for i in (0, 1):
            with pytest.raises(PermanentEvaluationError):
                oracle.evaluate(i)
        runs_before = oracle.n_evaluations
        with pytest.raises(CircuitOpenError):
            oracle.evaluate(10)
        assert oracle.n_evaluations == runs_before
        assert oracle.n_rejections == 1

    def test_success_probe_closes_after_cooldown(self):
        oracle = self.make(cooldown=3)
        for i in (0, 1):
            with pytest.raises(PermanentEvaluationError):
                oracle.evaluate(i)
        # Two rejections served, third admission half-opens the probe.
        for i in (10, 11):
            with pytest.raises(CircuitOpenError):
                oracle.evaluate(i)
        value = oracle.evaluate(12)  # probe: healthy candidate
        assert value.shape == (2,)
        assert oracle.state == "closed"
        oracle.evaluate(13)  # stays closed

    def test_failed_probe_reopens(self):
        oracle = self.make(failing=(0, 1, 2), cooldown=2)
        for i in (0, 1):
            with pytest.raises(PermanentEvaluationError):
                oracle.evaluate(i)
        with pytest.raises(CircuitOpenError):
            oracle.evaluate(10)
        with pytest.raises(PermanentEvaluationError):
            oracle.evaluate(2)  # probe hits another failing candidate
        assert oracle.state == "open"

    def test_success_resets_consecutive_count(self):
        oracle = self.make(failing=(0, 2), threshold=2)
        with pytest.raises(PermanentEvaluationError):
            oracle.evaluate(0)
        oracle.evaluate(1)  # healthy: resets the streak
        with pytest.raises(PermanentEvaluationError):
            oracle.evaluate(2)
        assert oracle.state == "closed"

    def test_reset_closes_breaker(self):
        oracle = self.make()
        for i in (0, 1):
            with pytest.raises(PermanentEvaluationError):
                oracle.evaluate(i)
        assert oracle.state == "open"
        oracle.reset()
        assert oracle.state == "closed"
        assert oracle.n_evaluations == 0

    def test_breaker_events_recorded(self):
        rec = TraceRecorder()
        oracle = self.make()
        oracle.recorder = rec
        for i in (0, 1):
            with pytest.raises(PermanentEvaluationError):
                oracle.evaluate(i)
        changes = [e for e in rec.events
                   if isinstance(e, CircuitStateChange)]
        assert [(c.old_state, c.new_state) for c in changes] == [
            ("closed", "open")
        ]
        retries = [e for e in rec.events if isinstance(e, EvaluationRetry)]
        assert retries == []  # max_retries=0: failures, not retries


# ----------------------------------------------------------------------
# FlowOracle under injected faults


class TestFlowOracleResilience:
    @pytest.fixture()
    def flow_oracle(self, tiny_flow, tiny_benchmark):
        return FlowOracle(
            tiny_flow, tiny_benchmark.configs[:8], ("power", "delay")
        )

    def test_values_survive_transient_faults(self, tiny_flow,
                                             tiny_benchmark, flow_oracle):
        reference = FlowOracle(
            tiny_flow, tiny_benchmark.configs[:8], ("power", "delay")
        )
        wrapped = ResilientOracle(
            FaultInjectingOracle(
                flow_oracle,
                FaultPlan(faults=((0, ("transient",)), (3, ("nan",)))),
            ),
            policy=no_wait(),
        )
        for i in range(5):
            np.testing.assert_allclose(
                wrapped.evaluate(i), reference.evaluate(i)
            )
        assert wrapped.n_retries == 2
        assert wrapped.n_evaluations == 5

    def test_reset_clears_cache_and_rearms(self, flow_oracle):
        wrapped = ResilientOracle(
            FaultInjectingOracle(
                flow_oracle, FaultPlan(faults=((1, ("transient",)),))
            ),
            policy=no_wait(),
        )
        wrapped.evaluate(1)
        assert wrapped.n_retries == 1
        assert wrapped.n_evaluations == 1
        wrapped.reset()
        assert wrapped.n_evaluations == 0
        wrapped.evaluate(1)  # fault re-armed: retried again
        assert wrapped.n_retries == 2

    def test_evaluate_batch_under_faults(self, tiny_flow, tiny_benchmark,
                                         flow_oracle):
        reference = FlowOracle(
            tiny_flow, tiny_benchmark.configs[:8], ("power", "delay")
        )
        wrapped = ResilientOracle(
            FaultInjectingOracle(
                flow_oracle, FaultPlan(faults=((2, ("transient",)),))
            ),
            policy=no_wait(),
        )
        idx = np.array([0, 2, 4])
        np.testing.assert_allclose(
            wrapped.evaluate_batch(idx), reference.evaluate_batch(idx)
        )


# ----------------------------------------------------------------------
# Tuning loop: quarantine, imputation, bit-identity


def tuned(Y_pool, synthetic_pool, *, plan=None, policy=..., recorder=None,
          iterations=8):
    X, _, Xs, Ys = synthetic_pool
    if policy is ...:
        policy = FaultPolicy(max_retries=1, backoff_base=0.0)
    cfg = PPATunerConfig(
        max_iterations=iterations, seed=3, fault_policy=policy
    )
    oracle = PoolOracle(Y_pool)
    if plan is not None:
        oracle = FaultInjectingOracle(oracle, plan, latency_s=0.0)
    tuner = (PPATuner(cfg) if recorder is None
             else PPATuner(cfg, recorder=recorder))
    init = np.array([3, 10, 20, 30, 40])
    return tuner.tune(
        X, oracle, sources=[(Xs, Ys)], init_indices=init.copy()
    )


class TestTunerUnderFaults:
    def test_transient_faults_bit_identical(self, synthetic_pool):
        _, Y, _, _ = synthetic_pool
        clean = tuned(Y, synthetic_pool)
        plan = FaultPlan.seeded(11, len(Y), rate=0.3, kinds=("transient",))
        assert plan.faults  # non-vacuous
        chaotic = tuned(Y, synthetic_pool, plan=plan)
        assert list(clean.pareto_indices) == list(chaotic.pareto_indices)
        assert list(clean.evaluated_indices) == list(
            chaotic.evaluated_indices
        )
        assert chaotic.n_failed_evaluations == 0
        assert chaotic.quarantined_indices.size == 0

    def test_persistent_faults_quarantined(self, synthetic_pool):
        _, Y, _, _ = synthetic_pool
        plan = FaultPlan(faults=(
            (3, ("persistent",)), (10, ("persistent",)),
        ))
        result = tuned(Y, synthetic_pool, plan=plan)
        assert set(result.quarantined_indices) == {3, 10}
        assert result.n_failed_evaluations >= 2
        assert not set(result.quarantined_indices) & set(
            result.pareto_indices
        )
        assert not set(result.quarantined_indices) & set(
            result.evaluated_indices
        )

    def test_loop_survives_partial_vectors(self, synthetic_pool):
        _, Y, _, _ = synthetic_pool
        plan = FaultPlan(faults=((10, ("partial",)), (20, ("partial",))))
        result = tuned(Y, synthetic_pool, plan=plan)
        assert result.n_evaluations > 5
        assert np.isfinite(result.pareto_points).all()

    def test_on_permanent_failure_raise(self, synthetic_pool):
        _, Y, _, _ = synthetic_pool
        plan = FaultPlan(faults=((3, ("persistent",)),))
        policy = FaultPolicy(
            max_retries=0, backoff_base=0.0, on_permanent_failure="raise"
        )
        with pytest.raises(PermanentEvaluationError):
            tuned(Y, synthetic_pool, plan=plan, policy=policy)

    def test_result_defaults_backward_compatible(self):
        from repro.core.result import TuningResult

        result = TuningResult(
            pareto_indices=np.array([1]),
            pareto_points=np.ones((1, 2)),
            n_evaluations=1,
            n_iterations=1,
        )
        assert result.quarantined_indices.size == 0
        assert result.n_failed_evaluations == 0

    def test_trace_round_trip_under_faults(self, synthetic_pool, tmp_path):
        _, Y, _, _ = synthetic_pool
        path = tmp_path / "faulty.jsonl"
        rec = TraceRecorder(sinks=[JsonlSink(path), MemorySink()])
        plan = FaultPlan(faults=(
            (3, ("persistent",)), (15, ("transient",)),
        ))
        result = tuned(Y, synthetic_pool, plan=plan, recorder=rec)
        rec.close()

        retries = [e for e in rec.events if isinstance(e, EvaluationRetry)]
        quarantines = [e for e in rec.events
                       if isinstance(e, PointQuarantined)]
        assert retries
        assert [q.index for q in quarantines] == [3]

        replay = replay_trace(path)
        replayed = replay.to_result()
        assert list(replayed.quarantined_indices) == list(
            result.quarantined_indices
        )
        assert replayed.n_failed_evaluations == result.n_failed_evaluations
        assert list(replayed.pareto_indices) == list(result.pareto_indices)

        summary = summarize_trace(path)
        assert "reliability:" in summary
        assert "quarantined" in summary
        assert "[3]" in summary


# ----------------------------------------------------------------------
# repro.env


class TestEnvModule:
    def test_workers(self, monkeypatch):
        monkeypatch.delenv("PPATUNER_WORKERS", raising=False)
        assert env.workers(3) == 3
        assert env.workers(0) == 1  # clamped
        assert env.workers() >= 1
        monkeypatch.setenv("PPATUNER_WORKERS", "5")
        assert env.workers() == 5
        assert env.workers(2) == 2  # explicit wins

    def test_cache_dirs(self, monkeypatch, tmp_path):
        monkeypatch.delenv("PPATUNER_CACHE", raising=False)
        monkeypatch.delenv("PPATUNER_RUN_CACHE", raising=False)
        assert env.bench_cache_dir() == env.repo_root() / ".cache" / "benchmarks"
        assert env.run_cache_dir() == env.repo_root() / ".cache" / "runs"
        monkeypatch.setenv("PPATUNER_CACHE", str(tmp_path / "b"))
        monkeypatch.setenv("PPATUNER_RUN_CACHE", str(tmp_path / "r"))
        assert env.bench_cache_dir() == tmp_path / "b"
        assert env.run_cache_dir() == tmp_path / "r"

    def test_trace_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("PPATUNER_TRACE_DIR", raising=False)
        assert env.trace_dir() is None
        assert env.default_trace_dir() == env.repo_root() / ".cache" / "traces"
        monkeypatch.setenv("PPATUNER_TRACE_DIR", str(tmp_path))
        assert env.trace_dir() == tmp_path
        assert env.default_trace_dir() == tmp_path

    def test_fault_seed(self, monkeypatch):
        monkeypatch.delenv("PPATUNER_FAULT_SEED", raising=False)
        assert env.fault_seed() is None
        monkeypatch.setenv("PPATUNER_FAULT_SEED", "42")
        assert env.fault_seed() == 42
        monkeypatch.setenv("PPATUNER_FAULT_SEED", "not-a-seed")
        with pytest.raises(ValueError, match="PPATUNER_FAULT_SEED"):
            env.fault_seed()

    def test_full_scale(self, monkeypatch):
        monkeypatch.delenv("PPATUNER_FULL", raising=False)
        assert env.full_scale() is False
        monkeypatch.setenv("PPATUNER_FULL", "1")
        assert env.full_scale() is True

    def test_registry_covers_every_variable(self):
        assert set(env.ENV_VARS) == {
            "PPATUNER_WORKERS", "PPATUNER_CACHE", "PPATUNER_RUN_CACHE",
            "PPATUNER_TRACE_DIR", "PPATUNER_FULL", "PPATUNER_FAULT_SEED",
        }

    def test_call_sites_delegate(self, monkeypatch, tmp_path):
        """The consolidated accessors drive the historical call sites."""
        from repro.bench.generate import cache_workers, full_scale
        from repro.runner.memo import default_memo_dir
        from repro.runner.runner import runner_workers

        monkeypatch.setenv("PPATUNER_WORKERS", "4")
        monkeypatch.setenv("PPATUNER_RUN_CACHE", str(tmp_path / "m"))
        monkeypatch.setenv("PPATUNER_FULL", "true")
        assert cache_workers() == 4
        assert runner_workers() == 4
        assert default_memo_dir() == tmp_path / "m"
        assert full_scale() is True


# ----------------------------------------------------------------------
# Scenario plumbing, CLI flags, public API


class TestPlumbing:
    def test_spec_hash_unchanged_without_policy(self, tiny_benchmark):
        from repro.experiments.scenarios import build_scenario_jobs

        default = build_scenario_jobs(
            tiny_benchmark, tiny_benchmark, "s", "target2",
            methods=("Random",), seed=1,
        )
        with_policy = build_scenario_jobs(
            tiny_benchmark, tiny_benchmark, "s", "target2",
            methods=("Random",), seed=1,
            fault_policy=FaultPolicy(max_retries=7),
        )
        assert default[0].spec.params == ()
        assert with_policy[0].spec.param("fault_policy") is not None
        assert (default[0].spec.spec_hash()
                != with_policy[0].spec.spec_hash())
        decoded = FaultPolicy.from_json(
            json.loads(with_policy[0].spec.param("fault_policy"))
        )
        assert decoded == FaultPolicy(max_retries=7)

    def test_make_method_applies_policy(self):
        from repro.experiments.scenarios import make_method

        tuner = make_method(
            "PPATuner", 30, 100, 0,
            fault_policy=FaultPolicy(max_retries=9),
        )
        assert tuner.config.fault_policy.max_retries == 9
        baseline = make_method(
            "Random", 30, 100, 0, fault_policy=FaultPolicy(max_retries=9)
        )
        assert baseline is not None  # baselines simply ignore it

    def test_cli_flags(self):
        from repro.cli import _fault_policy_from_args, build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["tune", "target2", "--max-retries", "4",
             "--eval-timeout", "1.5"]
        )
        policy = _fault_policy_from_args(args)
        assert policy == FaultPolicy(max_retries=4, timeout_s=1.5)
        args = parser.parse_args(["scenario", "one", "--eval-timeout", "2"])
        policy = _fault_policy_from_args(args)
        assert policy.timeout_s == 2.0
        assert policy.max_retries == FaultPolicy().max_retries
        args = parser.parse_args(["experiments", "all"])
        assert _fault_policy_from_args(args) is None

    def test_top_level_exports(self):
        import repro

        assert repro.FaultPolicy is FaultPolicy
        assert repro.ResilientOracle is ResilientOracle
        assert repro.FaultInjectingOracle is FaultInjectingOracle
        assert repro.FaultPlan is FaultPlan


# ----------------------------------------------------------------------
# Memo round-trip and backward compatibility


class TestMemoCompatibility:
    def make_record(self, quarantined):
        from repro.core.result import TuningResult
        from repro.experiments.scenarios import MethodOutcome
        from repro.runner import RunSpec
        from repro.runner.runner import RunRecord, RunTelemetry

        spec = RunSpec(
            kind="scenario", scenario="memo-compat", method="Random",
            objective_space="power-delay",
            objectives=("power", "delay"), seed=5,
        )
        result = TuningResult(
            pareto_indices=np.array([2, 4]),
            pareto_points=np.ones((2, 2)),
            n_evaluations=9,
            n_iterations=3,
            evaluated_indices=np.array([1, 2, 3, 4]),
            quarantined_indices=np.asarray(quarantined, dtype=int),
            n_failed_evaluations=len(quarantined),
        )
        outcome = MethodOutcome(
            method="Random", objective_space="power-delay",
            hv_error=0.1, adrs=0.2, runs=9, result=result,
        )
        return RunRecord(
            spec=spec, outcome=outcome, telemetry=RunTelemetry()
        )

    def test_round_trip(self, tmp_path):
        from repro.runner import RunMemo

        memo = RunMemo(tmp_path)
        record = self.make_record([7, 8])
        memo.save(record)
        loaded = memo.load(record.spec)
        assert loaded is not None
        got = loaded.outcome.result
        assert list(got.quarantined_indices) == [7, 8]
        assert got.n_failed_evaluations == 2


# ----------------------------------------------------------------------
# Chaos: kill a pool worker mid-cell, resume from the memo


CHAOS_SCRIPT = """
import os
import sys

import numpy as np

import repro.runner.cells as cells
from repro.bench.dataset import BenchmarkDataset
from repro.bench.spaces import target2_space
from repro.experiments.scenarios import build_scenario_jobs
from repro.runner import ExperimentRunner, RunMemo
from repro.space.sampling import latin_hypercube

memo_dir = sys.argv[1]
workers = int(sys.argv[2])
armed = os.environ.get("CHAOS_ARMED") == "1"

_orig = cells._EXECUTORS["scenario"]

def chaotic(spec, source, target, ppa_config, recorder=cells.NULL_RECORDER):
    if armed and spec.objective_space == "area-delay":
        os._exit(13)  # hard kill, mid-cell: no cleanup, no memo write
    return _orig(spec, source, target, ppa_config, recorder)

cells._EXECUTORS["scenario"] = chaotic

space = target2_space()
configs = latin_hypercube(space, 40, seed=5)
X = space.encode_many(configs)

def dataset(name, seed):
    Y = np.random.default_rng(seed).random((40, 3)) + 0.5
    return BenchmarkDataset(name, space, configs, X, Y, "mac_small")

jobs = build_scenario_jobs(
    dataset("chaos-src", 1), dataset("chaos-tgt", 2), "chaos", "target2",
    methods=("Random",),
    objective_spaces={
        "power-delay": ("power", "delay"),
        "area-delay": ("area", "delay"),
    },
    seed=9,
)
runner = ExperimentRunner(workers=workers, memo=RunMemo(memo_dir))
records = runner.run(jobs)
for record in records:
    print(f"CELL {record.spec.objective_space} "
          f"memoized={record.telemetry.memoized}")
"""


class TestChaosResume:
    def run_script(self, tmp_path, memo_dir, workers, armed):
        script = tmp_path / "chaos_run.py"
        script.write_text(textwrap.dedent(CHAOS_SCRIPT))
        chaos_env = dict(os.environ)
        chaos_env["PYTHONPATH"] = str(SRC_DIR)
        chaos_env.pop("PPATUNER_TRACE_DIR", None)
        if armed:
            chaos_env["CHAOS_ARMED"] = "1"
        else:
            chaos_env.pop("CHAOS_ARMED", None)
        return subprocess.run(
            [sys.executable, str(script), str(memo_dir), str(workers)],
            capture_output=True, text=True, env=chaos_env, timeout=300,
        )

    def test_worker_kill_then_resume(self, tmp_path):
        from repro.runner import RunMemo

        memo_dir = tmp_path / "memo"
        # Invocation 1: a pool worker is killed mid-cell.  The healthy
        # cell lands in the memo; the killed one leaves nothing behind
        # (the run itself dies with the injected exit code).
        crashed = self.run_script(tmp_path, memo_dir, workers=2,
                                  armed=True)
        assert crashed.returncode == 13, crashed.stderr
        assert len(RunMemo(memo_dir)) == 1

        # Invocation 2: resume.  The finished cell must be served from
        # the memo; only the unfinished cell re-executes.
        resumed = self.run_script(tmp_path, memo_dir, workers=1,
                                  armed=False)
        assert resumed.returncode == 0, resumed.stderr
        lines = sorted(
            line for line in resumed.stdout.splitlines()
            if line.startswith("CELL ")
        )
        assert lines == [
            "CELL area-delay memoized=False",
            "CELL power-delay memoized=True",
        ]
        assert len(RunMemo(memo_dir)) == 2
