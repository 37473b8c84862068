"""Tests for the unified ``Tuner`` protocol, the ``sources=`` keyword,
the method registry, and the ``warm_start`` config surface (bit-identity of the random path,
fingerprint/memo stability, snapshot round trips).
"""

from __future__ import annotations

import inspect
import warnings

import numpy as np
import pytest

from repro.baselines import (
    Aspdac20Fist,
    CopulaTransferTuner,
    Dac19Recommender,
    Mlcad19LcbBayesOpt,
    RandomSearchTuner,
    Tcad19ActiveLearner,
)
from repro.core import PPATuner, PPATunerConfig, PoolOracle, Tuner
from repro.core.session import TuningSession, drive
from repro.experiments import (
    ALL_METHODS,
    make_method,
    register_method,
    registered_methods,
)
from repro.obs import MemorySink, TraceRecorder
from repro.runner.spec import config_fingerprint
from repro.service import RemoteTuner, ServiceClient

BASELINES = [
    Tcad19ActiveLearner,
    Mlcad19LcbBayesOpt,
    Dac19Recommender,
    Aspdac20Fist,
    RandomSearchTuner,
    CopulaTransferTuner,
]


def _stripped(sink: MemorySink) -> list[dict]:
    out = []
    for ev in sink.events:
        d = ev.to_json()
        d.pop("seconds", None)
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# Protocol conformance
# ---------------------------------------------------------------------------


class TestTunerProtocol:
    @pytest.mark.parametrize("cls", BASELINES)
    def test_baselines_conform(self, cls):
        assert isinstance(cls(budget=10), Tuner)

    def test_ppatuner_conforms(self):
        assert isinstance(PPATuner(), Tuner)

    def test_remote_tuner_conforms(self):
        client = ServiceClient("http://localhost:1")
        assert isinstance(RemoteTuner(client), Tuner)

    @pytest.mark.parametrize("cls", BASELINES + [PPATuner, RemoteTuner])
    def test_tune_takes_the_protocol_parameters(self, cls):
        """Every tuner's ``tune`` has exactly the protocol's parameters:
        source data has the one spelling ``sources=``."""
        def parameters(fn):
            return [
                (p.name, p.kind, p.default)
                for p in inspect.signature(fn).parameters.values()
            ]

        assert parameters(cls.tune) == parameters(Tuner.tune)

    def test_duck_typed_object_conforms(self):
        class MyTuner:
            name = "mine"

            def tune(self, X_pool, oracle, *, sources=None,
                     init_indices=None):
                raise NotImplementedError

        assert isinstance(MyTuner(), Tuner)

    def test_missing_tune_fails(self):
        class NotATuner:
            name = "nope"

        assert not isinstance(NotATuner(), Tuner)

    @pytest.mark.parametrize("cls", BASELINES)
    def test_unified_kwargs_accepted(self, cls, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        result = cls(budget=25, seed=0).tune(
            X, PoolOracle(Y), sources=[(Xs, Ys)]
        )
        assert result.n_evaluations <= 25


# ---------------------------------------------------------------------------
# Source data keyword
# ---------------------------------------------------------------------------


class TestDeprecatedSourceKwargs:
    def test_new_spelling_is_warning_free(self, synthetic_pool, recwarn):
        X, Y, Xs, Ys = synthetic_pool
        warnings.simplefilter("error", DeprecationWarning)
        Dac19Recommender(budget=10, seed=0).tune(
            X, PoolOracle(Y), sources=[(Xs, Ys)]
        )


# ---------------------------------------------------------------------------
# init_indices validation
# ---------------------------------------------------------------------------


class TestInitIndicesValidation:
    @pytest.mark.parametrize("cls", BASELINES)
    def test_duplicates_rejected(self, cls, synthetic_pool):
        X, Y, _, _ = synthetic_pool
        with pytest.raises(ValueError, match=r"duplicate.*\[1\]"):
            cls(budget=10).tune(
                X, PoolOracle(Y), init_indices=np.array([0, 1, 1, 2])
            )

    @pytest.mark.parametrize("cls", BASELINES)
    def test_out_of_range_rejected(self, cls, synthetic_pool):
        X, Y, _, _ = synthetic_pool
        with pytest.raises(ValueError, match=r"out of range.*\[500\]"):
            cls(budget=10).tune(
                X, PoolOracle(Y), init_indices=np.array([0, 500])
            )

    @pytest.mark.parametrize("entry", ["session", "tune", "baseline"])
    def test_bad_init_rejected_at_creation(
        self, entry, bad_init_indices, synthetic_pool
    ):
        """The session, ``PPATuner.tune`` and the baselines share one
        check, which fails before any tool run."""
        X, Y, _, _ = synthetic_pool
        init, message = bad_init_indices
        oracle = PoolOracle(Y)
        cfg = PPATunerConfig(max_iterations=5, seed=0)
        with pytest.raises(ValueError, match=message):
            if entry == "session":
                TuningSession(cfg, X, Y.shape[1], init_indices=init)
            elif entry == "tune":
                PPATuner(cfg).tune(X, oracle, init_indices=init)
            else:
                Mlcad19LcbBayesOpt(budget=10).tune(
                    X, oracle, init_indices=init
                )
        assert oracle.n_evaluations == 0


# ---------------------------------------------------------------------------
# Method registry
# ---------------------------------------------------------------------------


class TestMethodRegistry:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_all_methods_construct_and_conform(self, name):
        tuner = make_method(name, budget=20, pool_size=100, seed=0)
        assert isinstance(tuner, Tuner)

    def test_unknown_method_lists_registered(self):
        with pytest.raises(ValueError) as exc:
            make_method("NoSuchMethod", budget=20, pool_size=100, seed=0)
        msg = str(exc.value)
        assert "NoSuchMethod" in msg
        for name in registered_methods():
            assert name in msg

    def test_registered_methods_cover_all_methods(self):
        assert set(ALL_METHODS) <= set(registered_methods())

    def test_register_decorator_adds_and_replaces(self):
        from repro.experiments import scenarios

        @register_method("TestOnly")
        def _factory(budget, pool_size, seed, ppa_config, fault_policy):
            return RandomSearchTuner(budget=budget, seed=seed)

        try:
            assert "TestOnly" in registered_methods()
            tuner = make_method("TestOnly", budget=9, pool_size=50, seed=1)
            assert isinstance(tuner, RandomSearchTuner)

            @register_method("TestOnly")
            def _factory2(budget, pool_size, seed, ppa_config, fault_policy):
                return CopulaTransferTuner(budget=budget, seed=seed)

            tuner = make_method("TestOnly", budget=9, pool_size=50, seed=1)
            assert isinstance(tuner, CopulaTransferTuner)
        finally:
            scenarios._METHOD_REGISTRY.pop("TestOnly", None)

    def test_copula_transfer_runs_via_registry(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        tuner = make_method(
            "CopulaTransfer", budget=15, pool_size=len(X), seed=0
        )
        result = tuner.tune(X, PoolOracle(Y), sources=[(Xs, Ys)])
        assert 0 < result.n_evaluations <= 15


# ---------------------------------------------------------------------------
# warm_start: config surface
# ---------------------------------------------------------------------------


class TestWarmStartConfig:
    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError, match="warm_start"):
            PPATunerConfig(warm_start="bogus")

    def test_json_round_trip(self):
        cfg = PPATunerConfig(warm_start="copula")
        back = PPATunerConfig.from_json(cfg.to_json())
        assert back.warm_start == "copula"
        assert back == cfg

    def test_old_payload_defaults_to_random(self):
        payload = PPATunerConfig().to_json()
        payload.pop("warm_start")
        assert PPATunerConfig.from_json(payload).warm_start == "random"

    def test_fingerprint_drops_default_spelling(self):
        # Spelling out the default warm_start is the same config.
        assert config_fingerprint(PPATunerConfig()) == config_fingerprint(
            PPATunerConfig(warm_start="random")
        )
        assert config_fingerprint(PPATunerConfig()) != config_fingerprint(
            PPATunerConfig(warm_start="copula")
        )


# ---------------------------------------------------------------------------
# warm_start: trajectories
# ---------------------------------------------------------------------------


class TestWarmStartTrajectories:
    def _run(self, synthetic_pool, **cfg_kw):
        X, Y, Xs, Ys = synthetic_pool
        sink = MemorySink()
        cfg = PPATunerConfig(max_iterations=12, seed=3, **cfg_kw)
        tuner = PPATuner(cfg, recorder=TraceRecorder(sinks=[sink]))
        result = tuner.tune(X, PoolOracle(Y), sources=[(Xs, Ys)])
        return result, _stripped(sink), tuner.session_.init_indices

    def test_random_warm_start_is_bit_identical(self, synthetic_pool):
        """``warm_start="random"`` must not perturb the default
        trajectory in any way — results or the full event stream."""
        ref, ref_stream, ref_init = self._run(synthetic_pool)
        got, got_stream, got_init = self._run(
            synthetic_pool, warm_start="random"
        )
        assert np.array_equal(ref_init, got_init)
        assert np.array_equal(ref.evaluated_indices, got.evaluated_indices)
        assert np.array_equal(ref.pareto_indices, got.pareto_indices)
        assert ref_stream == got_stream

    def test_copula_warm_start_changes_init(self, synthetic_pool):
        _, _, random_init = self._run(synthetic_pool)
        _, _, copula_init = self._run(synthetic_pool, warm_start="copula")
        assert not np.array_equal(
            np.sort(random_init), np.sort(copula_init)
        )

    def test_copula_warm_start_deterministic(self, synthetic_pool):
        a, a_stream, a_init = self._run(synthetic_pool, warm_start="copula")
        b, b_stream, b_init = self._run(synthetic_pool, warm_start="copula")
        assert np.array_equal(a_init, b_init)
        assert a_stream == b_stream

    def test_copula_without_sources_falls_back_to_random(
        self, synthetic_pool
    ):
        X, Y, _, _ = synthetic_pool

        def run(**kw):
            cfg = PPATunerConfig(max_iterations=10, seed=5, **kw)
            tuner = PPATuner(cfg)
            tuner.tune(X, PoolOracle(Y))
            return tuner.session_.init_indices

        assert np.array_equal(run(), run(warm_start="copula"))

    def test_snapshot_round_trip_preserves_warm_start(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        cfg = PPATunerConfig(max_iterations=10, seed=2, warm_start="copula")
        session = TuningSession(
            cfg, X, Y.shape[1], sources=[(Xs, Ys)]
        )
        ref_init = session.init_indices.copy()
        oracle = PoolOracle(Y)
        ref = drive(
            TuningSession.restore(session.snapshot()), oracle
        )

        resumed = TuningSession.restore(session.snapshot())
        assert resumed.config.warm_start == "copula"
        assert np.array_equal(resumed.init_indices, ref_init)
        got = drive(resumed, PoolOracle(Y))
        assert np.array_equal(ref.evaluated_indices, got.evaluated_indices)
