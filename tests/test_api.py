"""Tests for the unified public API.

Covers the :class:`repro.core.oracle.Oracle` protocol (both built-in
oracles and third-party duck-typed implementations), ``FlowOracle``
batch/accounting semantics, and the lazy ``repro`` package surface.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import FlowOracle, Oracle, PoolOracle, PPATuner, PPATunerConfig
from repro.obs import MemorySink, TraceRecorder
from repro.space import (
    EnumParameter,
    FloatParameter,
    ParameterSpace,
    latin_hypercube,
)

rng = np.random.default_rng(11)


class _DuckOracle:
    """Minimal third-party oracle: satisfies the protocol, inherits
    nothing."""

    def __init__(self, Y):
        self.Y = np.asarray(Y, dtype=float)
        self._seen = set()

    @property
    def n_candidates(self):
        return self.Y.shape[0]

    @property
    def n_objectives(self):
        return self.Y.shape[1]

    @property
    def n_evaluations(self):
        return len(self._seen)

    def evaluate(self, index):
        self._seen.add(int(index))
        return self.Y[int(index)].copy()

    def evaluate_batch(self, indices):
        return np.vstack([self.evaluate(int(i)) for i in indices])

    def reset(self):
        self._seen.clear()


class TestOracleProtocol:
    def test_builtin_oracles_satisfy_protocol(self, tiny_flow):
        assert isinstance(PoolOracle(rng.uniform(size=(5, 2))), Oracle)
        space = ParameterSpace((FloatParameter("freq", 900.0, 1300.0),))
        configs = latin_hypercube(space, 3, seed=0)
        assert isinstance(FlowOracle(tiny_flow, configs), Oracle)

    def test_duck_typed_oracle_satisfies_protocol(self):
        assert isinstance(_DuckOracle(rng.uniform(size=(5, 2))), Oracle)

    def test_tuner_accepts_duck_typed_oracle(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool
        oracle = _DuckOracle(Y)
        result = PPATuner(
            PPATunerConfig(max_iterations=4, seed=0)
        ).tune(X, oracle, sources=[(Xs, Ys)])
        assert len(result.pareto_indices) > 0
        assert oracle.n_evaluations > 0


class TestFlowOracleSemantics:
    @pytest.fixture(scope="class")
    def oracle(self, request):
        flow = request.getfixturevalue("tiny_flow")
        space = ParameterSpace((
            FloatParameter("freq", 900.0, 1300.0),
            EnumParameter(
                "flow_effort", ("standard", "express", "extreme")
            ),
        ))
        configs = latin_hypercube(space, 6, seed=2)
        return FlowOracle(flow, configs, ("power", "delay"))

    def test_batch_rows_follow_indices_order(self, oracle):
        oracle.reset()
        batch = oracle.evaluate_batch(np.array([4, 1, 4, 2]))
        assert batch.shape == (4, 2)
        np.testing.assert_allclose(batch[0], oracle.evaluate(4))
        np.testing.assert_allclose(batch[1], oracle.evaluate(1))
        np.testing.assert_allclose(batch[2], batch[0])
        np.testing.assert_allclose(batch[3], oracle.evaluate(2))

    def test_batch_counts_distinct_runs_only(self, oracle):
        oracle.reset()
        oracle.evaluate_batch(np.array([0, 3, 0, 3, 5]))
        assert oracle.n_evaluations == 3
        oracle.evaluate(0)  # cached: not recounted
        assert oracle.n_evaluations == 3

    def test_reset_forgets_and_reproduces(self, oracle):
        oracle.reset()
        first = oracle.evaluate(1)
        assert oracle.n_evaluations == 1
        oracle.reset()
        assert oracle.n_evaluations == 0
        np.testing.assert_allclose(oracle.evaluate(1), first)

    def test_out_of_range_raises(self, oracle):
        with pytest.raises(IndexError):
            oracle.evaluate(99)

    def test_process_pool_batch_matches_serial(self, oracle):
        sink = MemorySink()
        parallel = FlowOracle(
            oracle.flow, oracle.configs, oracle.objective_names,
            recorder=TraceRecorder(sinks=[sink]), workers=2,
        )
        oracle.reset()
        serial = oracle.evaluate_batch(np.array([0, 3, 0, 5]))
        runs = oracle.flow.run_count
        rows = parallel.evaluate_batch(np.array([0, 3, 0, 5]))
        np.testing.assert_array_equal(rows, serial)
        assert parallel.n_evaluations == 3
        # Runs made in worker processes still count on the caller's flow.
        assert oracle.flow.run_count == runs + 3
        assert [e.index for e in sink.events] == [0, 3, 0, 5]
        assert [e.cached for e in sink.events] == [False, False, True, False]


class TestLazyPackageSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_dir_lists_exports(self):
        listing = dir(repro)
        for name in ("PPATuner", "Oracle", "TraceRecorder",
                     "ExperimentRunner", "replay_trace"):
            assert name in listing

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_protocol_is_the_canonical_object(self):
        from repro.core.oracle import Oracle as canonical

        assert repro.Oracle is canonical

    def test_import_is_lazy(self):
        import subprocess
        import sys

        code = (
            "import sys; import repro; "
            "heavy = [m for m in ('repro.pdtool.flow', "
            "'repro.experiments.scenarios', 'repro.runner.runner') "
            "if m in sys.modules]; "
            "print(','.join(heavy) or 'LAZY')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "LAZY"
