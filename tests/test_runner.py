"""Tests for the parallel experiment runner (spec, memo, resume)."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro.runner.runner as runner_mod
from repro.core import PPATunerConfig
from repro.core.result import IterationRecord, TuningResult
from repro.experiments.scenarios import (
    MethodOutcome,
    build_scenario_jobs,
    run_scenario,
)
from repro.obs import records_equal
from repro.runner import (
    ExperimentRunner,
    RunJob,
    RunMemo,
    RunSpec,
    config_fingerprint,
    derive_rng,
    derive_seed,
    format_telemetry_table,
    make_params,
    stable_token,
)
from repro.runner.cells import execute_spec
from repro.runner.runner import RunRecord, RunTelemetry


def tiny_jobs(tiny_benchmark, methods=("Random", "MLCAD'19"), seed=0,
              repeats=1):
    """Scenario cells over the 60-point tiny benchmark."""
    return build_scenario_jobs(
        tiny_benchmark, tiny_benchmark, "tiny_scenario", "target2",
        methods=methods,
        objective_spaces={"power-delay": ("power", "delay")},
        n_source=30, seed=seed, repeats=repeats,
    )


class TestSpecHashing:
    def test_stable_token_ints_pass_through(self):
        assert stable_token(7) == 7
        assert stable_token(-1) == stable_token(-1)

    def test_stable_token_strings_stable(self):
        # Must not depend on the process hash salt.
        assert stable_token("power-delay") == stable_token("power-delay")
        assert stable_token("power") != stable_token("delay")

    def test_derive_rng_order_independent(self):
        a = derive_rng(0, "init", "power-delay").integers(0, 1000, 5)
        # Interleave unrelated draws; the keyed stream must not move.
        derive_rng(0, "source", 200).integers(0, 1000, 50)
        b = derive_rng(0, "init", "power-delay").integers(0, 1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_derive_seed_distinguishes_streams(self):
        s1 = derive_seed(0, "method", "power-delay", "Random", 0)
        s2 = derive_seed(0, "method", "power-delay", "Random", 1)
        s3 = derive_seed(0, "method", "area-delay", "Random", 0)
        assert len({s1, s2, s3}) == 3

    def test_spec_hash_stable_and_sensitive(self):
        spec = RunSpec(
            kind="scenario", scenario="s", method="Random",
            objective_space="power-delay",
            objectives=("power", "delay"), seed=3,
            params=make_params(min_budget=20),
        )
        again = RunSpec(
            kind="scenario", scenario="s", method="Random",
            objective_space="power-delay",
            objectives=("power", "delay"), seed=3,
            params=make_params(min_budget=20),
        )
        assert spec.spec_hash() == again.spec_hash()
        bumped = RunSpec(
            kind="scenario", scenario="s", method="Random",
            objective_space="power-delay",
            objectives=("power", "delay"), seed=4,
            params=make_params(min_budget=20),
        )
        assert spec.spec_hash() != bumped.spec_hash()

    def test_config_fingerprint(self):
        assert config_fingerprint(None) == ""
        a = config_fingerprint(PPATunerConfig(max_iterations=10))
        b = config_fingerprint(PPATunerConfig(max_iterations=10))
        c = config_fingerprint(PPATunerConfig(max_iterations=11))
        assert a == b
        assert a != c


class TestMemo:
    def make_record(self, tiny_benchmark, seed=0):
        job = tiny_jobs(tiny_benchmark, methods=("Random",), seed=seed)[0]
        return execute_spec(job.spec, tiny_benchmark, tiny_benchmark)

    def test_roundtrip(self, tmp_path, tiny_benchmark):
        memo = RunMemo(tmp_path)
        record = self.make_record(tiny_benchmark)
        memo.save(record)
        assert len(memo) == 1
        loaded = memo.load(record.spec)
        assert loaded is not None
        assert loaded.telemetry.memoized
        assert loaded.outcome.hv_error == record.outcome.hv_error
        assert loaded.outcome.adrs == record.outcome.adrs
        assert loaded.outcome.runs == record.outcome.runs
        np.testing.assert_array_equal(
            loaded.outcome.result.evaluated_indices,
            record.outcome.result.evaluated_indices,
        )

    def test_miss_for_other_spec(self, tmp_path, tiny_benchmark):
        memo = RunMemo(tmp_path)
        memo.save(self.make_record(tiny_benchmark, seed=0))
        other = tiny_jobs(tiny_benchmark, methods=("Random",), seed=9)
        assert memo.load(other[0].spec) is None

    def test_corruption_self_heals(self, tmp_path, tiny_benchmark):
        memo = RunMemo(tmp_path)
        record = self.make_record(tiny_benchmark)
        memo.save(record)
        path = tmp_path / memo.entry_name(record.spec)
        path.write_bytes(b"torn write")
        assert memo.load(record.spec) is None
        assert not path.exists()

    def test_invalidate(self, tmp_path, tiny_benchmark):
        memo = RunMemo(tmp_path)
        record = self.make_record(tiny_benchmark)
        memo.save(record)
        memo.invalidate([record.spec])
        assert len(memo) == 0
        assert memo.load(record.spec) is None

    def test_other_library_code_re_executes(
        self, tmp_path, tiny_benchmark, monkeypatch
    ):
        """An entry computed by other ``repro`` sources is dropped, not
        served: a code change may have moved the cell's trajectory."""
        import repro.runner.memo as memo_mod

        memo = RunMemo(tmp_path)
        record = self.make_record(tiny_benchmark)
        path = memo.save(record)
        assert memo.load(record.spec) is not None
        monkeypatch.setattr(memo_mod, "_code_digest", lambda: "edited")
        assert memo.load(record.spec) is None
        assert not path.exists()

    def edge_record(self):
        """A record with every awkward value an entry must carry: a NaN
        diameter, an empty front, a NaN score, extras and telemetry."""
        spec = RunSpec(
            kind="scenario", scenario="memo-json", method="PPATuner",
            objective_space="power-delay", objectives=("power", "delay"),
            seed=3, repeat=1,
        )
        result = TuningResult(
            pareto_indices=np.empty(0, dtype=int),
            pareto_points=np.empty((0, 2)),
            n_evaluations=7,
            n_iterations=2,
            history=[
                IterationRecord(0, 5, 0, 1, 6, float("nan"), [4]),
                IterationRecord(1, 3, 1, 2, 7, 0.1 + 0.2, [9]),
            ],
            evaluated_indices=np.array([8, 2, 5, 4, 9]),
            stop_reason="max_iterations",
            quarantined_indices=np.array([6]),
            n_failed_evaluations=1,
        )
        outcome = MethodOutcome(
            method="PPATuner", objective_space="power-delay",
            hv_error=1.0 / 3.0, adrs=float("nan"), runs=7,
            result=result, repeat=1,
        )
        telemetry = RunTelemetry(
            wall_time=0.25, runs=7, worker_pid=123,
            calibration={"n_full_fits": 2, "n_incremental": 5},
            trace_path="trace-x.jsonl", n_events=11,
        )
        extras = {
            "curve_runs": [1, 2],
            "curve_hv_error": [0.5, 1.0 / 7.0],
            "lambdas": [[0.25, -0.125]],
        }
        return RunRecord(spec, outcome, telemetry, extras)

    def test_entry_reloads_field_for_field(self, tmp_path):
        memo = RunMemo(tmp_path)
        record = self.edge_record()
        path = memo.save(record)
        assert path.suffix == ".json"
        loaded = memo.load(record.spec)
        assert loaded is not None
        assert loaded.spec == record.spec
        assert loaded.extras == record.extras
        # A memo hit costs no compute: its wall time reads 0.0.
        assert loaded.telemetry == dataclasses.replace(
            record.telemetry, wall_time=0.0, memoized=True
        )
        for f in dataclasses.fields(MethodOutcome):
            if f.name == "result":
                continue
            want = getattr(record.outcome, f.name)
            got = getattr(loaded.outcome, f.name)
            assert got == want or (np.isnan(want) and np.isnan(got))
        for f in dataclasses.fields(TuningResult):
            want = getattr(record.outcome.result, f.name)
            got = getattr(loaded.outcome.result, f.name)
            if f.name == "history":
                assert records_equal(got, want)
            elif isinstance(want, np.ndarray):
                assert got.shape == want.shape, f.name
                assert got.dtype == want.dtype, f.name
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want, f.name

    def test_version_one_entry_is_a_miss(self, tmp_path):
        memo = RunMemo(tmp_path)
        record = self.edge_record()
        path = memo.save(record)
        doc = json.loads(path.read_text())
        doc["version"] = 1
        path.write_text(json.dumps(doc))
        assert memo.load(record.spec) is None
        assert not path.exists()
        assert len(memo) == 0


class TestResume:
    @pytest.fixture()
    def counting(self, monkeypatch):
        """Count real cell executions through the runner."""
        calls = []
        real = runner_mod._execute_job

        def spy(job):
            calls.append(job.spec.spec_hash())
            return real(job)

        monkeypatch.setattr(runner_mod, "_execute_job", spy)
        return calls

    def test_second_run_executes_nothing(
        self, tmp_path, tiny_benchmark, counting
    ):
        jobs = tiny_jobs(tiny_benchmark)
        ExperimentRunner(workers=1, memo=RunMemo(tmp_path)).run(jobs)
        assert len(counting) == len(jobs)
        records = ExperimentRunner(
            workers=1, memo=RunMemo(tmp_path)
        ).run(jobs)
        assert len(counting) == len(jobs)  # no new executions
        assert all(r.telemetry.memoized for r in records)

    def test_interrupted_run_resumes_unfinished_cells(
        self, tmp_path, tiny_benchmark, counting
    ):
        jobs = tiny_jobs(tiny_benchmark, methods=("Random", "MLCAD'19"))
        # "Killed" first invocation: only the first cell completed.
        ExperimentRunner(workers=1, memo=RunMemo(tmp_path)).run(jobs[:1])
        assert len(counting) == 1
        records = ExperimentRunner(
            workers=1, memo=RunMemo(tmp_path)
        ).run(jobs)
        executed = set(counting)
        assert len(counting) == len(jobs)  # 1 before + remainder
        assert {j.spec.spec_hash() for j in jobs} == executed
        assert records[0].telemetry.memoized
        assert not records[1].telemetry.memoized

    def test_force_invalidates_and_reruns(
        self, tmp_path, tiny_benchmark, counting
    ):
        jobs = tiny_jobs(tiny_benchmark, methods=("Random",))
        ExperimentRunner(workers=1, memo=RunMemo(tmp_path)).run(jobs)
        records = ExperimentRunner(
            workers=1, memo=RunMemo(tmp_path), force=True
        ).run(jobs)
        assert len(counting) == 2 * len(jobs)
        assert not any(r.telemetry.memoized for r in records)

    def test_duplicate_specs_execute_once(
        self, tiny_benchmark, counting
    ):
        jobs = tiny_jobs(tiny_benchmark, methods=("Random",))
        records = ExperimentRunner(workers=1).run(jobs + jobs)
        assert len(counting) == len(jobs)
        assert len(records) == 2 * len(jobs)
        assert records[0].outcome.hv_error == records[1].outcome.hv_error


class TestSerialParallelIdentity:
    def test_bit_identical(self, tiny_benchmark):
        kwargs = dict(
            source=tiny_benchmark, target=tiny_benchmark,
            name="tiny_scenario", budget_key="target2",
            methods=("Random", "MLCAD'19", "PPATuner"),
            objective_spaces={"power-delay": ("power", "delay")},
            n_source=30, seed=0,
        )
        serial = run_scenario(workers=1, **kwargs)
        parallel = run_scenario(workers=2, **kwargs)
        assert len(serial.outcomes) == len(parallel.outcomes)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert (a.method, a.objective_space) == (
                b.method, b.objective_space
            )
            assert a.hv_error == b.hv_error
            assert a.adrs == b.adrs
            assert a.runs == b.runs
            np.testing.assert_array_equal(
                a.result.evaluated_indices, b.result.evaluated_indices
            )
            np.testing.assert_array_equal(
                a.result.pareto_indices, b.result.pareto_indices
            )

    def test_repeats_have_distinct_seeds(self, tiny_benchmark):
        result = run_scenario(
            tiny_benchmark, tiny_benchmark, "tiny_scenario", "target2",
            methods=("Random",),
            objective_spaces={"power-delay": ("power", "delay")},
            n_source=30, seed=0, repeats=2,
        )
        assert [o.repeat for o in result.outcomes] == [0, 1]
        a, b = result.outcomes
        assert not np.array_equal(
            a.result.evaluated_indices, b.result.evaluated_indices
        )


class TestTelemetry:
    def test_table_lists_cells_and_totals(self, tiny_benchmark):
        runner = ExperimentRunner(workers=1)
        runner.run(tiny_jobs(tiny_benchmark, methods=("Random",)))
        text = format_telemetry_table(runner.history)
        assert "tiny_scenario" in text
        assert "Random" in text
        lines = text.splitlines()
        assert lines[0].startswith("cell")
        assert lines[-1].startswith("total")

    def test_memoized_run_totals_zero_wall_time(
        self, tmp_path, tiny_benchmark
    ):
        jobs = tiny_jobs(tiny_benchmark)
        ExperimentRunner(workers=1, memo=RunMemo(tmp_path)).run(jobs)
        runner = ExperimentRunner(workers=1, memo=RunMemo(tmp_path))
        runner.run(jobs)
        assert [r.telemetry.wall_time for r in runner.history] == (
            [0.0] * len(jobs)
        )
        total = format_telemetry_table(runner.history).splitlines()[-1]
        assert f" 0.0s ({len(jobs)} memoized," in total

    def test_progress_lines_emitted(self, tiny_benchmark):
        seen = []
        runner = ExperimentRunner(workers=1, progress=seen.append)
        jobs = tiny_jobs(tiny_benchmark, methods=("Random",))
        runner.run(jobs)
        assert len(seen) == len(jobs)
        assert seen[0].startswith("[1/")
        assert "hv=" in seen[0]


class TestRunnerMap:
    def test_map_preserves_order(self):
        runner = ExperimentRunner(workers=1)
        assert runner.map(abs, [-3, 2, -1]) == [3, 2, 1]

    def test_map_parallel_matches_serial(self):
        runner = ExperimentRunner(workers=2)
        items = list(range(8))
        assert runner.map(_square, items) == [i * i for i in items]


def _square(x):
    return x * x
