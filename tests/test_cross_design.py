"""Tests for the cross-design transfer scenarios and pruning wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    CROSS_DESIGN_METHODS,
    CROSS_DESIGN_SCENARIOS,
    build_scenario_jobs,
    cross_design_scenario,
)
from repro.runner import ExperimentRunner

FAST = dict(n_points=120, scale=60, methods=("PPATuner", "Random"))


class TestScenarioTable:
    def test_names_and_pairs(self):
        assert set(CROSS_DESIGN_SCENARIOS) == {
            "mac_to_fabric", "cpu_small_to_large", "fabric_to_cpu",
        }
        from repro.bench import SPACES

        for src, tgt in CROSS_DESIGN_SCENARIOS.values():
            assert src in SPACES and tgt in SPACES
            # The transfer GP requires column-aligned knob spaces.
            assert SPACES[src]().names == SPACES[tgt]().names

    def test_default_methods(self):
        assert CROSS_DESIGN_METHODS == ("PPATuner", "PPATuner-NT",
                                        "Random")

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(ValueError) as exc:
            cross_design_scenario("mac_to_toaster")
        msg = str(exc.value)
        for known in CROSS_DESIGN_SCENARIOS:
            assert known in msg


class TestEndToEnd:
    def test_runs_and_beats_random(self):
        res = cross_design_scenario("mac_to_fabric", seed=5, **FAST)
        assert res.source == "source3"
        assert res.target.startswith("fabric1")
        assert res.pool_size == 60
        assert len(res.outcomes) == 6  # 3 objective spaces x 2 methods
        avg = res.averages()
        assert avg["PPATuner"][0] < avg["Random"][0]

    def test_parallel_bit_identical_to_serial(self):
        kw = dict(seed=9, **FAST)
        serial = cross_design_scenario("fabric_to_cpu", workers=1, **kw)
        parallel = cross_design_scenario("fabric_to_cpu", workers=2,
                                         **kw)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert (a.method, a.objective_space) == (
                b.method, b.objective_space,
            )
            assert a.hv_error == b.hv_error
            assert a.adrs == b.adrs
            assert np.array_equal(
                a.result.pareto_points, b.result.pareto_points
            )

    def test_pruning_reports_dropped_knobs(self):
        records = []

        class Spy(ExperimentRunner):
            def run(self, jobs):
                out = super().run(jobs)
                records.extend(out)
                return out

        cross_design_scenario(
            "mac_to_fabric", seed=5, prune_space=True,
            runner=Spy(workers=1, memo=None), **FAST,
        )
        assert records
        for rec in records:
            if rec.spec.method == "Random":
                continue
            dropped = rec.extras["pruned_knobs"]
            assert dropped  # fabric1 has dead knobs at this scale
            space_names = set()
            from repro.bench import fabric1_space

            space_names = set(fabric1_space().names)
            assert set(dropped) < space_names

    def test_pruning_deterministic_across_runs(self):
        kw = dict(seed=5, prune_space={"threshold": 0.08}, **FAST)
        a = cross_design_scenario("mac_to_fabric", **kw)
        b = cross_design_scenario("mac_to_fabric", **kw)
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.hv_error == ob.hv_error
            assert np.array_equal(
                oa.result.pareto_points, ob.result.pareto_points
            )


class TestMemoHashes:
    def _jobs(self, **kwargs):
        from repro.runner import DatasetRef

        src = DatasetRef("source3", n_points=60).resolve()
        tgt = DatasetRef("fabric1", n_points=60).resolve()
        return build_scenario_jobs(
            src, tgt, "mac_to_fabric", "fabric1",
            methods=("PPATuner",), **kwargs,
        )

    def test_prune_off_preserves_hashes(self):
        """None and False leave the spec hash exactly as before the
        ``prune_space`` param existed — memoized runs stay valid."""
        base = [j.spec.spec_hash() for j in self._jobs()]
        off = [j.spec.spec_hash() for j in self._jobs(prune_space=False)]
        none = [j.spec.spec_hash() for j in self._jobs(prune_space=None)]
        assert base == off == none

    def test_prune_on_changes_hashes(self):
        base = [j.spec.spec_hash() for j in self._jobs()]
        on = [j.spec.spec_hash() for j in self._jobs(prune_space=True)]
        assert set(base).isdisjoint(on)

    def test_prune_settings_are_canonicalized(self):
        a = [j.spec.spec_hash() for j in self._jobs(
            prune_space={"threshold": 0.08, "min_keep": 3}
        )]
        b = [j.spec.spec_hash() for j in self._jobs(
            prune_space={"min_keep": 3, "threshold": 0.08}
        )]
        assert a == b

    def test_memoized_resume_skips_completed_cells(self, tmp_path):
        from repro.runner import RunMemo

        memo = RunMemo(root=tmp_path)
        kw = dict(seed=4, **FAST)
        first = cross_design_scenario(
            "cpu_small_to_large",
            runner=ExperimentRunner(workers=1, memo=memo), **kw,
        )
        runner = ExperimentRunner(workers=1, memo=memo)
        second = cross_design_scenario(
            "cpu_small_to_large", runner=runner, **kw,
        )
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.hv_error == b.hv_error
            assert np.array_equal(
                a.result.pareto_points, b.result.pareto_points
            )
        assert all(r.telemetry.memoized for r in runner.history)
