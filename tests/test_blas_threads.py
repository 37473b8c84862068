"""BLAS thread counts: the helper in :mod:`repro.env` and where the
package pins them (the experiment runner's cells and the CLI)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS copy)

import repro.runner.runner as runner_mod
from repro import env
from repro.bench import OBJECTIVE_SPACES
from repro.experiments.scenarios import run_scenario
from repro.runner import DatasetRef, ExperimentRunner

needs_openblas = pytest.mark.skipif(
    not env.blas_threads(), reason="no OpenBLAS mapped"
)


def _threads(_item):
    return os.getpid(), env.blas_threads()


class TestHelper:
    @needs_openblas
    def test_limit_sets_every_copy_and_restores(self):
        before = env.blas_threads()
        with env.blas_thread_limit(1):
            assert set(env.blas_threads().values()) == {1}
        assert env.blas_threads() == before

    def test_no_openblas_mapped_is_a_no_op(self, tmp_path, monkeypatch):
        maps = tmp_path / "maps"
        maps.write_text(
            "7f00-7f01 r-xp 00000000 00:00 0 /usr/lib/libm.so.6\n"
            f"7f01-7f02 r-xp 00000000 00:00 0 {tmp_path}/libopenblas.so\n"
            "7f02-7f03 rw-p 00000000 00:00 0\n"
        )
        monkeypatch.setattr(env, "_MAPS", str(maps))
        assert env.blas_threads() == {}
        env.set_blas_threads(1)
        with env.blas_thread_limit(1):
            pass
        monkeypatch.setattr(env, "_MAPS", str(tmp_path / "missing"))
        assert env.blas_threads() == {}
        env.set_blas_threads(1)
        assert env.blas_threads() == {}

    def test_lookup_is_cached_until_an_import(self, monkeypatch):
        expected = env.blas_threads()

        def no_read(*args, **kwargs):
            raise AssertionError("the maps file was read again")

        monkeypatch.setattr(env, "open", no_read, raising=False)
        assert env.blas_threads() == expected
        env.set_blas_threads(expected)

    @pytest.mark.skipif(
        len(env.blas_threads()) < 2, reason="needs numpy's and scipy's copies"
    )
    def test_copy_mapped_after_the_first_lookup_is_found(self):
        code = (
            "import json, numpy\n"
            "from repro import env\n"
            "first = env.blas_threads()\n"
            "import scipy.linalg\n"
            "print(json.dumps([list(first), list(env.blas_threads())]))\n"
        )
        src = str(Path(env.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        first, after = json.loads(out.stdout)
        assert len(first) == 1
        assert sorted(after) == sorted(env.blas_threads())


@needs_openblas
class TestRunner:
    def test_pool_workers_run_at_one_thread(self):
        with env.blas_thread_limit(2):
            results = ExperimentRunner(workers=2).map(_threads, [0, 1])
        for pid, counts in results:
            assert pid != os.getpid()
            assert counts and set(counts.values()) == {1}

    def test_serial_run_pins_cells_and_restores(self, monkeypatch):
        seen = []

        def execute(job):
            seen.append(env.blas_threads())
            return "record"

        monkeypatch.setattr(runner_mod, "_execute_job", execute)
        cell = SimpleNamespace(spec=SimpleNamespace(spec_hash=lambda: "c"))
        with env.blas_thread_limit(2):
            assert ExperimentRunner(workers=1).run([cell]) == ["record"]
            after = env.blas_threads()
        assert set(seen[0].values()) == {1}
        assert set(after.values()) == {2}

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
    def test_cell_is_the_same_inline_and_in_a_worker(self):
        """Scenario One's TCAD'19 area-power-delay cell (the runner
        smoke's scale), with the caller at two threads."""
        source_ref = DatasetRef("source1", n_points=150)
        target_ref = DatasetRef(
            "target1", n_points=150, subsample=80, subsample_seed=0
        )
        space = "area-power-delay"

        def run(workers):
            return run_scenario(
                source_ref.resolve(), target_ref.resolve(),
                "scenario_one", "target1", methods=("TCAD'19",),
                objective_spaces={space: OBJECTIVE_SPACES[space]},
                repeats=2, workers=workers,
                source_ref=source_ref, target_ref=target_ref,
            )

        with env.blas_thread_limit(2):
            inline, pooled = run(1), run(2)
        for a, b in zip(inline.outcomes, pooled.outcomes):
            assert a.hv_error == b.hv_error
            assert a.runs == b.runs
            np.testing.assert_array_equal(
                a.result.evaluated_indices, b.result.evaluated_indices
            )
