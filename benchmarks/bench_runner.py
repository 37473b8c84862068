"""Experiment-runner benchmark: fan-out speedup, identity, resume.

Runs a reduced-scale Scenario One — every registered method (the
paper's five plus Random, the no-transfer PPATuner ablation and the
copula transfer baseline) over the three objective spaces, 24
independent cells — three ways:

1. serial (``workers=1``),
2. process-pool fan-out (``workers=4`` or the core count),
3. memoized resume (a second pass over a warm run cache).

The parallel ``ScenarioResult`` must be **bit-identical** to the serial
one (per-cell seed derivation makes completion order irrelevant), and
the memoized pass must skip every cell.  The speedup gate scales with
the cores actually available: the ISSUE's >=3x target applies on hosts
with >=4 usable cores (CI); smaller hosts assert no regression instead,
since a pool cannot beat the loop without spare cores.

Usage:
    pytest benchmarks/bench_runner.py             # via pytest-benchmark
    PYTHONPATH=src python benchmarks/bench_runner.py --smoke
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

import numpy as np

from repro.experiments import registered_methods, scenario
from repro.runner import ExperimentRunner, RunMemo

FULL = dict(n_points=600, scale=240)
SMOKE = dict(n_points=150, scale=80)
PARALLEL_WORKERS = 4


def usable_workers() -> int:
    return min(PARALLEL_WORKERS, os.cpu_count() or 1)


def speedup_gate(override: float | None = None) -> float:
    """Required parallel speedup, scaled to the host.

    >=3x needs >=4 cores actually running cells; with two cores a 1.3x
    floor still proves the pool works; on one core only "no blow-up"
    is testable (pool + pickling overhead bounded).
    """
    if override is not None:
        return override
    cores = usable_workers()
    if cores >= 4:
        return 3.0
    if cores >= 2:
        return 1.3
    return 0.8


def assert_identical(a, b) -> None:
    """Serial/parallel ``ScenarioResult``s must match bit for bit."""
    assert len(a.outcomes) == len(b.outcomes)
    for oa, ob in zip(a.outcomes, b.outcomes):
        key = (oa.method, oa.objective_space, oa.repeat)
        assert key == (ob.method, ob.objective_space, ob.repeat)
        assert oa.hv_error == ob.hv_error, key
        assert oa.adrs == ob.adrs, key
        assert oa.runs == ob.runs, key
        np.testing.assert_array_equal(
            oa.result.evaluated_indices, ob.result.evaluated_indices
        )
        np.testing.assert_array_equal(
            oa.result.pareto_indices, ob.result.pareto_indices
        )


def compare(*, n_points: int, scale: int, seed: int = 0) -> dict:
    """Time serial vs parallel vs memoized-resume on one grid."""
    kwargs = dict(
        scale=scale, seed=seed, methods=registered_methods(),
        n_points=n_points,
    )

    start = time.perf_counter()
    serial = scenario("one", workers=1, **kwargs)
    t_serial = time.perf_counter() - start

    workers = usable_workers()
    start = time.perf_counter()
    parallel = scenario("one", workers=workers, **kwargs)
    t_parallel = time.perf_counter() - start

    assert_identical(serial, parallel)

    with tempfile.TemporaryDirectory() as memo_dir:
        warm = ExperimentRunner(workers=workers, memo=RunMemo(memo_dir))
        scenario("one", runner=warm, **kwargs)
        resumed = ExperimentRunner(
            workers=workers, memo=RunMemo(memo_dir)
        )
        start = time.perf_counter()
        memoized = scenario("one", runner=resumed, **kwargs)
        t_resume = time.perf_counter() - start
        hits = sum(
            r.telemetry.memoized for r in resumed.history
        )
        assert hits == len(memoized.outcomes), (
            f"resume executed {len(memoized.outcomes) - hits} cell(s)"
        )
    assert_identical(serial, memoized)

    return {
        "cells": len(serial.outcomes),
        "workers": workers,
        "t_serial": t_serial,
        "t_parallel": t_parallel,
        "t_resume": t_resume,
        "speedup": t_serial / t_parallel,
        "resume_speedup": t_serial / max(t_resume, 1e-9),
    }


def _report(tag: str, res: dict) -> None:
    print(f"\n=== Experiment runner ({tag}, {res['cells']} cells) ===")
    print(f"serial        : {res['t_serial']:8.2f} s")
    print(f"parallel (x{res['workers']}) : {res['t_parallel']:8.2f} s  "
          f"-> {res['speedup']:.2f}x, bit-identical")
    print(f"memo resume   : {res['t_resume']:8.2f} s  "
          f"-> {res['resume_speedup']:.1f}x, all cells served from disk")


def test_runner_speedup_and_identity(benchmark):
    res = benchmark.pedantic(
        lambda: compare(**FULL), rounds=1, iterations=1, warmup_rounds=0
    )
    _report("full", res)
    assert res["speedup"] >= speedup_gate()
    # Resume must be near-free regardless of core count.
    assert res["t_resume"] < res["t_serial"] / 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced grid for CI (same identity/resume contracts)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="override the core-scaled speedup gate",
    )
    args = parser.parse_args()
    from _util import write_bench_json

    params = SMOKE if args.smoke else FULL
    gate = speedup_gate(args.min_speedup)
    res = compare(**params)
    _report("smoke" if args.smoke else "full", res)
    passed = (
        res["speedup"] >= gate and res["t_resume"] < res["t_serial"] / 3
    )
    write_bench_json(
        "runner", {"gate": gate, "passed": passed, **res}
    )
    if res["speedup"] < gate:
        print(f"FAIL: speedup {res['speedup']:.2f}x < required "
              f"{gate}x ({res['workers']} workers)")
        return 1
    if res["t_resume"] >= res["t_serial"] / 3:
        print(f"FAIL: memoized resume took {res['t_resume']:.2f}s, "
              f"not clearly faster than serial {res['t_serial']:.2f}s")
        return 1
    print(f"OK: speedup {res['speedup']:.2f}x >= {gate}x, "
          f"resume {res['resume_speedup']:.1f}x, results bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
