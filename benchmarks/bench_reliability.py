"""Reliability-layer gates: overhead, bit-identity, and chaos replay.

Two gates, both runnable standalone or under pytest-benchmark:

1. **No-fault overhead** — the identical PPATuner loop runs twice per
   round, once with the resilience layer disabled
   (``fault_policy=None``: the oracle is never wrapped) and once behind
   a :class:`~repro.reliability.ResilientOracle` with the default
   :class:`~repro.reliability.FaultPolicy`.  The wrapped arm must cost
   <= 5% extra wall time, estimated exactly like ``bench_obs``: the
   smaller of the best-of-N ratio and the paired per-round median, so
   noise can only over-state the overhead.  Every wrapped round must
   also return the bit-identical Pareto set — the gate cannot pass by
   skipping work.

2. **Chaos bit-identity** (``--chaos``) — one scenario cell runs
   fault-free, then again with ``PPATUNER_FAULT_SEED`` set so every
   evaluation may raise deterministic transient faults (memoization
   disabled, so nothing is served from cache).  The retried run must
   reproduce the fault-free run's Pareto indices exactly: transient
   faults are invisible in the results, visible only in the event
   stream.

Usage:
    pytest benchmarks/bench_reliability.py         # via pytest-benchmark
    PYTHONPATH=src python benchmarks/bench_reliability.py --smoke
    PYTHONPATH=src python benchmarks/bench_reliability.py --chaos
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.pareto import non_dominated_mask
from repro.reliability import (
    TRANSIENT_KINDS,
    FaultInjectingOracle,
    FaultPlan,
    FaultPolicy,
)

FULL = dict(n_pool=200, iters=35, rounds=7)
SMOKE = dict(n_pool=120, iters=20, rounds=4)

#: Maximum resilience-layer overhead (fraction of bare-oracle time).
MAX_OVERHEAD = 0.05

#: Fault seed for the chaos gate (any value works; fixed for repro).
CHAOS_SEED = 97


def make_pool(n_pool: int, seed: int = 0):
    """Deterministic synthetic bi-objective pool with a real trade-off
    (same generator as ``bench_obs``)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n_pool, 4))
    f1 = X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.05 * rng.normal(size=n_pool)
    f2 = (1 - X[:, 0]) + 0.5 * X[:, 2] ** 2 + 0.05 * rng.normal(
        size=n_pool
    )
    Y = np.column_stack([f1, f2])
    Xs = rng.uniform(size=(80, 4))
    Ys = np.column_stack([
        Xs[:, 0] + 0.5 * Xs[:, 1] ** 2,
        (1 - Xs[:, 0]) + 0.5 * Xs[:, 2] ** 2,
    ])
    return X, Y, Xs, Ys


def run_tune(n_pool: int, iters: int, policy: FaultPolicy | None):
    """One tuning run; returns (elapsed_seconds, result)."""
    X, Y, Xs, Ys = make_pool(n_pool)
    config = PPATunerConfig(
        max_iterations=iters, seed=7, fault_policy=policy
    )
    tuner = PPATuner(config)
    oracle = PoolOracle(Y)
    start = time.perf_counter()
    result = tuner.tune(X, oracle, sources=[(Xs, Ys)])
    return time.perf_counter() - start, result


def compare(*, n_pool: int, iters: int, rounds: int) -> dict:
    """Paired timing, bare oracle vs ResilientOracle, with a
    bit-identity check on every wrapped round."""
    t_bare: list[float] = []
    t_wrapped: list[float] = []
    policy = FaultPolicy()
    run_tune(n_pool, iters, None)  # warmup: imports, numpy caches
    _, baseline = run_tune(n_pool, iters, None)
    for r in range(rounds):
        # Alternate arm order so drift hits both arms equally.
        arms = ("bare", "wrapped") if r % 2 == 0 else ("wrapped", "bare")
        for arm in arms:
            if arm == "bare":
                elapsed, _ = run_tune(n_pool, iters, None)
                t_bare.append(elapsed)
                continue
            elapsed, result = run_tune(n_pool, iters, policy)
            t_wrapped.append(elapsed)
            assert list(result.pareto_indices) == list(
                baseline.pareto_indices
            ), "resilience layer changed the Pareto set without faults"
            assert result.n_failed_evaluations == 0
            assert result.quarantined_indices.size == 0
    best_bare = min(t_bare)
    best_wrapped = min(t_wrapped)
    best_of = (best_wrapped - best_bare) / best_bare
    pair_overheads = sorted(
        (w - b) / b for w, b in zip(t_wrapped, t_bare)
    )
    paired_median = pair_overheads[len(pair_overheads) // 2]
    return {
        "rounds": rounds,
        "best_bare": best_bare,
        "best_wrapped": best_wrapped,
        "best_of": best_of,
        "paired_median": paired_median,
        "overhead": min(best_of, paired_median),
    }


def chaos_check(n_pool: int = 140, seed: int = 11) -> dict:
    """Seeded transient faults must not change the outcome.

    Runs the same pool twice through a scenario cell — fault-free, then
    with ``PPATUNER_FAULT_SEED`` exported so the cell oracle injects a
    deterministic transient/latency fault schedule — and asserts the
    Pareto indices and evaluation sets match exactly.  Memoization is
    off, so the second run cannot trivially pass via the memo store.
    """
    from repro.bench.dataset import BenchmarkDataset
    from repro.bench.spaces import target2_space
    from repro.experiments.scenarios import run_scenario
    from repro.runner import ExperimentRunner
    from repro.space.sampling import latin_hypercube

    def synth(name: str, pool_seed: int) -> BenchmarkDataset:
        space = target2_space()
        configs = latin_hypercube(space, n_pool, seed=pool_seed)
        X = space.encode_many(configs)
        rng = np.random.default_rng(pool_seed)
        Y = rng.random((n_pool, 3)) + 0.5
        return BenchmarkDataset(name, space, configs, X, Y, "mac_small")

    source = synth("chaos-src", 1)
    target = synth("chaos-tgt", 2)
    spaces = {"power-delay": ("power", "delay")}

    def run(fault_seed: int | None):
        prev = os.environ.pop("PPATUNER_FAULT_SEED", None)
        if fault_seed is not None:
            os.environ["PPATUNER_FAULT_SEED"] = str(fault_seed)
        try:
            return run_scenario(
                source, target, "chaos-smoke", "target2",
                methods=("PPATuner",), objective_spaces=spaces,
                seed=seed, runner=ExperimentRunner(workers=1, memo=None),
            )
        finally:
            os.environ.pop("PPATUNER_FAULT_SEED", None)
            if prev is not None:
                os.environ["PPATUNER_FAULT_SEED"] = prev

    clean = run(None)
    chaotic = run(CHAOS_SEED)
    cells = 0
    for a, b in zip(clean.outcomes, chaotic.outcomes):
        assert list(a.result.pareto_indices) == list(
            b.result.pareto_indices
        ), f"chaos run diverged on {a.method}/{a.objective_space}"
        assert list(a.result.evaluated_indices) == list(
            b.result.evaluated_indices
        )
        assert b.result.quarantined_indices.size == 0
        # The verified front must be mutually non-dominated every
        # round, faulted or not — dominated survivors of golden
        # verification are a bug, not noise.
        for outcome in (a, b):
            assert non_dominated_mask(
                outcome.result.pareto_points
            ).all(), (
                f"dominated point in reported front on "
                f"{outcome.method}/{outcome.objective_space}"
            )
        cells += 1

    # The schedule must actually contain faults at this pool size, or
    # the identity above is vacuous.  Check the plan directly.
    plan = FaultPlan.seeded(
        CHAOS_SEED, n_pool, rate=0.05, kinds=TRANSIENT_KINDS
    )
    n_planned = len(plan.faults)
    assert n_planned > 0, "chaos plan injected nothing; raise the rate"
    oracle = FaultInjectingOracle(
        PoolOracle(np.ones((n_pool, 2))), plan, latency_s=0.0
    )
    for idx, _ in plan.faults:
        try:
            oracle.evaluate(idx)
        except Exception:
            pass
    n_fired = sum(oracle.injected.values())
    assert n_fired > 0, "no fault fired despite a non-empty plan"
    return {"cells": cells, "planned": n_planned, "fired": n_fired}


def _report(tag: str, res: dict) -> None:
    print(f"\n=== Resilience overhead ({tag}) ===")
    print(f"bare oracle     : {res['best_bare']:8.3f} s (best of "
          f"{res['rounds']})")
    print(f"resilient oracle: {res['best_wrapped']:8.3f} s")
    print(f"overhead        : {res['overhead'] * 100:8.2f} %  "
          f"(best-of {res['best_of'] * 100:.2f}%, paired median "
          f"{res['paired_median'] * 100:.2f}%; gate: <= "
          f"{MAX_OVERHEAD * 100:.0f}%, bit-identity verified)")


def test_resilience_overhead(benchmark):
    res = benchmark.pedantic(
        lambda: compare(**FULL), rounds=1, iterations=1, warmup_rounds=0
    )
    _report("full", res)
    assert res["overhead"] <= MAX_OVERHEAD


def test_chaos_bit_identity(benchmark):
    res = benchmark.pedantic(
        chaos_check, rounds=1, iterations=1, warmup_rounds=0
    )
    print(f"\nchaos: {res['cells']} cell(s) identical under "
          f"{res['planned']} planned / {res['fired']} fired faults")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced pool for CI (same gate)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="run only the seeded-fault bit-identity check",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=MAX_OVERHEAD,
        help="override the overhead gate (fraction, default 0.05)",
    )
    args = parser.parse_args()
    from _util import write_bench_json

    if args.chaos:
        res = chaos_check()
        print(f"chaos: {res['cells']} cell(s) identical under "
              f"{res['planned']} planned / {res['fired']} fired faults")
        write_bench_json(
            "reliability_chaos", {"passed": True, **res}
        )
        print("PASS")
        return 0
    params = SMOKE if args.smoke else FULL
    res = compare(**params)
    _report("smoke" if args.smoke else "full", res)
    passed = res["overhead"] <= args.max_overhead
    write_bench_json(
        "reliability",
        {"gate": args.max_overhead, "passed": passed, **res},
    )
    if not passed:
        print(f"FAIL: resilience overhead {res['overhead'] * 100:.2f}% > "
              f"{args.max_overhead * 100:.0f}%")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
