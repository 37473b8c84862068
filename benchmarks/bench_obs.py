"""Observability overhead gate: tracing must cost <= 5% wall time.

Runs the identical PPATuner loop (same pool, same seed, same
iterations) twice per round — once with the null recorder, once with a
live ``TraceRecorder`` writing a JSONL sink — and bounds the overhead
with two estimators that only ever over-state it under noise: the
ratio of best-of-N wall times (both arms share the same GP-math floor,
so the minimum strips scheduler noise) and the median of per-round
back-to-back overheads (each pair sees near-identical machine load, so
the median strips slow drift).  The gate takes the smaller of the two.

Each traced round is also verified for correctness: the JSONL file must
replay to the exact ``IterationRecord`` history and final Pareto set of
the live result, so the gate cannot pass by silently dropping events.

Usage:
    pytest benchmarks/bench_obs.py                # via pytest-benchmark
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

import numpy as np

from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.obs import (
    JsonlSink,
    TraceRecorder,
    records_equal,
    replay_trace,
)

FULL = dict(n_pool=200, iters=35, rounds=7)
SMOKE = dict(n_pool=120, iters=20, rounds=4)

#: Maximum tracing-enabled overhead (fraction of null-recorder time).
MAX_OVERHEAD = 0.05


def make_pool(n_pool: int, seed: int = 0):
    """Deterministic synthetic bi-objective pool with a real trade-off."""
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


def run_tune(n_pool: int, iters: int, recorder=None):
    """One tuning run; returns (elapsed_seconds, result)."""
    X, Y, Xs, Ys = make_pool(n_pool)
    config = PPATunerConfig(max_iterations=iters, seed=7)
    tuner = (
        PPATuner(config) if recorder is None
        else PPATuner(config, recorder=recorder)
    )
    oracle = PoolOracle(Y)
    start = time.perf_counter()
    result = tuner.tune(X, oracle, sources=[(Xs, Ys)])
    return time.perf_counter() - start, result


def compare(*, n_pool: int, iters: int, rounds: int) -> dict:
    """Paired timing, null recorder vs JSONL tracing, with a
    replay-correctness check on every traced round."""
    t_null: list[float] = []
    t_traced: list[float] = []
    n_events = 0
    run_tune(n_pool, iters)  # warmup: imports, numpy caches
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(rounds):
            # Alternate arm order so drift hits both arms equally.
            arms = ("null", "traced") if r % 2 == 0 else ("traced", "null")
            for arm in arms:
                if arm == "null":
                    elapsed, _ = run_tune(n_pool, iters)
                    t_null.append(elapsed)
                    continue
                path = os.path.join(tmp, f"round-{r}.jsonl")
                recorder = TraceRecorder(sinks=[JsonlSink(path)])
                elapsed, result = run_tune(n_pool, iters, recorder)
                recorder.close()
                t_traced.append(elapsed)
                n_events = recorder.n_emitted
                replay = replay_trace(path)
                assert records_equal(replay.history, result.history), (
                    "trace does not replay the live history"
                )
                assert list(replay.pareto_indices) == [
                    int(i) for i in result.pareto_indices
                ], "trace does not replay the final Pareto set"
    best_null = min(t_null)
    best_traced = min(t_traced)
    best_of = (best_traced - best_null) / best_null
    pair_overheads = sorted(
        (tr - nu) / nu for tr, nu in zip(t_traced, t_null)
    )
    paired_median = pair_overheads[len(pair_overheads) // 2]
    return {
        "rounds": rounds,
        "n_events": n_events,
        "best_null": best_null,
        "best_traced": best_traced,
        "best_of": best_of,
        "paired_median": paired_median,
        "overhead": min(best_of, paired_median),
    }


def _report(tag: str, res: dict) -> None:
    print(f"\n=== Observability overhead ({tag}) ===")
    print(f"null recorder : {res['best_null']:8.3f} s (best of "
          f"{res['rounds']})")
    print(f"jsonl tracing : {res['best_traced']:8.3f} s "
          f"({res['n_events']} events)")
    print(f"overhead      : {res['overhead'] * 100:8.2f} %  "
          f"(best-of {res['best_of'] * 100:.2f}%, paired median "
          f"{res['paired_median'] * 100:.2f}%; gate: <= "
          f"{MAX_OVERHEAD * 100:.0f}%, replay verified)")


def test_tracing_overhead(benchmark):
    res = benchmark.pedantic(
        lambda: compare(**FULL), rounds=1, iterations=1, warmup_rounds=0
    )
    _report("full", res)
    assert res["overhead"] <= MAX_OVERHEAD


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced pool for CI (same gate)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=MAX_OVERHEAD,
        help="override the overhead gate (fraction, default 0.05)",
    )
    args = parser.parse_args()
    from _util import write_bench_json

    params = SMOKE if args.smoke else FULL
    res = compare(**params)
    _report("smoke" if args.smoke else "full", res)
    passed = res["overhead"] <= args.max_overhead
    write_bench_json(
        "obs", {"gate": args.max_overhead, "passed": passed, **res}
    )
    if not passed:
        print(f"FAIL: tracing overhead {res['overhead'] * 100:.2f}% > "
              f"{args.max_overhead * 100:.0f}%")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
