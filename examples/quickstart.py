#!/usr/bin/env python3
"""Quickstart: tune the PD tool's parameters on one benchmark.

Builds (or loads from cache) the Target2 offline benchmark — the larger
MAC design under the 9-parameter space of paper Table 1 — and runs
PPATuner in the power-delay objective space, reporting the found Pareto
set against the golden one.

Run:
    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import PoolOracle, PPATuner, PPATunerConfig
from repro.bench import generate_benchmark
from repro.experiments import format_benchmark_table
from repro.pareto import adrs, hypervolume_error, pareto_front


def main() -> None:
    # A reduced pool keeps the quickstart under a minute; drop the
    # subsample call to use the paper's full 727-point table.
    target = generate_benchmark("target2").subsample(300, seed=0)
    source = generate_benchmark("source2")

    print("Benchmark statistics (paper Table 1 flavour):")
    print(format_benchmark_table([source.summary(), target.summary()]))
    print()

    names = ("power", "delay")
    oracle = PoolOracle(target.objectives(names))

    # 200 historical source-task runs provide the transfer knowledge.
    rng = np.random.default_rng(0)
    src_idx = rng.choice(source.n, size=200, replace=False)

    tuner = PPATuner(PPATunerConfig(max_iterations=40, seed=0))
    result = tuner.tune(
        target.X,
        oracle,
        sources=[(source.X[src_idx], source.objectives(names)[src_idx])],
    )

    golden = target.golden_front(names)
    found = pareto_front(result.pareto_points)

    print(f"Tool runs used:        {result.n_evaluations}")
    print(f"Iterations:            {result.n_iterations}")
    print(f"Stop reason:           {result.stop_reason}")
    print(f"Pareto configs found:  {len(result.pareto_indices)}")
    print(f"Hyper-volume error:    {hypervolume_error(found, golden):.4f}")
    print(f"ADRS:                  {adrs(golden, found):.4f}")
    lambdas = [[round(float(v), 3) for v in m.lambdas] for m in tuner.models_]
    print(f"Learned task similarity lambdas per metric: {lambdas}")
    print()
    print("Found Pareto frontier (power mW, delay ns):")
    for p, d in found:
        print(f"  {p:8.3f}  {d:8.4f}")
    print("Golden Pareto frontier:")
    for p, d in golden:
        print(f"  {p:8.3f}  {d:8.4f}")

    # The best configurations themselves:
    print()
    print("Example recommended configuration:")
    best = result.pareto_indices[0]
    for key, value in target.configs[best].items():
        print(f"  {key:20s} = {value}")


if __name__ == "__main__":
    main()
