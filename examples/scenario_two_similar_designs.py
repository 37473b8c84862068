#!/usr/bin/env python3
"""Paper Scenario Two (Table 3 + Figure 3): transfer across designs.

Source2 is the smaller MAC; Target2 is the larger one.  Knowledge about
how the 9 shared tool parameters behave moves from the cheap design
(3 h/run in the paper) to the expensive one (2 days/run).  This example
runs the full 727-point Target2 scenario, prints the paper-style table,
and emits the Figure 3 frontier series in power-delay space.

Run (a couple of minutes):
    python examples/scenario_two_similar_designs.py
"""

from __future__ import annotations

import time

from repro.bench import generate_benchmark
from repro.experiments import (
    figure3_frontiers,
    format_scenario_table,
    scenario,
)


def main() -> None:
    print("Running Scenario Two on the full 727-point Target2 pool...")
    start = time.time()
    result = scenario("two", scale=None, seed=0)
    print(f"done in {time.time() - start:.0f}s\n")
    print(format_scenario_table(result))

    print()
    print("Figure 3 — Pareto frontiers in power (mW) vs delay (ns):")
    target = generate_benchmark("target2")
    series = figure3_frontiers(result, target)
    for name, pts in series.items():
        print(f"  {name}:")
        for p, d in pts:
            print(f"    {p:8.3f}  {d:8.4f}")


if __name__ == "__main__":
    main()
