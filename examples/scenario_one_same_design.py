#!/usr/bin/env python3
"""Paper Scenario One (Table 2): same design, different parameter space.

Source1 and Target1 come from the same MAC design; a designer who
re-tunes with a different preference (new frequency range, different
uncertainty budget, wider DRV windows) wants to reuse the 200 historical
runs.  This example runs all five methods over a reduced Target1 pool and
prints the paper-style comparison table.

Run (about 5-10 minutes at the default reduced scale):
    python examples/scenario_one_same_design.py [pool_size]
"""

from __future__ import annotations

import sys
import time

from repro.experiments import format_scenario_table, scenario


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 600
    print(f"Running Scenario One at pool scale {scale} "
          f"(paper scale: 5000; pass a size to change)...")
    start = time.time()
    result = scenario("one", scale=scale, seed=0)
    print(f"done in {time.time() - start:.0f}s\n")
    print(format_scenario_table(result))
    print()
    print("Paper Table 2 for reference (HV / ADRS / Runs averages):")
    print("  TCAD'19   0.188 / 0.122 / 508")
    print("  MLCAD'19  0.160 / 0.125 / 400")
    print("  DAC'19    0.195 / 0.147 / 600")
    print("  ASPDAC'20 0.173 / 0.109 / 400")
    print("  PPATuner  0.080 / 0.072 / 252")


if __name__ == "__main__":
    main()
