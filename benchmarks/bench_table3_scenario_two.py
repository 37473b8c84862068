"""Paper Table 3: Scenario Two (similar designs), Source2 -> Target2.

Runs all five methods on the full 727-point Target2 pool (the paper's
size) across the three objective spaces.

Expected shape (paper): PPATuner uses the fewest tool runs (62 vs
70-131) while attaining the best average HV error and ADRS; our
reproduction preserves the run advantage and keeps PPATuner within the
leading group on quality (see EXPERIMENTS.md for the measured gap
discussion).
"""

from __future__ import annotations

from repro.experiments import format_scenario_table, scenario

from _util import bench_workers, run_once


def test_table3_scenario_two(benchmark):
    result = run_once(
        benchmark,
        lambda: scenario(
            "two", scale=None, seed=0, workers=bench_workers()
        ),
    )

    print(f"\n=== Table 3: Scenario Two (pool={result.pool_size}) ===")
    print(format_scenario_table(result))
    print("\nPaper averages: TCAD'19 0.108/0.092/92, "
          "MLCAD'19 0.120/0.091/70, DAC'19 0.122/0.091/131, "
          "ASPDAC'20 0.125/0.107/70, PPATuner 0.050/0.047/62")

    avgs = result.averages()
    ours = avgs["PPATuner"]
    # PPATuner must consume the fewest tool runs, as in the paper.
    assert ours[2] <= min(a[2] for a in avgs.values()) + 1
    # And stay within the leading group on quality.
    assert ours[0] <= 2.5 * min(a[0] for a in avgs.values())
