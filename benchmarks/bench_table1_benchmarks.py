"""Paper Table 1: the offline benchmarks and their statistics.

Regenerates (or loads from cache) every benchmark — the paper's
Source1/Target1/Source2/Target2 and the cross-design set — prints the
benchmark statistics table alongside the golden-front sizes per
objective space, and checks the paper's four keep Table 1's pool sizes.
"""

from __future__ import annotations

from repro.bench import OBJECTIVE_SPACES, generate_all
from repro.experiments import format_benchmark_table

from _util import run_once

#: The paper's Table 1 pool sizes.
TABLE1_POOL_SIZES = {
    "source1": 5000, "target1": 5000, "source2": 1440, "target2": 727,
}


def test_table1_benchmark_statistics(benchmark):
    benches = run_once(benchmark, generate_all)

    print("\n=== Table 1: benchmark statistics ===")
    print(format_benchmark_table([b.summary() for b in benches.values()]))
    print("\nPaper pool sizes:", TABLE1_POOL_SIZES)
    print("\nGolden Pareto-front sizes per objective space:")
    for name, dataset in benches.items():
        sizes = {
            space: len(dataset.golden_front(names))
            for space, names in OBJECTIVE_SPACES.items()
        }
        print(f"  {name}: {sizes}")

    for name, n in TABLE1_POOL_SIZES.items():
        assert benches[name].n == n
        assert benches[name].Y.min() > 0
