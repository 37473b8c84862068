"""Offline benchmarks: paper Table 1 plus the cross-design set."""

from .dataset import OBJECTIVE_SPACES, QOR_METRICS, BenchmarkDataset
from .io import export_benchmark_csv, import_benchmark_csv
from .generate import (
    CACHE_VERSION,
    cache_workers,
    default_cache_dir,
    design_base_params,
    evaluate_configs,
    evaluate_configs_parallel,
    full_scale,
    generate_all,
    generate_benchmark,
    get_flow,
)
from .store import BenchmarkStore, CacheCorruptionError, VerifyReport
from .spaces import (
    BENCHMARKS,
    Benchmark,
    cpu1_space,
    cpu2_space,
    fabric1_space,
    fabric2_space,
    source1_space,
    source2_space,
    source3_space,
    target1_space,
    target2_space,
)

__all__ = [
    "BENCHMARKS",
    "CACHE_VERSION",
    "OBJECTIVE_SPACES",
    "QOR_METRICS",
    "Benchmark",
    "BenchmarkDataset",
    "BenchmarkStore",
    "CacheCorruptionError",
    "VerifyReport",
    "cache_workers",
    "default_cache_dir",
    "export_benchmark_csv",
    "import_benchmark_csv",
    "design_base_params",
    "evaluate_configs",
    "evaluate_configs_parallel",
    "full_scale",
    "generate_all",
    "generate_benchmark",
    "get_flow",
    "cpu1_space",
    "cpu2_space",
    "fabric1_space",
    "fabric2_space",
    "source1_space",
    "source2_space",
    "source3_space",
    "target1_space",
    "target2_space",
]
