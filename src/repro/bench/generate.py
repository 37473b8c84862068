"""Offline benchmark generation (paper Section 4.1 protocol).

Latin-hypercube sample the benchmark's parameter space, push every
configuration through the simulated PD flow, and store the golden QoR
table.  Generation is deterministic per (benchmark, scale) and cached on
disk through the crash-safe :class:`~repro.bench.store.BenchmarkStore`,
mirroring how the paper built its offline tables once and tuned against
them.  Corrupt cache files are quarantined and transparently
regenerated; concurrent generators of the same table build it exactly
once.

Scale: by default the designs are reduced-bit-width MACs so the full suite
generates in tens of seconds; set the environment variable
``PPATUNER_FULL=1`` for paper-scale cell counts (see DESIGN.md §2).
Cold regeneration fans the flow runs out over a process pool
(``PPATUNER_WORKERS`` overrides the worker count).
"""

from __future__ import annotations

import functools
import logging
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..pdtool.family import design_family
from ..pdtool.flow import PDFlow
from ..pdtool.params import ToolParameters
from ..space.sampling import latin_hypercube
from ..space.space import Configuration
from .dataset import QOR_METRICS, BenchmarkDataset
from .spaces import BENCHMARKS
from .store import BenchmarkStore, default_cache_dir

__all__ = [
    "CACHE_VERSION",
    "cache_workers",
    "default_cache_dir",
    "design_base_params",
    "evaluate_configs",
    "evaluate_configs_parallel",
    "full_scale",
    "generate_all",
    "generate_benchmark",
    "get_flow",
]

log = logging.getLogger(__name__)

#: Cache-format version; bump when the simulator's physics change.
CACHE_VERSION = 15

#: Below this pool size a cold build stays serial — the process-pool
#: spin-up would cost more than it saves.
_PARALLEL_MIN_POINTS = 512

def full_scale() -> bool:
    """Whether paper-scale designs were requested via ``PPATUNER_FULL``."""
    from .. import env

    return env.full_scale()


def cache_workers() -> int:
    """Worker-process count for cold benchmark builds.

    ``PPATUNER_WORKERS`` overrides; defaults to the CPU count (capped at
    8 — the flow runs are short, so more workers only add fork cost).
    See :func:`repro.env.workers`.
    """
    from .. import env

    return env.workers()


def design_base_params(design: str) -> dict[str, object]:
    """Fixed tool parameters for a design's untuned knobs (see
    :meth:`~repro.pdtool.family.DesignFamily.base_params`)."""
    return design_family(design).base_params(design)


_FLOW_CACHE: dict[str, PDFlow] = {}


def get_flow(design: str) -> PDFlow:
    """Process-cached :class:`PDFlow` for a design name (any family)."""
    key = f"{design}-{'full' if full_scale() else 'reduced'}"
    if key not in _FLOW_CACHE:
        family = design_family(design)
        _FLOW_CACHE[key] = PDFlow(
            family.netlist(design, full=full_scale())
        )
    return _FLOW_CACHE[key]


def evaluate_configs(
    flow: PDFlow,
    configs: list[Configuration],
    base_params: dict[str, object] | None = None,
) -> np.ndarray:
    """Run the flow on each configuration; returns ``(n, 3)`` QoR rows.

    Args:
        flow: The tool.
        configs: Tuned-parameter assignments.
        base_params: Fixed values for untuned knobs (merged under each
            configuration).
    """
    base = dict(base_params or {})
    rows = np.empty((len(configs), len(QOR_METRICS)))
    for i, config in enumerate(configs):
        merged = {**base, **dict(config)}
        report = flow.run(ToolParameters.from_dict(merged))
        rows[i] = report.objectives(QOR_METRICS)
    return rows


def _evaluate_chunk(
    design: str,
    base_params: dict[str, object],
    configs: list[Configuration],
) -> np.ndarray:
    """Worker: rebuild the flow locally and evaluate one chunk."""
    return evaluate_configs(get_flow(design), configs, base_params)


def evaluate_configs_parallel(
    design: str,
    configs: list[Configuration],
    base_params: dict[str, object] | None = None,
    n_workers: int | None = None,
) -> np.ndarray:
    """Evaluate a pool across a process pool, preserving row order.

    Flow runs are independent and deterministic per configuration, so the
    result is bit-identical to the serial :func:`evaluate_configs`.  Falls
    back to serial when only one worker is available, for small pools
    (under ``_PARALLEL_MIN_POINTS`` unless ``n_workers`` is explicit), or
    if the pool cannot be started.

    Args:
        design: Canonical design name (``"mac_small"``, ``"cpu_large"``,
            ...) — each worker rebuilds its flow from this, as
            :class:`PDFlow` need not be picklable.
        configs: Tuned-parameter assignments.
        base_params: Fixed values for untuned knobs.
        n_workers: Worker count; defaults to :func:`cache_workers`.
    """
    base = dict(base_params or {})
    workers = n_workers if n_workers is not None else cache_workers()
    if n_workers is None and len(configs) < _PARALLEL_MIN_POINTS:
        workers = 1
    workers = min(workers, len(configs)) or 1
    if workers <= 1:
        return evaluate_configs(get_flow(design), configs, base)
    bounds = np.linspace(0, len(configs), workers + 1).astype(int)
    chunks = [
        configs[lo:hi]
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                functools.partial(_evaluate_chunk, design, base), chunks
            ))
    except Exception:
        log.warning(
            "process pool failed; evaluating %d configs serially",
            len(configs), exc_info=True,
        )
        return evaluate_configs(get_flow(design), configs, base)
    return np.vstack(parts)


def _build_benchmark(name: str, n: int) -> BenchmarkDataset:
    """Cold build: LHS-sample the space and run every config."""
    bench = BENCHMARKS[name]
    space = bench.space()
    configs = latin_hypercube(space, n, seed=bench.seed)
    X = space.encode_many(configs)
    Y = evaluate_configs_parallel(
        bench.design, configs, design_base_params(bench.design)
    )
    return BenchmarkDataset(name, space, configs, X, Y, bench.design)


def generate_benchmark(
    name: str,
    n_points: int | None = None,
    cache: bool = True,
) -> BenchmarkDataset:
    """Build (or load) one offline benchmark.

    Cached tables are loaded through the crash-safe store: a corrupt or
    truncated cache file is quarantined and the table rebuilt instead of
    raising, and concurrent invocations build each table exactly once
    (the others block on an advisory lock, then load).

    Args:
        name: A key of :data:`~repro.bench.spaces.BENCHMARKS`.
        n_points: Pool size; defaults to the benchmark's own.
        cache: Use the on-disk cache.

    Returns:
        The :class:`BenchmarkDataset`.

    Raises:
        ValueError: For an unknown benchmark name.
    """
    try:
        bench = BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}"
        ) from None
    n = n_points if n_points is not None else bench.n_points
    if not cache:
        return _build_benchmark(name, n)

    scale = "full" if full_scale() else "reduced"
    store = BenchmarkStore(default_cache_dir())
    filename = f"{name}-{scale}-n{n}-v{CACHE_VERSION}.npz"
    arrays = store.load(filename, required=("X", "Y"))
    if arrays is None:
        with store.lock(filename):
            # Another process may have built it while we waited.
            arrays = store.load(filename, required=("X", "Y"))
            if arrays is None:
                dataset = _build_benchmark(name, n)
                store.save(filename, {"X": dataset.X, "Y": dataset.Y})
                store.gc_stale(CACHE_VERSION)
                return dataset
    space = bench.space()
    X = arrays["X"]
    configs = [space.decode(row) for row in X]
    return BenchmarkDataset(
        name, space, configs, X, arrays["Y"], bench.design
    )


def generate_all(
    n_points: dict[str, int] | None = None, cache: bool = True
) -> dict[str, BenchmarkDataset]:
    """Generate every benchmark of
    :data:`~repro.bench.spaces.BENCHMARKS`.

    Args:
        n_points: Optional per-benchmark size override.
        cache: Use the on-disk cache.
    """
    sizes = n_points or {}
    return {
        name: generate_benchmark(name, sizes.get(name), cache=cache)
        for name in BENCHMARKS
    }
