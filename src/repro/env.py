"""Typed process-environment configuration (single source of truth).

Every ``PPATUNER_*`` environment variable the package honours is read
through one accessor here, with its default documented next to the
parser.  Call sites (the benchmark generator, the cache store, the
experiment runner, the trace sinks, the fault-injection harness) must
not call ``os.environ`` themselves — routing everything through this
module keeps names, parsing and defaults from drifting apart per
subsystem.

Variables:

``PPATUNER_WORKERS``
    Worker-process count for benchmark cold builds and experiment cell
    fan-out.  Default: the CPU count capped at 8 (the individual jobs
    are short, so more workers only add fork cost).
``PPATUNER_CACHE``
    Benchmark cache directory.  Default: ``<repo>/.cache/benchmarks``.
``PPATUNER_RUN_CACHE``
    Run-memo directory for resumable experiment cells.  Default:
    ``<repo>/.cache/runs``.
``PPATUNER_TRACE_DIR``
    Trace directory.  For experiment cells this is also the *switch*:
    cells record their event stream only when it is set.  Default
    directory when a path is needed anyway: ``<repo>/.cache/traces``.
``PPATUNER_FULL``
    ``1``/``true`` selects paper-scale MAC designs (see DESIGN.md §2).
    Default: reduced designs.
``PPATUNER_FAULT_SEED``
    When set to an integer, experiment cells wrap their oracle in a
    seeded :class:`~repro.reliability.FaultInjectingOracle` (transient,
    value-preserving faults) behind a
    :class:`~repro.reliability.ResilientOracle` — the chaos-testing
    switch.  Default: unset, no injection.

BLAS threads are process state too, but set at run time rather than by
a variable: :func:`blas_threads` and :func:`set_blas_threads` read and
set the thread count of every OpenBLAS copy mapped into the process
(numpy and scipy each ship one), and :func:`blas_thread_limit` sets it
for a block.  They do nothing with another BLAS or without
``/proc/self/maps``.
"""

from __future__ import annotations

import ctypes
import os
import sys
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "ENV_VARS",
    "bench_cache_dir",
    "blas_thread_limit",
    "blas_threads",
    "default_trace_dir",
    "fault_seed",
    "full_scale",
    "repo_root",
    "run_cache_dir",
    "set_blas_threads",
    "trace_dir",
    "workers",
]

#: Every honoured variable -> one-line description (README/docs source).
ENV_VARS: dict[str, str] = {
    "PPATUNER_WORKERS": "worker processes for cache builds and cell "
                        "fan-out (default: CPU count, capped at 8)",
    "PPATUNER_CACHE": "benchmark cache directory "
                      "(default: <repo>/.cache/benchmarks)",
    "PPATUNER_RUN_CACHE": "run-memo directory for resumable cells "
                          "(default: <repo>/.cache/runs)",
    "PPATUNER_TRACE_DIR": "record cell traces under this directory "
                          "(unset: cell tracing off)",
    "PPATUNER_FULL": "1/true selects paper-scale MAC designs "
                     "(default: reduced)",
    "PPATUNER_FAULT_SEED": "integer seed enabling deterministic "
                           "transient fault injection in experiment "
                           "cells (unset: no injection)",
}


def repo_root() -> Path:
    """Repository root (anchor for the default cache directories)."""
    return Path(__file__).resolve().parents[2]


def workers(explicit: int | None = None) -> int:
    """Effective worker-process count (``PPATUNER_WORKERS``).

    An explicit argument wins; otherwise the environment variable, then
    the CPU count capped at 8.  Always at least 1.
    """
    if explicit is not None:
        return max(1, int(explicit))
    raw = os.environ.get("PPATUNER_WORKERS", "").strip()
    if raw:
        return max(1, int(raw))
    return min(os.cpu_count() or 1, 8)


def bench_cache_dir() -> Path:
    """Benchmark cache directory (``PPATUNER_CACHE``)."""
    override = os.environ.get("PPATUNER_CACHE")
    if override:
        return Path(override)
    return repo_root() / ".cache" / "benchmarks"


def run_cache_dir() -> Path:
    """Run-memo directory (``PPATUNER_RUN_CACHE``)."""
    override = os.environ.get("PPATUNER_RUN_CACHE")
    if override:
        return Path(override)
    return repo_root() / ".cache" / "runs"


def trace_dir() -> Path | None:
    """Trace-directory *override* (``PPATUNER_TRACE_DIR``), or ``None``.

    ``None`` means "cell tracing off" — experiment cells only record
    when the variable is set.  Use :func:`default_trace_dir` when a
    concrete directory is needed regardless.
    """
    override = os.environ.get("PPATUNER_TRACE_DIR")
    return Path(override) if override else None


def default_trace_dir() -> Path:
    """Trace directory with the repo fallback (``PPATUNER_TRACE_DIR``)."""
    return trace_dir() or (repo_root() / ".cache" / "traces")


def full_scale() -> bool:
    """Whether paper-scale designs were requested (``PPATUNER_FULL``)."""
    return os.environ.get("PPATUNER_FULL", "").strip() in {"1", "true"}


def fault_seed() -> int | None:
    """Deterministic fault-injection seed (``PPATUNER_FAULT_SEED``).

    Returns:
        The integer seed, or ``None`` when injection is off.

    Raises:
        ValueError: If the variable is set but not an integer.
    """
    raw = os.environ.get("PPATUNER_FAULT_SEED", "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"PPATUNER_FAULT_SEED must be an integer, got {raw!r}"
        ) from None


# ---- BLAS threads ---------------------------------------------------------

#: ``(get, set)`` thread-count symbols of the OpenBLAS builds that numpy
#: (ILP64) and scipy (LP64) ship.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)

#: Where the process's mapped libraries are listed.
_MAPS = "/proc/self/maps"

#: Library path -> its ``(get, set)`` functions, or ``None`` without them.
_openblas_calls: dict[str, tuple | None] = {}

#: ``((maps file, module count), copies)`` of the last maps read.
_last_lookup: tuple[tuple[str, int], dict[str, tuple]] | None = None


def _openblas() -> dict[str, tuple]:
    """``(get, set)`` of each OpenBLAS copy mapped into this process,
    keyed by library path.

    The copies arrive with numpy's and scipy's extension modules, so
    the maps file is read again only once an import has grown
    ``sys.modules``: a copy that a later import maps (scipy's after
    numpy's) is still found, and every other call costs no file read.
    """
    global _last_lookup
    key = (_MAPS, len(sys.modules))
    if _last_lookup is None or _last_lookup[0] != key:
        _last_lookup = (key, _read_openblas())
    return _last_lookup[1]


def _read_openblas() -> dict[str, tuple]:
    """:func:`_openblas`, read from the maps file."""
    try:
        with open(_MAPS) as maps:
            paths = {
                parts[5].strip()
                for parts in (
                    line.split(maxsplit=5) for line in maps
                    if "openblas" in line
                )
                if len(parts) == 6 and "openblas" in os.path.basename(parts[5])
            }
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        if path not in _openblas_calls:
            _openblas_calls[path] = None
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue
            for get, set_ in _OPENBLAS_SYMBOLS:
                if hasattr(lib, get) and hasattr(lib, set_):
                    get, set_ = getattr(lib, get), getattr(lib, set_)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    _openblas_calls[path] = (get, set_)
                    break
        if _openblas_calls[path] is not None:
            found[path] = _openblas_calls[path]
    return found


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS copy mapped into this process.

    Returns:
        Library path -> threads; empty with another BLAS or no ``/proc``.
    """
    return {path: int(get()) for path, (get, _) in _openblas().items()}


def set_blas_threads(threads: int | Mapping[str, int]) -> None:
    """Set the thread count of each OpenBLAS copy mapped into this process.

    Args:
        threads: One count for every copy, or per-path counts as
            :func:`blas_threads` returns them (copies not named keep
            theirs).
    """
    for path, (_, set_) in _openblas().items():
        n = threads.get(path) if isinstance(threads, Mapping) else threads
        if n is not None:
            set_(int(n))


@contextmanager
def blas_thread_limit(threads: int = 1) -> Iterator[None]:
    """Run a block at ``threads`` BLAS threads, then restore the counts."""
    saved = blas_threads()
    set_blas_threads(threads)
    try:
        yield
    finally:
        set_blas_threads(saved)
