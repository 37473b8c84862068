"""End-to-end tuning benchmark with a per-layer traced mode.

Usage (from the repository root):

    python3 perfbench/run.py --workload mac_transfer --seed 1 --seconds 20 --trace 0

Workloads: ``mac_transfer``, ``pool_50k``, ``fabric_service_q4`` (see
README.md).  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced pass instead.  Exit code 0 only when every
correctness check passed.

The golden tables are built once, in a child process, into
``.perfbench_cache/`` under the repository root before anything is
timed.  BLAS/OpenMP pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"

#: Set-ups timed (and torn down) before the first pass and after every
#: pass, besides each pass's own.  On a shared host the cost of a set-up
#: flips between two levels about 1.7x apart every second or so; samples
#: spread over the whole run give a median that reflects the run, where
#: a burst of samples at its start read one level or the other.
SETUPS_BETWEEN_PASSES = 2

#: Untraced passes a run makes at least.  The first pass in a process
#: runs slower (lazy imports, first page faults); the median of three or
#: more leaves it out without an untimed warm-up pass.
MIN_PASSES = 3


def pin_environment() -> None:
    """One BLAS/OpenMP thread, no repro debug switches, the benchmark's
    own table cache, and at most two malloc arenas.

    The arena cap is read by the C library at start-up, so the process
    re-executes itself once to apply it.  Without it the service
    workload's peak RSS varied by ±15% between runs, depending on how
    many per-thread arenas its HTTP handler threads touched.
    """
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"
    for var in ("PPATUNER_TRACE_DIR", "PPATUNER_FAULT_SEED", "PPATUNER_FULL"):
        os.environ.pop(var, None)
    os.environ["PPATUNER_CACHE"] = str(CACHE / "tables")
    if os.environ.get("MALLOC_ARENA_MAX") != "2":
        os.environ["MALLOC_ARENA_MAX"] = "2"
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build_tables() -> int:
    """Child-process entry: build (or verify) every golden table."""
    from workloads import TABLES
    from repro.bench.generate import generate_benchmark

    for name in TABLES:
        generate_benchmark(name)
    return 0


def ensure_tables() -> None:
    """Cold-build the golden tables outside the measured process."""
    env = dict(os.environ, PPATUNER_WORKERS="2")
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--build-tables"],
        env=env, stdout=sys.stderr, check=True, timeout=900,
    )


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_repeatable(workload: str, seed: int, digest: str, passes) -> None:
    """hv_error, tool_runs, rounds and the evaluation-order digest agree
    across every pass of this run and every earlier run of the same
    library sources (``digest``) at this seed.  Other sources may move
    the trajectory; that is what the deterministic metrics report."""
    from workloads import CheckFailed

    prints = [p.fingerprint() for p in passes]
    if any(fp != prints[0] for fp in prints[1:]):
        raise CheckFailed(f"passes disagree at seed {seed}: {prints}")
    path = CACHE / "fingerprints" / f"{workload}-{seed}-{digest}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != prints[0]:
            raise CheckFailed(
                f"trajectory differs from an earlier run at seed {seed}: "
                f"{recorded} != {prints[0]}"
            )
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(prints[0], sort_keys=True))
        os.replace(tmp, path)


def timed_setup(workload):
    start = time.perf_counter()
    prepared = workload.setup()
    return prepared, time.perf_counter() - start


def sample_setups(workload, setups: list) -> None:
    for _ in range(SETUPS_BETWEEN_PASSES):
        prepared, elapsed = timed_setup(workload)
        setups.append(elapsed)
        prepared.close()


def run_passes(workload, seconds: float, traced: bool):
    """Set up and tune until ``seconds`` of passes have run and at least
    ``MIN_PASSES`` untraced passes (and one traced pass, when
    ``traced``) are done; traced and untraced passes alternate.
    Returns (set-up samples, untraced passes, traced passes, tracer)."""
    from tracing import Tracer
    from workloads import run_pass

    setups = []
    sample_setups(workload, setups)
    plain, traced_passes = [], []
    tracer = Tracer() if traced else None
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = traced and len(traced_passes) < len(plain)
        prepared, elapsed = timed_setup(workload)
        setups.append(elapsed)
        try:
            if use_trace:
                tracer.install()
                try:
                    traced_passes.append(run_pass(prepared, tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(run_pass(prepared))
        finally:
            prepared.close()
        sample_setups(workload, setups)
        enough = len(plain) >= MIN_PASSES and (traced_passes or not traced)
        if enough and time.perf_counter() >= deadline:
            return setups, plain, traced_passes, tracer


def end_to_end(setups, passes) -> dict:
    asks = [ms for p in passes for ms in p.ask_ms]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "tune_s": (statistics.median(p.tune_s for p in passes), "s"),
        "ask_ms_p50": (statistics.median(asks), "ms"),
        "hv_error": (passes[0].hv_error, "fraction"),
        "tool_runs": (passes[0].tool_runs, "count"),
        "rounds": (passes[0].rounds, "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(plain, traced_passes, tracer) -> dict:
    from tracing import reopt_and_incremental_seconds

    k = len(traced_passes)
    summary = tracer.summarize()

    def self_s(*names):
        return sum(summary.get(n, {}).get("self", 0.0) for n in names) / k

    def calls(name):
        return summary.get(name, {}).get("n", 0) / k

    def count(name, key):
        return summary.get(name, {}).get("counts", {}).get(key, 0) / k

    reopt_s, reopt_n, incremental_s = reopt_and_incremental_seconds(tracer)
    stats = {}
    for engine in tracer.engines:
        for key in ("n_full_fits", "n_incremental", "n_shared_fits",
                    "n_shared_updates", "n_fallbacks"):
            stats[key] = stats.get(key, 0) + getattr(engine.stats, key, 0)
    requests = [ms for p in traced_passes for ms in p.request_ms]
    persist_n = calls("service.persist")
    traced_tune = statistics.median(p.tune_s for p in traced_passes)
    plain_tune = statistics.median(p.tune_s for p in plain)
    tune_total = sum(p.tune_s for p in traced_passes)
    attempted = sum(p.attempted for p in plain + traced_passes)
    failed = sum(p.failed for p in plain + traced_passes)
    metrics = {
        "calibration.calibrate_s": (self_s("calibration.calibrate"), "s"),
        "calibration.reopt_s": (reopt_s / k, "s"),
        "calibration.reopt_n": (reopt_n / k, "count"),
        "calibration.incremental_s": (incremental_s / k, "s"),
        "calibration.predict_s": (self_s("calibration.predict"), "s"),
        "gp.fit_s": (self_s("gp.fit"), "s"),
        "gp.fit_n": (calls("gp.fit"), "count"),
        "gp.update_s": (self_s("gp.update"), "s"),
        "gp.predict_pool_s": (
            self_s("gp.predict_pool", "gp.predict_pool_multi"), "s"
        ),
        "gp.predict_rows": (count("gp.predict_pool", "rows"), "count"),
        "uncertainty.intersect_s": (self_s("uncertainty.intersect"), "s"),
        "uncertainty.rows": (count("uncertainty.intersect", "rows"), "count"),
        "decision.decide_s": (self_s("decision.decide"), "s"),
        "decision.undecided_rows": (count("decision.decide", "rows"), "count"),
        "selection.select_s": (self_s("selection.select"), "s"),
        "selection.picks": (count("selection.select", "picks"), "count"),
        "session.ask_s": (self_s("session.ask"), "s"),
        "session.tell_s": (self_s("session.tell"), "s"),
        "session.snapshot_s": (self_s("session.snapshot"), "s"),
        "service.handler_s": (self_s("service.handler"), "s"),
        "service.persist_s": (self_s("service.persist"), "s"),
        "service.persist_n": (persist_n, "count"),
        "service.snapshot_bytes": (
            count("service.persist", "bytes") / persist_n if persist_n else 0.0,
            "bytes",
        ),
        "service.request_ms_p50": (
            statistics.median(requests) if requests else 0.0, "ms"
        ),
        "oracle.evaluate_s": (self_s("oracle.evaluate"), "s"),
        "oracle.evaluations": (calls("oracle.evaluate"), "count"),
        "trace.overhead_frac": (traced_tune / plain_tune - 1.0, "fraction"),
        "trace.unattributed_frac": (
            max(0.0, 1.0 - summary["_top"] / tune_total), "fraction"
        ),
        "failed_frac": (failed / attempted, "fraction"),
    }
    for key, value in stats.items():
        metrics[f"calibration.{key}"] = (value / k, "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-tables", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro sources under {ROOT / 'src'}", 2)
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    if args.build_tables:
        return build_tables()

    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        return _fail(f"--workload must be one of {sorted(WORKLOADS)}", 2)
    ensure_tables()
    store_root = CACHE / "stores" / str(os.getpid())
    workload = WORKLOADS[args.workload](args.seed, store_root)
    env = environment(args)
    try:
        setups, plain, traced_passes, tracer = run_passes(
            workload, args.seconds, bool(args.trace)
        )
        passes = plain + traced_passes
        check_repeatable(args.workload, args.seed, env["source_sha256"], passes)
        if hasattr(workload, "twin_check"):
            workload.twin_check(passes[-1])
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        import shutil

        shutil.rmtree(store_root, ignore_errors=True)

    if args.trace:
        metrics = per_layer(plain, traced_passes, tracer)
    else:
        metrics = end_to_end(setups, plain)
    env.update(
        passes=len(passes),
        pass_tune_s=[round(p.tune_s, 4) for p in passes],
        setup_ms=[round(1e3 * s, 2) for s in setups],
        ask_samples=sum(len(p.ask_ms) for p in plain),        fingerprint=passes[0].fingerprint(),
    )
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
