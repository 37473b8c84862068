"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``generate``      build/refresh the offline benchmark tables
- ``tune``          run PPATuner on one benchmark pair
- ``scenario``      reproduce a paper table (``one``/``two``) or run a
  cross-design transfer scenario (``mac_to_fabric``,
  ``cpu_small_to_large``, ``fabric_to_cpu``)
- ``experiments``   run the whole suite through the parallel runner
- ``sensitivity``   parameter-sensitivity report for one benchmark
- ``importance``    FIST-style knob-importance ranking for one benchmark
- ``export``        write a generated design netlist as structural
  Verilog (any registered design family)
- ``cache``         inspect/heal the benchmark cache (verify/clear/info)
- ``trace``         inspect recorded tuning traces (show/summary/diff)

Fault tolerance: ``tune``/``scenario``/``experiments`` accept
``--max-retries`` and ``--eval-timeout`` to override the evaluation
fault policy (retry budget / per-call timeout); setting the
``PPATUNER_FAULT_SEED`` environment variable injects a deterministic
transient-fault schedule into every cell for chaos testing.

Tracing: ``tune --trace FILE`` records the run's event stream as JSONL;
``scenario``/``experiments`` accept ``--trace-dir DIR`` to record every
cell to ``trace-<spec_hash>.jsonl`` in that directory.  Recorded traces
replay without re-running the tool (``repro trace summary FILE``).

Scenario/experiment runs fan their independent cells out over a process
pool (``--workers``, or the ``PPATUNER_WORKERS`` environment variable)
and memoize completed cells under ``.cache/runs`` (``PPATUNER_RUN_CACHE``
overrides): a killed invocation re-executes only unfinished cells on
restart, ``--force`` invalidates and re-runs, ``--no-resume`` disables
memoization for the invocation.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import env


def _cmd_generate(args: argparse.Namespace) -> int:
    from .bench import generate_all, generate_benchmark
    from .experiments import format_benchmark_table

    if args.benchmark == "all":
        benches = generate_all(cache=not args.no_cache)
    else:
        benches = {
            args.benchmark: generate_benchmark(
                args.benchmark, n_points=args.points,
                cache=not args.no_cache,
            )
        }
    print(format_benchmark_table([b.summary() for b in benches.values()]))
    return 0


def _fault_policy_from_args(args: argparse.Namespace):
    """A FaultPolicy override when any resilience flag was given.

    ``None`` (no flags) keeps the config default — and, for scenario
    runs, the unchanged spec hashes of existing memo entries.
    """
    import dataclasses

    from .reliability import FaultPolicy

    overrides = {}
    if getattr(args, "max_retries", None) is not None:
        overrides["max_retries"] = args.max_retries
    if getattr(args, "eval_timeout", None) is not None:
        overrides["timeout_s"] = args.eval_timeout
    if not overrides:
        return None
    return dataclasses.replace(FaultPolicy(), **overrides)


def _cmd_tune(args: argparse.Namespace) -> int:
    from .bench import OBJECTIVE_SPACES, generate_benchmark
    from .core import PoolOracle, PPATuner, PPATunerConfig
    from .obs import NULL_RECORDER, JsonlSink, TraceRecorder
    from .pareto import adrs, hypervolume_error, pareto_front

    names = OBJECTIVE_SPACES[args.objectives]
    target = generate_benchmark(args.target)
    if args.scale:
        target = target.subsample(args.scale, seed=args.seed)
    if args.pool_refine_every > 0:
        # Refined candidates are new configurations with no row in the
        # cached table — evaluate through the live flow instead.
        from .bench.generate import design_base_params, get_flow
        from .core import CallableOracle
        from .pdtool.params import ToolParameters

        flow = get_flow(target.design)
        base = design_base_params(target.design)
        space = target.space

        def _run_flow(x: np.ndarray) -> np.ndarray:
            merged = {**base, **dict(space.decode(x))}
            report = flow.run(ToolParameters.from_dict(merged))
            return np.asarray(report.objectives(names))

        oracle = CallableOracle(
            _run_flow, target.X, len(names), workers=max(1, args.q)
        )
    else:
        oracle = PoolOracle(target.objectives(names))

    kwargs = {}
    if args.source:
        source = generate_benchmark(args.source)
        rng = np.random.default_rng(args.seed)
        idx = rng.choice(
            source.n, min(args.n_source, source.n), replace=False
        )
        kwargs = {
            "sources": [(
                source.X[idx],
                source.objectives(names)[idx],
            )],
        }

    recorder = NULL_RECORDER
    if args.trace:
        recorder = TraceRecorder(sinks=[JsonlSink(args.trace)])
    policy = _fault_policy_from_args(args)
    config = PPATunerConfig(
        max_iterations=args.max_iterations, seed=args.seed,
        q=args.q, pool_refine_every=args.pool_refine_every,
        warm_start=args.warm_start,
    )
    if policy is not None:
        import dataclasses

        config = dataclasses.replace(config, fault_policy=policy)
    try:
        result = PPATuner(config, recorder=recorder).tune(
            target.X, oracle, **kwargs
        )
    finally:
        recorder.close()
    if args.trace:
        print(f"trace: {args.trace} ({recorder.n_emitted} events)")

    golden = target.golden_front(names)
    found = pareto_front(result.pareto_points)
    print(f"runs={result.n_evaluations} iterations={result.n_iterations} "
          f"stop={result.stop_reason}")
    print(f"hv_error={hypervolume_error(found, golden):.4f} "
          f"adrs={adrs(golden, found):.4f} "
          f"pareto_found={len(result.pareto_indices)}")
    for row in found:
        print("  " + "  ".join(f"{v:10.4f}" for v in row))
    return 0


def _experiment_runner(args: argparse.Namespace):
    """Build the memoizing runner shared by scenario/experiments."""
    from .runner import ExperimentRunner, RunMemo

    memo = RunMemo() if args.resume or args.force else None
    return ExperimentRunner(
        workers=args.workers,
        memo=memo,
        resume=args.resume,
        force=args.force,
        progress=print,
        trace_dir=args.trace_dir,
    )


def _parse_methods(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    methods = tuple(m.strip() for m in raw.split(",") if m.strip())
    if not methods:
        raise SystemExit("--methods must name at least one method")
    return methods


def _prune_from_args(args: argparse.Namespace) -> dict | None:
    """Pruning settings when ``--prune-space`` was given, else None."""
    if not getattr(args, "prune_space", False):
        return None
    settings = {}
    if getattr(args, "prune_threshold", None) is not None:
        settings["threshold"] = args.prune_threshold
    return settings


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .experiments import (
        CROSS_DESIGN_METHODS,
        PAPER_METHODS,
        cross_design_scenario,
        export_scenario_csv,
        export_scenario_json,
        format_scenario_table,
        scenario_one,
        scenario_two,
    )

    common = dict(
        scale=args.scale,
        seed=args.seed,
        repeats=args.repeats,
        runner=_experiment_runner(args),
        n_points=args.points,
        fault_policy=_fault_policy_from_args(args),
        prune_space=_prune_from_args(args),
    )
    if args.which in ("one", "two"):
        scenario = scenario_one if args.which == "one" else scenario_two
        methods = _parse_methods(args.methods) or PAPER_METHODS
        result = scenario(methods=methods, **common)
    else:
        methods = _parse_methods(args.methods) or CROSS_DESIGN_METHODS
        result = cross_design_scenario(args.which, methods=methods,
                                       **common)
    print(format_scenario_table(result, methods=methods))
    if args.json:
        export_scenario_json(result, args.json)
        print(f"wrote {args.json}")
    if args.csv:
        export_scenario_csv(result, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import (
        PAPER_METHODS,
        convergence_suite,
        format_convergence_table,
        format_scenario_table,
        format_scenario_three,
        scenario_one,
        scenario_three,
        scenario_two,
    )
    from .runner import DatasetRef, format_telemetry_table

    methods = _parse_methods(args.methods) or PAPER_METHODS
    runner = _experiment_runner(args)
    fault_policy = _fault_policy_from_args(args)

    print("== Scenario One (Table 2) ==")
    one = scenario_one(
        scale=args.scale, seed=args.seed, methods=methods,
        repeats=args.repeats, runner=runner, n_points=args.points,
        fault_policy=fault_policy,
    )
    print(format_scenario_table(one, methods=methods))

    print("\n== Scenario Two (Table 3) ==")
    two = scenario_two(
        scale=args.scale, seed=args.seed, methods=methods,
        repeats=args.repeats, runner=runner, n_points=args.points,
        fault_policy=fault_policy,
    )
    print(format_scenario_table(two, methods=methods))

    print("\n== Scenario Three (mixed archives) ==")
    three = scenario_three(
        seed=args.seed, runner=runner,
        n_points=args.points, scale=args.scale,
    )
    print(format_scenario_three(three))

    print("\n== Anytime convergence (Target2 power-delay) ==")
    source_ref = DatasetRef("source2", n_points=args.points)
    target_ref = DatasetRef(
        "target2", n_points=args.points,
        subsample=args.scale, subsample_seed=args.seed,
    )
    curves = convergence_suite(
        source_ref.resolve(), target_ref.resolve(),
        ("power", "delay"), methods, seed=args.seed, runner=runner,
        source_ref=source_ref, target_ref=target_ref,
    )
    print(format_convergence_table(curves))

    print("\n== Telemetry ==")
    print(format_telemetry_table(runner.history))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .bench import generate_benchmark
    from .experiments.sensitivity import analyze_sensitivity

    dataset = generate_benchmark(args.benchmark)
    report = analyze_sensitivity(dataset, seed=args.seed)
    print(report.format())
    for metric in report.metric_names:
        top = ", ".join(report.top_parameters(metric, 3))
        print(f"top-3 for {metric}: {top}")
    return 0


def _cmd_importance(args: argparse.Namespace) -> int:
    from .bench import generate_benchmark
    from .ml import prune_space

    dataset = generate_benchmark(args.benchmark, n_points=args.points)
    pruned = prune_space(
        dataset.space, dataset.X, dataset.Y,
        threshold=args.threshold, min_keep=args.min_keep,
        method=args.method, seed=args.seed,
    )
    print(pruned.report.format())
    print(f"\nkeep ({len(pruned.kept)}): {', '.join(pruned.kept)}")
    if pruned.dropped:
        print(f"prune ({len(pruned.dropped)}): "
              f"{', '.join(pruned.dropped)}")
    else:
        print("prune (0): none below threshold")
    if args.json:
        import json

        payload = {
            "benchmark": args.benchmark,
            "method": pruned.report.method,
            "threshold": pruned.threshold,
            "importances": {
                n: float(v) for n, v in pruned.report.ranked()
            },
            "kept": list(pruned.kept),
            "dropped": list(pruned.dropped),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .pdtool import design_family, write_verilog

    netlist = design_family(args.design).netlist(args.design)
    write_verilog(netlist, args.output)
    print(f"wrote {args.output} ({netlist.n_cells} cells, "
          f"{netlist.n_primary_inputs} inputs)")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .bench import CACHE_VERSION, BenchmarkStore, default_cache_dir

    store = BenchmarkStore(default_cache_dir())
    if args.action == "verify":
        reports = store.verify(current_version=CACHE_VERSION)
        if not reports:
            print(f"cache at {store.root} is empty")
            return 0
        for report in reports:
            line = f"{report.status:>12}  {report.filename}"
            if report.detail:
                line += f"  ({report.detail})"
            print(line)
        healed = sum(r.status != "ok" for r in reports)
        print(f"{len(reports)} file(s) checked, {healed} healed/removed")
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} file(s) from {store.root}")
        return 0
    info = store.info()
    print(f"cache root: {info['root']}")
    print(f"tables: {info['n_files']}  "
          f"total: {info['total_bytes'] / 1024:.1f} KiB  "
          f"current version: v{CACHE_VERSION}")
    for entry in info["entries"]:
        manifested = "manifested" if entry["manifested"] else "legacy"
        builds = entry["builds"]
        builds_txt = f" builds={builds}" if builds is not None else ""
        print(f"  {entry['filename']}  {entry['size']} B  "
              f"v{entry['version']}  {manifested}{builds_txt}")
    for name in info["quarantined"]:
        print(f"  quarantined: {name}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import diff_traces, format_events, summarize_trace

    if args.action == "show":
        out = format_events(
            args.trace,
            event_type=args.type,
            iteration=args.iteration,
            limit=args.limit,
        )
        if out:
            print(out)
        return 0
    if args.action == "summary":
        print(summarize_trace(args.trace))
        return 0
    if args.other is None:
        raise SystemExit("trace diff needs two trace files")
    print(diff_traces(args.trace, args.other))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from .service import serve

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    svc = serve(root=args.store, host=args.host, port=args.port)
    n = len(svc.service.sessions())
    print(f"tuning service on {svc.url} "
          f"(store={args.store}, {n} session(s) recovered)", flush=True)
    try:
        svc.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        svc.shutdown()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PPATuner (DAC 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    benchmarks = (
        "source1", "target1", "source2", "target2",
        "source3", "fabric1", "fabric2", "cpu1", "cpu2",
    )

    p = sub.add_parser("generate", help="build offline benchmark tables")
    p.add_argument("benchmark", choices=("all",) + benchmarks)
    p.add_argument("--points", type=int, default=None,
                   help="pool size override")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("tune", help="run PPATuner on a benchmark")
    p.add_argument("target", choices=benchmarks)
    p.add_argument("--source", choices=benchmarks, default=None)
    p.add_argument("--objectives", default="power-delay", choices=(
        "area-delay", "power-delay", "area-power-delay",
    ))
    p.add_argument("--scale", type=int, default=None,
                   help="subsample the target pool")
    p.add_argument("--n-source", type=int, default=200)
    p.add_argument("--max-iterations", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warm-start", choices=("random", "copula"),
                   default="random",
                   help="initial-design mode: copula seeds from the "
                        "source archive (requires --source)")
    p.add_argument("--q", type=int, default=1,
                   help="evaluations per synchronous round (parallel "
                        "tool licenses); 1 keeps the paper's serial "
                        "loop")
    p.add_argument("--pool-refine-every", type=int, default=0,
                   metavar="N",
                   help="every N iterations, zoom new LHS candidates "
                        "around the live uncertainty rectangles "
                        "(0 disables; re-runs the flow for refined "
                        "points instead of the cached table)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record the run's event stream to a JSONL file")
    p.add_argument("--max-retries", type=int, default=None,
                   help="retries per evaluation before quarantine "
                        "(default: the FaultPolicy default)")
    p.add_argument("--eval-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-evaluation timeout (default: none)")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "serve",
        help="run the multi-session ask/tell tuning service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8763,
                   help="listen port (0 picks a free one)")
    p.add_argument("--store", default=".cache/sessions",
                   help="snapshot/trace directory; sessions found here "
                        "are recovered on startup")
    p.add_argument("--verbose", action="store_true",
                   help="debug-level request logging")
    p.set_defaults(func=_cmd_serve)

    def add_runner_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", type=int, default=None,
                       help="subsample the target pool")
        p.add_argument("--points", type=int, default=None,
                       help="pool-size override for benchmark generation")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=None,
                       help="process count (default: PPATUNER_WORKERS "
                            "or the CPU count)")
        p.add_argument("--repeats", type=int, default=1,
                       help="independent repeats per cell")
        p.add_argument("--methods", default=None,
                       help="comma-separated method subset")
        p.add_argument("--resume", dest="resume", action="store_true",
                       default=True,
                       help="skip memoized cells (default)")
        p.add_argument("--no-resume", dest="resume",
                       action="store_false",
                       help="ignore and do not write the run memo")
        p.add_argument("--force", action="store_true",
                       help="invalidate memoized cells and re-run")
        p.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="record every cell's event stream to "
                            "trace-<spec_hash>.jsonl under DIR")
        p.add_argument("--max-retries", type=int, default=None,
                       help="retries per evaluation before quarantine "
                            "(changes memo keys when set)")
        p.add_argument("--eval-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-evaluation timeout (default: none)")

    p = sub.add_parser(
        "scenario",
        help="reproduce a paper table or a cross-design scenario",
        description="one/two reproduce the paper tables; the named "
                    "scenarios transfer across design families "
                    "(MAC->fabric, small->large CPU, and the "
                    "fabric->CPU negative-transfer control).  Cells "
                    "fan out over --workers processes; completed "
                    "cells are memoized under .cache/runs so an "
                    "interrupted run resumes where it stopped.",
    )
    p.add_argument("which", choices=(
        "one", "two",
        "mac_to_fabric", "cpu_small_to_large", "fabric_to_cpu",
    ))
    add_runner_args(p)
    p.add_argument("--prune-space", action="store_true",
                   help="prune dead knobs from the tuning space via "
                        "source-table importance before every cell "
                        "(changes memo keys when set)")
    p.add_argument("--prune-threshold", type=float, default=None,
                   metavar="FRACTION",
                   help="importance cutoff for --prune-space "
                        "(default 0.05)")
    p.add_argument("--json", default=None, help="export records to JSON")
    p.add_argument("--csv", default=None, help="export records to CSV")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser(
        "experiments",
        help="run the whole experiment suite through the runner",
        description="Scenario One + Two tables, the mixed-archive "
                    "Scenario Three, and the anytime convergence "
                    "curves, with per-run telemetry.",
    )
    p.add_argument("suite", choices=("all",))
    add_runner_args(p)
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("sensitivity",
                       help="parameter-sensitivity report")
    p.add_argument("benchmark", choices=benchmarks)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser(
        "importance",
        help="FIST-style knob-importance ranking for a benchmark",
        description="Ranks the benchmark's knobs by how much QoR "
                    "response they explain on its golden table and "
                    "shows which ones --prune-space would drop.",
    )
    p.add_argument("benchmark", choices=benchmarks)
    p.add_argument("--points", type=int, default=None,
                   help="pool size override")
    p.add_argument("--method", choices=("tree", "permutation"),
                   default="tree")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="importance cutoff (fraction of total)")
    p.add_argument("--min-keep", type=int, default=2,
                   help="always keep at least this many knobs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None,
                   help="write the ranking to a JSON file")
    p.set_defaults(func=_cmd_importance)

    p = sub.add_parser("export",
                       help="write a generated design as Verilog")
    p.add_argument("design", choices=(
        "mac_small", "mac_large", "fir_small", "fir_large",
        "alu_small", "alu_large", "fabric_small", "fabric_large",
        "cpu_small", "cpu_large",
    ))
    p.add_argument("output")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "cache", help="inspect/heal the benchmark cache",
        description="verify: check every table, quarantine corrupt ones "
                    "and drop stale generations; clear: wipe the cache; "
                    "info: list tables and manifest state",
    )
    p.add_argument("action", choices=("verify", "clear", "info"))
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "trace", help="inspect recorded tuning traces",
        description="show: print events one per line (filterable); "
                    "summary: one-screen digest of a recorded run; "
                    "diff: iteration-aligned comparison of two runs.",
    )
    p.add_argument("action", choices=("show", "summary", "diff"))
    p.add_argument("trace", help="JSONL trace file")
    p.add_argument("other", nargs="?", default=None,
                   help="second trace (diff only)")
    p.add_argument("--type", default=None,
                   help="show only this event type")
    p.add_argument("--iteration", type=int, default=None,
                   help="show only this iteration")
    p.add_argument("--limit", type=int, default=None,
                   help="show only the last N events")
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Commands run at one BLAS thread: the GP's small factorizations run
    no faster on more, and results then do not depend on the core
    count.  scipy maps its own OpenBLAS when ``scipy.linalg`` is first
    imported, so that import comes first.
    """
    args = build_parser().parse_args(argv)
    import scipy.linalg  # noqa: F401

    with env.blas_thread_limit(1):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
