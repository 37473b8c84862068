"""Cell executors: the single implementation behind serial *and*
parallel experiment runs.

Each function executes one :class:`~repro.runner.spec.RunSpec` in
isolation, deriving every random stream it consumes from the spec via
spawn-key :func:`~repro.runner.spec.derive_rng` — never from a shared
generator — so the output is bit-identical whether the cell runs inline,
in a worker process, or in any order relative to its siblings.

Shared-information streams are shared *by key*, not by sequence: all
methods of one objective space derive the same initial design from
``(seed, "init", space)``, and all cells of one scenario derive the same
source subset from ``(seed, "source", n_source)`` — exactly the paper's
"same starting information" protocol, without order coupling.

When ``PPATUNER_TRACE_DIR`` is set (the runner's ``trace_dir`` argument
exports it, and worker processes inherit it), every cell records its
tuning loop to ``trace-<spec_hash>.jsonl`` under that directory; the
trace path and event count surface in the cell's telemetry.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from ..obs.recorder import NULL_RECORDER, TraceRecorder
from ..obs.sinks import JsonlSink, trace_path_for
from .spec import RunSpec, derive_rng, derive_seed

__all__ = ["execute_spec"]


def _cell_recorder(spec: RunSpec):
    """Per-cell trace recorder (``PPATUNER_TRACE_DIR`` convention).

    Returns ``(recorder, trace_path)``; the null recorder and an empty
    path when tracing is disabled.
    """
    from .. import env

    trace_dir = env.trace_dir()
    if trace_dir is None:
        return NULL_RECORDER, ""
    path = trace_path_for(spec.spec_hash(), trace_dir)
    return TraceRecorder(sinks=[JsonlSink(path)]), str(path)


def _cell_oracle(spec: RunSpec, Y: np.ndarray):
    """Per-cell oracle, optionally fault-injected and resilient.

    The default is a bare :class:`~repro.core.PoolOracle` — zero added
    overhead, unchanged traces.  Two switches activate the reliability
    stack:

    - ``PPATUNER_FAULT_SEED`` (chaos testing): wrap the pool in a
      :class:`~repro.reliability.FaultInjectingOracle` whose plan is
      derived from the fault seed and the spec hash — every cell gets
      its own reproducible fault schedule — restricted to
      value-preserving transient kinds so memoized results stay valid
      and outcomes stay bit-identical to the fault-free run.
    - A ``fault_policy`` spec param (scenario/CLI plumbing): govern the
      :class:`~repro.reliability.ResilientOracle` with that policy
      instead of the zero-backoff default used for chaos runs.
    """
    from .. import env
    from ..core import PoolOracle

    policy = _spec_fault_policy(spec)
    chaos_seed = env.fault_seed()
    oracle = PoolOracle(Y)
    if chaos_seed is None and policy is None:
        return oracle
    from ..reliability import (
        TRANSIENT_KINDS,
        FaultInjectingOracle,
        FaultPlan,
        FaultPolicy,
        ResilientOracle,
    )

    if chaos_seed is not None:
        plan = FaultPlan.seeded(
            derive_seed(chaos_seed, "faults", spec.spec_hash()),
            oracle.n_candidates,
            rate=0.05,
            kinds=TRANSIENT_KINDS,
        )
        oracle = FaultInjectingOracle(oracle, plan, latency_s=0.001)
    if policy is None:
        policy = FaultPolicy(backoff_base=0.0)
    return ResilientOracle(
        oracle,
        policy=policy,
        seed=derive_seed(
            spec.seed, "resilience", spec.method, spec.repeat
        ),
    )


def _spec_fault_policy(spec: RunSpec):
    """Decode the optional ``fault_policy`` spec param (None = default)."""
    import json

    policy_raw = spec.param("fault_policy", None)
    if policy_raw is None:
        return None
    from ..reliability import FaultPolicy

    return FaultPolicy.from_json(json.loads(policy_raw))


def _tune_and_score(spec: RunSpec, tuner, recorder, X_pool, target,
                    **kwargs):
    """The tail every cell shares: route the tuner's events into the
    cell trace (when it can emit them), tune through the cell's oracle
    and score the result against the golden front.

    Returns:
        ``(result, outcome, calibration)``: the
        :class:`~repro.core.result.TuningResult`, its scored
        :class:`~repro.experiments.scenarios.MethodOutcome` and the
        tuner's aggregated ``CalibrationStats`` counters (empty when it
        has no calibration engine).
    """
    from ..experiments.scenarios import evaluate_outcome

    names = spec.objectives
    if recorder and hasattr(tuner, "recorder"):
        tuner.recorder = recorder
    oracle = _cell_oracle(spec, target.objectives(names))
    result = tuner.tune(X_pool, oracle, **kwargs)
    outcome = evaluate_outcome(
        spec.method, spec.objective_space, result, target, names
    )
    outcome.repeat = spec.repeat
    stats = getattr(getattr(tuner, "calibration_", None), "stats", None)
    calibration = (
        {} if stats is None
        else {k: int(v) for k, v in dataclasses.asdict(stats).items()}
    )
    return result, outcome, calibration


def _source_subset(spec: RunSpec, source):
    """The scenario-shared source subset (same for every cell)."""
    rng = derive_rng(spec.seed, "source", spec.n_source)
    idx = rng.choice(
        source.n, size=min(spec.n_source, source.n), replace=False
    )
    return idx


def _shared_init(spec: RunSpec, target) -> np.ndarray:
    """The per-objective-space shared initial design."""
    rng = derive_rng(spec.seed, "init", spec.objective_space)
    n_init = max(5, int(round(0.02 * target.n)))
    return rng.choice(target.n, size=n_init, replace=False)


def _method_config(spec: RunSpec, ppa_config):
    """Per-cell tuner config: explicit configs get a derived seed so
    repeats differ and no two cells share a stream."""
    if ppa_config is None:
        return None
    return dataclasses.replace(
        ppa_config,
        seed=derive_seed(
            spec.seed, "method", spec.objective_space, spec.method,
            spec.repeat,
        ),
    )


def _spec_pruning(spec: RunSpec, source, target):
    """The cell's optional knob-importance pruning (``prune_space``
    spec param).

    FIST-style: importances come from the *source* golden table (the
    prior design's full table — known before any target tool run) and
    restrict the shared knob columns both pools are sliced to.  The
    pruning seed derives from ``(seed, "prune")`` only, so every cell
    of one scenario sees the same knob subset (shared information by
    key, like the init design).

    Returns ``None`` when pruning is off.
    """
    import json

    raw = spec.param("prune_space", None)
    if raw is None:
        return None
    from ..ml.importance import prune_space

    settings = json.loads(raw)
    return prune_space(
        target.space, source.X, source.Y,
        seed=derive_seed(spec.seed, "prune"),
        **settings,
    )


def _run_scenario_cell(spec: RunSpec, source, target, ppa_config,
                       recorder=NULL_RECORDER):
    """One (method, objective-space) cell of a paper table."""
    from ..experiments.scenarios import PAPER_BUDGET_FRACTIONS, make_method

    names = spec.objectives
    src_idx = _source_subset(spec, source)
    X_source = source.X[src_idx]
    Y_source = source.objectives(names)[src_idx]
    X_pool = target.X
    pruned = _spec_pruning(spec, source, target)
    if pruned is not None:
        X_pool = pruned.slice(X_pool)
        X_source = pruned.slice(X_source)
    init = _shared_init(spec, target)
    n_init = len(init)
    budget_frac = PAPER_BUDGET_FRACTIONS.get(spec.method, {}).get(
        spec.budget_key, 0.08
    )
    budget = max(n_init + 5, int(round(budget_frac * target.n)))
    method_seed = derive_seed(
        spec.seed, "method", spec.objective_space, spec.method, spec.repeat
    )
    tuner = make_method(
        spec.method, budget, target.n, method_seed,
        ppa_config=_method_config(spec, ppa_config),
        fault_policy=_spec_fault_policy(spec),
    )
    _, outcome, calibration = _tune_and_score(
        spec, tuner, recorder, X_pool, target,
        sources=[(X_source, Y_source)],
        init_indices=init.copy(),
    )
    extras = {}
    if pruned is not None:
        extras["pruned_knobs"] = list(pruned.dropped)
    return outcome, extras, calibration


def _run_tune_cell(spec: RunSpec, source, target, ppa_config,
                   recorder=NULL_RECORDER):
    """A single configured PPATuner run (ablation sweeps, `_util`)."""
    from ..core import PPATuner, PPATunerConfig

    kwargs = {}
    if source is not None and spec.n_source > 0:
        src_idx = _source_subset(spec, source)
        kwargs = {
            "sources": [(
                source.X[src_idx],
                source.objectives(spec.objectives)[src_idx],
            )],
        }
    tuner = PPATuner(ppa_config or PPATunerConfig(seed=spec.seed))
    _, outcome, calibration = _tune_and_score(
        spec, tuner, recorder, target.X, target, **kwargs
    )
    return outcome, {}, calibration


def _run_scenario_three_cell(spec: RunSpec, source, target, ppa_config,
                             recorder=NULL_RECORDER):
    """One mixed-archive variant (Scenario Three).

    Every variant derives the *same* archives from the spec seed, so the
    comparison isolates the archive mix, not the draw.
    """
    import json

    from ..core import PPATuner, PPATunerConfig

    names = spec.objectives
    rng = derive_rng(spec.seed, "scenario3", "archives")
    idx = rng.choice(
        source.n, min(2 * spec.n_source, source.n), replace=False
    )
    half = len(idx) // 2
    Xs = source.X[idx[:half]]
    Ys = source.objectives(names)[idx[:half]]
    Xs_decoy = source.X[idx[half:]]
    Ys_decoy = source.objectives(names)[idx[half:]][
        rng.permutation(len(idx) - half)
    ]

    variant_kwargs: dict[str, dict] = {
        "related-only": {"sources": [(Xs, Ys)]},
        "multi-source": {
            "sources": [(Xs, Ys), (Xs_decoy, Ys_decoy)],
        },
        "decoy-only": {"sources": [(Xs_decoy, Ys_decoy)]},
        "no-transfer": {},
    }
    if spec.method not in variant_kwargs:
        raise ValueError(f"unknown scenario-three variant {spec.method!r}")
    kwargs = variant_kwargs[spec.method]

    max_iterations = int(json.loads(spec.param("max_iterations", "50")))
    config = ppa_config or PPATunerConfig(
        max_iterations=max_iterations, seed=spec.seed,
    )
    tuner = PPATuner(config)
    _, outcome, calibration = _tune_and_score(
        spec, tuner, recorder, target.X, target, **kwargs
    )

    # One row per objective and one lambda per archive; the no-transfer
    # variant (and an unfitted model) reports none.
    lambdas: list[list[float]] = []
    for model in tuner.models_:
        try:
            lams = model.lambdas
        except RuntimeError:
            continue
        if len(lams):
            lambdas.append([float(v) for v in lams])
    return outcome, {"lambdas": lambdas}, calibration


def _run_convergence_cell(spec: RunSpec, source, target, ppa_config,
                          recorder=NULL_RECORDER):
    """One method's anytime convergence trace."""
    import json

    from ..experiments.convergence import convergence_curve
    from ..experiments.scenarios import PAPER_BUDGET_FRACTIONS, make_method

    names = spec.objectives
    src_idx = _source_subset(spec, source)
    init = _shared_init(spec, target)
    budget_frac = PAPER_BUDGET_FRACTIONS.get(spec.method, {}).get(
        spec.budget_key, 0.1
    )
    min_budget = int(json.loads(spec.param("min_budget", "20")))
    budget = max(min_budget, int(budget_frac * target.n))
    method_seed = derive_seed(
        spec.seed, "method", spec.objective_space, spec.method, spec.repeat
    )
    tuner = make_method(
        spec.method, budget, target.n, method_seed,
        ppa_config=_method_config(spec, ppa_config),
        fault_policy=_spec_fault_policy(spec),
    )
    result, outcome, calibration = _tune_and_score(
        spec, tuner, recorder, target.X, target,
        sources=[(
            source.X[src_idx],
            source.objectives(names)[src_idx],
        )],
        init_indices=init.copy(),
    )
    curve = convergence_curve(spec.method, result, target, names)
    extras = {
        "curve_runs": [int(r) for r in curve.runs],
        "curve_hv_error": [float(e) for e in curve.hv_error],
    }
    return outcome, extras, calibration


_EXECUTORS = {
    "scenario": _run_scenario_cell,
    "tune": _run_tune_cell,
    "scenario_three": _run_scenario_three_cell,
    "convergence": _run_convergence_cell,
}


def execute_spec(spec: RunSpec, source, target, ppa_config=None):
    """Execute one cell and return its :class:`RunRecord`.

    Args:
        spec: The cell to run.
        source: Source pool (dataset or ``None``), already resolved.
        target: Target pool, already resolved.
        ppa_config: Optional explicit PPATuner configuration.

    Raises:
        ValueError: For an unknown ``spec.kind``.
    """
    from .runner import RunRecord, RunTelemetry

    try:
        executor = _EXECUTORS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown spec kind {spec.kind!r}") from None
    recorder, trace_path = _cell_recorder(spec)
    start = time.perf_counter()
    try:
        outcome, extras, calibration = executor(
            spec, source, target, ppa_config, recorder
        )
    finally:
        recorder.close()
    wall = time.perf_counter() - start
    telemetry = RunTelemetry(
        wall_time=wall,
        runs=int(outcome.runs),
        worker_pid=os.getpid(),
        calibration=calibration,
        memoized=False,
        trace_path=trace_path,
        n_events=getattr(recorder, "n_emitted", 0),
    )
    return RunRecord(
        spec=spec, outcome=outcome, telemetry=telemetry, extras=extras
    )
