"""Scenario runners: the paper's Tables 2 and 3 and the cross-design set.

Scenario One (same design): Source1 -> Target1, the designer re-tunes a
different parameter subspace of the same MAC.  Scenario Two (similar
designs): Source2 -> Target2, knowledge moves from the small MAC to the
larger one.  Three more scenarios transfer across design families.
Each is one entry of :data:`SCENARIOS`, and :func:`scenario` runs any
of them: it sweeps the paper's three objective spaces and the entry's
methods, reporting hyper-volume error, ADRS and tool runs.

Method budgets default to the paper's run counts expressed as fractions
of the pool (so reduced-scale runs keep the paper's relative budgets).

Every (method, objective-space, repeat) cell is independent and runs
through :class:`~repro.runner.ExperimentRunner`: serial by default,
fanned out over a process pool with ``workers > 1``, memoized/resumable
when the runner carries a :class:`~repro.runner.RunMemo`.  Randomness is
derived per cell from the base seed with order-independent spawn keys
(see :mod:`repro.runner.spec`), so the parallel result is bit-identical
to the serial one; trajectories differ from the pre-runner order-coupled
serial loop at the same base seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ..baselines import (
    Aspdac20Fist,
    CopulaTransferTuner,
    Dac19Recommender,
    Mlcad19LcbBayesOpt,
    RandomSearchTuner,
    Tcad19ActiveLearner,
)
from ..bench.dataset import OBJECTIVE_SPACES, BenchmarkDataset
from ..core import PPATuner, PPATunerConfig
from ..core.result import TuningResult
from ..reliability.policy import FaultPolicy
from ..pareto.dominance import pareto_front
from ..pareto.hypervolume import hypervolume_error, reference_point
from ..pareto.metrics import adrs

#: Paper "Runs" per method, normalized by the pool size of each target
#: benchmark (Tables 2-3: Target1 pool 5000, Target2 pool 727).
PAPER_BUDGET_FRACTIONS: dict[str, dict[str, float]] = {
    "TCAD'19": {"target1": 508 / 5000, "target2": 92 / 727},
    "MLCAD'19": {"target1": 400 / 5000, "target2": 70 / 727},
    "DAC'19": {"target1": 600 / 5000, "target2": 131 / 727},
    "ASPDAC'20": {"target1": 400 / 5000, "target2": 70 / 727},
    "Random": {"target1": 400 / 5000, "target2": 70 / 727},
    "CopulaTransfer": {"target1": 400 / 5000, "target2": 70 / 727},
}

#: Methods appearing in the paper's tables, in column order.
PAPER_METHODS = ("TCAD'19", "MLCAD'19", "DAC'19", "ASPDAC'20", "PPATuner")

#: Default methods of the cross-design scenarios: the transfer method
#: under test, its no-transfer ablation, and the random floor.
CROSS_DESIGN_METHODS = ("PPATuner", "PPATuner-NT", "Random")


class Scenario(NamedTuple):
    """One named source -> target scenario.

    Attributes:
        label: Names the :class:`ScenarioResult`, every cell's
            ``RunSpec.scenario`` and so its memo files.
        source: Source benchmark name.
        target: Target benchmark name; it is also the budget key into
            :data:`PAPER_BUDGET_FRACTIONS` (fixed-budget methods fall
            back to 8% of the pool where it has no entry).
        methods: Default methods.
    """

    label: str
    source: str
    target: str
    methods: tuple[str, ...]


#: Every named scenario, keyed by the name ``repro scenario`` takes.
#:
#: ``one`` and ``two`` are the paper's Tables 2 and 3.  The other three
#: transfer *across* design families, where source and target share
#: knob columns but the netlists differ (DESIGN.md §14):
#:
#: - ``mac_to_fabric``: Source3 (small MAC over the fabric knob set) ->
#:   Fabric1 (structured-ASIC fabric).  Related physics, different
#:   architecture: the useful-transfer case.
#: - ``cpu_small_to_large``: Cpu1 -> Cpu2, the same CPU core scaled up
#:   with a shifted ``freq`` range (the paper's small->large protocol on
#:   a new family).
#: - ``fabric_to_cpu``: Fabric2 (fabric over the cpu knob set) -> Cpu2.
#:   A negative-transfer control: columns match, response surfaces do
#:   not, so transfer methods must discriminate relevance to win.
SCENARIOS: dict[str, Scenario] = {
    "one": Scenario("scenario_one", "source1", "target1", PAPER_METHODS),
    "two": Scenario("scenario_two", "source2", "target2", PAPER_METHODS),
    "mac_to_fabric": Scenario(
        "mac_to_fabric", "source3", "fabric1", CROSS_DESIGN_METHODS
    ),
    "cpu_small_to_large": Scenario(
        "cpu_small_to_large", "cpu1", "cpu2", CROSS_DESIGN_METHODS
    ),
    "fabric_to_cpu": Scenario(
        "fabric_to_cpu", "fabric2", "cpu2", CROSS_DESIGN_METHODS
    ),
}


@dataclass
class MethodOutcome:
    """One (method, objective-space) cell triple of Tables 2-3.

    Attributes:
        method: Method name.
        objective_space: e.g. ``"power-delay"``.
        hv_error: Hyper-volume error vs. the golden front (Eq. (2)).
        adrs: Average distance from reference set (Eq. (3)).
        runs: Tool runs consumed.
        result: The raw tuning result (frontier points for Figure 3).
        repeat: Repeat index when a cell is run multiple times.
    """

    method: str
    objective_space: str
    hv_error: float
    adrs: float
    runs: int
    result: TuningResult = field(repr=False, default=None)  # type: ignore[assignment]
    repeat: int = 0


@dataclass
class ScenarioResult:
    """All outcomes of one scenario (one paper table).

    Attributes:
        name: The scenario's label (:attr:`Scenario.label`).
        source: Source benchmark name.
        target: Target benchmark name.
        outcomes: Flat list of method/objective outcomes.
        pool_size: Target pool size used.
    """

    name: str
    source: str
    target: str
    outcomes: list[MethodOutcome]
    pool_size: int

    def get(self, method: str, objective_space: str) -> MethodOutcome:
        """Look up one cell.

        Raises:
            KeyError: If absent.
        """
        for o in self.outcomes:
            if o.method == method and o.objective_space == objective_space:
                return o
        raise KeyError((method, objective_space))

    def averages(self) -> dict[str, tuple[float, float, float]]:
        """Per-method (mean HV error, mean ADRS, mean runs) — the tables'
        "Average" row.

        A single grouped pass over the outcomes (the per-method rescan
        was quadratic in method count); repeats average in naturally.
        """
        groups: dict[str, list[MethodOutcome]] = {}
        for o in self.outcomes:
            groups.setdefault(o.method, []).append(o)
        return {
            m: (
                float(np.mean([r.hv_error for r in rows])),
                float(np.mean([r.adrs for r in rows])),
                float(np.mean([r.runs for r in rows])),
            )
            for m, rows in groups.items()
        }


#: Method name -> tuner factory.  Factories take the keyword surface of
#: :func:`make_method` (``budget``, ``pool_size``, ``seed``,
#: ``ppa_config``, ``fault_policy``).
_METHOD_REGISTRY: dict[str, "Callable[..., Tuner]"] = {}


def register_method(name: str):
    """Class/function decorator adding a tuner factory to the registry.

    New tuners plug into the scenario matrix, convergence suite, and
    CLI without touching the experiments package::

        @register_method("MyMethod")
        def _make_my_method(budget, pool_size, seed, ppa_config,
                            fault_policy):
            return MyTuner(budget=budget, seed=seed)

    Re-registering a name replaces the previous factory (idempotent
    module reloads; tests can shadow and restore entries).
    """
    def decorate(factory):
        _METHOD_REGISTRY[name] = factory
        return factory
    return decorate


def registered_methods() -> tuple[str, ...]:
    """Registered method names, sorted."""
    return tuple(sorted(_METHOD_REGISTRY))


def make_method(
    name: str,
    budget: int,
    pool_size: int,
    seed: int,
    ppa_config: PPATunerConfig | None = None,
    fault_policy: FaultPolicy | None = None,
):
    """Construct a tuner by its registered method name.

    Args:
        name: One of :func:`registered_methods`.
        budget: Tool-run budget for fixed-budget methods.
        pool_size: Target pool size (bounds PPATuner's iteration cap).
        seed: RNG seed.
        ppa_config: Optional explicit PPATuner configuration.
        fault_policy: Optional resilience policy; overrides the PPATuner
            config's (baselines handle faults at the oracle layer only).

    Raises:
        ValueError: For an unknown method name, listing the registered
            ones.
    """
    try:
        factory = _METHOD_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; registered methods: "
            f"{', '.join(registered_methods())}"
        ) from None
    return factory(
        budget=budget, pool_size=pool_size, seed=seed,
        ppa_config=ppa_config, fault_policy=fault_policy,
    )


@register_method("TCAD'19")
def _make_tcad19(budget, pool_size, seed, ppa_config, fault_policy):
    return Tcad19ActiveLearner(budget=budget, seed=seed)


@register_method("MLCAD'19")
def _make_mlcad19(budget, pool_size, seed, ppa_config, fault_policy):
    return Mlcad19LcbBayesOpt(budget=budget, seed=seed)


@register_method("DAC'19")
def _make_dac19(budget, pool_size, seed, ppa_config, fault_policy):
    return Dac19Recommender(budget=budget, seed=seed)


@register_method("ASPDAC'20")
def _make_aspdac20(budget, pool_size, seed, ppa_config, fault_policy):
    return Aspdac20Fist(budget=budget, seed=seed)


@register_method("Random")
def _make_random(budget, pool_size, seed, ppa_config, fault_policy):
    return RandomSearchTuner(budget=budget, seed=seed)


@register_method("CopulaTransfer")
def _make_copula_transfer(budget, pool_size, seed, ppa_config,
                          fault_policy):
    return CopulaTransferTuner(budget=budget, seed=seed)


@register_method("PPATuner")
def _make_ppatuner(budget, pool_size, seed, ppa_config, fault_policy):
    config = ppa_config or PPATunerConfig(
        max_iterations=max(10, int(round(0.07 * pool_size))),
        init_fraction=0.02,
        seed=seed,
    )
    if fault_policy is not None:
        config = replace(config, fault_policy=fault_policy)
    return PPATuner(config)


@register_method("PPATuner-NT")
def _make_ppatuner_nt(budget, pool_size, seed, ppa_config, fault_policy):
    tuner = _make_ppatuner(budget, pool_size, seed, ppa_config,
                           fault_policy)
    tuner.config = replace(tuner.config, transfer=False)
    return tuner


def evaluate_outcome(
    method: str,
    objective_space: str,
    result: TuningResult,
    dataset: BenchmarkDataset,
    names: tuple[str, ...],
) -> MethodOutcome:
    """Score one tuning result against the golden front."""
    golden = dataset.golden_front(names)
    approx = pareto_front(result.pareto_points)
    return MethodOutcome(
        method=method,
        objective_space=objective_space,
        hv_error=float(hypervolume_error(
            approx, golden, reference_point(dataset.objectives(names))
        )),
        adrs=float(adrs(golden, approx)),
        runs=int(result.n_evaluations),
        result=result,
    )


def build_scenario_jobs(
    source: BenchmarkDataset,
    target: BenchmarkDataset,
    name: str,
    budget_key: str,
    methods: tuple[str, ...] = PAPER_METHODS,
    objective_spaces: dict[str, tuple[str, ...]] | None = None,
    n_source: int = 200,
    seed: int = 0,
    ppa_config: PPATunerConfig | None = None,
    repeats: int = 1,
    source_ref: "DatasetRef | None" = None,
    target_ref: "DatasetRef | None" = None,
    fault_policy: FaultPolicy | None = None,
    prune_space: "bool | dict | None" = None,
) -> "list[RunJob]":
    """Expand one scenario into its independent cell jobs.

    When cache refs are given, workers resolve the pools by name through
    the concurrency-safe benchmark cache instead of unpickling arrays.
    Repeat indices are the innermost expansion, so
    :meth:`ScenarioResult.get` keeps returning the repeat-0 cell.

    An explicit ``fault_policy`` rides along as a spec param (it governs
    the per-cell :class:`~repro.reliability.ResilientOracle`); ``None``
    is dropped from the params, so default spec hashes — and therefore
    existing memo entries — are unchanged.  The same holds for
    ``prune_space``: ``True`` (defaults) or a settings dict (keyword
    overrides for :func:`repro.ml.prune_space`, e.g.
    ``{"threshold": 0.08}``) enables the FIST-style knob-importance
    pruning pass inside every cell; ``None``/``False`` keeps pruning
    off and spec hashes unchanged.
    """
    from ..runner import (
        RunJob,
        RunSpec,
        config_fingerprint,
        dataset_id,
        make_params,
    )

    spaces = objective_spaces or OBJECTIVE_SPACES
    fingerprint = config_fingerprint(ppa_config)
    if prune_space is True:
        prune_space = {}
    elif prune_space is False:
        prune_space = None
    params = make_params(
        fault_policy=(
            fault_policy.to_json() if fault_policy is not None else None
        ),
        prune_space=(
            dict(sorted(prune_space.items()))
            if prune_space is not None else None
        ),
    )
    source_id = source_ref.label if source_ref else dataset_id(source)
    target_id = target_ref.label if target_ref else dataset_id(target)
    jobs = []
    for space_name, names in spaces.items():
        for method in methods:
            for rep in range(repeats):
                spec = RunSpec(
                    kind="scenario",
                    scenario=name,
                    method=method,
                    objective_space=space_name,
                    objectives=tuple(names),
                    budget_key=budget_key,
                    n_source=n_source,
                    seed=seed,
                    repeat=rep,
                    source_id=source_id,
                    target_id=target_id,
                    config_fingerprint=fingerprint,
                    params=params,
                )
                jobs.append(RunJob(
                    spec=spec,
                    source=source_ref or source,
                    target=target_ref or target,
                    ppa_config=ppa_config,
                ))
    return jobs


def run_scenario(
    source: BenchmarkDataset,
    target: BenchmarkDataset,
    name: str,
    budget_key: str,
    methods: tuple[str, ...] = PAPER_METHODS,
    objective_spaces: dict[str, tuple[str, ...]] | None = None,
    n_source: int = 200,
    seed: int = 0,
    ppa_config: PPATunerConfig | None = None,
    workers: int | None = 1,
    repeats: int = 1,
    runner: "ExperimentRunner | None" = None,
    source_ref: "DatasetRef | None" = None,
    target_ref: "DatasetRef | None" = None,
    fault_policy: FaultPolicy | None = None,
    prune_space: "bool | dict | None" = None,
) -> ScenarioResult:
    """Run every (method, objective-space) combination of one scenario.

    Args:
        source: Source benchmark (``D^S``).
        target: Target benchmark pool.
        name: Scenario label.
        budget_key: Key into :data:`PAPER_BUDGET_FRACTIONS` (a named
            scenario passes its target's name).
        methods: Methods to run.
        objective_spaces: Objective subsets; defaults to the paper's
            three.
        n_source: Source points made available to transfer methods (the
            paper uses 200).
        seed: Base seed (every cell derives order-independent streams
            from it, so serial and parallel runs are bit-identical).
        ppa_config: Optional PPATuner configuration override (its seed
            is re-derived per cell).
        workers: Process count (1 = inline serial execution; ``None`` =
            the ``PPATUNER_WORKERS`` convention).
        repeats: Independent repeats per cell (distinct derived seeds);
            :meth:`ScenarioResult.averages` averages across them.
        runner: Explicit :class:`~repro.runner.ExperimentRunner`
            (carrying a memo store, progress hook, ...); overrides
            ``workers``.
        source_ref: Optional cache ref workers resolve ``source`` from.
        target_ref: Optional cache ref workers resolve ``target`` from.
        fault_policy: Explicit per-evaluation resilience policy (retry /
            timeout / breaker limits); ``None`` keeps the defaults and
            existing memo keys.
        prune_space: Opt-in FIST-style knob-importance pruning —
            ``True`` for defaults or a settings dict (see
            :func:`repro.ml.prune_space`); cells then tune over the
            source-table-informed knob subset.  ``None`` keeps pruning
            off and existing memo keys.

    Returns:
        A :class:`ScenarioResult`.
    """
    from ..runner import ExperimentRunner

    jobs = build_scenario_jobs(
        source, target, name, budget_key,
        methods=methods, objective_spaces=objective_spaces,
        n_source=n_source, seed=seed, ppa_config=ppa_config,
        repeats=repeats, source_ref=source_ref, target_ref=target_ref,
        fault_policy=fault_policy, prune_space=prune_space,
    )
    if runner is None:
        runner = ExperimentRunner(workers=workers, memo=None)
    records = runner.run(jobs)
    return ScenarioResult(
        name=name,
        source=source.name,
        target=target.name,
        outcomes=[r.outcome for r in records],
        pool_size=target.n,
    )


def scenario_refs(
    name: str,
    n_points: int | None = None,
    scale: int | None = None,
    seed: int = 0,
) -> "tuple[DatasetRef, DatasetRef]":
    """Cache refs of a named scenario's source and target pools.

    Args:
        name: A key of :data:`SCENARIOS`.
        n_points: Pool-size override for both benchmarks.
        scale: Optional target-pool subsample size.
        seed: Seed of the target subsample draw.

    Raises:
        ValueError: For an unknown scenario name, listing the known
            ones.
    """
    from ..runner import DatasetRef

    try:
        entry = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from "
            f"{', '.join(SCENARIOS)}"
        ) from None
    return (
        DatasetRef(entry.source, n_points=n_points),
        DatasetRef(
            entry.target, n_points=n_points,
            subsample=scale, subsample_seed=seed,
        ),
    )


def scenario(
    name: str,
    scale: int | None = None,
    seed: int = 0,
    methods: tuple[str, ...] | None = None,
    workers: int | None = 1,
    repeats: int = 1,
    runner: "ExperimentRunner | None" = None,
    n_points: int | None = None,
    fault_policy: FaultPolicy | None = None,
    prune_space: "bool | dict | None" = None,
) -> ScenarioResult:
    """Run one named scenario end to end (cache-ref fan-out).

    Args:
        name: A key of :data:`SCENARIOS` (``"one"`` is Table 2,
            ``"two"`` Table 3).
        scale: Optional target-pool subsample size for fast runs (None =
            the target's full pool).
        seed: Base seed (cells derive order-independent streams).
        methods: Methods to run; ``None`` takes the entry's defaults.
        workers: Process count for cell fan-out.
        repeats: Independent repeats per cell.
        runner: Explicit runner (memoization/progress); overrides
            ``workers``.
        n_points: Pool-size override for both benchmarks.
        fault_policy: Explicit per-evaluation resilience policy.
        prune_space: Opt-in knob-importance pruning (see
            :func:`run_scenario`).

    Raises:
        ValueError: For an unknown scenario name, listing the known
            ones.
    """
    source_ref, target_ref = scenario_refs(name, n_points, scale, seed)
    entry = SCENARIOS[name]
    return run_scenario(
        source_ref.resolve(), target_ref.resolve(), entry.label,
        entry.target,
        methods=entry.methods if methods is None else methods,
        seed=seed, workers=workers, repeats=repeats, runner=runner,
        source_ref=source_ref, target_ref=target_ref,
        fault_policy=fault_policy, prune_space=prune_space,
    )
