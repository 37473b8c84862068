"""PPATuner reproduction (DAC 2022).

Pareto-driven physical-design tool parameter auto-tuning via Gaussian
process transfer learning, plus every substrate the paper depends on:
a simulated PD flow, offline benchmarks, GP/transfer-GP models, Pareto
metrics, the four baseline tuners, the parallel experiment runner, the
structured observability layer, the fault-tolerant evaluation layer
(retries, circuit breaking, deterministic fault injection), and the
resumable ask/tell tuning service (``repro serve``).

Quickstart::

    from repro import PPATuner, PPATunerConfig, PoolOracle
    from repro.bench import generate_benchmark

    target = generate_benchmark("target2")
    oracle = PoolOracle(target.objectives(("power", "delay")))
    result = PPATuner(PPATunerConfig()).tune(target.X, oracle)

Traced run and exact replay::

    from repro import TraceRecorder
    from repro.obs import JsonlSink, replay_trace

    rec = TraceRecorder(sinks=[JsonlSink("run.jsonl")])
    PPATuner(PPATunerConfig(), recorder=rec).tune(target.X, oracle)
    rec.close()
    replay_trace("run.jsonl").to_result()   # no tool re-runs

The names in ``__all__`` are the stable public API; submodules load
lazily on first attribute access, so ``import repro`` stays cheap.
"""

from typing import TYPE_CHECKING

__version__ = "1.1.0"

#: Stable public API.  Everything else should be imported from its
#: submodule and may move between releases.
__all__ = [
    "Aspdac20Fist",
    "CopulaTransferTuner",
    "Dac19Recommender",
    "ExperimentRunner",
    "FaultInjectingOracle",
    "FaultPlan",
    "FaultPolicy",
    "FlowOracle",
    "GaussianCopula",
    "MetricsRegistry",
    "Mlcad19LcbBayesOpt",
    "MultiSourceTransferGP",
    "NullRecorder",
    "Oracle",
    "PDFlow",
    "PPATuner",
    "PPATunerConfig",
    "PoolOracle",
    "QoRReport",
    "RandomSearchTuner",
    "RemoteTuner",
    "ResilientOracle",
    "RunSpec",
    "ServiceClient",
    "Tcad19ActiveLearner",
    "ToolParameters",
    "TraceRecorder",
    "Tuner",
    "TuningResult",
    "TuningService",
    "TuningSession",
    "adrs",
    "copula_seed_indices",
    "hypervolume",
    "hypervolume_error",
    "pareto_front",
    "replay_trace",
    "__version__",
]

#: Public name -> defining submodule (PEP 562 lazy imports).
_EXPORTS = {
    "Aspdac20Fist": "baselines",
    "CopulaTransferTuner": "baselines",
    "Dac19Recommender": "baselines",
    "Mlcad19LcbBayesOpt": "baselines",
    "RandomSearchTuner": "baselines",
    "Tcad19ActiveLearner": "baselines",
    "FlowOracle": "core",
    "Oracle": "core",
    "PPATuner": "core",
    "PPATunerConfig": "core",
    "PoolOracle": "core",
    "Tuner": "core",
    "TuningResult": "core",
    "TuningSession": "core",
    "GaussianCopula": "copula",
    "copula_seed_indices": "copula",
    "RemoteTuner": "service",
    "ServiceClient": "service",
    "TuningService": "service",
    "MultiSourceTransferGP": "gp",
    "MetricsRegistry": "obs",
    "NullRecorder": "obs",
    "TraceRecorder": "obs",
    "replay_trace": "obs",
    "adrs": "pareto",
    "hypervolume": "pareto",
    "hypervolume_error": "pareto",
    "pareto_front": "pareto",
    "PDFlow": "pdtool",
    "QoRReport": "pdtool",
    "ToolParameters": "pdtool",
    "ExperimentRunner": "runner",
    "RunSpec": "runner",
    "FaultInjectingOracle": "reliability",
    "FaultPlan": "reliability",
    "FaultPolicy": "reliability",
    "ResilientOracle": "reliability",
}

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .baselines import (
        Aspdac20Fist,
        CopulaTransferTuner,
        Dac19Recommender,
        Mlcad19LcbBayesOpt,
        RandomSearchTuner,
        Tcad19ActiveLearner,
    )
    from .copula import GaussianCopula, copula_seed_indices
    from .core import (
        FlowOracle,
        Oracle,
        PPATuner,
        PPATunerConfig,
        PoolOracle,
        Tuner,
        TuningResult,
        TuningSession,
    )
    from .gp import MultiSourceTransferGP
    from .obs import (
        MetricsRegistry,
        NullRecorder,
        TraceRecorder,
        replay_trace,
    )
    from .pareto import adrs, hypervolume, hypervolume_error, pareto_front
    from .pdtool import PDFlow, QoRReport, ToolParameters
    from .reliability import (
        FaultInjectingOracle,
        FaultPlan,
        FaultPolicy,
        ResilientOracle,
    )
    from .runner import ExperimentRunner, RunSpec
    from .service import RemoteTuner, ServiceClient, TuningService


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
