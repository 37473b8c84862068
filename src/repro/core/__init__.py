"""PPATuner core (the paper's contribution, Algorithm 1)."""

from .calibration import CalibrationEngine, CalibrationStats
from .config import PPATunerConfig
from .decision import apply_decision_rules
from .oracle import CallableOracle, FlowOracle, Oracle, PoolOracle
from .result import IterationRecord, TuningResult
from .selection import select_batch, select_next
from .session import (
    EvaluationFailure,
    TuningSession,
    drive,
    validate_init_indices,
)
from .tuner import PPATuner, Tuner
from .uncertainty import UncertaintyRegions, prediction_rectangle

__all__ = [
    "CalibrationEngine",
    "CalibrationStats",
    "CallableOracle",
    "EvaluationFailure",
    "FlowOracle",
    "IterationRecord",
    "Oracle",
    "PPATuner",
    "PPATunerConfig",
    "PoolOracle",
    "Tuner",
    "TuningResult",
    "TuningSession",
    "UncertaintyRegions",
    "apply_decision_rules",
    "drive",
    "prediction_rectangle",
    "select_batch",
    "select_next",
    "validate_init_indices",
]
