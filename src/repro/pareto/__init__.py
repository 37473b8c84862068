"""Pareto toolkit: dominance, hypervolume, and quality indicators."""

from .dominance import (
    dominates,
    epsilon_dominates,
    non_dominated_mask,
    pareto_front,
    pareto_indices,
)
from .hypervolume import hypervolume, hypervolume_error
from .metrics import adrs, coverage, spacing

__all__ = [
    "adrs",
    "coverage",
    "dominates",
    "epsilon_dominates",
    "hypervolume",
    "hypervolume_error",
    "non_dominated_mask",
    "pareto_front",
    "pareto_indices",
    "spacing",
]
