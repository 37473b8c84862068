"""Shared fixtures: tiny designs, flows, pools — sized for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.dataset import BenchmarkDataset
from repro.bench.generate import evaluate_configs
from repro.bench.spaces import target2_space
from repro.pdtool.flow import FlowConfig, PDFlow
from repro.pdtool.library import CellLibrary
from repro.pdtool.mac import MacSpec, generate_mac_netlist
from repro.pdtool.params import ToolParameters
from repro.space.sampling import latin_hypercube

#: A deliberately tiny MAC so per-test flow runs are ~1 ms.
TINY_MAC = MacSpec(width=4, lanes=1, acc_bits=10, name="mac_tiny")


@pytest.fixture(
    params=[
        ([], "init_indices must be a non-empty"),
        ([-1, 2, 3], r"init_indices out of range .*\[-1\]"),
        ([1.7, 2, 3], "init_indices must be integers"),
        ([0, 0, 1], r"duplicate init_indices: \[0\]"),
    ],
    ids=["empty", "negative", "fractional", "repeated"],
)
def bad_init_indices(request):
    """A malformed explicit initial design and the message (a regex)
    every tuner must reject it with when the run is created."""
    return request.param


@pytest.fixture(scope="session")
def library() -> CellLibrary:
    """The default synthetic 7 nm library."""
    return CellLibrary.default_7nm()


@pytest.fixture(scope="session")
def tiny_netlist():
    """A small but structurally complete MAC netlist."""
    return generate_mac_netlist(TINY_MAC)


@pytest.fixture(scope="session")
def tiny_flow(tiny_netlist) -> PDFlow:
    """A PD flow over the tiny MAC."""
    return PDFlow(tiny_netlist)


@pytest.fixture(scope="session")
def quiet_flow(tiny_netlist) -> PDFlow:
    """Tiny-MAC flow with jitter and variation disabled, for tests that
    check the *direction* of physical parameter effects."""
    return PDFlow(
        tiny_netlist, FlowConfig(qor_noise=0.0, variation_amplitude=0.0)
    )


@pytest.fixture(scope="session")
def compiled(tiny_netlist):
    """Compiled view of the tiny MAC."""
    return tiny_netlist.compile()


@pytest.fixture()
def default_params() -> ToolParameters:
    """Default tool parameters."""
    return ToolParameters()


@pytest.fixture(scope="session")
def tiny_benchmark() -> BenchmarkDataset:
    """A 60-point offline benchmark over the tiny MAC (target2 space)."""
    space = target2_space()
    configs = latin_hypercube(space, 60, seed=7)
    flow = PDFlow(
        generate_mac_netlist(TINY_MAC), FlowConfig(qor_noise=0.01)
    )
    Y = evaluate_configs(flow, configs, {"freq": 700.0})
    X = space.encode_many(configs)
    return BenchmarkDataset("tiny", space, configs, X, Y, "tiny")


@pytest.fixture(scope="session")
def synthetic_pool():
    """A smooth synthetic bi-objective pool: (X, Y, Xs, Ys).

    Target objectives have a known trade-off; the source task is the
    same function shifted slightly (positive transfer expected).
    """
    rng = np.random.default_rng(42)
    d, n = 4, 150

    def f(X, shift=0.0):
        f1 = (
            (X[:, 0] - 0.3) ** 2 + 0.5 * X[:, 1]
            + 0.2 * np.sin(3 * X[:, 2]) + 1.5 + shift
        )
        f2 = (
            (X[:, 0] - 0.8) ** 2 + 0.4 * (1 - X[:, 1])
            + 0.1 * X[:, 3] + 1.0 + 0.5 * shift
        )
        return np.column_stack([f1, f2])

    X = rng.uniform(size=(n, d))
    Y = f(X)
    Xs = rng.uniform(size=(120, d))
    Ys = f(Xs, shift=0.05)
    return X, Y, Xs, Ys
