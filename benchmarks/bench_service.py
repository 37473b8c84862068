"""Tuning-service gates: remote identity and kill/restart survival.

Two gates, both against a **real** ``repro serve`` subprocess (fresh
interpreter, ephemeral port, tmp snapshot store) — the same deployment
shape as production, not an in-thread shortcut:

1. **Remote identity** — :class:`~repro.service.RemoteTuner` against
   the live server must return the bit-identical result (Pareto
   indices, evaluated set, history, stop reason) of an in-process
   :meth:`PPATuner.tune` on the same pool, config and seed, at q=1 and
   at q=4 (where the shared driver's batch path runs).  The service
   adds transport, never behavior.

2. **Kill/restart survival** — a session is fed part-way, the server
   is killed with SIGKILL (no shutdown hook runs), a new server
   process is started over the same store, and the session completes.
   The final result must match the uninterrupted in-process run
   exactly: every state transition was atomically snapshotted.

Usage:
    pytest benchmarks/bench_service.py             # via pytest-benchmark
    PYTHONPATH=src python benchmarks/bench_service.py --smoke
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import env
from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.pareto import non_dominated_mask
from repro.service import RemoteTuner, ServiceClient

FULL = dict(n_pool=60, iters=20)
SMOKE = dict(n_pool=40, iters=15)

#: How long to wait for the server subprocess to report its URL.
STARTUP_TIMEOUT_S = 30.0


def make_pool(n_pool: int, seed: int = 2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n_pool, 3))
    Y = rng.uniform(0.5, 2.0, size=(n_pool, 2))
    return X, Y


class ServerProcess:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, store: str) -> None:
        self.store = store
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = str(src)
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", "0", "--store", store],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.url = self._await_url()

    def _await_url(self) -> str:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited early (rc={self.proc.poll()})"
                )
            m = re.search(r"tuning service on (http://\S+)", line)
            if m:
                return m.group(1)
        raise RuntimeError("server did not report its URL in time")

    def kill(self) -> None:
        """SIGKILL — no shutdown handler, no final flush."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=10)

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait(timeout=10)


def in_process(cfg: PPATunerConfig, X, Y):
    """The in-process run a served session must equal bit for bit.

    ``repro serve`` runs at one BLAS thread, and results depend on the
    thread count, so this run does too.
    """
    with env.blas_thread_limit(1):
        return PPATuner(cfg).tune(X, PoolOracle(Y))


def remote_identity(n_pool: int, iters: int, q: int = 1) -> dict:
    """Gate 1: remote run bit-identical to in-process (``q`` per round)."""
    X, Y = make_pool(n_pool)
    cfg = PPATunerConfig(max_iterations=iters, seed=2, q=q)
    ref = in_process(cfg, X, Y)

    with tempfile.TemporaryDirectory() as store:
        server = ServerProcess(store)
        try:
            client = ServiceClient(server.url)
            got = RemoteTuner(client, config=cfg).tune(X, PoolOracle(Y))
        finally:
            server.terminate()

    assert list(ref.pareto_indices) == list(got.pareto_indices), (
        "remote Pareto indices diverged from in-process run"
    )
    assert np.allclose(ref.pareto_points, got.pareto_points)
    assert list(ref.evaluated_indices) == list(got.evaluated_indices)
    assert ref.n_evaluations == got.n_evaluations
    assert ref.stop_reason == got.stop_reason
    assert ref.history == got.history
    assert non_dominated_mask(got.pareto_points).all()
    return {"n_evaluations": ref.n_evaluations,
            "front": len(ref.pareto_indices)}


def restart_survival(n_pool: int, iters: int, cut: int = 9) -> dict:
    """Gate 2: SIGKILL mid-session, restart, identical completion."""
    X, Y = make_pool(n_pool)
    cfg = PPATunerConfig(max_iterations=iters, seed=2)
    ref = in_process(cfg, X, Y)
    oracle = PoolOracle(Y)

    with tempfile.TemporaryDirectory() as store:
        server = ServerProcess(store)
        try:
            client = ServiceClient(server.url)
            sid = client.create_session(
                cfg, X, Y.shape[1], session_id="bench-survival"
            )
            told = 0
            while told < cut:
                pending = client.ask(sid)["pending"]
                assert pending, "session finished before the cut"
                for idx in pending:
                    client.tell(
                        sid, idx, values=oracle.evaluate(idx),
                        n_evaluations=oracle.n_evaluations,
                    )
                    told += 1
                    if told >= cut:
                        break
        finally:
            server.kill()

        server = ServerProcess(store)
        try:
            client = ServiceClient(server.url)
            recovered = [s["session_id"] for s in client.sessions()]
            assert recovered == [sid], (
                f"expected [{sid!r}] recovered, got {recovered}"
            )
            while True:
                pending = client.ask(sid)["pending"]
                if not pending:
                    break
                for idx in pending:
                    client.tell(
                        sid, idx, values=oracle.evaluate(idx),
                        n_evaluations=oracle.n_evaluations,
                    )
            got = client.result(sid)
        finally:
            server.terminate()

    assert list(ref.pareto_indices) == list(got.pareto_indices), (
        "resumed session diverged from the uninterrupted run"
    )
    assert np.allclose(ref.pareto_points, got.pareto_points)
    assert ref.n_evaluations == got.n_evaluations
    assert ref.stop_reason == got.stop_reason
    assert ref.history == got.history
    return {"cut": cut, "n_evaluations": ref.n_evaluations}


@pytest.mark.parametrize("q", [1, 4])
def test_remote_identity(benchmark, q):
    res = benchmark.pedantic(
        lambda: remote_identity(**FULL, q=q),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    print(f"\nremote identity at q={q}: {res['n_evaluations']} "
          f"evaluations, front of {res['front']}, bit-identical")


def test_restart_survival(benchmark):
    res = benchmark.pedantic(
        lambda: restart_survival(**FULL),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    print(f"\nrestart survival: killed after {res['cut']} tells, "
          f"resumed to the identical result")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced pool for CI (same identity contracts)",
    )
    args = parser.parse_args()
    from _util import write_bench_json

    params = SMOKE if args.smoke else FULL

    identity = {}
    for q in (1, 4):
        identity[f"q{q}"] = res = remote_identity(**params, q=q)
        print(f"remote identity OK at q={q}: {res['n_evaluations']} "
              f"evaluations, front of {res['front']}, bit-identical to "
              "in-process")
    survival = restart_survival(**params)
    print(f"restart survival OK: SIGKILL after {survival['cut']} tells, "
          f"recovered and finished bit-identically")
    write_bench_json("service", {
        "passed": True,
        "identity": identity,
        "restart": survival,
    })
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
