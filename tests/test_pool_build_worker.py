"""Pool-cache builds in the GP worker
(:func:`repro.gp.multisource.share_pool_builds`).

After a fit every model rebuilds its pool cache at its first prediction.
When two or more builds are due and each solves more than one
``POOL_BLOCK``, the GP worker builds the last half on pickled copies of
the models while the caller builds the first half, then races it block
by block.  These tests pin down that this changes no result: the
worker's ``s``, cached rows and fused means equal the caller's bit for
bit; a tuning session and its restore run the same with the worker as
without; a starved worker costs the caller no more than its own builds;
a model the worker cannot unpickle is built in the caller while the
worker stays up; and builds that do not qualify are never handed over.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro.gp.multisource as multisource
from repro.core import PoolOracle, PPATunerConfig, TuningSession, drive
from repro.gp import MultiSourceTransferGP
from repro.gp import worker as gp_worker
from repro.gp.kernels import Matern52Kernel, RBFKernel
from repro.gp.multisource import POOL_BLOCK, share_pool_builds

from .test_fit_worker import SRC, _await_worker, serial, worker  # noqa: F401

pytestmark = pytest.mark.skipif(
    gp_worker._usable_cpus() < 2, reason="the worker needs two CPUs"
)

#: Three pool blocks, the last one short.
N_POOL = 2 * POOL_BLOCK + 300


@pytest.fixture
def worker_wins(worker, monkeypatch):
    """The booted worker, with a caller that waits for the worker's
    reply before building a handed model itself, so the caches the
    worker built are the ones installed."""
    def wait(job):
        deadline = time.monotonic() + 60
        while not job._worker.replied():
            assert time.monotonic() < deadline, "the worker did not answer"
            time.sleep(0.001)
        raise gp_worker._Answered

    monkeypatch.setattr(gp_worker.Job, "_check", wait)
    return worker


def _models(m, n_sources, kernel, X_pool, keep=None, seed=0):
    """``m`` fitted models over ``X_pool``, one per metric, none with a
    pool cache yet; ``kernel()`` makes each one's kernel."""
    rng = np.random.default_rng(seed)
    models = []
    for j in range(m):
        sources = []
        for k in range(n_sources):
            Xs = rng.uniform(size=(40, X_pool.shape[1]))
            sources.append(
                (Xs, np.sin(3 * Xs.sum(axis=1) + j) * (1 - 0.3 * k))
            )
        Xt = rng.uniform(size=(15, X_pool.shape[1]))
        model = MultiSourceTransferGP(kernel=kernel(), optimize=False)
        model.fit(sources, Xt, np.cos(2 * Xt.sum(axis=1) + j))
        model.register_pool(X_pool)
        if keep is not None:
            model.keep_pool_rows(keep)
        models.append(model)
    return models


def _predict(models, idx):
    """Each model's ``(mean, var)`` at ``idx``, as the calibration
    engine asks for them."""
    with share_pool_builds(models, idx):
        return [model.predict_pool(idx) for model in models]


def _keep(kind: str, rng) -> np.ndarray | None:
    if kind == "all":
        return None
    if kind == "70%":
        return rng.uniform(size=N_POOL) < 0.7
    keep = np.zeros(N_POOL, dtype=bool)  # kept rows in the middle block
    keep[POOL_BLOCK + 5:2 * POOL_BLOCK - 5:3] = True
    return keep


def _request(order: str, keep, rng) -> np.ndarray:
    kept = np.arange(N_POOL) if keep is None else np.flatnonzero(keep)
    if order == "ascending":
        return kept
    # Half the kept rows shuffled, and a few rows outside the kept set.
    rows = rng.permutation(kept)[:len(kept) // 2]
    if keep is not None:
        rows = np.concatenate([rows, np.flatnonzero(~keep)[:20]])
    return rng.permutation(rows)


def _assert_same(models, refs, got, want):
    for model, ref, (mean, var), (ref_mean, ref_var) in zip(
        models, refs, got, want
    ):
        np.testing.assert_array_equal(model._pool_s, ref._pool_s)
        np.testing.assert_array_equal(model._pool_rows, ref._pool_rows)
        np.testing.assert_array_equal(model._pool_slot, ref._pool_slot)
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(var, ref_var)


GRID = [
    (m, n_sources, kernel_cls, keep, order)
    for m in (2, 3)
    for n_sources in (0, 1, 2)
    for kernel_cls in (RBFKernel, Matern52Kernel)
    for keep in ("all", "70%", "one block")
    for order in ("ascending", "unordered")
] + [
    # Two handed builds in one job, finished one model at a time.
    (4, 1, RBFKernel, "70%", order) for order in ("ascending", "unordered")
]


class TestSameCaches:
    @pytest.mark.parametrize(
        "m,n_sources,kernel_cls,keep,order", GRID,
        ids=[f"m{m}-{s}src-{k.__name__}-{kp}-{o}"
             for m, s, k, kp, o in GRID],
    )
    def test_worker_build_is_caller_build(
        self, worker_wins, serial, monkeypatch,
        m, n_sources, kernel_cls, keep, order,
    ):
        rng = np.random.default_rng(m * 100 + n_sources)
        X_pool = rng.uniform(size=(N_POOL, 4))
        mask = _keep(keep, rng)
        idx = _request(order, mask, rng)
        if keep == "one block":
            # A build of one block is never handed over; hand it over
            # anyway to check the worker's build of it.
            monkeypatch.setattr(multisource, "_solved_blocks", lambda *a: 2)

        def kernel():
            return kernel_cls(np.full(4, 0.4))

        models = _models(m, n_sources, kernel, X_pool, mask)
        jobs, answered = worker_wins.jobs, worker_wins.answered
        got = _predict(models, idx)
        assert worker_wins.jobs == jobs + 1
        assert worker_wins.answered == answered + 1
        serial()
        refs = _models(m, n_sources, kernel, X_pool, mask)
        _assert_same(models, refs, got, _predict(refs, idx))
        # The installed caches take border updates as the caller's do.
        X_new = rng.uniform(size=(2, 4))
        for model in models + refs:
            model.update(X_new, np.sin(X_new.sum(axis=1)))
        _assert_same(
            models, refs, [g.predict_pool(idx) for g in models],
            [r.predict_pool(idx) for r in refs],
        )

    def test_another_request_gets_its_own_means(self, worker_wins, serial):
        """The worker's fused means belong to the handed request; a
        handed model asked for other rows installs the worker's ``s``
        and computes those rows' means itself."""
        rng = np.random.default_rng(11)
        X_pool = rng.uniform(size=(N_POOL, 4))

        def kernel():
            return RBFKernel(np.full(4, 0.4))

        idx = np.arange(N_POOL)
        other = idx[1::2]
        models = _models(2, 1, kernel, X_pool)
        answered = worker_wins.answered
        with share_pool_builds(models, idx):
            got = [model.predict_pool(other) for model in models]
        assert worker_wins.answered == answered + 1
        serial()
        refs = _models(2, 1, kernel, X_pool)
        _assert_same(models, refs, got, [r.predict_pool(other) for r in refs])


# ---- tuning sessions ---------------------------------------------------

def _problem(seed: int = 0, n: int = 1500):
    """A 3-objective pool over more than one pool block, and a source."""
    rng = np.random.default_rng(seed)

    def objectives(X):
        return np.column_stack([
            X[:, 0] + 0.3 * X[:, 1] ** 2,
            1.0 - X[:, 0] + 0.3 * X[:, 2] ** 2,
            0.5 * X[:, 3] + 0.4 * (X[:, 0] - 0.5) ** 2,
        ])

    X = rng.uniform(size=(n, 4))
    Y = objectives(X) + 0.02 * rng.normal(size=(n, 3))
    Xs = rng.uniform(size=(60, 4))
    return X, Y, [(Xs, objectives(Xs) * 1.1 + 0.05)]


def _roundtrip(snapshot: dict) -> dict:
    """The snapshot through an npz buffer, as the service stores it."""
    buf = io.BytesIO()
    np.savez(
        buf,
        __meta__=np.frombuffer(
            json.dumps(snapshot["meta"]).encode(), dtype=np.uint8
        ),
        **snapshot["arrays"],
    )
    buf.seek(0)
    with np.load(buf) as data:
        return {
            "meta": json.loads(bytes(data["__meta__"]).decode()),
            "arrays": {k: data[k] for k in data.files if k != "__meta__"},
        }


def _tune(config, cut: int | None = None):
    """The session's result and final rectangles; with ``cut``, the
    session is snapshotted after ``cut`` tells, restored and finished."""
    X, Y, sources = _problem()
    session = TuningSession(config, X, Y.shape[1], sources=sources)
    oracle = PoolOracle(Y)
    if cut is not None:
        told = 0
        while told < cut and not session.done:
            for index in session.ask():
                session.tell(index, oracle.evaluate(index),
                             n_evaluations=oracle.n_evaluations)
                told += 1
        session = TuningSession.restore(_roundtrip(session.snapshot()))
    result = drive(session, oracle)
    return result, session.regions.lo.copy(), session.regions.hi.copy()


class TestSession:
    @pytest.mark.parametrize("n_restarts", [0, 1])
    def test_worker_changes_no_session(
        self, worker, serial, monkeypatch, n_restarts
    ):
        config = PPATunerConfig(
            max_iterations=8, reopt_every=3, seed=1, n_restarts=n_restarts
        )
        handed = []
        hand_over = gp_worker.hand_over

        def spy(fn, *args):
            job = hand_over(fn, *args)
            if fn is multisource._build_caches and job is not None:
                handed.append(len(args[0]))
            return job

        monkeypatch.setattr(gp_worker, "hand_over", spy)
        on = _tune(config)
        resumed_on = _tune(config, cut=12)
        if n_restarts == 0:
            # Nothing else keeps the worker busy: every full calibration
            # hands it one of its three builds.
            assert handed and set(handed) == {1}
        serial()
        off = _tune(config)
        resumed_off = _tune(config, cut=12)
        for run in (resumed_on, off, resumed_off):
            result, lo, hi = run
            assert np.array_equal(result.pareto_indices, on[0].pareto_indices)
            assert result.history == on[0].history
            assert result.stop_reason == on[0].stop_reason
            np.testing.assert_array_equal(lo, on[1])
            np.testing.assert_array_equal(hi, on[2])


# ---- races and fallbacks -----------------------------------------------

class _SlowInWorker(RBFKernel):
    """An RBF kernel that sleeps ``worker_delay`` seconds per evaluation
    in any process but the one that made it."""

    def __init__(self, lengthscales, worker_delay: float) -> None:
        super().__init__(lengthscales)
        self.owner = os.getpid()
        self.worker_delay = worker_delay

    def eval(self, X1, X2=None):
        if os.getpid() != self.owner:
            time.sleep(self.worker_delay)
        return super().eval(X1, X2)


class TestRace:
    def test_starved_worker_costs_the_caller_no_wait(self, worker, serial):
        rng = np.random.default_rng(5)
        X_pool = rng.uniform(size=(N_POOL, 4))
        idx = np.arange(N_POOL)

        def slow():
            return _SlowInWorker(np.full(4, 0.4), worker_delay=1.0)

        models = _models(2, 1, slow, X_pool)
        jobs, answered = worker.jobs, worker.answered
        start = time.monotonic()
        got = _predict(models, idx)
        # The worker needs three seconds for its build; the caller built
        # both caches itself instead of waiting.
        assert time.monotonic() - start < 1.0
        assert worker.jobs == jobs + 1
        assert worker.answered == answered
        # The worker takes the next builds once its late reply is read.
        worker = _await_worker()
        _predict(_models(2, 1, lambda: RBFKernel(np.full(4, 0.4)), X_pool),
                 idx)
        assert worker.jobs == jobs + 2
        serial()
        refs = _models(2, 1, slow, X_pool)
        _assert_same(models, refs, got, _predict(refs, idx))

    @pytest.mark.parametrize("case", [
        "one unbuilt", "one block kept", "small pool", "empty request",
    ])
    def test_builds_that_do_not_qualify_stay_here(self, worker, case):
        rng = np.random.default_rng(7)
        n = POOL_BLOCK - 100 if case == "small pool" else N_POOL
        X_pool = rng.uniform(size=(n, 4))
        keep = _keep("one block", rng) if case == "one block kept" else None
        models = _models(3, 1, lambda: RBFKernel(np.full(4, 0.4)), X_pool,
                         keep)
        idx = np.flatnonzero(models[0]._kept_mask())
        if case == "one unbuilt":
            for model in models[:2]:
                model.predict_pool(idx)
        if case == "empty request":
            idx = idx[:0]
        jobs = worker.jobs
        _predict(models, idx)
        assert worker.jobs == jobs


#: A caller whose two models use a kernel class only its ``__main__``
#: defines, which the worker cannot unpickle.  It predicts with them,
#: then with a plain kernel, then with them again through the one-CPU
#: branch, and prints the worker's counts after each hand-over.
BUILD_CALLER = textwrap.dedent('''
    import time
    import numpy as np
    from repro import env
    from repro.gp import MultiSourceTransferGP, worker as gp_worker
    from repro.gp.kernels import RBFKernel
    from repro.gp.multisource import share_pool_builds

    env.set_blas_threads(1)


    class MainKernel(RBFKernel):
        pass


    def ready():
        deadline = time.monotonic() + 60
        while True:
            with gp_worker._lock:
                worker = gp_worker._ready_worker()
            if worker is not None:
                return worker
            assert time.monotonic() < deadline
            time.sleep(0.05)


    def predict(kernel_cls):
        rng = np.random.default_rng(0)
        X_pool = rng.uniform(size=(2500, 3))
        models = []
        for j in range(2):
            X = rng.uniform(size=(30, 3))
            model = MultiSourceTransferGP(
                kernel=kernel_cls(np.full(3, 0.3)), optimize=False
            )
            model.fit([], X, np.sin(3 * X.sum(axis=1) + j))
            model.register_pool(X_pool)
            models.append(model)
        idx = np.arange(len(X_pool))
        with share_pool_builds(models, idx):
            out = [model.predict_pool(idx) for model in models]
        return [a for pair in out for a in pair]


    worker = ready()
    counts = [worker.jobs]
    main = predict(MainKernel)
    counts.append(worker.jobs)
    ready()
    predict(RBFKernel)
    counts.append(worker.jobs)
    alive = worker.proc.poll() is None
    gp_worker._usable_cpus = lambda: 1
    same = all((a == b).all() for a, b in zip(main, predict(MainKernel)))
    print("WORKER", *counts, alive, same, flush=True)
''')


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="the worker boots where /proc is")
def test_main_kernel_builds_in_the_caller(tmp_path):
    script = tmp_path / "caller.py"
    script.write_text(BUILD_CALLER)
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    assert out.returncode == 0, out.stderr
    (line,) = [ln for ln in out.stdout.splitlines()
               if ln.startswith("WORKER")]
    _, *counts, alive, same = line.split()
    jobs = [int(c) for c in counts]
    # Both hand-overs were taken; the first came back as an error and was
    # built here, with the serial result, and the worker stayed up.
    assert jobs == [jobs[0], jobs[0] + 1, jobs[0] + 2]
    assert alive == "True"
    assert same == "True"
