"""The start worker of :func:`repro.gp.likelihood.maximize_objective`.

A fit's random restarts run in one long-lived child process while its
first start runs in the caller, which then runs them too until the
worker's results arrive.  These tests pin down that this changes no
result and leaves no process behind: the chosen hyperparameters equal
the serial loop's bit for bit whichever side finishes first, a start
that fails numerically in the worker is skipped as it is in the caller,
a job the worker cannot run falls back to the caller, and the worker
dies with its caller however the caller ends.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.gp.multisource as multisource_mod
from repro import env
from repro.gp import MultiSourceTransferGP, maximize_objective
from repro.gp import worker as gp_worker
from repro.gp.kernels import Matern52Kernel, RBFKernel
from repro.gp.multisource import TransferObjective

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    gp_worker._usable_cpus() < 2, reason="the worker needs two CPUs"
)


def _await_worker(timeout: float = 60.0) -> gp_worker._Worker:
    """This process's start worker, once it has booted."""
    deadline = time.monotonic() + timeout
    while True:
        with gp_worker._lock:
            worker = gp_worker._ready_worker()
        if worker is not None:
            return worker
        assert time.monotonic() < deadline, "start worker did not boot"
        time.sleep(0.05)


@pytest.fixture
def worker():
    """A booted start worker, with the caller at one BLAS thread so that
    fits hand their restarts to it."""
    with env.blas_thread_limit(1):
        yield _await_worker()


@pytest.fixture
def serial(monkeypatch):
    """Make every later fit run its starts in the caller, through the
    one-CPU branch."""
    def force():
        monkeypatch.setattr(gp_worker, "_usable_cpus", lambda: 1)
    return force


def _data(n_sources: int, seed: int):
    rng = np.random.default_rng(seed)
    sources = []
    for k in range(n_sources):
        Xs = rng.uniform(size=(40, 4))
        sources.append((Xs, np.sin(3 * Xs.sum(axis=1)) * (1 - 0.3 * k)))
    Xt = rng.uniform(size=(15, 4))
    return sources, Xt, np.sin(3 * Xt.sum(axis=1)) + 0.1


def _fit_theta(n_sources, kernel_cls, n_restarts, seed) -> np.ndarray:
    sources, Xt, yt = _data(n_sources, seed)
    model = MultiSourceTransferGP(
        kernel=kernel_cls(np.full(4, 0.4)), n_restarts=n_restarts, seed=seed
    )
    return model.fit(sources, Xt, yt)._opt_theta


GRID = [
    (n_sources, kernel_cls, n_restarts, seed)
    for n_sources in (0, 1, 2)
    for kernel_cls in (RBFKernel, Matern52Kernel)
    for n_restarts in (1, 2)
    for seed in range(3)
]


class TestSameTheta:
    @pytest.mark.parametrize(
        "n_sources,kernel_cls,n_restarts,seed", GRID,
        ids=[f"{s}src-{k.__name__}-r{r}-seed{d}" for s, k, r, d in GRID],
    )
    def test_worker_theta_is_serial_theta(
        self, worker, serial, n_sources, kernel_cls, n_restarts, seed
    ):
        jobs = worker.jobs
        theta = _fit_theta(n_sources, kernel_cls, n_restarts, seed)
        assert worker.jobs == jobs + 1
        serial()
        np.testing.assert_array_equal(
            theta, _fit_theta(n_sources, kernel_cls, n_restarts, seed)
        )

    def test_two_threads_each_get_the_serial_theta(self, worker, serial):
        cases = [(1, RBFKernel, 1, 0), (2, Matern52Kernel, 2, 1),
                 (0, RBFKernel, 2, 2)]
        results: dict = {}

        def run(case):
            try:
                # Threads start at the process's BLAS threads, which the
                # fixture set for this one's block.
                results[case] = _fit_theta(*case)
            except BaseException as exc:  # re-raised below
                results[case] = exc

        jobs = worker.jobs
        threads = [threading.Thread(target=run, args=(c,)) for c in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert worker.jobs > jobs
        serial()
        for case in cases:
            if isinstance(results[case], BaseException):
                raise results[case]
            np.testing.assert_array_equal(results[case], _fit_theta(*case))


class _Quadratic:
    """A quadratic with its minimum at (-2, -2) whose every evaluation at
    ``theta[0] > -1.5`` fails as a Cholesky factorization would.  Each
    evaluation sleeps ``delay`` seconds in the process that made it and
    ``worker_delay`` in any other, to choose which side finishes first.
    """

    def __init__(self, delay: float = 0.0, worker_delay: float = 0.0):
        self.owner = os.getpid()
        self.delay, self.worker_delay = delay, worker_delay

    def __call__(self, theta):
        time.sleep(
            self.delay if os.getpid() == self.owner else self.worker_delay
        )
        if theta[0] > -1.5:
            raise np.linalg.LinAlgError("not positive definite")
        d = theta + 2.0
        return float(d @ d), 2.0 * d


def _maximize(objective):
    return maximize_objective(
        objective, np.array([-2.5, 1.0]), [(-5.0, 5.0)] * 2,
        n_restarts=4, seed=3,
    )


class TestStarts:
    def test_failing_start_is_skipped_in_the_worker(self, worker, serial):
        draws = np.random.default_rng(3).uniform(-3.0, 3.0, size=(4, 2))
        assert (draws[:, 0] > -1.5).any() and (draws[:, 0] < -1.5).any()
        answered = worker.answered
        # A slow caller: the worker's outcomes arrive first.
        best = _maximize(_Quadratic(delay=0.02))
        assert worker.answered == answered + 1
        serial()
        np.testing.assert_array_equal(best, _maximize(_Quadratic()))

    def test_starved_worker_costs_no_more_than_the_caller(
        self, worker, serial
    ):
        jobs, answered = worker.jobs, worker.answered
        start = time.monotonic()
        best = _maximize(_Quadratic(worker_delay=0.25))
        # The caller ran the restarts itself rather than wait seconds.
        assert time.monotonic() - start < 1.0
        assert worker.jobs == jobs + 1
        assert worker.answered == answered
        # The worker stays in use once its late reply is read.
        worker = _await_worker()
        _fit_theta(0, RBFKernel, 1, 0)
        assert worker.jobs == jobs + 2
        serial()
        np.testing.assert_array_equal(best, _maximize(_Quadratic()))

    def test_unpicklable_objective_runs_in_the_caller(self, worker):
        def objective(theta):  # a local closure does not pickle
            return float(np.sum((theta - 1.0) ** 2)), 2.0 * (theta - 1.0)

        jobs = worker.jobs
        best = maximize_objective(
            objective, np.zeros(3), [(-5, 5)] * 3, n_restarts=2, seed=0
        )
        assert worker.jobs == jobs
        assert np.allclose(best, 1.0, atol=1e-4)

    def test_blas_threads_that_fill_the_cpus_keep_the_starts(
        self, worker, monkeypatch
    ):
        if not env.blas_threads():
            pytest.skip("no OpenBLAS mapped")
        monkeypatch.setattr(gp_worker, "_usable_cpus", lambda: 2)
        jobs = worker.jobs
        with env.blas_thread_limit(2):
            _fit_theta(0, RBFKernel, 1, 0)
        assert worker.jobs == jobs
        _fit_theta(0, RBFKernel, 1, 0)
        assert worker.jobs == jobs + 1


class TestTransferObjective:
    def test_pickled_objective_is_the_live_objective(self, monkeypatch):
        seen = {}

        def spy(objective, theta0, bounds, **kwargs):
            seen["objective"], seen["theta0"] = objective, theta0
            return theta0

        monkeypatch.setattr(multisource_mod, "maximize_objective", spy)
        sources, Xt, yt = _data(2, 0)
        MultiSourceTransferGP(kernel=Matern52Kernel(np.full(4, 0.4))).fit(
            sources, Xt, yt
        )
        live = seen["objective"]
        assert isinstance(live, TransferObjective)
        copy = pickle.loads(pickle.dumps(live))
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = seen["theta0"] + rng.normal(scale=0.5,
                                                size=len(seen["theta0"]))
            value, grad = live(theta)
            copy_value, copy_grad = copy(theta)
            assert value == copy_value
            np.testing.assert_array_equal(grad, copy_grad)


# ---- the worker's lifetime ---------------------------------------------

#: A caller that fits once to start the worker, waits for it to boot,
#: fits with a kernel class only its ``__main__`` defines (the worker
#: cannot unpickle it), then fits again.  Before each fit after the
#: first it waits until the worker can take a job: when the caller
#: outruns the worker, the reply is stale, and by design the next fit
#: does not wait for it but runs its starts in the caller.  Deliberately
#: unguarded: the worker must never run this top level.
CALLER = textwrap.dedent('''
    import sys, time
    import numpy as np
    from repro import env
    from repro.gp import MultiSourceTransferGP, worker as gp_worker
    from repro.gp.kernels import RBFKernel

    print("TOP", flush=True)
    env.set_blas_threads(1)


    class MainKernel(RBFKernel):
        pass


    def fit(seed, kernel=None):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(30, 3))
        model = MultiSourceTransferGP(kernel=kernel, n_restarts=1, seed=seed)
        return model.fit([], X, np.sin(3 * X.sum(axis=1)))._opt_theta


    def ready():
        deadline = time.monotonic() + 60
        while True:
            with gp_worker._lock:
                worker = gp_worker._ready_worker()
            if worker is not None:
                return worker
            assert time.monotonic() < deadline
            time.sleep(0.05)


    fit(0)
    worker = ready()
    counts = [(worker.jobs, worker.answered)]
    fit(1)
    counts.append((worker.jobs, worker.answered))
    ready()
    main_theta = fit(2, MainKernel(np.full(3, 0.3)))
    counts.append((worker.jobs, worker.answered))
    ready()
    fit(3)
    counts.append((worker.jobs, worker.answered))
    gp_worker._usable_cpus = lambda: 1
    same = (main_theta == fit(2, MainKernel(np.full(3, 0.3)))).all()
    print("WORKER", worker.proc.pid, *(n for c in counts for n in c), same,
          flush=True)
    if sys.argv[1:] == ["wait"]:
        time.sleep(120)
''')


def _start_caller(tmp_path, *args) -> subprocess.Popen:
    script = tmp_path / "caller.py"
    script.write_text(CALLER)
    env_vars = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, str(script), *args],
        stdout=subprocess.PIPE, text=True, env=env_vars,
    )


def _worker_line(lines: list[str]):
    """The worker's pid, its (jobs, answered) counts after each fit, and
    whether the ``__main__`` kernel's fit matched the serial one."""
    (line,) = [ln for ln in lines if ln.startswith("WORKER")]
    _, pid, *counts, same = line.split()
    counts = [int(c) for c in counts]
    return int(pid), list(zip(counts[::2], counts[1::2])), same


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
class TestLifetime:
    def test_normal_exit_leaves_no_process(self, tmp_path):
        proc = _start_caller(tmp_path)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        lines = out.splitlines()
        # The unguarded top level ran once, in the caller only.
        assert lines.count("TOP") == 1
        pid, counts, same = _worker_line(lines)
        # Every fit after the boot was handed over.  The ``__main__``
        # kernel's job came back as an error and ran in the caller, with
        # the serial result, and the worker stayed up for the next fit.
        jobs = [j for j, _ in counts]
        assert jobs == [jobs[0], jobs[0] + 1, jobs[0] + 2, jobs[0] + 3]
        assert counts[2][1] == counts[1][1]
        assert same == "True"
        # Reaped by the caller at exit, not left for init.
        assert not Path(f"/proc/{pid}").exists()

    def test_killed_caller_leaves_no_worker(self, tmp_path):
        proc = _start_caller(tmp_path, "wait")
        try:
            lines = []
            while not lines or not lines[-1].startswith("WORKER"):
                line = proc.stdout.readline()
                assert line, "caller exited early"
                lines.append(line.strip())
            pid, _, _ = _worker_line(lines)
            assert _running(pid)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        deadline = time.monotonic() + 5
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)
