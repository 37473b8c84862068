"""Marginal-likelihood evaluation and hyperparameter optimization.

The gradient of ``log N(y | 0, K)`` with respect to any hyperparameter
``theta_i`` is ``<W, dK/dtheta_i>`` with the single weight matrix

    W = 0.5 * (alpha alpha^T - K^-1),      alpha = K^-1 y,

so :func:`gaussian_log_marginal` returns ``W`` and each kernel's
``eval_and_grad`` contracts it against its own derivatives (see
:mod:`repro.gp.kernels`).  Per evaluation this costs one O(n^3)
factorization and inverse plus an O(n^2 d) contraction; no ``n x n``
derivative matrix is formed.

:func:`maximize_objective` runs its first L-BFGS-B start in the caller
and, at the same time, its random restarts in one long-lived start
worker: a plain ``python -c`` child process that imports only
:mod:`repro.gp`, reads pickled start jobs on stdin and writes their
results on stdout.  Once its own start is done the caller runs the
restarts too, until the worker's results arrive, so a worker short of
CPU costs no more than the serial loop.  The results are compared in
start order, as the serial loop does, and both sides compute the same
ones, so the chosen vector does not depend on where a start ran.
The caller runs every start itself whenever the worker cannot take them
(one usable CPU, BLAS threads that two processes would oversubscribe, a
multiprocessing child, another thread's fit in flight, a worker still
booting, an objective that does not pickle or a job the worker cannot
run).  The worker exits when its stdin closes: at the caller's exit,
which also reaps it, or when the caller dies.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import select
import signal
import struct
import subprocess
import sys
import threading
import warnings
from collections.abc import Callable

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import minimize

from .. import env
from .linalg import (
    cholesky_inverse_lower,
    log_det_from_cholesky,
    robust_cholesky,
)

#: Objective = callable(theta) -> (negative log marginal likelihood, grad).
Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


def gaussian_log_marginal(
    K: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log marginal likelihood of ``y ~ N(0, K)`` and its gradient weights.

    Args:
        K: Covariance (including noise on the diagonal).
        y: Observations (zero-mean; finite — not checked here).

    Returns:
        ``(lml, W, alpha)`` where ``alpha = K^-1 y`` and
        ``W = 0.5 * (alpha alpha^T - K^-1)``: the gradient of the LML
        with respect to a hyperparameter is ``sum(W * dK/dtheta)``.
    """
    L, _ = robust_cholesky(K)
    # No finiteness check: the factor comes from robust_cholesky and the
    # models check y on entry.
    alpha = cho_solve((L, True), y, check_finite=False)
    lml = float(
        -0.5 * y @ alpha
        - 0.5 * log_det_from_cholesky(L)
        - 0.5 * len(y) * np.log(2.0 * np.pi)
    )
    # W in one buffer: dpotri gives K^-1's lower triangle over L's zero
    # upper one, so subtract it, then its strict part transposed.
    inv = cholesky_inverse_lower(L)
    W = np.outer(alpha, alpha)
    W -= inv
    np.fill_diagonal(inv, 0.0)
    W -= inv.T
    W *= 0.5
    return lml, W, alpha


def maximize_objective(
    objective: Objective,
    theta0: np.ndarray,
    bounds: list[tuple[float, float]],
    n_restarts: int = 2,
    seed: int | None = None,
    maxiter: int = 120,
) -> np.ndarray:
    """L-BFGS-B maximization with random restarts.

    ``objective`` returns the *negative* LML and its gradient, so this is
    a minimization under the hood.  The restarts run in the start worker
    while the first start runs here, when the worker can take them (see
    the module docstring); the result is the same either way.

    Args:
        objective: Function of the log-hyperparameter vector.
        theta0: Starting point (first restart starts here).
        bounds: Box constraints per hyperparameter.
        n_restarts: Additional uniform-random restarts inside ``bounds``.
        seed: RNG seed for the restart draws.
        maxiter: L-BFGS iteration budget per restart.

    Returns:
        The best hyperparameter vector found (falls back to ``theta0``
        if every restart fails numerically).
    """
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    starts = [np.clip(theta0, lo, hi)]
    # Restarts draw from a moderate sub-box; full-range draws often start
    # in flat likelihood plateaus.  Pinned parameters (lo == hi, possibly
    # outside the sub-box) keep their pinned value.
    draw_lo = np.maximum(lo, -3.0)
    draw_hi = np.minimum(hi, 3.0)
    inverted = draw_lo > draw_hi
    draw_lo[inverted] = lo[inverted]
    draw_hi[inverted] = hi[inverted]
    for _ in range(max(n_restarts, 0)):
        starts.append(rng.uniform(draw_lo, draw_hi))

    worker = _hand_over(objective, starts[1:], bounds, maxiter)
    if worker is None:
        outcomes = [_run_start(objective, s, bounds, maxiter) for s in starts]
    else:
        outcomes = worker.race(objective, starts, bounds, maxiter)

    best_theta = starts[0]
    best_value = np.inf
    for outcome in outcomes:
        if outcome is None:
            continue
        fun, x = outcome
        if np.isfinite(fun) and fun < best_value:
            best_value = float(fun)
            best_theta = np.asarray(x)
    return best_theta


def _run_start(objective, start, bounds, maxiter):
    """One L-BFGS-B start: ``(fun, x)``, or ``None`` if it fails
    numerically."""
    try:
        result = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": maxiter},
        )
    except (np.linalg.LinAlgError, FloatingPointError):
        return None
    return result.fun, result.x


# ---- the start worker ----------------------------------------------------

#: The worker's program.  Its arguments are the CPU the caller last ran
#: on and the caller's ``sys.path``.  It imports on the other CPUs: a
#: child importing numpy and scipy beside its parent on one CPU made the
#: parent's fits run at half speed until it was done.
_BOOT = """
import os, sys
cpus = os.sched_getaffinity(0)
os.sched_setaffinity(0, cpus - {int(sys.argv[1])} or cpus)
sys.path[:0] = sys.argv[2:]
from repro.gp.likelihood import _serve_starts
os.sched_setaffinity(0, cpus)
_serve_starts()
"""

_FRAME = struct.Struct("<Q")

#: Held from a hand-over until its results are read: one fit at a time
#: uses the worker, and other threads' fits run their starts themselves.
_lock = threading.Lock()

#: Worker per process id, so a forked child never writes to its parent's
#: worker; ``None`` once a worker failed to boot.
_workers: dict[int, "_StartWorker | None"] = {}


def _read_frame(stream) -> bytes:
    header = stream.read(_FRAME.size)
    if len(header) == _FRAME.size:
        (size,) = _FRAME.unpack(header)
        body = stream.read(size)
        if len(body) == size:
            return body
    raise EOFError("start worker pipe closed")


def _write_frame(stream, body: bytes) -> None:
    stream.write(_FRAME.pack(len(body)) + body)
    stream.flush()


class _Answered(Exception):
    """The worker's results arrived while the caller ran the same starts."""


class _StartWorker:
    """The child process that runs this process's random restarts."""

    def __init__(self) -> None:
        self.ready = False
        #: Whether a reply is due that no fit waits for any more.
        self.stale = False
        #: Jobs handed over, and jobs whose results the worker gave.
        self.jobs = self.answered = 0
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _BOOT, str(_current_cpu()), *sys.path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._poll = select.poll()  # not select(): fds past 1023 are fine
        self._poll.register(self.proc.stdout, select.POLLIN)

    def _replied(self) -> bool:
        return bool(self._poll.poll(0))

    def is_ready(self) -> bool:
        """Whether the worker can take a job now, without waiting for it:
        it has booted and answered its last job.

        Raises:
            OSError: If it has exited.
        """
        if self.ready and not self.stale:
            return True
        if not self._replied():
            return False
        if not self.ready:
            if self.proc.stdout.read(1) != b"R":
                raise OSError("start worker exited while booting")
            self.ready = True
        else:
            try:
                _read_frame(self.proc.stdout)
            except EOFError as exc:
                raise OSError("start worker exited") from exc
            self.stale = False
        return True

    def send(self, job: bytes) -> bool:
        try:
            _write_frame(self.proc.stdin, job)
        except (OSError, ValueError):
            self._drop()
            return False
        self.jobs += 1
        return True

    def race(self, objective, starts, bounds, maxiter) -> list:
        """Outcomes of all ``starts``, the worker holding ``starts[1:]``.

        The first start runs here.  Then the rest run here too until the
        worker's results arrive (checked before each evaluation), so a
        worker starved of CPU costs no more than running them here.
        Either side's outcomes are the serial loop's.  Releases
        :data:`_lock`.
        """
        def watched(theta):
            if self._replied():
                raise _Answered
            return objective(theta)

        try:
            first = _run_start(objective, starts[0], bounds, maxiter)
            try:
                rest = [_run_start(watched, s, bounds, maxiter)
                        for s in starts[1:]]
                self.stale = True
            except _Answered:
                rest = self._receive()
                if rest is None:
                    rest = [_run_start(objective, s, bounds, maxiter)
                            for s in starts[1:]]
            return [first, *rest]
        except BaseException:
            self._drop()
            raise
        finally:
            _lock.release()

    def _receive(self) -> list | None:
        """The worker's outcomes, or ``None`` if it could not run the job
        (an error marker) or the pipe broke."""
        try:
            outcomes = pickle.loads(_read_frame(self.proc.stdout))
        except (OSError, EOFError, ValueError, pickle.UnpicklingError):
            self._drop()
            return None
        self.answered += outcomes is not None
        return outcomes

    def _drop(self) -> None:
        _workers.pop(os.getpid(), None)
        self.close(kill=True)

    def close(self, kill: bool = False) -> None:
        """Close the worker's stdin (it exits on EOF) and reap it."""
        if kill:
            self.proc.kill()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the worker cannot boot
    (it needs ``sched_setaffinity``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _current_cpu() -> int:
    """The CPU the calling thread last ran on, or -1."""
    try:
        with open("/proc/thread-self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return -1


def _ready_worker() -> _StartWorker | None:
    """This process's booted worker, or ``None``; the first call starts
    one and does not wait for it.  Called with :data:`_lock` held."""
    pid = os.getpid()
    if pid not in _workers:
        try:
            _workers[pid] = _StartWorker()
        except OSError:
            _workers[pid] = None
        return None
    worker = _workers[pid]
    if worker is None:
        return None
    try:
        return worker if worker.is_ready() else None
    except OSError:
        _workers[pid] = None
        worker.close()
        return None


def _hand_over(objective, starts, bounds, maxiter) -> _StartWorker | None:
    """Send ``starts`` to the start worker if it can take them now.

    Returns:
        The worker, with :data:`_lock` held until its
        :meth:`~_StartWorker.race` returns, or ``None`` if the caller
        must run the starts.
    """
    cpus = _usable_cpus()
    if (
        not starts
        or cpus < 2
        or multiprocessing.parent_process() is not None
    ):
        return None
    # Two processes at the caller's BLAS threads must fit the CPUs:
    # OpenBLAS threads spin while they wait, and oversubscribed they
    # made a set of fits three times slower than running them serially.
    threads = env.blas_threads()
    if 2 * max(threads.values(), default=1) > cpus:
        return None
    try:
        job = pickle.dumps(
            (objective, starts, bounds, maxiter, threads, np.geterr()),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except (pickle.PicklingError, AttributeError, TypeError):
        return None  # an objective that does not pickle
    if not _lock.acquire(blocking=False):
        return None
    worker = _ready_worker()
    if worker is not None and worker.send(job):
        return worker
    _lock.release()
    return None


@atexit.register
def _close_worker() -> None:
    worker = _workers.pop(os.getpid(), None)
    if worker is not None:
        # A job still in flight is one nobody will read.
        worker.close(kill=_lock.locked() or worker.stale)


def _run_job(job: bytes) -> list | None:
    """Run one pickled start job as the caller would, at the caller's
    BLAS threads and floating-point error handling.  Any warning fails
    the job, so the caller reruns it under its own warning filters."""
    try:
        objective, starts, bounds, maxiter, threads, errstate = (
            pickle.loads(job)
        )
        env.set_blas_threads(threads)
        with np.errstate(**errstate), warnings.catch_warnings():
            warnings.simplefilter("error")
            return [_run_start(objective, s, bounds, maxiter) for s in starts]
    except Exception:
        # The caller reruns the job, which raises there if the failure
        # is not the worker's own (such as a class only its caller's
        # ``__main__`` defines).
        return None


def _serve_starts() -> None:
    """The start worker's main loop: answer jobs until stdin closes."""
    # Interrupts are the caller's to handle.  Results go out on a private
    # copy of stdout; anything a job prints goes to stderr.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    jobs = sys.stdin.buffer
    results = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    try:
        results.write(b"R")
        results.flush()
        while True:
            outcomes = _run_job(_read_frame(jobs))
            _write_frame(results, pickle.dumps(
                outcomes, protocol=pickle.HIGHEST_PROTOCOL
            ))
    except (EOFError, BrokenPipeError):
        pass
