"""The GP worker: one long-lived child process that takes half of a GP
step off its caller.

Two clients hand it work, and go on with the other half meanwhile:

- :func:`~repro.gp.likelihood.maximize_objective` hands it a fit's
  random restarts and runs the first start;
- :func:`~repro.gp.multisource.share_pool_builds` hands it the last
  half of the pool-cache builds a prediction is about to make, and
  builds the first half.

A job is a module-level function and its arguments, pickled with the
caller's BLAS thread counts and ``np.geterr()``, which the worker
applies; any warning fails the job.  Both sides compute the same
values, so a result does not depend on where it was computed.  Once the
caller is done with its own half, it races the worker
(:meth:`Job.race`): it computes the handed half too, checking before
each step whether the worker's results have arrived, so a worker short
of CPU costs the caller at most one step.

The worker is a plain ``python -c`` child that imports only
:mod:`repro.gp`, reads length-prefixed pickled jobs on stdin and writes
their results on stdout.  The caller does all the work itself whenever
the worker cannot take a job: one usable CPU, BLAS threads that two
processes would oversubscribe, a multiprocessing child, another
thread's job in flight, a worker still booting or still answering a job
nobody waits for, arguments that do not pickle, a job the worker cannot
run, or a broken pipe.  The worker exits when its stdin closes: at the
caller's exit, which also reaps it, or when the caller dies.
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

from .. import env

#: The worker's program.  Its arguments are the CPU the caller last ran
#: on and the caller's ``sys.path``.  It imports on the other CPUs: a
#: child importing numpy and scipy beside its parent on one CPU made the
#: parent's fits run at half speed until it was done.
_BOOT = """
import os, sys
cpus = os.sched_getaffinity(0)
os.sched_setaffinity(0, cpus - {int(sys.argv[1])} or cpus)
sys.path[:0] = sys.argv[2:]
from repro.gp.worker import _serve
os.sched_setaffinity(0, cpus)
_serve()
"""

_FRAME = struct.Struct("<Q")

#: Held from a hand-over until its job is closed: one job at a time
#: uses the worker, and other threads' callers do all their work
#: themselves.
_lock = threading.Lock()

#: Worker per process id, so a forked child never writes to its parent's
#: worker; ``None`` once a worker failed to boot.
_workers: dict[int, "_Worker | None"] = {}

#: ``Job`` state before the worker's reply is read.
_PENDING = object()


def _read_frame(stream) -> bytes:
    header = stream.read(_FRAME.size)
    if len(header) == _FRAME.size:
        (size,) = _FRAME.unpack(header)
        body = stream.read(size)
        if len(body) == size:
            return body
    raise EOFError("GP worker pipe closed")


def _write_frame(stream, body: bytes) -> None:
    stream.write(_FRAME.pack(len(body)))
    stream.write(body)
    stream.flush()


def unchecked() -> None:
    """A ``check`` that never stops the computation it is given to."""


class _Answered(Exception):
    """The worker's results arrived while the caller computed them too."""


class _Worker:
    """The child process that runs this process's handed jobs."""

    def __init__(self) -> None:
        self.ready = False
        #: Whether a reply is due that no caller waits for any more.
        self.stale = False
        #: Jobs handed over, and jobs whose results the worker gave.
        self.jobs = self.answered = 0
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _BOOT, str(_current_cpu()), *sys.path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._poll = select.poll()  # not select(): fds past 1023 are fine
        self._poll.register(self.proc.stdout, select.POLLIN)

    def replied(self) -> bool:
        """Whether a reply (or the ready byte, or EOF) is waiting."""
        return bool(self._poll.poll(0))

    def is_ready(self) -> bool:
        """Whether the worker can take a job now, without waiting for it:
        it has booted and answered its last job.

        Raises:
            OSError: If it has exited.
        """
        if self.ready and not self.stale:
            return True
        if not self.replied():
            return False
        if not self.ready:
            if self.proc.stdout.read(1) != b"R":
                raise OSError("GP worker exited while booting")
            self.ready = True
        else:
            try:
                _read_frame(self.proc.stdout)
            except EOFError as exc:
                raise OSError("GP worker exited") from exc
            self.stale = False
        return True

    def send(self, job: bytes) -> bool:
        try:
            _write_frame(self.proc.stdin, job)
        except (OSError, ValueError):
            self.drop()
            return False
        self.jobs += 1
        return True

    def receive(self):
        """The worker's results, or ``None`` if it could not run the job
        (an error marker) or the pipe broke."""
        try:
            reply = pickle.loads(_read_frame(self.proc.stdout))
        except (OSError, EOFError, ValueError, pickle.UnpicklingError):
            self.drop()
            return None
        self.answered += reply is not None
        return reply

    def drop(self) -> None:
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


class Job:
    """A job handed to the worker, used as a context manager: it holds
    the worker until the block is left.
    """

    def __init__(self, worker: _Worker) -> None:
        self._worker = worker
        self._reply = _PENDING

    def race(self, compute: Callable[[Callable[[], None]], object]):
        """The job's results from whichever side has them first.

        ``compute(check)`` computes the job, or a part of it, here and
        calls ``check()`` before each step.  Once the worker's results
        are in, ``check`` raises and they are returned instead.  If the
        worker could not run the job, ``compute`` runs again, unchecked.
        A job may be raced part by part, one call per part: a later call
        returns the worker's results at once if they came in an earlier
        one.

        Returns:
            ``(True, the worker's results)`` or ``(False, compute's
            value)``.
        """
        if self._reply is _PENDING:
            try:
                return False, compute(self._check)
            except _Answered:
                self._reply = self._worker.receive()
        if self._reply is None:
            return False, compute(unchecked)
        return True, self._reply

    def _check(self) -> None:
        if self._worker.replied():
            raise _Answered

    def __enter__(self) -> "Job":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Release the worker.  A reply not read yet is read and dropped
        by the next hand-over, unless the block raised: then the worker
        is dropped."""
        try:
            if self._reply is _PENDING:
                if exc_type is not None:
                    self._worker.drop()
                else:
                    self._worker.stale = True
        finally:
            _lock.release()


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


def _ready_worker() -> _Worker | None:
    """This process's booted worker, or ``None``; the first call starts
    one and does not wait for it.  Called with :data:`_lock` held."""
    pid = os.getpid()
    if pid not in _workers:
        try:
            _workers[pid] = _Worker()
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


def hand_over(fn: Callable, *args) -> Job | None:
    """Send ``fn(*args)`` to the worker if it can take it now.

    Args:
        fn: A module-level function that never returns ``None``.
        *args: Its arguments, pickled as they are now.

    Returns:
        The :class:`Job`, holding the worker until its ``with`` block
        is left, or ``None`` if the caller must do the work itself.
    """
    cpus = _usable_cpus()
    if cpus < 2 or multiprocessing.parent_process() is not None:
        return None
    # Two processes at the caller's BLAS threads must fit the CPUs:
    # OpenBLAS threads spin while they wait, and oversubscribed they
    # made a set of fits three times slower than running them serially.
    threads = env.blas_threads()
    if 2 * max(threads.values(), default=1) > cpus:
        return None
    if not _lock.acquire(blocking=False):
        return None
    # Pickled only once the worker can take it: a build job is megabytes.
    worker = _ready_worker()
    if worker is not None:
        try:
            job = pickle.dumps(
                (fn, args, threads, np.geterr()),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except (pickle.PicklingError, AttributeError, TypeError):
            pass  # arguments that do not pickle
        else:
            if worker.send(job):
                return Job(worker)
    _lock.release()
    return None


@atexit.register
def _close_worker() -> None:
    worker = _workers.pop(os.getpid(), None)
    if worker is not None:
        # A job still in flight is one nobody will read.
        worker.close(kill=_lock.locked() or worker.stale)


def _run_job(job: bytes):
    """Run one pickled job as the caller would, at the caller's BLAS
    threads and floating-point error handling.  Any warning fails the
    job, so the caller reruns it under its own warning filters."""
    try:
        fn, args, threads, errstate = pickle.loads(job)
        env.set_blas_threads(threads)
        with np.errstate(**errstate), warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn(*args)
    except Exception:
        # The caller reruns the job, which raises there if the failure
        # is not the worker's own (such as a class only its caller's
        # ``__main__`` defines).
        return None


def _serve() -> None:
    """The worker's main loop: answer jobs until stdin closes."""
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
            reply = _run_job(_read_frame(jobs))
            _write_frame(results, pickle.dumps(
                reply, protocol=pickle.HIGHEST_PROTOCOL
            ))
    except (EOFError, BrokenPipeError):
        pass
