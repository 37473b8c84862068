"""Tests for the crash-safe file primitives in :mod:`repro.durable`.

The golden-table cache, the run memo and the session snapshots all
write through these, so each property is checked once here: a failed
write leaves the previous file byte for byte, a writer killed mid-write
leaves it loadable plus a temp file that is swept only once aged, and
the entry lock makes a second process wait.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import durable
from repro.durable import TMP_PREFIX, atomic_write, locked, sweep_tmp

SRC = Path(__file__).resolve().parents[1] / "src"

#: Starts a write, flushes some bytes into the temp file and dies there.
KILLED_WRITER = """
import os, signal, sys
from repro.durable import atomic_write
with atomic_write(sys.argv[1]) as fh:
    fh.write(b"torn")
    fh.flush()
    os.kill(os.getpid(), signal.SIGKILL)
"""

#: Says when it is about to take the lock, then when it got it.
SECOND_LOCKER = """
import sys, time
from repro.durable import locked
print("WAITING", flush=True)
with locked(sys.argv[1]):
    print(time.time(), flush=True)
"""


def _python(script: str, *args: str, **kw) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)), **kw,
    )


def _write_table(path: Path) -> None:
    with atomic_write(path) as fh:
        np.savez(fh, a=np.arange(4.0))


def test_failed_write_leaves_target_and_no_temp_file(tmp_path):
    target = tmp_path / "table.npz"
    _write_table(target)
    before = target.read_bytes()
    with pytest.raises(RuntimeError, match="disk full"):
        with atomic_write(target) as fh:
            fh.write(b"half a table")
            raise RuntimeError("disk full")
    assert target.read_bytes() == before
    assert not list(tmp_path.glob(f"{TMP_PREFIX}*"))


def test_killed_writer_leaves_previous_file_and_an_aged_sweep(tmp_path):
    target = tmp_path / "snapshot.npz"
    _write_table(target)
    proc = _python(KILLED_WRITER, str(target))
    assert proc.wait(timeout=60) == -signal.SIGKILL
    with np.load(target) as data:
        np.testing.assert_array_equal(data["a"], np.arange(4.0))
    (tmp,) = tmp_path.glob(f"{TMP_PREFIX}*")
    assert tmp.read_bytes() == b"torn"
    # Young enough to be a write in flight: kept.
    assert sweep_tmp(tmp_path, durable.TMP_MAX_AGE_S) == []
    assert tmp.exists()
    aged = time.time() - 2 * durable.TMP_MAX_AGE_S
    os.utime(tmp, (aged, aged))
    assert sweep_tmp(tmp_path, durable.TMP_MAX_AGE_S) == [tmp.name]
    assert not tmp.exists()
    assert target.exists()


@pytest.mark.skipif(durable.fcntl is None, reason="needs fcntl")
def test_lock_makes_a_second_process_wait(tmp_path):
    lock = tmp_path / "entry.npz.lock"
    with locked(lock):
        proc = _python(
            SECOND_LOCKER, str(lock), stdout=subprocess.PIPE, text=True
        )
        try:
            assert proc.stdout.readline().strip() == "WAITING"
            time.sleep(0.3)
            assert proc.poll() is None
            released = time.time()
        except BaseException:
            proc.kill()
            raise
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert float(out) >= released
