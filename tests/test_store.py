"""Tests for the crash-safe benchmark cache store.

Covers corruption injection (truncation, garbage bytes, checksum
mismatch, missing arrays), atomic-write temp-file hygiene, stale-version
garbage collection, and two-process concurrent generation.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.bench import generate_benchmark
from repro.bench.generate import (
    CACHE_VERSION,
    evaluate_configs,
    evaluate_configs_parallel,
    get_flow,
)
from repro.bench.spaces import target2_space
from repro.bench.store import (
    MANIFEST_NAME,
    QUARANTINE_DIR,
    TMP_PREFIX,
    BenchmarkStore,
    VerifyReport,
    file_cache_version,
)
from repro.space.sampling import latin_hypercube


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """Point the benchmark cache at a fresh directory."""
    monkeypatch.setenv("PPATUNER_CACHE", str(tmp_path))
    return tmp_path


def _only_npz(cache_dir):
    files = sorted(
        p for p in cache_dir.glob("*.npz")
        if not p.name.startswith(TMP_PREFIX)
    )
    assert len(files) == 1, files
    return files[0]


def _builds(cache_dir, filename):
    manifest = json.loads((cache_dir / MANIFEST_NAME).read_text())
    return manifest["entries"][filename]["builds"]


class TestStorePrimitives:
    def test_save_load_roundtrip(self, tmp_path):
        store = BenchmarkStore(tmp_path)
        X = np.arange(12.0).reshape(4, 3)
        Y = np.ones((4, 3))
        path = store.save("t-reduced-n4-v1.npz", {"X": X, "Y": Y})
        assert path.exists()
        arrays = store.load("t-reduced-n4-v1.npz", required=("X", "Y"))
        assert np.array_equal(arrays["X"], X)
        assert np.array_equal(arrays["Y"], Y)
        entry = store.manifest_entry("t-reduced-n4-v1.npz")
        assert entry["builds"] == 1
        assert entry["size"] == path.stat().st_size

    def test_load_missing_returns_none(self, tmp_path):
        assert BenchmarkStore(tmp_path).load("nope.npz") is None

    def test_no_tmp_files_left_after_save(self, tmp_path):
        store = BenchmarkStore(tmp_path)
        store.save("a-v1.npz", {"X": np.zeros((2, 2))})
        assert not list(tmp_path.glob(f"{TMP_PREFIX}*"))

    def test_rebuild_increments_builds(self, tmp_path):
        store = BenchmarkStore(tmp_path)
        store.save("a-v1.npz", {"X": np.zeros(3)})
        store.save("a-v1.npz", {"X": np.ones(3)})
        assert store.manifest_entry("a-v1.npz")["builds"] == 2

    def test_corrupt_manifest_tolerated(self, tmp_path):
        store = BenchmarkStore(tmp_path)
        store.save("a-v1.npz", {"X": np.zeros(3)})
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        arrays = store.load("a-v1.npz")
        assert np.array_equal(arrays["X"], np.zeros(3))
        store.save("b-v1.npz", {"X": np.ones(3)})
        assert store.manifest_entry("b-v1.npz") is not None

    def test_file_cache_version(self):
        assert file_cache_version("t-reduced-n10-v15.npz") == 15
        assert file_cache_version("weird.npz") is None


class TestCorruptionHealing:
    """Injected corruption never raises; the table regenerates."""

    def _generate(self, n=12):
        return generate_benchmark("target2", n_points=n, cache=True)

    def test_truncated_file_regenerates(self, cache_dir):
        golden = self._generate()
        path = _only_npz(cache_dir)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

        healed = self._generate()
        assert np.array_equal(healed.Y, golden.Y)
        # the repaired file round-trips through a plain np.load
        with np.load(_only_npz(cache_dir)) as data:
            assert np.array_equal(data["Y"], golden.Y)
        # the torn file was quarantined, and the manifest entry was
        # rebuilt from scratch for the regenerated table
        assert (cache_dir / QUARANTINE_DIR / path.name).exists()
        assert _builds(cache_dir, path.name) == 1

    def test_garbage_bytes_regenerate(self, cache_dir):
        golden = self._generate()
        path = _only_npz(cache_dir)
        path.write_bytes(b"\xde\xad\xbe\xef" * 512)

        healed = self._generate()
        assert np.array_equal(healed.Y, golden.Y)
        assert (cache_dir / QUARANTINE_DIR / path.name).exists()

    def test_checksum_mismatch_regenerates(self, cache_dir):
        golden = self._generate()
        path = _only_npz(cache_dir)
        # a structurally valid .npz written behind the store's back:
        # zip check passes, manifest checksum must catch it
        np.savez_compressed(path, X=np.zeros((2, 2)), Y=np.zeros((2, 3)))

        healed = self._generate()
        assert np.array_equal(healed.Y, golden.Y)
        assert (cache_dir / QUARANTINE_DIR / path.name).exists()

    def test_missing_array_regenerates(self, cache_dir):
        golden = self._generate()
        store = BenchmarkStore(cache_dir)
        path = _only_npz(cache_dir)
        store.save(path.name, {"X": np.zeros((2, 2))})  # no "Y"

        healed = self._generate()
        assert np.array_equal(healed.Y, golden.Y)

    def test_verify_quarantines_and_reports(self, cache_dir):
        self._generate()
        path = _only_npz(cache_dir)
        path.write_bytes(b"torn")
        reports = BenchmarkStore(cache_dir).verify(
            current_version=CACHE_VERSION
        )
        assert [r.status for r in reports] == ["quarantined"]
        assert not path.exists()


class TestAtomicWriteHygiene:
    def test_leftover_tmp_ignored_on_load(self, cache_dir):
        golden = self._first = generate_benchmark(
            "target2", n_points=10, cache=True
        )
        junk = cache_dir / f"{TMP_PREFIX}dead.npz"
        junk.write_bytes(b"half-written")
        again = generate_benchmark("target2", n_points=10, cache=True)
        assert np.array_equal(again.Y, golden.Y)
        assert _builds(cache_dir, _only_npz(cache_dir).name) == 1

    def test_old_tmp_swept_by_verify(self, cache_dir):
        junk = cache_dir / f"{TMP_PREFIX}dead.npz"
        junk.write_bytes(b"half-written")
        os.utime(junk, (0, 0))  # pretend the writer died long ago
        reports = BenchmarkStore(cache_dir).verify()
        assert not junk.exists()
        assert VerifyReport(junk.name, "swept-tmp",
                            "abandoned temp file") in reports

    def test_fresh_tmp_not_swept(self, cache_dir):
        junk = cache_dir / f"{TMP_PREFIX}inflight.npz"
        junk.write_bytes(b"being written right now")
        BenchmarkStore(cache_dir).verify()
        assert junk.exists()


class TestGarbageCollection:
    def test_stale_generations_removed_on_build(self, cache_dir):
        for version in (3, 7, CACHE_VERSION - 1):
            np.savez_compressed(
                cache_dir / f"target2-reduced-n10-v{version}.npz",
                X=np.zeros((2, 2)), Y=np.zeros((2, 3)),
            )
        generate_benchmark("target2", n_points=10, cache=True)
        versions = {
            file_cache_version(p.name) for p in cache_dir.glob("*.npz")
        }
        assert versions == {CACHE_VERSION}

    def test_gc_keeps_current_generation(self, cache_dir):
        store = BenchmarkStore(cache_dir)
        store.save(f"a-v{CACHE_VERSION}.npz", {"X": np.zeros(2)})
        store.save("a-v2.npz", {"X": np.zeros(2)})
        removed = store.gc_stale(CACHE_VERSION)
        assert removed == ["a-v2.npz"]
        assert (cache_dir / f"a-v{CACHE_VERSION}.npz").exists()
        assert store.manifest_entry("a-v2.npz") is None

    def test_clear_empties_cache(self, cache_dir):
        generate_benchmark("target2", n_points=8, cache=True)
        path = _only_npz(cache_dir)
        path.write_bytes(b"junk")
        store = BenchmarkStore(cache_dir)
        store.load(path.name)  # populate quarantine/
        assert store.clear() > 0
        assert not list(cache_dir.glob("*.npz"))
        assert not (cache_dir / MANIFEST_NAME).exists()
        assert not (cache_dir / QUARANTINE_DIR).exists()


def _concurrent_worker(cache_dir: str, barrier, queue) -> None:
    """Child process: generate the same table as its sibling."""
    os.environ["PPATUNER_CACHE"] = cache_dir
    barrier.wait(timeout=60)
    try:
        bench = generate_benchmark("target2", n_points=120, cache=True)
        queue.put(("ok", float(bench.Y.sum())))
    except Exception as exc:  # pragma: no cover - failure reporting
        queue.put(("error", repr(exc)))


class TestConcurrentGeneration:
    def test_two_processes_build_exactly_once(self, cache_dir):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_concurrent_worker,
                args=(str(cache_dir), barrier, queue),
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        results = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0

        statuses = [status for status, _ in results]
        assert statuses == ["ok", "ok"], results
        sums = {payload for _, payload in results}
        assert len(sums) == 1  # both saw the same table

        path = _only_npz(cache_dir)
        assert _builds(cache_dir, path.name) == 1  # exactly one build
        with np.load(path) as data:  # and it is loadable
            assert data["Y"].shape == (120, 3)


class TestParallelEvaluation:
    def test_matches_serial(self):
        space = target2_space()
        configs = latin_hypercube(space, 16, seed=3)
        base = {"freq": 450.0}
        serial = evaluate_configs(get_flow("mac_large"), configs, base)
        parallel = evaluate_configs_parallel(
            "mac_large", configs, base, n_workers=2
        )
        assert np.array_equal(parallel, serial)

    def test_single_worker_is_serial(self):
        space = target2_space()
        configs = latin_hypercube(space, 5, seed=4)
        serial = evaluate_configs(
            get_flow("mac_large"), configs, {"freq": 450.0}
        )
        same = evaluate_configs_parallel(
            "mac_large", configs, {"freq": 450.0}, n_workers=1
        )
        assert np.array_equal(same, serial)

    def test_small_pool_defaults_to_serial(self):
        space = target2_space()
        configs = latin_hypercube(space, 4, seed=5)
        out = evaluate_configs_parallel(
            "mac_large", configs, {"freq": 450.0}
        )
        assert out.shape == (4, 3)
