"""Pluggable cache backends: sqlite store, spec parsing, file locks,
and concurrent-maintenance safety."""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.testbed import (
    FileLock,
    LockTimeout,
    ResultCache,
    RunMetrics,
    SqliteBackend,
)
from repro.testbed.backends import (
    DirectoryBackend,
    backend_from_env,
    parse_backend_spec,
)

RUNS = [RunMetrics(mean_delay_ms=1.5, mean_waiting_ms=0.5,
                   average_power_w=2.0, receiver_psnr_db=None,
                   receiver_mos=None, eavesdropper_psnr_db=None,
                   eavesdropper_mos=None)]


def _key(byte: str) -> str:
    return byte * 64


class TestSpecParsing:
    def test_bare_path_is_directory(self, tmp_path):
        backend = parse_backend_spec(str(tmp_path / "c"))
        assert isinstance(backend, DirectoryBackend)

    def test_dir_spec(self, tmp_path):
        backend = parse_backend_spec(f"dir:{tmp_path / 'c'}")
        assert isinstance(backend, DirectoryBackend)
        assert backend.name == "dir"

    def test_sqlite_spec(self, tmp_path):
        backend = parse_backend_spec(f"sqlite:{tmp_path / 'c.sqlite'}")
        assert isinstance(backend, SqliteBackend)
        assert backend.name == "sqlite"
        assert backend.index_capable
        backend.close()

    def test_unknown_scheme_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="backend"):
            parse_backend_spec(f"redis:{tmp_path}")

    def test_env_selection(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        backend = backend_from_env(tmp_path / "c")
        assert isinstance(backend, SqliteBackend)
        backend.close()
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "dir")
        assert isinstance(backend_from_env(tmp_path / "c2"),
                          DirectoryBackend)
        monkeypatch.delenv("REPRO_CACHE_BACKEND")
        assert isinstance(backend_from_env(tmp_path / "c3"),
                          DirectoryBackend)


class TestSqliteBackend:
    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache.from_spec(f"sqlite:{tmp_path / 'c.sqlite'}")
        cache.put_runs(_key("a"), RUNS, meta={"cell": 1})
        assert cache.get_runs(_key("a")) == RUNS
        assert cache.stats()["backend"] == "sqlite"
        assert cache.stats()["entries"] == 1
        cache.close()
        # reopening sees the same data (lazy reconnect after close)
        assert cache.get_runs(_key("a")) == RUNS
        cache.close()

    def test_single_file_on_disk(self, tmp_path):
        cache = ResultCache.from_spec(f"sqlite:{tmp_path / 'c.sqlite'}")
        cache.put_runs(_key("a"), RUNS)
        cache.close()
        names = {p.name for p in tmp_path.iterdir()}
        assert "c.sqlite" in names
        # no per-entry shard directories, unlike the dir backend
        assert not any((tmp_path / n).is_dir() for n in names)

    def test_concurrent_second_opener(self, tmp_path):
        path = tmp_path / "c.sqlite"
        first = ResultCache.from_spec(f"sqlite:{path}")
        second = ResultCache.from_spec(f"sqlite:{path}")
        first.put_runs(_key("a"), RUNS)
        second.put_runs(_key("b"), RUNS)
        assert first.get_runs(_key("b")) == RUNS
        assert second.get_runs(_key("a")) == RUNS
        first.close()
        second.close()

    def test_verify_quarantines_corrupt_row(self, tmp_path):
        cache = ResultCache.from_spec(f"sqlite:{tmp_path / 'c.sqlite'}")
        cache.put_runs(_key("a"), RUNS)
        cache.backend.write(_key("b"), b"{not json")
        report = cache.verify()
        assert report["corrupt"] == 1
        assert cache.get_runs(_key("b")) is None
        assert cache.get_runs(_key("a")) == RUNS
        cache.close()

    def test_gc_enforces_caps(self, tmp_path):
        cache = ResultCache.from_spec(f"sqlite:{tmp_path / 'c.sqlite'}",
                                      max_entries=2)
        for letter in "abcd":
            cache.put_runs(_key(letter), RUNS)
            time.sleep(0.01)
        cache.gc()
        assert cache.stats()["entries"] == 2
        cache.close()


class TestFileLock:
    def test_exclusion_and_release(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        first = FileLock(lock_path)
        second = FileLock(lock_path, timeout_s=0.1, poll_s=0.01)
        with first:
            assert not second.try_acquire()
            with pytest.raises(LockTimeout):
                second.acquire()
        assert second.try_acquire()
        second.release()

    def test_stale_lock_broken_by_age(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        holder = FileLock(lock_path, stale_seconds=0.05)
        assert holder.try_acquire()
        time.sleep(0.1)
        contender = FileLock(lock_path, stale_seconds=0.05,
                             timeout_s=2.0, poll_s=0.01)
        contender.acquire()
        assert contender.held
        contender.release()

    def test_dead_pid_broken_immediately(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        # forge a lock owned by a certainly-dead pid on this host
        import socket
        lock_path.write_text(json.dumps(
            {"host": socket.gethostname(), "pid": 2 ** 22 + 12345,
             "taken": time.time()}))
        contender = FileLock(lock_path, stale_seconds=3600.0,
                             timeout_s=2.0, poll_s=0.01)
        contender.acquire()
        contender.release()

    def test_reacquire_while_held_rejected(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            with pytest.raises(RuntimeError, match="already held"):
                lock.acquire()


def _hammer_maintenance(args):
    """One process doing a maintenance op against a shared cache."""
    directory, op, n_keys = args
    cache = ResultCache(directory)
    try:
        if op == "gc":
            cache.gc()
        elif op == "verify":
            cache.verify()
        else:
            # force an index rebuild from a cold open
            cache.stats()
        return sum(
            cache.get_runs("%02x" % i * 32) is not None
            for i in range(n_keys)
        )
    finally:
        cache.close()


@pytest.mark.slow
class TestConcurrentMaintenance:
    """Regression: gc/verify/index-rebuild used to race when several
    processes shared one cache directory; the maintenance FileLock
    serialises them without losing entries."""

    def test_parallel_gc_verify_rebuild_lose_nothing(self, tmp_path):
        directory = tmp_path / "shared"
        cache = ResultCache(directory)
        n_keys = 16
        for i in range(n_keys):
            cache.put_runs("%02x" % i * 32, RUNS, meta={"i": i})
        cache.close()
        # fresh opens in every worker; mixed maintenance ops
        jobs = [(str(directory), op, n_keys)
                for op in ("gc", "verify", "stats") * 4]
        with ProcessPoolExecutor(max_workers=4) as pool:
            survivors = list(pool.map(_hammer_maintenance, jobs))
        assert all(count == n_keys for count in survivors)
        final = ResultCache(directory)
        assert final.stats()["entries"] == n_keys
        final.close()

    def test_stale_maintenance_lock_is_broken(self, tmp_path):
        directory = tmp_path / "shared"
        cache = ResultCache(directory)
        cache.put_runs(_key("a"), RUNS)
        # a crashed maintainer left its lock behind, long ago
        lock_path = cache.backend.lock_path
        lock_path.write_text(json.dumps(
            {"host": "elsewhere", "pid": 1, "taken": 0.0}))
        old = time.time() - 3600.0
        os.utime(lock_path, (old, old))
        report = cache.gc()  # must break the stale lock, not hang
        assert report["entries"] == 1
        cache.close()
