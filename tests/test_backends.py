"""The sqlite cache store: spec parsing, the single-file store, and
maintenance serialised by sqlite transactions across processes."""

import multiprocessing
import os
import signal
import sqlite3
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.testbed import ResultCache, RunMetrics, SqliteBackend
from repro.testbed.backends import parse_backend_spec

RUNS = [RunMetrics(mean_delay_ms=1.5, mean_waiting_ms=0.5,
                   average_power_w=2.0, receiver_psnr_db=None,
                   receiver_mos=None, eavesdropper_psnr_db=None,
                   eavesdropper_mos=None)]


def _key(byte: str) -> str:
    return byte * 64


class TestSpecParsing:
    def test_bare_path_is_directory(self, tmp_path):
        for spec in (str(tmp_path / "c"), tmp_path / "c"):
            backend = parse_backend_spec(spec)
            assert isinstance(backend, SqliteBackend)
            assert backend.path == tmp_path / "c" / "cache.sqlite"

    def test_sqlite_spec(self, tmp_path):
        for spec in (f"sqlite:{tmp_path / 'c.sqlite'}",
                     f"sqlite://{tmp_path / 'c.sqlite'}"):
            backend = parse_backend_spec(spec)
            assert isinstance(backend, SqliteBackend)
            assert backend.name == "sqlite"
            assert backend.path == tmp_path / "c.sqlite"
            backend.close()

    def test_unknown_scheme_rejected(self, tmp_path):
        for scheme in ("redis", "dir", "file"):
            with pytest.raises(ValueError, match="backend"):
                parse_backend_spec(f"{scheme}:{tmp_path}")


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
        # one file: no per-entry files, no index, no lock file
        assert {p.name for p in tmp_path.iterdir()} == {"c.sqlite"}

    def test_connection_handed_to_another_thread(self, tmp_path):
        """A server builds its store on one thread and serves it from its
        event loop thread; the connection must follow."""
        cache = ResultCache.from_spec(f"sqlite:{tmp_path / 'c.sqlite'}")
        cache.put_runs(_key("a"), RUNS)  # connection opened here
        results = []

        def serve():
            results.append(cache.get_runs(_key("a")))
            cache.close()

        thread = threading.Thread(target=serve)
        thread.start()
        thread.join(timeout=30.0)
        assert results == [RUNS]

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


N_CRASH_ENTRIES = 200


class _HangingStore(SqliteBackend):
    """Quarantines half the store inside ``verify``'s transaction, then
    announces it and hangs there until killed."""

    def __init__(self, path, ready) -> None:
        super().__init__(path)
        self.ready = ready
        self.moved = 0

    def _move_to_quarantine(self, conn, key):
        moved = super()._move_to_quarantine(conn, key)
        self.moved += 1
        if self.moved == N_CRASH_ENTRIES // 2:
            self.ready.set()
            time.sleep(3600.0)
        return moved


def _hang_mid_verify(path, ready):
    _HangingStore(path, ready).verify(lambda data: False)


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
    processes shared one cache directory; each maintenance call now runs
    in one sqlite write transaction, which serialises them without
    losing entries."""

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

    def test_killed_maintainer_rolls_back_and_releases_the_lock(
            self, tmp_path):
        """A maintainer SIGKILLed inside its transaction leaves nothing
        to clean up: its uncommitted quarantines roll back, the OS drops
        its write lock, and the next gc/verify runs at once."""
        keys = ["%03x" % i * 21 + "0" for i in range(N_CRASH_ENTRIES)]
        cache = ResultCache(tmp_path)
        for key in keys:
            cache.put_runs(key, RUNS)
        cache.close()

        context = multiprocessing.get_context("fork")
        ready = context.Event()
        maintainer = context.Process(
            target=_hang_mid_verify,
            args=(str(tmp_path / "cache.sqlite"), ready))
        maintainer.start()
        contender = SqliteBackend(tmp_path / "cache.sqlite",
                                  busy_timeout_s=0.1)
        try:
            assert ready.wait(timeout=30.0)
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                contender.gc()  # the write lock is really held
        finally:
            contender.close()
            os.kill(maintainer.pid, signal.SIGKILL)
            maintainer.join(timeout=10.0)
        assert maintainer.exitcode == -signal.SIGKILL

        survivor = ResultCache(tmp_path)
        started = time.monotonic()
        gc_report = survivor.gc()
        verify_report = survivor.verify()
        assert time.monotonic() - started < survivor.backend.busy_timeout_s
        assert gc_report["entries"] == N_CRASH_ENTRIES
        assert verify_report["entries"] == N_CRASH_ENTRIES
        assert verify_report["corrupt"] == 0
        assert all(survivor.get_runs(key) == RUNS for key in keys)
        survivor.close()
        assert {p.name for p in tmp_path.iterdir()} == {"cache.sqlite"}
