"""Result cache over the sqlite store: layout, corruption handling,
eviction, maintenance, and replay."""

import hashlib
import json
import sqlite3

import pytest

from repro.testbed.cache import ResultCache, RunMetrics

# Local store kinds the cache tests run against.
STORE_KINDS = ["sqlite"]


def make_key(label) -> str:
    return hashlib.sha256(str(label).encode()).hexdigest()


def make_runs(value: float = 1.0):
    return [RunMetrics(mean_delay_ms=value, mean_waiting_ms=2.0,
                       average_power_w=3.0, receiver_psnr_db=38.5)]


def quarantined(directory):
    """Keys in the store's quarantine table, read straight from disk."""
    with sqlite3.connect(directory / "cache.sqlite") as conn:
        return sorted(row[0] for row in
                      conn.execute("SELECT key FROM quarantine"))


@pytest.fixture(params=STORE_KINDS)
def store_kind(request):
    return request.param


@pytest.fixture()
def cache(tmp_path, store_kind):
    cache = ResultCache(tmp_path)
    assert cache.stats()["backend"] == store_kind
    yield cache
    cache.close()


class TestLayout:
    def test_entry_lands_in_the_store_file(self, cache, tmp_path):
        key = make_key("cell")
        cache.put_runs(key, make_runs())
        cache.close()
        assert {path.name for path in tmp_path.iterdir()} == \
            {"cache.sqlite"}
        assert cache.get_runs(key) == make_runs()

    def test_len_and_stats_come_from_the_index(self, cache):
        for i in range(5):
            cache.put_runs(make_key(i), make_runs(float(i)))
        assert len(cache) == 5
        stats = cache.stats()
        assert stats["entries"] == 5
        assert stats["total_bytes"] == cache.total_bytes() > 0

    def test_round_trip_preserves_floats(self, cache):
        runs = [RunMetrics(mean_delay_ms=0.1 + 0.2,
                           mean_waiting_ms=1e-17,
                           average_power_w=3.14159265358979,
                           eavesdropper_psnr_db=None)]
        cache.put_runs("k" * 64, runs)
        assert cache.get_runs("k" * 64) == runs

    def test_missing_key_is_a_miss(self, cache):
        assert cache.get_runs("absent") is None
        assert cache.misses == 1
        assert cache.hits == 0


BAD_PAYLOADS = {
    "not-json": "{definitely not json",
    "not-a-dict": json.dumps([1, 2, 3]),
    "missing-runs": json.dumps({"meta": {}}),
    "runs-not-list": json.dumps({"runs": {"a": 1}}),
    "empty-runs": json.dumps({"runs": []}),
    "run-not-dict": json.dumps({"runs": [7]}),
    "future-schema-field": json.dumps({"runs": [{
        "mean_delay_ms": 1.0, "mean_waiting_ms": 2.0,
        "average_power_w": 3.0, "quantum_entanglement": 9.0}]}),
    "missing-required-field": json.dumps({"runs": [{
        "mean_delay_ms": 1.0, "mean_waiting_ms": 2.0}]}),
    "wrong-value-type": json.dumps({"runs": [{
        "mean_delay_ms": "fast", "mean_waiting_ms": 2.0,
        "average_power_w": 3.0}]}),
}


class TestCorruptEntries:
    @pytest.mark.parametrize("payload", sorted(BAD_PAYLOADS),
                             ids=sorted(BAD_PAYLOADS))
    def test_malformed_entry_is_a_quarantined_miss(self, cache, tmp_path,
                                                   payload):
        key = make_key(payload)
        cache.put_runs(key, make_runs())
        cache.backend.write(key, BAD_PAYLOADS[payload].encode())

        assert cache.get_runs(key) is None
        assert cache.corrupt == 1
        assert cache.misses == 1
        assert cache.hits == 0
        # entry is gone from the store, kept for post-mortem
        assert cache.backend.read(key) is None
        assert quarantined(tmp_path) == [key]
        assert len(cache) == 0
        # a second read is a plain miss, not another corruption
        assert cache.get_runs(key) is None
        assert cache.corrupt == 1
        assert cache.misses == 2

    def test_get_still_returns_schema_invalid_json(self, cache):
        """``get`` is the raw accessor: decodable JSON comes back as-is,
        only ``get_runs`` applies the schema."""
        key = make_key("raw")
        cache.put_runs(key, make_runs())
        cache.backend.write(key, BAD_PAYLOADS["missing-runs"].encode())
        assert cache.get(key) == {"meta": {}}
        assert cache.corrupt == 0


class TestEviction:
    def test_max_entries_evicts_least_recently_used(self, tmp_path,
                                                    store_kind):
        with ResultCache(tmp_path, max_entries=2) as cache:
            k1, k2, k3 = (make_key(i) for i in range(3))
            cache.put_runs(k1, make_runs(1.0))
            cache.put_runs(k2, make_runs(2.0))
            assert cache.get_runs(k1) is not None  # k1 now more recent
            cache.put_runs(k3, make_runs(3.0))
            assert len(cache) == 2
            assert cache.evictions == 1
            assert cache.get_runs(k2) is None  # the LRU entry went
            assert cache.get_runs(k1) is not None
            assert cache.get_runs(k3) is not None
            assert cache.backend.read(k2) is None

    def test_max_bytes_respected(self, tmp_path, store_kind):
        probe = ResultCache(tmp_path / "probe")
        probe.put_runs(make_key("probe"), make_runs())
        entry_size = probe.total_bytes()
        probe.close()

        with ResultCache(tmp_path / "real",
                         max_bytes=int(entry_size * 2.5)) as cache:
            for i in range(4):
                cache.put_runs(make_key(i), make_runs())
            assert cache.evictions == 2
            assert len(cache) == 2
            assert cache.total_bytes() <= cache.max_bytes

    def test_newest_entry_never_evicted_by_its_own_put(self, tmp_path,
                                                       store_kind):
        with ResultCache(tmp_path, max_entries=1) as cache:
            for i in range(3):
                cache.put_runs(make_key(i), make_runs(float(i)))
                assert cache.get_runs(make_key(i)) is not None
            assert len(cache) == 1

    def test_gc_enforces_caps_on_existing_directory(self, tmp_path,
                                                    store_kind):
        with ResultCache(tmp_path) as cache:
            for i in range(6):
                cache.put_runs(make_key(i), make_runs())
        with ResultCache(tmp_path, max_entries=2) as capped:
            report = capped.gc()
            assert report["evicted"] == 4
            assert report["entries"] == 2
            assert len(capped) == 2

    def test_bad_caps_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=0)
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path, max_entries=-1)


class TestMaintenance:
    def test_entry_deleted_behind_the_cache_is_a_miss(self, cache):
        key = make_key("gone")
        cache.put_runs(key, make_runs())
        assert cache.backend.delete(key)  # another process deleted it
        assert cache.get_runs(key) is None
        assert cache.misses == 1
        assert len(cache) == 0

    def test_verify_quarantines_and_keeps_the_rest(self, cache, tmp_path):
        good = make_key("good")
        bad = make_key("bad")
        foreign = make_key("foreign")
        cache.put_runs(good, make_runs())
        cache.put_runs(bad, make_runs())
        cache.backend.write(bad, b"{broken")
        # an entry written by another process through the raw store
        cache.backend.write(foreign, json.dumps(
            {"meta": {}, "runs": [{"mean_delay_ms": 1.0,
                                   "mean_waiting_ms": 2.0,
                                   "average_power_w": 3.0}]}).encode())

        report = cache.verify()
        assert report["corrupt"] == 1
        assert report["entries"] == 2
        assert report["total_bytes"] == cache.total_bytes()
        assert cache.corrupt == 1
        assert len(cache) == 2
        assert quarantined(tmp_path) == [bad]
        assert cache.get_runs(good) is not None
        assert cache.get_runs(foreign) is not None
        assert cache.verify()["corrupt"] == 0

    def test_corrupt_store_file_raises_and_is_kept(self, tmp_path):
        """The store is primary data, not a rebuildable index: a file
        that is not a database is an error, never silently replaced."""
        (tmp_path / "cache.sqlite").write_bytes(b"this is not a database")
        with pytest.raises(sqlite3.DatabaseError):
            ResultCache(tmp_path).put_runs(make_key("x"), make_runs())
        assert (tmp_path / "cache.sqlite").read_bytes() == \
            b"this is not a database"


class TestClear:
    def test_clear_counts_entries_and_wipes_quarantine(self, cache,
                                                       tmp_path):
        for i in range(3):
            cache.put_runs(make_key(i), make_runs())
        bad = make_key(0)
        cache.backend.write(bad, b"{broken")
        cache.get_runs(bad)  # quarantines it
        assert quarantined(tmp_path) == [bad]
        assert cache.clear() == 2
        assert len(cache) == 0
        assert quarantined(tmp_path) == []
        assert cache.get_runs(make_key(1)) is None

    def test_clear_on_missing_directory(self, tmp_path, store_kind):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.clear() == 0
        assert len(cache) == 0
        assert cache.stats()["entries"] == 0
        # no read-only or maintenance call creates the store
        assert cache.get_runs(make_key("x")) is None
        assert cache.gc()["entries"] == 0
        assert cache.verify()["entries"] == 0
        cache.close()
        assert not (tmp_path / "never-created").exists()


class TestEngineReplay:
    """An engine grid replays byte-identically from a reopened store."""

    def test_reopened_store_replays_summaries(self, tmp_path, store_kind,
                                              slow_clip, slow_bitstream):
        from repro.core import standard_policies
        from repro.testbed import (DEVICES, ExperimentConfig,
                                   ExperimentEngine, GridCell)

        def config(policy):
            return ExperimentConfig(
                policy=standard_policies("AES256")[policy],
                device=DEVICES["samsung-s2"],
                sensitivity_fraction=0.55,
                decode_video=False,
            )

        cells = [GridCell("slow", config(p)) for p in ("none", "I", "all")]
        with ExperimentEngine(
                workers=1, master_seed=7, repeats=2,
                cache=ResultCache(tmp_path)) as fresh:
            fresh.add_scenario("slow", slow_clip, slow_bitstream)
            baseline = fresh.run_grid(cells)
            assert fresh.simulations_run == 2 * len(cells)
            fresh.cache.close()

        replay_cache = ResultCache(tmp_path)
        with ExperimentEngine(workers=1, master_seed=7, repeats=2,
                              cache=replay_cache) as replay:
            replay.add_scenario("slow", slow_clip, slow_bitstream)
            replayed = replay.run_grid(cells)
            assert replay.simulations_run == 0
        assert replay_cache.hits == len(cells)
        assert len(replay_cache) == len(cells)
        assert replayed == baseline
        assert all(summary.from_cache for summary in replayed)


class TestCodeFingerprint:
    """Editing any module a cached cell's result depends on must change
    the fingerprint, or the cache silently replays stale cells."""

    @pytest.mark.parametrize("module", [
        "trace", "field", "selection", "scenario", "process", "sampling",
        "vector",
    ])
    def test_mobility_edit_invalidates(self, monkeypatch, module):
        import importlib
        from pathlib import Path

        from repro.testbed.cache import code_fingerprint

        edited = Path(importlib.import_module(
            f"repro.mobility.{module}").__file__).resolve()
        read_bytes = Path.read_bytes

        def read_with_edit(path):
            data = read_bytes(path)
            return (data + b"\n# edited\n" if path.resolve() == edited
                    else data)

        code_fingerprint.cache_clear()
        before = code_fingerprint()
        monkeypatch.setattr(Path, "read_bytes", read_with_edit)
        code_fingerprint.cache_clear()
        try:
            assert code_fingerprint() != before
        finally:
            monkeypatch.undo()
            code_fingerprint.cache_clear()
