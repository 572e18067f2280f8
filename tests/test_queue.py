"""Work queue: atomic claims, lease expiry, idempotent completion,
scenario blobs, and fault injection."""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.testbed.engine import scenario_fingerprint
from repro.testbed.queue import (QueueTask, WorkQueue, open_queue,
                                 pack_scenario, unpack_scenario)
from repro.video import CodecConfig, encode_sequence, generate_clip


def _task(key_char: str, **overrides) -> QueueTask:
    fields = dict(
        key=key_char * 64,
        scenario="s",
        scenario_fingerprint="f" * 64,
        scenario_meta={"motion": "slow"},
        config={"policy": {"mode": "none"}},
        repeats=2,
        master_seed=0,
        schema=2,
        code="c" * 64,
    )
    fields.update(overrides)
    return QueueTask(**fields)


class TestLifecycle:
    def test_submit_claim_complete(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        assert queue.submit(_task("a"))
        assert queue.counts() == {"pending": 1, "leased": 0,
                                  "done": 0, "failed": 0}
        task = queue.claim()
        assert task == _task("a")
        assert queue.counts()["leased"] == 1
        queue.complete(task.key)
        assert queue.counts() == {"pending": 0, "leased": 0,
                                  "done": 1, "failed": 0}
        assert queue.is_drained()

    def test_submit_idempotent_across_states(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        assert queue.submit(_task("a"))
        assert not queue.submit(_task("a"))  # pending
        queue.claim()
        assert not queue.submit(_task("a"))  # leased
        queue.complete(_task("a").key)
        assert not queue.submit(_task("a"))  # done

    def test_claim_empty_returns_none(self, tmp_path):
        assert WorkQueue(tmp_path / "q").claim() is None

    def test_complete_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(_task("a"))
        task = queue.claim()
        queue.complete(task.key)
        queue.complete(task.key)  # twin finishing after expiry: no error
        assert queue.counts()["done"] == 1

    def test_fail_records_reason_and_payload(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(_task("a"))
        task = queue.claim()
        queue.fail(task.key, "code fingerprint mismatch")
        assert queue.counts()["failed"] == 1
        assert "mismatch" in queue.failure_reason(task.key)
        # retry restores the original task payload
        assert queue.retry_failed() == [task.key]
        assert queue.claim() == task

    def test_config_persisted_and_conflicts_rejected(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_expiry_s=7.0,
                          cache_spec="sqlite:/somewhere.sqlite")
        reopened = WorkQueue(tmp_path / "q")
        assert reopened.lease_expiry_s == 7.0
        assert reopened.cache_spec == "sqlite:/somewhere.sqlite"
        with pytest.raises(ValueError, match="cache spec"):
            WorkQueue(tmp_path / "q", cache_spec="sqlite:/elsewhere.sqlite")
        with pytest.raises(ValueError, match="lease_expiry_s"):
            WorkQueue(tmp_path / "q", lease_expiry_s=9.0)

    def test_malformed_task_file_failed_not_crashed(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        (queue.path / "tasks" / f"{'a' * 64}.json").write_text("{broken")
        assert queue.claim() is None
        assert queue.counts()["failed"] == 1


def _age_lease(lease, seconds):
    """Age a lease's heartbeat: payload ``renewed_at`` and mtime both."""
    payload = json.loads(lease.read_text())
    if isinstance(payload, dict) and "renewed_at" in payload:
        payload["renewed_at"] -= seconds
        lease.write_text(json.dumps(payload))
    old = time.time() - seconds
    os.utime(lease, (old, old))


class TestLeaseExpiry:
    def test_abandoned_lease_requeued_after_expiry(self, tmp_path):
        """Fault injection: a worker claims a cell and dies.  After the
        lease expires the cell must be claimable again."""
        queue = WorkQueue(tmp_path / "q", lease_expiry_s=30.0)
        queue.submit(_task("a"))
        task = queue.claim()  # the "dead" worker's claim
        assert queue.claim() is None
        assert queue.requeue_expired() == []  # fresh lease: not expired
        # age the lease artificially past expiry
        lease = queue.path / "leases" / f"{task.key}.json"
        _age_lease(lease, 60.0)
        assert queue.requeue_expired() == [task.key]
        replacement = queue.claim()
        assert replacement == task

    def test_renew_defers_expiry(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_expiry_s=30.0)
        queue.submit(_task("a"))
        task = queue.claim()
        lease = queue.path / "leases" / f"{task.key}.json"
        _age_lease(lease, 60.0)
        queue.renew(task.key)  # live worker heartbeat
        assert queue.requeue_expired() == []

    def test_stale_mtime_does_not_expire_live_lease(self, tmp_path):
        """Regression: a shared filesystem that mangles mtime (coarse
        granularity, skewed clock) must not kill a live lease — the
        payload's ``renewed_at`` heartbeat is authoritative."""
        queue = WorkQueue(tmp_path / "q", lease_expiry_s=30.0)
        queue.submit(_task("a"))
        task = queue.claim()
        lease = queue.path / "leases" / f"{task.key}.json"
        old = time.time() - 3600.0
        os.utime(lease, (old, old))  # mtime lies; payload stays fresh
        assert queue.requeue_expired() == []
        queue.complete(task.key)

    def test_fresh_mtime_does_not_revive_dead_lease(self, tmp_path):
        """The other direction: a fresh mtime (e.g. a backup tool or a
        skewed writer touched the file) must not shield a lease whose
        payload heartbeat is long past expiry."""
        queue = WorkQueue(tmp_path / "q", lease_expiry_s=30.0)
        queue.submit(_task("a"))
        task = queue.claim()
        lease = queue.path / "leases" / f"{task.key}.json"
        payload = json.loads(lease.read_text())
        payload["renewed_at"] -= 3600.0
        lease.write_text(json.dumps(payload))
        os.utime(lease)  # mtime says "just touched"
        assert queue.requeue_expired() == [task.key]

    def test_bare_legacy_lease_falls_back_to_mtime(self, tmp_path):
        """A lease written by an older worker (bare task JSON, no
        heartbeat payload) is still expirable via mtime."""
        queue = WorkQueue(tmp_path / "q", lease_expiry_s=30.0)
        queue.submit(_task("a"))
        task = queue.claim()
        lease = queue.path / "leases" / f"{task.key}.json"
        lease.write_text(task.to_json())  # strip the heartbeat wrapper
        assert queue.requeue_expired() == []  # fresh mtime: keep it
        old = time.time() - 60.0
        os.utime(lease, (old, old))
        assert queue.requeue_expired() == [task.key]
        assert queue.claim() == task

    def test_requeued_wrapped_task_claimable(self, tmp_path):
        """requeue_expired moves the *wrapped* payload back to tasks/;
        a later claim must unwrap it transparently."""
        queue = WorkQueue(tmp_path / "q", lease_expiry_s=30.0)
        queue.submit(_task("a"))
        task = queue.claim()
        _age_lease(queue.path / "leases" / f"{task.key}.json", 60.0)
        assert queue.requeue_expired() == [task.key]
        pending = queue.path / "tasks" / f"{task.key}.json"
        assert "renewed_at" in pending.read_text()
        assert queue.claim() == task
        queue.fail(task.key, "boom")
        reasons = json.loads(
            (queue.path / "failed" / f"{task.key}.json").read_text())
        assert reasons["task"]["key"] == task.key  # payload survived

    def test_claim_resets_submit_mtime(self, tmp_path):
        """os.rename preserves mtime; an old pending task must not be
        born expired when finally claimed."""
        queue = WorkQueue(tmp_path / "q", lease_expiry_s=30.0)
        queue.submit(_task("a"))
        pending = queue.path / "tasks" / f"{_task('a').key}.json"
        old = time.time() - 3600.0
        os.utime(pending, (old, old))
        task = queue.claim()
        assert queue.requeue_expired() == []
        queue.complete(task.key)

    def test_claim_vs_requeue_race_regression(self, tmp_path,
                                              monkeypatch):
        """Regression for the claim-time false-expiry race: an old
        pending task is claimed while a concurrent requeue_expired()
        fires *inside* the claim's parse window.  Pre-fix, the rename
        preserved the hour-old submit mtime, so the requeuer saw an
        expired lease, stole the task back to pending, and the claimer's
        heartbeat rewrite resurrected the lease — the same cell then
        existed in both states and was simulated twice."""
        import repro.testbed.queue as queue_mod

        queue = WorkQueue(tmp_path / "q", lease_expiry_s=30.0)
        queue.submit(_task("a"))
        pending = queue.path / "tasks" / f"{_task('a').key}.json"
        old = time.time() - 3600.0
        os.utime(pending, (old, old))  # submitted an hour ago

        stealer = WorkQueue(tmp_path / "q")
        real_parse = queue_mod._parse_lease_payload
        stolen = []
        fired = []

        def racing_parse(text):
            if not fired:  # one shot: requeue_expired parses leases too
                fired.append(True)
                stolen.extend(stealer.requeue_expired())
            return real_parse(text)

        monkeypatch.setattr(queue_mod, "_parse_lease_payload",
                            racing_parse)
        task = queue.claim()
        assert task == _task("a")
        assert stolen == []  # the mid-claim requeue must see a live lease
        assert queue.claim() is None  # and no duplicate copy to claim
        assert queue.counts() == {"pending": 0, "leased": 1,
                                  "done": 0, "failed": 0}


def _claim_all(queue_dir: str):
    queue = WorkQueue(queue_dir)
    claimed = []
    while True:
        task = queue.claim()
        if task is None:
            return claimed
        claimed.append(task.key)


@pytest.mark.slow
class TestDoubleClaim:
    def test_hammered_claims_never_duplicate(self, tmp_path):
        """Acceptance: N processes hammering claim() must partition the
        task set — no key claimed twice, none lost."""
        queue = WorkQueue(tmp_path / "q")
        keys = {("%02x" % i) * 32 for i in range(24)}
        for key in keys:
            queue.submit(_task("a", key=key))
        with ProcessPoolExecutor(max_workers=6) as pool:
            partitions = list(pool.map(
                _claim_all, [str(queue.path)] * 6))
        flat = [key for part in partitions for key in part]
        assert len(flat) == len(keys), "a task was lost or double-claimed"
        assert set(flat) == keys
        assert queue.counts()["leased"] == len(keys)


class TestScenarioBlobs:
    def test_round_trip_preserves_fingerprint(self, tmp_path):
        clip = generate_clip("slow", 12, seed=1)
        bitstream = encode_sequence(clip,
                                    CodecConfig(gop_size=6, quantizer=8))
        fingerprint = scenario_fingerprint(clip, bitstream)
        queue = WorkQueue(tmp_path / "q")
        assert not queue.has_scenario(fingerprint)
        queue.store_scenario(fingerprint, clip, bitstream)
        assert queue.has_scenario(fingerprint)
        loaded_clip, loaded_bitstream = queue.load_scenario(
            fingerprint, verify=scenario_fingerprint)
        assert len(loaded_clip) == len(clip)
        assert loaded_bitstream.quantizer == bitstream.quantizer
        assert [f.frame_type for f in loaded_bitstream.frames] == \
            [f.frame_type for f in bitstream.frames]

    def test_corrupted_blob_rejected(self, tmp_path):
        clip = generate_clip("slow", 6, seed=1)
        bitstream = encode_sequence(clip,
                                    CodecConfig(gop_size=6, quantizer=8))
        fingerprint = scenario_fingerprint(clip, bitstream)
        queue = WorkQueue(tmp_path / "q")
        # store under a *wrong* fingerprint: verification must catch it
        queue.store_scenario("0" * 64, clip, bitstream)
        with pytest.raises(ValueError, match="fingerprint"):
            queue.load_scenario("0" * 64, verify=scenario_fingerprint)
        # and the correct fingerprint passes
        queue.store_scenario(fingerprint, clip, bitstream)
        queue.load_scenario(fingerprint, verify=scenario_fingerprint)


class TestLeaseStats:
    def test_lease_stats_reports_heartbeat_ages(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_expiry_s=30.0)
        queue.submit(_task("a"))
        queue.submit(_task("b"))
        first = queue.claim()
        second = queue.claim()
        _age_lease(queue.path / "leases" / f"{first.key}.json", 10.0)
        stats = queue.lease_stats()
        assert set(stats) == {first.key, second.key}
        assert stats[first.key] >= 9.0
        assert 0.0 <= stats[second.key] < 5.0
        queue.complete(first.key)
        queue.complete(second.key)
        assert queue.lease_stats() == {}


class TestOpenQueue:
    def test_directory_opens_local_queue(self, tmp_path):
        queue = open_queue(tmp_path / "q")
        assert isinstance(queue, WorkQueue)

    def test_existing_queue_passes_through(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        assert open_queue(queue) is queue

    def test_malformed_tcp_spec_rejected(self):
        with pytest.raises(ValueError, match="tcp"):
            open_queue("tcp:no-port-here")


class TestScenarioPacking:
    def test_module_level_pack_unpack_round_trip(self):
        clip = generate_clip("slow", 6, seed=1)
        bitstream = encode_sequence(clip,
                                    CodecConfig(gop_size=6, quantizer=8))
        fingerprint = scenario_fingerprint(clip, bitstream)
        blob = pack_scenario(clip, bitstream)
        loaded_clip, loaded_bitstream = unpack_scenario(
            blob, fingerprint=fingerprint, verify=scenario_fingerprint)
        assert scenario_fingerprint(loaded_clip, loaded_bitstream) == \
            fingerprint

    def test_garbage_blob_rejected(self):
        with pytest.raises(ValueError, match="archive"):
            unpack_scenario(b"not an npz archive at all")


class TestTaskSerialization:
    def test_json_round_trip(self):
        task = _task("a")
        assert QueueTask.from_json(task.to_json()) == task

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            QueueTask.from_json("{}")
        with pytest.raises(ValueError, match="malformed"):
            QueueTask.from_json(json.dumps({"key": "x", "bogus": 1}))
