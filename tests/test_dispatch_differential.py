"""Differential acceptance: dispatch="queue" with independent worker
processes must reproduce dispatch="local" byte for byte, with zero
duplicate simulations, and survive worker death mid-lease."""

import json
import multiprocessing
import time

import pytest

from repro.core import standard_policies
from repro.testbed import (
    DEVICES,
    ExperimentConfig,
    ExperimentEngine,
    GridCell,
    ResultCache,
    WorkQueue,
    run_worker,
)
from repro.testbed.queue import _lease_payload
from repro.video import CodecConfig, encode_sequence, generate_clip

POLICIES = ("none", "I", "all")
REPEATS = 2
MASTER_SEED = 7


@pytest.fixture(scope="module")
def tiny_scenario():
    clip = generate_clip("slow", 12, seed=1)
    bitstream = encode_sequence(clip, CodecConfig(gop_size=6, quantizer=8))
    return clip, bitstream


def _cells():
    table = standard_policies("AES256")
    return [
        GridCell("tiny", ExperimentConfig(
            policy=table[name], device=DEVICES["samsung-s2"],
            sensitivity_fraction=0.55, decode_video=False), REPEATS)
        for name in POLICIES
    ]


def _local_reference(tiny_scenario, tmp_path):
    clip, bitstream = tiny_scenario
    cache = ResultCache(tmp_path / "local-cache")
    engine = ExperimentEngine(cache=cache, workers=1,
                              master_seed=MASTER_SEED)
    engine.add_scenario("tiny", clip, bitstream)
    summaries = engine.run_grid(_cells())
    keys = [engine.cell_key(cell) for cell in _cells()]
    engine.close()
    return summaries, keys, cache


def _worker_proc(queue_dir, report_path):
    run_worker(queue_dir, report_path=report_path)


class TestDifferential:
    def test_two_workers_byte_identical_zero_duplicates(
            self, tiny_scenario, tmp_path):
        clip, bitstream = tiny_scenario
        ref_summaries, keys, local_cache = _local_reference(
            tiny_scenario, tmp_path)

        queue = WorkQueue(tmp_path / "q", lease_expiry_s=60.0)
        engine = ExperimentEngine(dispatch="queue", queue=queue,
                                  master_seed=MASTER_SEED,
                                  queue_timeout_s=120.0)
        engine.add_scenario("tiny", clip, bitstream)
        submitted = engine.submit_grid(_cells())
        assert sorted(submitted) == sorted(keys)

        context = multiprocessing.get_context("fork")
        reports = [tmp_path / f"worker{i}.json" for i in range(2)]
        procs = [context.Process(target=_worker_proc,
                                 args=(str(queue.path), str(path)))
                 for path in reports]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        # zero duplicate simulations across the worker fleet
        totals = [json.loads(path.read_text()) for path in reports]
        assert sum(t["simulations"] for t in totals) == \
            len(keys) * REPEATS
        assert sum(t["claimed"] for t in totals) == len(keys)
        assert sum(t["failed"] for t in totals) == 0
        assert queue.counts() == {"pending": 0, "leased": 0,
                                  "done": len(keys), "failed": 0}

        # assembly returns summaries equal to the local path
        assembled = engine.run_grid(_cells())
        assert assembled == ref_summaries

        # ...and the underlying cache entries are byte-identical
        for key in keys:
            local_bytes = local_cache.backend.read(key)
            queue_bytes = engine.cache.backend.read(key)
            assert local_bytes is not None and queue_bytes is not None
            assert local_bytes == queue_bytes

        # warm re-run: resubmission is a no-op and a fresh worker
        # simulates nothing
        assert engine.submit_grid(_cells()) == []
        warm = run_worker(queue)
        assert warm.simulations == 0
        engine.close()
        local_cache.close()

    def test_dispatch_queue_waits_and_assembles(self, tiny_scenario,
                                                tmp_path):
        """run_grid(dispatch='queue') submits, waits for a concurrently
        running worker, and returns the local-path summaries."""
        clip, bitstream = tiny_scenario
        ref_summaries, _, local_cache = _local_reference(
            tiny_scenario, tmp_path)
        local_cache.close()

        queue = WorkQueue(tmp_path / "q", lease_expiry_s=60.0)
        engine = ExperimentEngine(dispatch="queue", queue=queue,
                                  master_seed=MASTER_SEED,
                                  queue_timeout_s=120.0)
        engine.add_scenario("tiny", clip, bitstream)
        # submit before the worker exists, then let run_grid's wait loop
        # (whose internal resubmission is a no-op) collect the results
        engine.submit_grid(_cells())
        context = multiprocessing.get_context("fork")
        proc = context.Process(target=_worker_proc,
                               args=(str(queue.path),
                                     str(tmp_path / "w.json")))
        proc.start()
        try:
            assembled = engine.run_grid(_cells())
        finally:
            proc.join(timeout=120)
        assert proc.exitcode == 0
        assert assembled == ref_summaries
        assert engine.simulations_run == 0  # every cell ran remotely
        engine.close()


class TestFaultInjection:
    def test_worker_death_mid_lease_grid_still_completes(
            self, tiny_scenario, tmp_path):
        clip, bitstream = tiny_scenario
        queue = WorkQueue(tmp_path / "q", lease_expiry_s=30.0)
        engine = ExperimentEngine(dispatch="queue", queue=queue,
                                  master_seed=MASTER_SEED,
                                  queue_timeout_s=120.0)
        engine.add_scenario("tiny", clip, bitstream)
        keys = engine.submit_grid(_cells())

        # a worker claims one cell and dies without completing it
        dead_task = queue.claim()
        assert dead_task is not None
        lease = queue.path / "leases" / f"{dead_task.key}.json"
        # its lease has since expired: the payload's renewed_at stamp is
        # the authoritative heartbeat, so backdate that (not just mtime)
        lease.write_bytes(_lease_payload(dead_task, time.time() - 120.0))

        report = run_worker(queue)  # the surviving worker
        assert report.failed == 0
        assert report.simulations == len(keys) * REPEATS
        assert queue.counts() == {"pending": 0, "leased": 0,
                                  "done": len(keys), "failed": 0}
        assert engine.cache.get_runs(dead_task.key) is not None
        engine.close()

    def test_code_mismatch_refused_not_poisoned(self, tiny_scenario,
                                                tmp_path):
        clip, bitstream = tiny_scenario
        queue = WorkQueue(tmp_path / "q")
        engine = ExperimentEngine(dispatch="queue", queue=queue,
                                  master_seed=MASTER_SEED)
        engine.add_scenario("tiny", clip, bitstream)
        keys = engine.submit_grid(_cells()[:1])
        task_path = queue.path / "tasks" / f"{keys[0]}.json"
        payload = json.loads(task_path.read_text())
        payload["code"] = "deadbeef" * 8  # a different simulation build
        task_path.write_text(json.dumps(payload))

        report = run_worker(queue)
        assert report.failed == 1
        assert report.simulations == 0
        assert "fingerprint" in queue.failure_reason(keys[0])
        assert engine.cache.get_runs(keys[0]) is None
        engine.close()

    def test_queue_dispatch_surfaces_failures(self, tiny_scenario,
                                              tmp_path):
        """The waiting engine must raise on failed cells instead of
        spinning until its timeout."""
        clip, bitstream = tiny_scenario
        queue = WorkQueue(tmp_path / "q")
        engine = ExperimentEngine(dispatch="queue", queue=queue,
                                  master_seed=MASTER_SEED,
                                  queue_timeout_s=30.0)
        engine.add_scenario("tiny", clip, bitstream)
        keys = engine.submit_grid(_cells()[:1])
        queue.fail(keys[0], "synthetic failure")
        with pytest.raises(RuntimeError, match="synthetic failure"):
            engine.run_grid(_cells()[:1])
        engine.close()


class TestEngineValidation:
    def test_queue_dispatch_requires_queue(self):
        with pytest.raises(ValueError, match="requires a work queue"):
            ExperimentEngine(dispatch="queue")

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="dispatch"):
            ExperimentEngine(dispatch="cluster")

    def test_queue_path_accepted_and_cache_derived(self, tmp_path):
        engine = ExperimentEngine(dispatch="queue",
                                  queue=tmp_path / "q")
        assert isinstance(engine.queue, WorkQueue)
        assert engine.cache is not None
        assert str(engine.cache.backend.path).startswith(str(tmp_path / "q"))
        engine.close()
