"""Networked-grid acceptance: workers draining one grid over ``tcp:``
must reproduce ``dispatch="local"`` byte for byte with zero duplicate
simulations — including under chaos (worker SIGKILLed mid-claim, server
killed and restarted mid-drain)."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core import standard_policies
from repro.testbed import (
    DEVICES,
    ExperimentConfig,
    ExperimentEngine,
    GridCell,
    RemoteWorkQueue,
    ResultCache,
    WorkQueue,
    run_autoscaler,
    run_worker,
)
from repro.testbed.server import ServerThread
from repro.video import CodecConfig, encode_sequence, generate_clip

POLICIES = ("none", "I", "all")
REPEATS = 2
MASTER_SEED = 7

_SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC_ROOT)] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                            else []))
    return env


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


def _worker_proc(spec, report_path):
    run_worker(spec, report_path=report_path)


def _doomed_worker_proc(spec):
    """A worker that SIGKILLs itself the moment it would simulate: it
    claims a cell, loads the scenario, records zero simulations, and
    dies holding the lease — the crash the chaos test recovers from."""
    from repro.testbed import worker as worker_mod

    def _die(task, original, bitstream, queue):
        os.kill(os.getpid(), signal.SIGKILL)

    worker_mod._execute_task = _die
    worker_mod.run_worker(spec)


def _assert_byte_identical(local_cache, spec, keys):
    remote_cache = ResultCache.from_spec(spec)
    try:
        for key in keys:
            local_bytes = local_cache.backend.read(key)
            remote_bytes = remote_cache.backend.read(key)
            assert local_bytes is not None and remote_bytes is not None
            assert local_bytes == remote_bytes
    finally:
        remote_cache.close()


class TestTcpDifferential:
    def test_two_tcp_workers_byte_identical_zero_duplicates(
            self, tiny_scenario, tmp_path):
        ref_summaries, keys, local_cache = _local_reference(
            tiny_scenario, tmp_path)
        # The served store: the queue's default cache directory, then a
        # named sqlite file.  Either is built on the test thread and then
        # served from the ServerThread's event loop thread.
        for name, cache_spec in (
                ("queue-cache", None),
                ("sqlite-file", f"sqlite:{tmp_path / 'served.sqlite'}")):
            self._drain_with_two_workers(
                tiny_scenario, tmp_path / name, cache_spec,
                ref_summaries, keys, local_cache)
        local_cache.close()

    @staticmethod
    def _drain_with_two_workers(tiny_scenario, workdir, cache_spec,
                                ref_summaries, keys, local_cache):
        clip, bitstream = tiny_scenario
        with ServerThread(workdir / "q", lease_expiry_s=60.0,
                          cache_spec=cache_spec) as served:
            spec = served.spec
            engine = ExperimentEngine(dispatch="queue", queue=spec,
                                      master_seed=MASTER_SEED,
                                      queue_timeout_s=120.0)
            assert isinstance(engine.queue, RemoteWorkQueue)
            engine.add_scenario("tiny", clip, bitstream)
            submitted = engine.submit_grid(_cells())
            assert sorted(submitted) == sorted(keys)

            context = multiprocessing.get_context("fork")
            reports = [workdir / f"worker{i}.json" for i in range(2)]
            procs = [context.Process(target=_worker_proc,
                                     args=(spec, str(path)))
                     for path in reports]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=120)
                assert proc.exitcode == 0

            totals = [json.loads(path.read_text()) for path in reports]
            assert sum(t["simulations"] for t in totals) == \
                len(keys) * REPEATS
            assert sum(t["claimed"] for t in totals) == len(keys)
            assert sum(t["failed"] for t in totals) == 0
            assert engine.queue.counts() == {"pending": 0, "leased": 0,
                                             "done": len(keys),
                                             "failed": 0}

            assembled = engine.run_grid(_cells())
            assert assembled == ref_summaries
            _assert_byte_identical(local_cache, spec, keys)

            # warm re-run over the wire: no resubmission, no simulation
            assert engine.submit_grid(_cells()) == []
            warm = run_worker(spec)
            assert warm.simulations == 0
            engine.close()

    def test_scenario_blob_round_trips_verified(self, tiny_scenario,
                                                tmp_path):
        clip, bitstream = tiny_scenario
        with ServerThread(tmp_path / "q") as served:
            remote = RemoteWorkQueue.from_spec(served.spec)
            from repro.testbed.engine import scenario_fingerprint
            fingerprint = scenario_fingerprint(clip, bitstream)
            assert not remote.has_scenario(fingerprint)
            remote.store_scenario(fingerprint, clip, bitstream)
            assert remote.has_scenario(fingerprint)
            got_clip, got_bitstream = remote.load_scenario(
                fingerprint, verify=scenario_fingerprint)
            assert scenario_fingerprint(got_clip, got_bitstream) == \
                fingerprint
            remote.close()


class TestChaos:
    def test_kill_and_partition_mid_drain(self, tiny_scenario, tmp_path):
        """The acceptance bar: a worker SIGKILLed holding a lease AND
        the server killed/restarted (partition) mid-drain, yet the
        assembled grid is byte-identical with zero duplicate sims."""
        clip, bitstream = tiny_scenario
        ref_summaries, keys, local_cache = _local_reference(
            tiny_scenario, tmp_path)

        root = tmp_path / "q"
        # Short lease expiry so the murdered worker's lease requeues
        # within the test's patience.
        queue = WorkQueue(root, lease_expiry_s=3.0)
        engine = ExperimentEngine(dispatch="queue", queue=queue,
                                  master_seed=MASTER_SEED,
                                  queue_timeout_s=120.0)
        engine.add_scenario("tiny", clip, bitstream)
        assert sorted(engine.submit_grid(_cells())) == sorted(keys)

        def _serve(port):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "cached", "serve",
                 "--root", str(root), "--port", str(port)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=_child_env())
            line = proc.stdout.readline()
            assert "serving" in line, line
            bound = int(line.strip().rpartition(":")[2])
            return proc, bound

        server, port = _serve(0)
        spec = f"tcp:127.0.0.1:{port}"
        context = multiprocessing.get_context("fork")
        survivors = []
        try:
            # Phase 1: a worker claims a cell and is SIGKILLed.
            doomed = context.Process(target=_doomed_worker_proc,
                                     args=(spec,))
            doomed.start()
            doomed.join(timeout=60)
            assert doomed.exitcode == -signal.SIGKILL
            counts = RemoteWorkQueue.from_spec(spec).counts()
            assert counts["leased"] == 1  # the stranded lease

            # Phase 2: survivors start draining.
            reports = [tmp_path / f"survivor{i}.json" for i in range(2)]
            survivors = [context.Process(target=_worker_proc,
                                         args=(spec, str(path)))
                         for path in reports]
            for proc in survivors:
                proc.start()
            time.sleep(0.5)  # let them get mid-drain

            # Phase 3: partition — the server dies and comes back on
            # the same port; clients must reconnect with backoff.
            server.kill()
            server.wait()
            time.sleep(0.5)
            server, _ = _serve(port)

            for proc in survivors:
                proc.join(timeout=120)
                assert proc.exitcode == 0
            survivors = []

            totals = [json.loads(path.read_text()) for path in reports]
            # Zero duplicates: the doomed worker simulated nothing, so
            # the survivors' total must be exactly the grid size.
            assert sum(t["simulations"] for t in totals) == \
                len(keys) * REPEATS
            assert sum(t["failed"] for t in totals) == 0
            assert queue.counts() == {"pending": 0, "leased": 0,
                                      "done": len(keys), "failed": 0}

            assembled = engine.run_grid(_cells())
            assert assembled == ref_summaries
            _assert_byte_identical(local_cache, spec, keys)
        finally:
            for proc in survivors:
                proc.terminate()
            server.kill()
            server.wait()
            engine.close()
            local_cache.close()


class TestAutoscaler:
    @pytest.mark.slow
    def test_autoscaler_drains_grid_over_tcp(self, tiny_scenario,
                                             tmp_path):
        clip, bitstream = tiny_scenario
        with ServerThread(tmp_path / "q") as served:
            spec = served.spec
            engine = ExperimentEngine(dispatch="queue", queue=spec,
                                      master_seed=MASTER_SEED,
                                      queue_timeout_s=120.0)
            engine.add_scenario("tiny", clip, bitstream)
            keys = engine.submit_grid(_cells())
            assert keys

            report = run_autoscaler(spec, max_workers=2,
                                    cells_per_worker=1, poll_s=0.2,
                                    max_rounds=600)
            assert report.spawned >= 1
            assert report.peak_workers <= 2
            assert report.final_counts == {"pending": 0, "leased": 0,
                                           "done": len(keys),
                                           "failed": 0}
            engine.close()

    def test_autoscaler_spawn_hook_and_sizing(self, tmp_path):
        """Unit-level: pool sizing from queue depth without real
        subprocesses (the hook records spawns and 'drains' by fiat)."""
        from repro.testbed.queue import QueueTask

        queue = WorkQueue(tmp_path / "q")
        for index in range(4):
            queue.submit(QueueTask(
                key=f"cell-{index}", scenario="t",
                scenario_fingerprint="f" * 64, scenario_meta={},
                config={}, repeats=1, master_seed=0, schema=0,
                code="c" * 64))

        class _FakeWorker:
            def __init__(self):
                # claim everything immediately: a perfect drain
                while True:
                    task = queue.claim()
                    if task is None:
                        break
                    queue.complete(task.key)

            def poll(self):
                return 0

            def wait(self, timeout=None):
                return 0

        spawned = []

        def _spawn(spec):
            worker = _FakeWorker()
            spawned.append(spec)
            return worker

        report = run_autoscaler(queue, max_workers=2, cells_per_worker=2,
                                poll_s=0.01, spawn_worker=_spawn,
                                max_rounds=50)
        # 4 pending / 2 per worker -> 2 spawned in round one
        assert report.spawned == 2
        assert report.peak_workers == 2
        assert spawned == [str(queue.path)] * 2
        assert report.retired == 2
        assert report.final_counts["done"] == 4
