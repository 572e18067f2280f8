"""Workload ``grid_tcp``: an experiment grid over ``repro cached serve``.

The queue-and-cache server runs as its own process.  Set-up starts it,
synthesises and encodes a 60-frame clip and stores the scenario blob.
Each round then:

- *cold*: a grid under a new master seed (so every cell key is new) is
  submitted, drained by one in-process ``run_worker(tcp:...)`` and
  assembled by the submitting engine;
- *warm*: a fresh engine replays the same grid from the cache.

Cells: the clip x {none, I, I+50%P, all} x both devices x {single flow,
4 flows contending on the event kernel, ``vehicular:hysteresis``
mobility}, 3 repeats each, decode off.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Dict, List, Tuple

from .common import (SETUP_REPEATS, Options, Outcome, ServerProcess, Speed,
                     as_cell_json, gated, percentile, samples_for,
                     timed_setups)
from .layers import LAYERS, finish_traced
from .trace import Tracer

POLICIES = ("none", "I", "I+50%P", "all")
DEVICES = ("samsung-s2", "htc-amaze")
KINDS = ("static", "multiflow", "mobility")
REPEATS = 3
TAIL = 90.0
SCENARIO = "clip"


def _clip(seed: int, small: bool):
    from repro.video import (CodecConfig, SceneConfig, encode_sequence,
                             generate_clip)
    if small:
        clip = generate_clip("slow", 12, seed=seed,
                             scene=SceneConfig(width=176, height=144))
        return clip, encode_sequence(clip, CodecConfig(gop_size=6))
    clip = generate_clip("slow", 60, seed=seed)
    return clip, encode_sequence(clip, CodecConfig(gop_size=30))


def _setup(options: Options, index: int):
    """Start the server, encode the clip and store its scenario blob."""
    from repro.testbed import RemoteWorkQueue, scenario_fingerprint
    server = ServerProcess(
        ["cached", "serve", "--root", str(options.workdir / f"grid-{index}")],
        src=options.src, log=options.workdir / f"cached-{index}.log")
    try:
        queue = RemoteWorkQueue(server.host, server.port)
        clip, bitstream = _clip(options.seed, options.small)
        queue.store_scenario(scenario_fingerprint(clip, bitstream), clip,
                             bitstream)
    except BaseException:
        server.stop()
        raise
    return server, queue, clip, bitstream


def _teardown(state) -> None:
    server, queue = state[0], state[1]
    queue.close()
    server.stop()


def _cells(small: bool):
    from repro.testbed import DEVICES as DEVICE_PROFILES
    from repro.testbed import ExperimentConfig, GridCell, policy_from_name
    from repro.video import MotionClass, sensitivity_for
    extra = {"static": {},
             "multiflow": {"flows": 4, "engine": "events"},
             "mobility": {"mobility": "vehicular:hysteresis",
                          "engine": "events"}}
    policies = ("none", "all") if small else POLICIES
    devices = DEVICES[:1] if small else DEVICES
    return [GridCell(SCENARIO, ExperimentConfig(
        policy=policy_from_name(policy, "AES256"),
        device=DEVICE_PROFILES[device],
        sensitivity_fraction=sensitivity_for(MotionClass.LOW),
        decode_video=False, **extra[kind]))
        for kind in KINDS for policy in policies for device in devices]


class _TimedQueue:
    """The worker's view of the queue, stamping claim-to-complete time
    per cell (the drain latency of that cell)."""

    def __init__(self, queue) -> None:
        self._queue = queue
        self._claimed: Dict[str, float] = {}
        self.latencies: List[float] = []

    def __getattr__(self, name):
        return getattr(self._queue, name)

    def claim(self):
        task = self._queue.claim()
        if task is not None:
            self._claimed[task.key] = time.perf_counter()
        return task

    def complete(self, key: str) -> None:
        self._queue.complete(key)
        started = self._claimed.pop(key, None)
        if started is not None:
            self.latencies.append(time.perf_counter() - started)


def _engine(queue, clip, bitstream, master_seed: int):
    from repro.testbed import ExperimentEngine
    engine = ExperimentEngine(dispatch="queue", queue=queue, workers=1,
                              repeats=REPEATS, master_seed=master_seed)
    engine.add_scenario(SCENARIO, clip, bitstream)
    return engine


def _round(queue, clip, bitstream, cells, master_seed: int,
           outcome: Outcome, drain_latencies: List[float], speed: Speed):
    """One cold and one warm pass; returns their seconds and the cold
    summaries (``None`` when the round failed).  The machine's speed is
    sampled after each pass."""
    from repro.testbed import worker
    cold_engine = _engine(queue, clip, bitstream, master_seed)
    timed = _TimedQueue(queue)
    failed_before = len(queue.failed_keys())
    started = time.perf_counter()
    try:
        cold_engine.submit_grid(cells)
        report = worker.run_worker(timed)
        cold = cold_engine.run_grid(cells)
    except Exception as exc:  # the round's cells count as failed
        outcome.failed += 2 * len(cells)
        outcome.errors.append(f"cold round {master_seed} raised {exc!r}")
        return None
    cold_s = time.perf_counter() - started
    speed.sample()
    drain_latencies += timed.latencies
    newly_failed = len(queue.failed_keys()) - failed_before
    outcome.failed += newly_failed
    outcome.check(newly_failed == 0 and report.failed == 0,
                  f"round {master_seed}: {newly_failed} cells in failed/")
    outcome.check(report.simulations == len(cells) * REPEATS,
                  f"round {master_seed}: worker ran {report.simulations}"
                  f" simulations for {len(cells)} cells x {REPEATS}")

    warm_engine = _engine(queue, clip, bitstream, master_seed)
    started = time.perf_counter()
    try:
        warm = warm_engine.run_grid(cells)
    except Exception as exc:
        outcome.failed += len(cells)
        outcome.errors.append(f"warm round {master_seed} raised {exc!r}")
        return None
    warm_s = time.perf_counter() - started
    speed.sample()
    outcome.check(warm_engine.simulations_run == 0,
                  f"warm round {master_seed} ran simulations")
    outcome.check(_as_json(warm) == _as_json(cold),
                  f"round {master_seed}: warm assembly differs from cold")
    return cold_s, warm_s, cold


def _as_json(summaries) -> str:
    return json.dumps([as_cell_json(s) for s in summaries], sort_keys=True)


def _check_local(clip, bitstream, cells, master_seed: int, cold,
                 outcome: Outcome) -> None:
    """One cell of each kind equals a local ``dispatch="local"`` run."""
    from repro.testbed import ExperimentEngine
    picks = [cells.index(next(c for c in cells if _kind(c) == kind))
             for kind in KINDS]
    engine = ExperimentEngine(workers=1, repeats=REPEATS,
                              master_seed=master_seed)
    engine.add_scenario(SCENARIO, clip, bitstream)
    local = engine.run_grid([cells[i] for i in picks])
    outcome.check(_as_json(local) == _as_json([cold[i] for i in picks]),
                  "grid cells differ from a local run")


def _kind(cell) -> str:
    if cell.config.mobility is not None:
        return "mobility"
    return "multiflow" if cell.config.flows > 1 else "static"


def _rounds(state, cells, outcome: Outcome, drain_latencies: List[float],
            speed: Speed, first_seed: int, *, seconds: float = 0.0,
            count: int = 0, minimum_drained: int = 0):
    """Whole rounds, for ``seconds``, ``count`` successful rounds and
    ``minimum_drained`` drain latencies; returns per-round (cold s,
    warm s) and the first round's seed and cold summaries."""
    _server, queue, clip, bitstream = state
    timings: List[Tuple[float, float]] = []
    first = None
    seed = first_seed
    spent = 0.0
    while not timings or spent < seconds or len(timings) < count \
            or len(drain_latencies) < minimum_drained:
        result = _round(queue, clip, bitstream, cells, seed, outcome,
                        drain_latencies, speed)
        seed += 1
        outcome.attempted += 2 * len(cells)
        if result is None:
            if len(outcome.errors) > 10:
                break
            continue
        cold_s, warm_s, cold = result
        timings.append((cold_s, warm_s))
        spent += cold_s + warm_s
        if first is None:
            first = (seed - 1, cold)
    return timings, first


def run(options: Options) -> Tuple[Outcome, Dict[str, Tuple[float, str]]]:
    outcome = Outcome()
    speed = Speed()
    cells = _cells(options.small)
    counter = itertools.count()
    if options.trace:
        tracer = Tracer()
        tracer.install(LAYERS)
        tracer.phase = "setup"
        try:
            state = _setup(options, 0)
        finally:
            tracer.uninstall()
        outcome.setups = 1
    else:
        setup_s, state = timed_setups(
            lambda: _setup(options, next(counter)), _teardown,
            SETUP_REPEATS, speed)
    drain: List[float] = []
    try:
        budget = options.seconds / 2 if options.trace else options.seconds
        timings, first = _rounds(
            state, cells, outcome, drain, speed, options.seed * 1_000,
            seconds=budget,
            minimum_drained=0 if options.trace else samples_for(TAIL))
        outcome.ops = len(timings) * len(cells)
        if first is not None:
            _check_local(state[2], state[3], cells, first[0], first[1],
                         outcome)
        if options.trace:
            # New master seeds, so the traced rounds run cold too.
            tracer.phase = "main"
            tracer.install(LAYERS)
            try:
                traced, _ = _rounds(state, cells, outcome, [], speed,
                                    options.seed * 1_000 + 500,
                                    count=len(timings))
            finally:
                tracer.uninstall()
            return outcome, finish_traced(
                tracer, "grid_tcp", outcome,
                wall_s=sum(c + w for c, w in traced),
                untraced_wall_s=sum(c + w for c, w in timings), extras={})
    finally:
        _teardown(state)

    cold_rates = [len(cells) / c for c, _ in timings]
    warm_rates = [len(cells) / w for _, w in timings]
    cold_rate = percentile(cold_rates, 50)
    p50_s, tail_s = percentile(drain, 50), percentile(drain, TAIL)
    outcome.lines += [
        f"grid_tcp: {len(timings)} rounds of {len(cells)} cells x"
        f" {REPEATS} repeats",
        f"  grid_cold_cells_per_s  {cold_rate:.4f} 1/s  (median over"
        " rounds)",
        f"  grid_warm_cells_per_s  {percentile(warm_rates, 50):.4f} 1/s"
        "  (median over rounds)",
        f"  cell drain p50         {p50_s * 1e3:.3f} ms",
        f"  cell drain p{TAIL:g}         {tail_s * 1e3:.3f} ms",
        f"  setup_s                {setup_s:.4f} s  (median of"
        f" {SETUP_REPEATS})",
    ]
    return outcome, gated(speed, rate=cold_rate, p50_s=p50_s,
                          tail_s=tail_s, setup_s=setup_s,
                          lines=outcome.lines)
