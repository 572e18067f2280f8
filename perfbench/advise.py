"""Workload ``advise``: one closed-loop client of ``repro serve``.

The server runs as its own process on a fresh memo cache.  The request
stream is seeded and made of units, nine to a round; each unit sends

- one *fresh* request: a new clip seed, walking every motion class and
  length (12, 18 or 24 frames, GOP 6), so the whole cold path runs;
- one *sibling*: the clip of that fresh request with another device,
  flow count or target, so the answer memo misses although a scenario
  memo would hit;
- ``REPEATS`` *repeats*: byte-identical canonical requests sent before,
  so the answer memo hits.

The traced run replays the same stream against a server hosted in this
process (``ServerThread``), so the server's layers can be wrapped.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .common import (SETUP_REPEATS, Options, Outcome, ServerProcess, Speed,
                     gated, percentile, reportable, samples_for,
                     timed_setups)
from .layers import LAYERS, finish_traced
from .trace import Tracer

REPEATS = 24
FRAMES = (12, 18, 24)
FRAMES_SMALL = (6, 8)
MOTIONS = ("slow", "medium", "fast")
DEVICES = ("samsung-s2", "htc-amaze")
TARGETS = (None, 20.0, 25.0, 30.0)
FRESH_TAIL = 90.0
# Two rounds give 36 cold requests: ten beyond p70.
COLD_TAIL = 70.0
REPEAT_TAIL = 99.0
# Requests checked against a local evaluation, per class.
LOCAL_SAMPLES = 2


def _stream(seed: int, small: bool):
    """Yield ``(class, ServiceRequest)`` forever, the same for a seed.

    Fresh requests walk every (motion, length) pair once per round, so
    every whole round carries the same mix of cold work.
    """
    from repro.testbed import ServiceRequest
    rng = random.Random(seed)
    frames = FRAMES_SMALL if small else FRAMES
    gop = 3 if small else 6
    seen = set()
    sent: List = []

    def canonical(request) -> str:
        return json.dumps(request.canonical(), sort_keys=True)

    index = 0
    while True:
        request = ServiceRequest(
            motion=MOTIONS[index // len(frames) % len(MOTIONS)],
            frames=frames[index % len(frames)], gop=gop,
            seed=seed * 100_003 + index,
            device=rng.choice(DEVICES), flows=rng.randint(1, 4),
            target_psnr_db=rng.choice(TARGETS))
        seen.add(canonical(request))
        sent.append(request)
        yield "fresh", request
        while True:
            sibling = replace(request, device=rng.choice(DEVICES),
                              flows=rng.randint(1, 4),
                              target_psnr_db=rng.choice(TARGETS))
            if canonical(sibling) not in seen:
                break
        seen.add(canonical(sibling))
        sent.append(sibling)
        yield "sibling", sibling
        for _ in range(REPEATS):
            yield "repeat", rng.choice(sent)
        index += 1


class _CountingBackoff:
    """The client's busy backoff, counting retries."""

    def __init__(self) -> None:
        from repro.testbed import Backoff
        self._backoff = Backoff(base_s=0.02, cap_s=1.0)
        self.retries = 0

    def next_delay(self) -> float:
        self.retries += 1
        return self._backoff.next_delay()

    def reset(self) -> None:
        self._backoff.reset()


def _pass(client, requests, outcome: Outcome, answers: Dict[str, tuple],
          speed: Optional[Speed] = None):
    """Send ``requests`` closed-loop.  Returns per-class latencies and
    the loop's wall time, which excludes the machine-speed samples taken
    after cold requests when ``speed`` is given; the first answer per
    canonical key lands in ``answers`` for the checks."""
    latencies: Dict[str, List[float]] = {"fresh": [], "sibling": [],
                                         "repeat": []}
    sampling = 0.0
    started = time.perf_counter()
    for kind, request in requests:
        sent = time.perf_counter()
        try:
            answer = client.recommend(request)
        except (ConnectionError, OSError, RuntimeError, ValueError) as exc:
            outcome.failed += 1
            outcome.errors.append(f"{kind} request raised {exc!r}")
            continue
        latencies[kind].append(time.perf_counter() - sent)
        key = json.dumps(request.canonical(), sort_keys=True)
        first = answers.setdefault(key, (kind, request, answer))
        if kind == "repeat":
            outcome.check(answer.source == "memo" and
                          answer.data == first[2].data,
                          f"repeat of {key[:60]} was not its first answer")
        else:
            outcome.check(answer.source == "cold" and first[2] is answer,
                          f"{kind} request {key[:60]} hit the memo")
            if speed is not None:
                sample_started = time.perf_counter()
                speed.sample()
                sampling += time.perf_counter() - sample_started
    return latencies, time.perf_counter() - started - sampling


def _check_local(answers, outcome: Outcome, seed: int) -> None:
    """A seeded sample of cold answers equals a local evaluation."""
    from repro.core import encode_payload
    from repro.testbed import evaluate_payload
    rng = random.Random(seed)
    for kind in ("fresh", "sibling"):
        cold = [entry for entry in answers.values() if entry[0] == kind]
        for _kind, request, answer in rng.sample(
                cold, min(LOCAL_SAMPLES, len(cold))):
            local = encode_payload(evaluate_payload(request))
            outcome.check(local == answer.data,
                          f"{kind} answer differs from a local evaluation")


def _start(options: Options, index: int):
    """Start ``repro serve`` on a fresh memo cache and wait for a ping."""
    from repro.testbed import AdvisorClient
    cache = options.workdir / f"memo-{index}"
    server = ServerProcess(["serve", "--cache", str(cache)],
                           src=options.src,
                           log=options.workdir / f"serve-{index}.log")
    try:
        with AdvisorClient(server.host, server.port) as client:
            client.ping()
    except BaseException:
        server.stop()
        raise
    return server


def _take(stream, frames, seconds: float, minimum_cold: int, client,
          outcome, answers, speed: Speed):
    """Run whole rounds from ``stream`` for ``seconds`` and at least
    ``minimum_cold`` cold requests; return the requests sent, latencies
    and loop wall time."""
    sent: List[Tuple[str, object]] = []
    latencies: Dict[str, List[float]] = {"fresh": [], "sibling": [],
                                         "repeat": []}
    wall = 0.0
    round_size = (2 + REPEATS) * len(MOTIONS) * len(frames)
    while not sent or wall < seconds or \
            len(latencies["fresh"]) + len(latencies["sibling"]) < minimum_cold:
        batch = [next(stream) for _ in range(round_size)]
        lat, spent = _pass(client, batch, outcome, answers, speed)
        for kind, values in lat.items():
            latencies[kind] += values
        wall += spent
        sent += batch
    return sent, latencies, wall


def run(options: Options) -> Tuple[Outcome, Dict[str, Tuple[float, str]]]:
    from repro.testbed import AdvisorClient
    outcome = Outcome()
    speed = Speed()
    counter = itertools.count()
    if options.trace:
        server = _start(options, 0)
    else:
        setup_s, server = timed_setups(
            lambda: _start(options, next(counter)),
            lambda old: old.stop(), SETUP_REPEATS, speed)
    answers: Dict[str, tuple] = {}
    backoff = _CountingBackoff()
    try:
        with AdvisorClient(server.host, server.port,
                           busy_backoff=backoff) as client:
            budget = options.seconds / 2 if options.trace \
                else options.seconds
            sent, latencies, wall_s = _take(
                _stream(options.seed, options.small),
                FRAMES_SMALL if options.small else FRAMES, budget,
                0 if options.trace else samples_for(COLD_TAIL), client,
                outcome, answers, speed)
            stats = client.stats()
    finally:
        server.stop()
    outcome.attempted = outcome.ops = len(sent)
    outcome.check(stats["evaluations"] == len(answers),
                  f"server ran {stats['evaluations']} evaluations for"
                  f" {len(answers)} distinct requests")
    _check_local(answers, outcome, options.seed)

    if options.trace:
        return outcome, _traced(options, sent, wall_s, outcome, backoff,
                                answers)

    fresh, sibling, repeat = (latencies[k] for k in
                              ("fresh", "sibling", "repeat"))
    fresh_tail = reportable(len(fresh), FRESH_TAIL)
    repeat_tail = reportable(len(repeat), REPEAT_TAIL)
    answered = len(fresh) + len(sibling) + len(repeat)
    rate = answered / wall_s
    # Both cold classes run the whole cold path today; their pooled
    # latencies are the gated per-operation figures.
    cold = fresh + sibling
    p50_s, tail_s = percentile(cold, 50), percentile(cold, COLD_TAIL)
    outcome.lines += [
        f"advise: {answered} answers ({len(fresh)} fresh, {len(sibling)}"
        f" sibling, {len(repeat)} repeat), {stats['evaluations']}"
        f" evaluations, {backoff.retries} busy retries",
        f"  advise_answers_per_s   {rate:.4f} 1/s",
        f"  advise_fresh_p50_ms    {percentile(fresh, 50) * 1e3:.3f} ms",
        f"  advise_fresh_p90_ms    {percentile(fresh, fresh_tail) * 1e3:.3f}"
        f" ms  (reported at p{fresh_tail:g})",
        f"  advise_sibling_p50_ms  {percentile(sibling, 50) * 1e3:.3f} ms",
        f"  advise_repeat_p50_ms   {percentile(repeat, 50) * 1e3:.4f} ms",
        f"  advise_repeat_p99_ms   {percentile(repeat, repeat_tail) * 1e3:.4f}"
        f" ms  (reported at p{repeat_tail:g})",
        f"  cold request p50       {p50_s * 1e3:.3f} ms  (fresh and"
        " sibling)",
        f"  cold request p{COLD_TAIL:g}       {tail_s * 1e3:.3f} ms",
        f"  setup_s                {setup_s:.4f} s  (median of"
        f" {SETUP_REPEATS})",
    ]
    return outcome, gated(speed, rate=rate, p50_s=p50_s, tail_s=tail_s,
                          setup_s=setup_s, lines=outcome.lines)


def _traced(options: Options, sent, untraced_wall_s: float,
            outcome: Outcome, backoff: _CountingBackoff, untraced_answers):
    """Replay ``sent`` against an in-process server with every layer
    wrapped, attributing encode calls to the request classes."""
    from repro.testbed import AdvisorClient
    from repro.testbed.server import AdvisorServer, ServerThread
    tracer = Tracer()
    answers: Dict[str, tuple] = {}
    encodes = {"fresh": 0, "sibling": 0}
    server = AdvisorServer(Path(options.workdir) / "memo-traced")
    tracer.install(LAYERS)
    try:
        with ServerThread(server=server) as served, \
                AdvisorClient(served.host, served.port,
                              busy_backoff=backoff) as client:
            wall_s = 0.0
            for kind, request in sent:
                before = tracer.calls("codec.encode")
                _lat, spent = _pass(client, [(kind, request)], outcome,
                                    answers)
                wall_s += spent
                if kind in encodes:
                    encodes[kind] += tracer.calls("codec.encode") - before
            stats = client.stats()
    finally:
        tracer.uninstall()
    outcome.attempted += len(sent)
    outcome.check(stats["evaluations"] == len(answers),
                  "the traced server's evaluations differ from the distinct"
                  " requests")
    outcome.check(all(answers[key][2].data == entry[2].data
                      for key, entry in untraced_answers.items()),
                  "traced answers differ from untraced ones")
    counts = {kind: sum(1 for k, _ in sent if k == kind)
              for kind in encodes}
    hit_rate = stats["memo"]["hit_rate"]
    solve_p50 = stats["solve_ms"][stats["engine"]]["p50_ms"]
    extras = {
        "codec.encode_calls_per_fresh":
            encodes["fresh"] / max(counts["fresh"], 1),
        "codec.encode_calls_per_sibling":
            encodes["sibling"] / max(counts["sibling"], 1),
        "memo.hit_ratio": hit_rate or 0.0,
        "server.solve_p50_ms": solve_p50 or 0.0,
        "busy_retries": float(backoff.retries),
    }
    return finish_traced(tracer, "advise", outcome, wall_s=wall_s,
                         untraced_wall_s=untraced_wall_s, extras=extras)
