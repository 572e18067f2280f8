"""Workload ``decode_cell``: paper-scale experiment cells with decode on.

A closed loop in one thread calls ``run_experiment(decode_video=True)``.
Inputs are a slow and a fast 240-frame CIF clip (GOP 30), synthesised
and encoded once in set-up.  One round covers every cell of
{slow, fast} x {none, I, I+50%P, all} (AES256) x {samsung-s2,
htc-amaze} x {default link, lossy link} in a seeded order.  The lossy link leaves about 3% of packets lost
after MAC retries, so strict concealment freezes frames; the default
link takes the all-decoded path.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .common import (SETUP_REPEATS, Options, Outcome, Speed, digest, gated,
                     percentile, samples_for, timed_setups)
from .layers import LAYERS, finish_traced
from .trace import Tracer

POLICIES = ("none", "I", "I+50%P", "all")
DEVICES = ("samsung-s2", "htc-amaze")
MOTIONS = ("slow", "fast")
# Per-attempt channel error giving ~2.9% residual loss after 8 attempts.
LOSSY_CHANNEL_ERROR = 0.6
TAIL = 75.0


def _sizes(small: bool) -> Dict:
    from repro.video import SceneConfig
    if small:
        return {"frames": 12, "gop": 6,
                "scene": SceneConfig(width=176, height=144)}
    return {"frames": 240, "gop": 30, "scene": None}


def _setup(seed: int, small: bool):
    """Synthesise and encode both clips (the set-up being timed)."""
    from repro.video import CodecConfig, encode_sequence, generate_clip
    sizes = _sizes(small)
    clips = {}
    for index, motion in enumerate(MOTIONS):
        clip = generate_clip(motion, sizes["frames"], scene=sizes["scene"],
                             seed=seed * 10 + index)
        clips[motion] = (clip, encode_sequence(
            clip, CodecConfig(gop_size=sizes["gop"])))
    return clips


def _cells(seed: int, round_index: int) -> List[Tuple[str, str, str, str]]:
    """One round: every (clip, policy, device, link) once, in a seeded
    order."""
    combos = [(motion, policy, device, link) for motion in MOTIONS
              for policy in POLICIES for device in DEVICES
              for link in ("default", "lossy")]
    order = np.random.default_rng([seed, round_index]).permutation(
        len(combos))
    return [combos[index] for index in order]


def _configs():
    from repro.testbed import DEVICES as DEVICE_PROFILES
    from repro.testbed import ExperimentConfig, LinkConfig, policy_from_name
    from repro.video import MotionClass, sensitivity_for
    links = {"default": None,
             "lossy": LinkConfig.default(
                 channel_error_rate=LOSSY_CHANNEL_ERROR)}
    sensitivity = {"slow": sensitivity_for(MotionClass.LOW),
                   "fast": sensitivity_for(MotionClass.HIGH)}
    configs = {}
    for motion in MOTIONS:
        for policy in POLICIES:
            for device in DEVICES:
                for link in links:
                    configs[motion, policy, device, link] = ExperimentConfig(
                        policy=policy_from_name(policy, "AES256"),
                        device=DEVICE_PROFILES[device],
                        sensitivity_fraction=sensitivity[motion],
                        link=links[link],
                        decode_video=True)
    return configs


def _pass(clips, configs, cells, seed: int, outcome: Outcome,
          speed: Optional[Speed] = None):
    """Run ``cells`` (``(round, position, cell)``) closed-loop; return
    per-cell seconds, output rows and the results for the checks.  The
    machine's speed is sampled between cells when ``speed`` is given."""
    from repro.testbed import experiment
    times: List[float] = []
    rows: List[list] = []
    results = []
    for round_index, position, cell in cells:
        clip, bitstream = clips[cell[0]]
        cell_seed = np.random.SeedSequence([seed, round_index, position])
        started = time.perf_counter()
        try:
            result = experiment.run_experiment(clip, bitstream,
                                               configs[cell], seed=cell_seed)
        except Exception as exc:  # a failed cell counts, the loop goes on
            outcome.failed += 1
            outcome.errors.append(f"cell {cell} raised {exc!r}")
            continue
        times.append(time.perf_counter() - started)
        rows.append([round_index, position, list(cell), result.mean_delay_ms,
                     result.mean_waiting_ms, result.average_power_w,
                     result.receiver_psnr_db, result.receiver_mos,
                     result.eavesdropper_psnr_db, result.eavesdropper_mos])
        results.append((cell, result))
        if speed is not None:
            speed.sample()
    return times, rows, results


def _check(results, outcome: Outcome, configs, clips) -> None:
    """The cell-level invariants, run outside the timed loop."""
    from repro.video import frames_decodable
    frozen = frames = 0
    for cell, result in results:
        _motion, policy, _device, link = cell
        recv, eave = result.receiver_psnr_db, result.eavesdropper_psnr_db
        receiver = result.run.usable_by_receiver
        eavesdropper = result.run.usable_by_eavesdropper
        # The receiver conceals strictly and the eavesdropper decodes
        # best-effort (the experiment's defaults), so on the lossy link a
        # frozen receiver GOP can score below the eavesdropper's broken
        # decode.  The PSNR relations are therefore checked where nothing
        # is lost; packet visibility is checked on every cell.
        if policy == "none":
            outcome.check(receiver == eavesdropper,
                          f"{cell}: observers saw different packets")
        else:
            outcome.check(all(r or not e for r, e
                              in zip(receiver, eavesdropper)),
                          f"{cell}: eavesdropper used a packet the"
                          " receiver could not")
        if link == "default" and policy == "none":
            outcome.check(recv == eave and result.receiver_mos
                          == result.eavesdropper_mos,
                          f"{cell}: receiver {recv} != eavesdropper"
                          f" {eave} under none")
        elif link == "default":
            outcome.check(eave <= recv, f"{cell}: eavesdropper {eave} dB"
                                        f" > receiver {recv} dB")
        if link == "lossy":
            decodable = frames_decodable(
                result.run.packets, result.run.usable_by_receiver,
                configs[cell].sensitivity_fraction)
            count = len(clips[cell[0]][0])
            frozen += count - len(decodable)
            frames += count
    outcome.check(frames == 0 or frozen > 0,
                  "the lossy link froze no frame")


def run(options: Options) -> Tuple[Outcome, Dict[str, Tuple[float, str]]]:
    outcome = Outcome()
    speed = Speed()
    configs = _configs()
    seed = options.seed
    if options.trace:
        tracer = Tracer()
        tracer.install(LAYERS)
        tracer.phase = "setup"
        try:
            clips = _setup(seed, options.small)
        finally:
            tracer.uninstall()
        outcome.setups = 1
    else:
        setup_s, clips = timed_setups(lambda: _setup(seed, options.small),
                                      lambda _: None, SETUP_REPEATS, speed)

    # Whole rounds until the time is up, so every run sees the same mix,
    # and enough cells for ten beyond the tail percentile.
    budget = options.seconds / 2 if options.trace else options.seconds
    minimum = 0 if options.trace else samples_for(TAIL)
    cells: List[tuple] = []
    times: List[float] = []
    rows: List[list] = []
    results = []
    started = time.perf_counter()
    round_index = 0
    while round_index == 0 or len(times) < minimum \
            or time.perf_counter() - started < budget:
        batch = [(round_index, position, cell) for position, cell
                 in enumerate(_cells(seed, round_index))]
        t, r, res = _pass(clips, configs, batch, seed, outcome,
                          None if options.trace else speed)
        cells += batch
        times += t
        rows += r
        results += res
        round_index += 1
    wall_s = time.perf_counter() - started
    outcome.attempted = len(cells)
    outcome.ops = len(cells)
    _check(results, outcome, configs, clips)
    del results

    if options.trace:
        tracer.phase = "main"
        tracer.install(LAYERS)
        traced_started = time.perf_counter()
        try:
            _t, traced_rows, _res = _pass(clips, configs, cells, seed,
                                          outcome)
        finally:
            traced_wall_s = time.perf_counter() - traced_started
            tracer.uninstall()
        outcome.attempted += len(cells)
        outcome.check(digest(traced_rows) == digest(rows),
                      "traced cell outputs differ from untraced ones")
        return outcome, finish_traced(tracer, "decode_cell", outcome,
                                      wall_s=traced_wall_s,
                                      untraced_wall_s=wall_s, extras={})

    p50_s, tail_s = percentile(times, 50), percentile(times, TAIL)
    rate = len(times) / sum(times)
    outcome.lines += [
        f"decode_cell: {len(times)} cells in {round_index} rounds,"
        f" digest {digest(rows)[:16]}",
        f"  decode_cells_per_s   {rate:.4f} 1/s",
        f"  decode_cell_p50_ms   {p50_s * 1e3:.3f} ms",
        f"  decode_cell_p90_ms   {tail_s * 1e3:.3f} ms  (reported at"
        f" p{TAIL:g})",
        f"  setup_s              {setup_s:.4f} s  (median of"
        f" {SETUP_REPEATS})",
    ]
    return outcome, gated(speed, rate=rate, p50_s=p50_s, tail_s=tail_s,
                          setup_s=setup_s, lines=outcome.lines)
