"""The wrapped layers and the per-layer metrics read from them.

Every traced run installs every layer, so a layer that a workload does
not exercise reads zero there; that is the "predicted flat" half of the
layer map in ``perfbench/README.md``.  Time metrics ending in ``_ms`` are
self milliseconds per operation of the workload (decode cell, advise
request, cold grid cell); ``setup.*`` metrics are per set-up.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .common import rows_table
from .trace import Layer, Tracer


def _conceal_mode(args, kwargs) -> str:
    return "strict" if kwargs.get("mode", "strict") == "strict" \
        else "best_effort"


def _frozen(stat, result, args, kwargs) -> None:
    stat.add("frozen", result.n_frozen)
    stat.add("frames", len(result.frames))


def _sim_kind(args, kwargs) -> str:
    config = args[2] if len(args) > 2 else kwargs["config"]
    if config.mobility is not None:
        return "mobility"
    if config.flows > 1 or config.engine == "vector":
        return "multiflow"
    return "static"


def _empty_claim(stat, result, args, kwargs) -> None:
    if result is None:
        stat.add("empty")


_QUEUE = "repro.testbed.netproto:RemoteWorkQueue"

LAYERS: List[Layer] = [
    # scenario building: synth, encode, motion, regression, calibration
    Layer("repro.video.synth:generate_clip", "synth"),
    Layer("repro.video.codec:encode_sequence", "codec.encode"),
    Layer("repro.video.codec:decode_bitstream", "codec.decode"),
    Layer("repro.video.motion:analyze_motion", "motion.analyze"),
    Layer("repro.analysis.regression:measure_reference_distance_distortion",
          "regression.distance"),
    Layer("repro.analysis.regression:measure_recovery_fraction",
          "regression.recovery"),
    Layer("repro.core.scenario:calibrate_scenario", "calibrate"),
    # model sweep and the advisor service
    Layer("repro.core.advisor:PolicyAdvisor.recommend", "sweep"),
    Layer("repro.testbed.advisor_service:AdvisorMemo.get", "memo.get"),
    Layer("repro.testbed.advisor_service:AdvisorMemo.put", "memo.put"),
    Layer("repro.testbed.advisor_service:AdvisorClient.recommend",
          "wire.overhead"),
    # reconstruction and quality
    Layer("repro.video.quality:sequence_psnr", "quality.psnr"),
    Layer("repro.video.quality:sequence_mos", "quality.mos"),
    Layer("repro.video.quality:mse", "quality.mse"),
    Layer("repro.video.concealment:conceal_decode", "concealment",
          observe=_frozen, variants=("strict", "best_effort"),
          variant=_conceal_mode),
    Layer("repro.video.packetizer:frames_decodable", "packetizer.decodable"),
    # sender simulation
    Layer("repro.video.packetizer:packetize", "simulator.packetize"),
    Layer("repro.testbed.simulator:SenderSimulator.run", "simulator.run"),
    Layer("repro.testbed.experiment:run_experiment", "sim",
          variants=("static", "multiflow", "mobility"), variant=_sim_kind),
    Layer("repro.mobility.scenario:build_profile", "mobility.profile"),
    # grid: queue, engine, cache, wire
    Layer(f"{_QUEUE}.claim", "queue.claim", observe=_empty_claim),
    Layer(f"{_QUEUE}.renew", "queue.renew"),
    Layer(f"{_QUEUE}.complete", "queue.complete"),
    Layer(f"{_QUEUE}.requeue_expired", "queue.requeue_expired"),
    Layer(f"{_QUEUE}.load_scenario", "queue.load_scenario"),
    Layer(f"{_QUEUE}.store_scenario", "queue.store_scenario"),
    Layer("repro.testbed.engine:ExperimentEngine.cell_key", "engine.cell_key"),
    Layer("repro.testbed.engine:ExperimentEngine.submit_grid",
          "engine.submit"),
    Layer("repro.testbed.engine:ExperimentEngine.run_grid",
          "engine.assemble"),
    Layer("repro.testbed.cache:ResultCache.put_runs", "cache.put_runs"),
    Layer("repro.testbed.cache:ResultCache.get_runs", "cache.get_runs"),
    Layer("repro.testbed.netproto:NetClient.call", "wire.rpc", kind="probe"),
]

# Layers each workload's traced run must see fire, per phase.  A wrapper
# with zero calls here means the benchmark no longer measures that layer.
EXPECTED: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "decode_cell": {
        "setup": ("synth", "codec.encode"),
        "main": ("concealment.strict", "concealment.best_effort",
                 "packetizer.decodable", "quality.psnr", "quality.mos",
                 "quality.mse", "simulator.run", "simulator.packetize",
                 "sim.static"),
    },
    "advise": {
        "setup": (),
        "main": ("synth", "codec.encode", "codec.decode", "motion.analyze",
                 "regression.distance", "regression.recovery", "calibrate",
                 "sweep", "memo.get", "memo.put", "wire.overhead",
                 "quality.mse", "cache.put_runs"),
    },
    "grid_tcp": {
        "setup": ("synth", "codec.encode", "queue.store_scenario"),
        "main": ("sim.static", "sim.multiflow", "sim.mobility",
                 "mobility.profile", "simulator.run", "queue.claim", "queue.renew",
                 "queue.complete", "queue.requeue_expired",
                 "queue.load_scenario", "engine.cell_key", "engine.submit",
                 "engine.assemble", "cache.put_runs", "cache.get_runs",
                 "wire.rpc"),
    },
}


class Reading:
    """The traced run's figures, as the metric functions below see them."""

    def __init__(self, tracer: Tracer, *, ops: int, setups: int,
                 extras: Dict[str, float]) -> None:
        self.tracer = tracer
        self.ops = max(ops, 1)
        self.setups = max(setups, 1)
        self.extras = extras

    def ms(self, layer: str, phase: str = "main") -> float:
        stat = self.tracer.stats.get((phase, layer))
        if stat is None:
            return 0.0
        spent = stat.self_s if self.tracer.kinds[layer] == "span" \
            else stat.total_s
        per = self.ops if phase == "main" else self.setups
        return spent * 1e3 / per

    def per_op(self, *layers: str) -> float:
        return sum(self.tracer.calls(layer) for layer in layers) / self.ops

    def counter(self, layer: str, name: str) -> float:
        stat = self.tracer.stats.get(("main", layer))
        return 0.0 if stat is None else stat.counters.get(name, 0.0)

    def ratio(self, layer: str, name: str) -> float:
        calls = self.tracer.calls(layer)
        return self.counter(layer, name) / calls if calls else 0.0

    def extra(self, name: str) -> float:
        return float(self.extras.get(name, 0.0))


def _frozen_fraction(r: Reading) -> float:
    frames = r.counter("concealment.strict", "frames")
    return r.counter("concealment.strict", "frozen") / frames if frames else 0.0


def _ms(layer: str, phase: str = "main") -> Callable[[Reading], float]:
    return lambda r: r.ms(layer, phase)


def _extra(name: str) -> Callable[[Reading], float]:
    return lambda r: r.extra(name)


# (name, unit, better, how).  The list is BENCHMARK.json's per_layer list.
PER_LAYER: List[Tuple[str, str, str, Callable[[Reading], float]]] = [
    # decode_cell: reconstruction, quality, sender, set-up
    ("concealment.strict_ms", "ms", "lower", _ms("concealment.strict")),
    ("concealment.best_effort_ms", "ms", "lower",
     _ms("concealment.best_effort")),
    ("concealment.frozen_fraction", "fraction", "lower", _frozen_fraction),
    ("packetizer.decodable_ms", "ms", "lower", _ms("packetizer.decodable")),
    ("quality.psnr_ms", "ms", "lower", _ms("quality.psnr")),
    ("quality.mos_ms", "ms", "lower", _ms("quality.mos")),
    ("quality.mse_ms", "ms", "lower", _ms("quality.mse")),
    ("quality.mse_calls_per_op", "count", "lower",
     lambda r: r.per_op("quality.mse")),
    ("simulator.run_ms", "ms", "lower", _ms("simulator.run")),
    ("simulator.packetize_ms", "ms", "lower", _ms("simulator.packetize")),
    ("setup.synth_ms", "ms", "lower", _ms("synth", "setup")),
    ("setup.encode_ms", "ms", "lower", _ms("codec.encode", "setup")),
    ("setup.store_scenario_ms", "ms", "lower",
     _ms("queue.store_scenario", "setup")),
    # advise: the cold path, the memo and the wire
    ("synth.ms", "ms", "lower", _ms("synth")),
    ("codec.encode_ms", "ms", "lower", _ms("codec.encode")),
    ("codec.encode_calls_per_fresh", "count", "lower",
     _extra("codec.encode_calls_per_fresh")),
    ("codec.encode_calls_per_sibling", "count", "lower",
     _extra("codec.encode_calls_per_sibling")),
    ("codec.decode_ms", "ms", "lower", _ms("codec.decode")),
    ("motion.analyze_ms", "ms", "lower", _ms("motion.analyze")),
    ("regression.distance_ms", "ms", "lower", _ms("regression.distance")),
    ("regression.recovery_ms", "ms", "lower", _ms("regression.recovery")),
    ("calibrate.ms", "ms", "lower", _ms("calibrate")),
    ("sweep.ms", "ms", "lower", _ms("sweep")),
    ("memo.get_ms", "ms", "lower", _ms("memo.get")),
    ("memo.put_ms", "ms", "lower", _ms("memo.put")),
    ("memo.hit_ratio", "fraction", "higher", _extra("memo.hit_ratio")),
    ("wire.overhead_ms", "ms", "lower", _ms("wire.overhead")),
    ("server.solve_p50_ms", "ms", "lower", _extra("server.solve_p50_ms")),
    ("busy_retries", "count", "lower", _extra("busy_retries")),
    # grid_tcp: simulation, queue, engine, cache, wire
    ("sim.static_ms", "ms", "lower", _ms("sim.static")),
    ("sim.multiflow_ms", "ms", "lower", _ms("sim.multiflow")),
    ("sim.mobility_ms", "ms", "lower", _ms("sim.mobility")),
    ("mobility.profile_ms", "ms", "lower", _ms("mobility.profile")),
    ("sim.runs_per_op", "count", "lower",
     lambda r: r.per_op("sim.static", "sim.multiflow", "sim.mobility")),
    ("queue.claim_ms", "ms", "lower", _ms("queue.claim")),
    ("queue.claim_empty_ratio", "fraction", "lower",
     lambda r: r.ratio("queue.claim", "empty")),
    ("queue.renew_ms", "ms", "lower", _ms("queue.renew")),
    ("queue.complete_ms", "ms", "lower", _ms("queue.complete")),
    ("queue.requeue_expired_ms", "ms", "lower",
     _ms("queue.requeue_expired")),
    ("queue.load_scenario_ms", "ms", "lower", _ms("queue.load_scenario")),
    ("engine.cell_key_ms", "ms", "lower", _ms("engine.cell_key")),
    ("engine.submit_ms", "ms", "lower", _ms("engine.submit")),
    ("engine.assemble_ms", "ms", "lower", _ms("engine.assemble")),
    ("cache.put_runs_ms", "ms", "lower", _ms("cache.put_runs")),
    ("cache.get_runs_ms", "ms", "lower", _ms("cache.get_runs")),
    ("wire.rpc_ms", "ms", "lower", _ms("wire.rpc")),
    ("wire.rpcs_per_op", "count", "lower", lambda r: r.per_op("wire.rpc")),
    # every workload
    ("other_ms", "ms", "lower", _extra("other_ms")),
    ("trace_overhead_ms", "ms", "lower", _extra("trace_overhead_ms")),
]


def per_layer_metrics(reading: Reading) -> Dict[str, Tuple[float, str]]:
    return {name: (float(how(reading)), unit)
            for name, unit, _better, how in PER_LAYER}


def finish_traced(tracer: Tracer, workload: str, outcome, *, wall_s: float,
                  untraced_wall_s: float, extras: Dict[str, float]
                  ) -> Dict[str, Tuple[float, str]]:
    """Check the traced run's accounting and read its per-layer metrics.

    ``wall_s`` and ``untraced_wall_s`` time the same operations with and
    without the wrappers; their difference is the tracing overhead.
    """
    ops = max(outcome.ops, 1)
    other_s = wall_s - tracer.self_seconds("main")
    extras = dict(extras)
    extras["other_ms"] = other_s * 1e3 / ops
    extras["trace_overhead_ms"] = (wall_s - untraced_wall_s) * 1e3 / ops
    reading = Reading(tracer, ops=outcome.ops, setups=outcome.setups,
                      extras=extras)
    outcome.check(tracer.violations == 0,
                  f"{tracer.violations} spans closed out of order")
    span_ms = sum(reading.ms(layer) for layer, kind in tracer.kinds.items()
                  if kind == "span")
    wall_ms = wall_s * 1e3 / ops
    outcome.check(extras["other_ms"] >= -1e-6 * wall_ms
                  and abs(span_ms + extras["other_ms"] - wall_ms)
                  <= 1e-6 * wall_ms,
                  f"self times {span_ms:.3f} ms + other"
                  f" {extras['other_ms']:.3f} ms != wall {wall_ms:.3f} ms")
    for phase, layers in EXPECTED[workload].items():
        for layer in layers:
            outcome.check(tracer.calls(layer, phase) > 0,
                          f"layer {layer} recorded no calls in {phase}")
    outcome.lines += rows_table(
        tracer.rows("main", wall_s),
        f"{workload}: traced wall {wall_s:.3f} s over {outcome.ops} ops,"
        f" untraced {untraced_wall_s:.3f} s, other {other_s / wall_s:.1%}")
    setup_s = tracer.self_seconds("setup")
    if setup_s:
        outcome.lines += rows_table(tracer.rows("setup", setup_s),
                                    f"{workload}: set-up layers")
    return per_layer_metrics(reading)
