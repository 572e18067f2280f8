"""Fast end-to-end self-check: ``repro selftest``.

CI runs this before anything else (and developers run it after a
checkout) to answer "is this tree fundamentally sound?" in a few
seconds.  It exercises one representative slice of each load-bearing
subsystem:

- **crypto** — known answers on the reference ciphers the ``T_e``
  calibration times: the FIPS-197 C.3 AES-256 vector and a 3-key 3DES
  EDE vector;
- **engine** — a tiny grid through the cached
  :class:`~repro.testbed.engine.ExperimentEngine` twice: the cold pass
  must simulate, the warm pass must replay every cell from cache with
  zero simulations and identical summaries;
- **events** — a 2-flow contention run through the discrete-event
  kernel with basic sanity invariants (positive makespan, all packets
  accounted for);
- **vector** — the struct-of-arrays fast path replayed against the
  coroutine kernel on the same tiny grid: oracle sampling must match
  the kernel trace-for-trace, and batch sampling must produce a sane
  delay profile (the property the 10^4-flow story rests on);
- **sender-oracle** — the single-flow sender
  (:meth:`~repro.testbed.simulator.SenderSimulator.run`, the event
  kernel's contention-free case) replayed by the vector engine's
  exact/oracle path: traces and observer masks must match bit for bit
  under three policies (the property the single sender engine rests
  on);
- **lookup-decode** — reconstruction by lookup replayed against the
  decode-every-frame oracle (:mod:`repro.video.oracle`): for three
  seeded decodable masks under both concealment modes, the displayed
  frames, their records and the clip's PSNR/MOS must be identical, with
  the clean-frame cache and distortion table cold and then warm (the
  property the fast decode cell rests on);
- **models** — the batched analytic-model engine
  (:mod:`repro.core.vector_models`) swept against the scalar oracle on
  a tiny calibrated scenario: same recommended policy, every sweep
  scalar within tight float tolerance (the property the cold-advisor
  speedup rests on);
- **mobility** — the handoff layer: a profile built twice must yield
  byte-identical segment timelines (trace determinism), and a
  handoff-rich custom scenario run through the event kernel and the
  vectorized fast path (oracle sampling) must agree packet-for-packet
  (the arrival-latch contract the mobility engine split rests on);
- **net** — a loopback ``repro cached serve`` instance driven through
  the ``tcp:`` queue and cache clients: submit/claim/renew/complete
  plus a cache write/read round-trip, all over the framed wire
  protocol;
- **serve** — a loopback ``repro serve`` advisor instance asked the
  same question twice: the first answer must be a cold evaluation, the
  second a memo hit with identical bytes and zero extra model sweeps.

Each check returns a row; any failure makes ``repro selftest`` exit 1.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

__all__ = ["CheckResult", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_crypto_kat() -> str:
    from .crypto import AES, TripleDES

    aes_key = bytes.fromhex(
        "000102030405060708090a0b0c0d0e0f"
        "101112131415161718191a1b1c1d1e1f")
    got = AES(aes_key).encrypt_block(
        bytes.fromhex("00112233445566778899aabbccddeeff")).hex()
    if got != "8ea2b7ca516745bfeafc49904b496089":  # FIPS-197 C.3
        raise AssertionError(f"AES-256 FIPS vector mismatch: {got}")

    des_key = bytes.fromhex(
        "0123456789abcdef23456789abcdef01456789abcdef0123")
    got = TripleDES(des_key).encrypt_block(
        bytes.fromhex("5468652071756663")).hex()
    if got != "a826fd8ce53b855f":
        raise AssertionError(f"3DES EDE vector mismatch: {got}")
    return "FIPS-197 AES-256 + 3-key 3DES EDE known answers"


def _tiny_scenario():
    from .video import CodecConfig, encode_sequence, generate_clip

    clip = generate_clip("slow", 12, seed=1)
    bitstream = encode_sequence(clip, CodecConfig(gop_size=6, quantizer=8))
    return clip, bitstream


def _trace_rows(runs) -> list:
    """Every packet trace of ``runs`` as comparable tuples."""
    return [
        (t.sequence_number, t.enqueue_time_s, t.service_start_s,
         t.encryption_time_s, t.transmit_time_s, t.departure_time_s,
         t.encrypted, t.delivered, t.attempts)
        for run in runs for t in run.trace
    ]


def _check_cached_engine() -> str:
    from .core import standard_policies
    from .testbed import (DEVICES, ExperimentConfig, ExperimentEngine,
                          GridCell, ResultCache)

    clip, bitstream = _tiny_scenario()
    policies = standard_policies("AES256")
    cells = [
        GridCell("selftest", ExperimentConfig(
            policy=policies[name], device=DEVICES["samsung-s2"],
            sensitivity_fraction=0.55, decode_video=False), 2)
        for name in ("none", "I")
    ]
    with tempfile.TemporaryDirectory(prefix="repro-selftest-") as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        try:
            cold = ExperimentEngine(cache=cache, workers=1, master_seed=7)
            cold.add_scenario("selftest", clip, bitstream)
            first = cold.run_grid(cells)
            cold_sims = cold.simulations_run
            warm = ExperimentEngine(cache=cache, workers=1, master_seed=7)
            warm.add_scenario("selftest", clip, bitstream)
            second = warm.run_grid(cells)
            if cold_sims != 4:
                raise AssertionError(
                    f"cold pass ran {cold_sims} simulations, expected 4")
            if warm.simulations_run != 0:
                raise AssertionError(
                    f"warm pass ran {warm.simulations_run} simulations,"
                    " expected a full cache replay")
            if first != second:
                raise AssertionError("warm replay diverged from cold run")
            if not all(summary.from_cache for summary in second):
                raise AssertionError("warm summaries not marked from_cache")
        finally:
            cache.close()
    return "cold=4 sims, warm=0 sims, identical summaries"


def _check_event_kernel() -> str:
    from .core import standard_policies
    from .testbed import DEVICES, run_multiflow

    _, bitstream = _tiny_scenario()
    result = run_multiflow(
        bitstream, flows=2, policy=standard_policies("AES256")["I"],
        device=DEVICES["samsung-s2"], seed=2013,
    )
    if len(result.flows) != 2:
        raise AssertionError(f"expected 2 flows, got {len(result.flows)}")
    if not result.makespan_s > 0:
        raise AssertionError(f"non-positive makespan {result.makespan_s}")
    for flow_id, run in enumerate(result.flows):
        if len(run.packets) == 0:
            raise AssertionError(f"flow {flow_id} produced no packets")
        if not any(run.usable_by_receiver):
            raise AssertionError(f"flow {flow_id} delivered nothing")
    return (f"2 flows, {sum(len(r.packets) for r in result.flows)} packets,"
            f" makespan {result.makespan_s:.2f}s")


def _check_vector_flows() -> str:
    from .core import standard_policies
    from .testbed import DEVICES, run_multiflow

    _, bitstream = _tiny_scenario()
    kwargs = dict(flows=2, policy=standard_policies("AES256")["I"],
                  device=DEVICES["samsung-s2"], seed=2013)
    kernel = run_multiflow(bitstream, **kwargs)
    vector = run_multiflow(bitstream, engine="vector", sampling="oracle",
                           **kwargs)

    rows = _trace_rows(kernel.flows)
    if rows != _trace_rows(vector.flows):
        raise AssertionError(
            "vector engine (oracle sampling) diverged from the event"
            " kernel on the selftest grid")
    batch = run_multiflow(bitstream, engine="vector", **kwargs)
    mean = batch.mean_delay_ms
    if not 0.0 < mean < 1e4:
        raise AssertionError(f"batch sampling mean delay insane: {mean}")
    return (f"oracle==kernel over {len(rows)} packet traces,"
            f" batch mean delay {mean:.2f}ms")


def _check_sender_oracle() -> str:
    from .core import standard_policies
    from .testbed import DEVICES, SenderSimulator, run_multiflow

    _, bitstream = _tiny_scenario()
    simulator = SenderSimulator(bitstream, device=DEVICES["samsung-s2"])
    for name in ("none", "I", "all"):
        policy = standard_policies("AES256")[name]
        kernel = simulator.run(
            policy, seed=np.random.SeedSequence(2013).spawn(1)[0])
        vector = run_multiflow(
            bitstream, flows=1, policy=policy, device=simulator.device,
            link=simulator.link, engine="vector", sampling="oracle",
            seed=np.random.SeedSequence(2013)).flows[0]
        rows = _trace_rows([kernel])
        if (rows != _trace_rows([vector])
                or kernel.usable_by_receiver != vector.usable_by_receiver
                or kernel.usable_by_eavesdropper
                != vector.usable_by_eavesdropper):
            raise AssertionError(
                f"single-flow kernel diverged from the vector oracle"
                f" under policy {name!r}")
    return (f"single-flow kernel==vector oracle over {len(rows)} packet"
            f" traces x 3 policies")


def _check_lookup_decode() -> str:
    from .video.concealment import CONCEALMENT_MODES, conceal_decode
    from .video.oracle import oracle_conceal_decode, oracle_scores
    from .video.quality import sequence_mos, sequence_psnr

    # A new clip and bitstream: their cache entry and table start empty.
    clip, bitstream = _tiny_scenario()
    rng = np.random.default_rng(2013)
    masks = [{i for i in range(len(bitstream)) if rng.random() >= loss}
             for loss in (0.1, 0.3, 0.5)]
    for phase in ("cold", "warm"):
        for number, mask in enumerate(masks):
            for mode in CONCEALMENT_MODES:
                where = f"{phase} cache, {mode}, mask {number}"
                oracle = oracle_conceal_decode(bitstream, mask, mode)
                result = conceal_decode(bitstream, mask, mode=mode)
                if result.frames != oracle.frames or not all(
                        np.array_equal(got.y, want.y)
                        and np.array_equal(got.u, want.u)
                        and np.array_equal(got.v, want.v)
                        for got, want in zip(result.sequence,
                                             oracle.sequence)):
                    raise AssertionError(
                        f"{where}: displayed frames differ from the"
                        " decode-every-frame oracle")
                got = (sequence_psnr(clip, result.sequence),
                       sequence_mos(clip, result.sequence))
                want = oracle_scores(clip, oracle.sequence)
                if got != want:
                    raise AssertionError(
                        f"{where}: PSNR/MOS {got} != oracle {want}")
    return "lookup==decode over 3 masks x 2 modes, cache cold then warm"


def _check_vector_models() -> str:
    from .core import calibrate_scenario, default_candidates
    from .core.advisor import PolicyAdvisor, choice_payload
    from .core.distortion import DistortionPolynomial
    from .crypto.timing import reference_cipher_cost

    _, bitstream = _tiny_scenario()
    scenario = calibrate_scenario(
        bitstream,
        cipher_costs={name: reference_cipher_cost(name)
                      for name in ("AES128", "AES256", "3DES")},
        polynomial=DistortionPolynomial(coefficients=(0.0, 40.0, 4.0),
                                        cap=8000.0),
        sensitivity_fraction=0.55, recovery_fraction=0.9,
        baseline_distortion=6.0)
    candidates = default_candidates()
    scalar = choice_payload(PolicyAdvisor(scenario, engine="scalar")
                            .recommend(candidates=candidates))
    vector = choice_payload(PolicyAdvisor(scenario, engine="vector")
                            .recommend(candidates=candidates))
    if scalar["recommended"] != vector["recommended"]:
        raise AssertionError(
            f"engines disagree on the selection: scalar"
            f" {scalar['recommended']!r}, vector"
            f" {vector['recommended']!r}")
    worst = 0.0
    for label, entry in scalar["sweep"].items():
        other = vector["sweep"][label]
        for key in ("delay_ms", "waiting_ms", "traffic_intensity",
                    "receiver_psnr_db", "eavesdropper_psnr_db"):
            error = abs(other[key] - entry[key]) / max(1.0,
                                                       abs(entry[key]))
            worst = max(worst, error)
            if error > 1e-7:
                raise AssertionError(
                    f"vector engine diverged from the scalar oracle:"
                    f" {label} {key} off by {error:.2e}")
    return (f"scalar==vector over {len(candidates)} policies,"
            f" max rel err {worst:.1e},"
            f" both recommend {scalar['recommended']}")


def _check_mobility() -> str:
    from .core import standard_policies
    from .mobility import (build_profile, build_scenario, default_field,
                           linear_trace, run_mobility)
    from .testbed import DEVICES

    # Trace determinism: two builds of the same profile spec must agree
    # segment-for-segment (same floats, same AP indices, same gaps).
    def timeline(scenario):
        return [(s.start_s, s.end_s, s.ap_index, s.rate_mbps,
                 s.error_rate, s.in_gap) for s in scenario.segments]

    first = build_profile("vehicular:hysteresis", n_stations=3)
    again = build_profile("vehicular:hysteresis", n_stations=3)
    if timeline(first) != timeline(again):
        raise AssertionError("profile build is not deterministic")

    # Kernel-vs-vector differential on a handoff-rich scenario: a fast
    # pass down a dense corridor forces frequent retunes and gaps.
    scenario = build_scenario(
        linear_trace(25.0, 4.0, timestep_s=0.1),
        default_field(6, spacing_m=15.0),
        handoff_gap_s=0.15, n_stations=3)
    if scenario.handoffs < 2:
        raise AssertionError(
            f"selftest scenario only {scenario.handoffs} handoffs;"
            " differential would not exercise retunes")
    _, bitstream = _tiny_scenario()
    kwargs = dict(mobility=scenario, flows=2,
                  policy=standard_policies("AES256")["I"],
                  device=DEVICES["samsung-s2"], seed=2013)
    kernel = run_mobility(bitstream, **kwargs)
    vector = run_mobility(bitstream, engine="vector", sampling="oracle",
                          **kwargs)

    rows = _trace_rows(kernel.flows_run.flows)
    if rows != _trace_rows(vector.flows_run.flows):
        raise AssertionError(
            "mobile vector engine (oracle sampling) diverged from the"
            " event kernel on the selftest scenario")
    if kernel.gap_packets != vector.gap_packets:
        raise AssertionError(
            f"gap accounting split: kernel {kernel.gap_packets},"
            f" vector {vector.gap_packets}")
    return (f"deterministic build, oracle==kernel over"
            f" {len(rows)} packet traces across"
            f" {scenario.handoffs} handoffs,"
            f" {kernel.gap_packets} gap packets agree")


def _check_net_queue() -> str:
    from .testbed import RemoteWorkQueue, ResultCache
    from .testbed.queue import QueueTask
    from .testbed.server import ServerThread

    with tempfile.TemporaryDirectory(prefix="repro-selftest-") as tmp:
        root = Path(tmp) / "queue"
        with ServerThread(root) as served:
            remote = RemoteWorkQueue.from_spec(served.spec)
            task = QueueTask(
                key="selftest-cell", scenario="selftest",
                scenario_fingerprint="f" * 64, scenario_meta={},
                config={"policy": "none"}, repeats=1, master_seed=7,
                schema=0, code="c" * 64)
            if not remote.submit(task):
                raise AssertionError("remote submit refused a fresh task")
            claimed = remote.claim()
            if claimed is None or claimed.key != task.key:
                raise AssertionError(f"remote claim returned {claimed!r}")
            remote.renew(task.key)
            remote.complete(task.key)
            counts = remote.counts()
            if counts["done"] != 1 or counts["pending"] or counts["leased"]:
                raise AssertionError(f"queue counts wrong: {counts}")
            cache = ResultCache.from_spec(served.spec)
            try:
                payload = b"net-queue selftest payload"
                cache.backend.write("selftest-cell", payload)
                back = cache.backend.read("selftest-cell")
                if back != payload:
                    raise AssertionError("cache bytes mutated over TCP")
            finally:
                cache.close()
            served_ops = served.server.requests_served
    return (f"submit/claim/complete + cache round-trip over"
            f" tcp ({served_ops} RPCs)")


def _check_advise_serve() -> str:
    from .testbed import AdvisorClient, ServiceRequest
    from .testbed.server import AdvisorServer, ServerThread

    request = ServiceRequest(motion="slow", frames=12, gop=6, seed=1)
    with tempfile.TemporaryDirectory(prefix="repro-selftest-") as tmp:
        server = AdvisorServer(Path(tmp) / "memo")
        with ServerThread(server=server) as served:
            with AdvisorClient(served.host, served.port) as client:
                cold = client.recommend(request)
                warm = client.recommend(request)
                stats = client.stats()
        if cold.source != "cold":
            raise AssertionError(
                f"first request answered from {cold.source!r}")
        if warm.source != "memo":
            raise AssertionError(
                f"repeated request answered from {warm.source!r},"
                " expected a memo hit")
        if warm.data != cold.data:
            raise AssertionError("memo answer diverged from cold answer")
        if stats["evaluations"] != 1:
            raise AssertionError(
                f"{stats['evaluations']} model evaluations for 2"
                " requests, expected exactly 1 (warm path must sweep"
                " nothing)")
        recommended = cold.payload["recommended"]
    return (f"cold+warm over tcp, 1 evaluation, memo hit,"
            f" recommended {recommended}")


_CHECKS: List[tuple] = [
    ("crypto-kat", _check_crypto_kat),
    ("cached-engine", _check_cached_engine),
    ("event-kernel", _check_event_kernel),
    ("vector-flows", _check_vector_flows),
    ("sender-oracle", _check_sender_oracle),
    ("lookup-decode", _check_lookup_decode),
    ("vector-models", _check_vector_models),
    ("mobility", _check_mobility),
    ("net-queue", _check_net_queue),
    ("advise-serve", _check_advise_serve),
]


def run_selftest(
    checks: Optional[List[str]] = None,
) -> List[CheckResult]:
    """Run the named checks (default: all); never raises — failures are
    rows with ``ok=False``."""
    selected = [(name, fn) for name, fn in _CHECKS
                if checks is None or name in checks]
    if checks is not None:
        unknown = set(checks) - {name for name, _ in _CHECKS}
        if unknown:
            raise ValueError(
                f"unknown selftest check(s): {sorted(unknown)};"
                f" available: {[name for name, _ in _CHECKS]}"
            )
    results: List[CheckResult] = []
    for name, fn in selected:
        fn: Callable[[], str]
        try:
            results.append(CheckResult(name, True, fn()))
        except Exception as exc:  # the whole point is to catch anything
            results.append(CheckResult(
                name, False, f"{type(exc).__name__}: {exc}"))
    return results
