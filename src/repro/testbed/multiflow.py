"""N senders contending for one AP, on the discrete-event kernel.

The paper's analysis (eq. 19) assumes a single flow owning the channel,
but its testbed ran *two* phones against one access point.  This module
makes that scenario — and any N-flow generalisation — expressible:

- :class:`ContentionMAC` wraps the existing Bianchi DCF fixed point
  (:mod:`repro.wifi.dcf`) solved for the actual number of contenders,
  serialises transmissions through a FIFO
  :class:`~repro.testbed.events.Resource` (the medium), and optionally
  threads an extra :class:`~repro.wifi.channel.LossChannel` under the
  MAC retries (e.g. Gilbert-Elliott bursts the retries cannot fix);
- :class:`FlowProcess` is one Fig. 3 sender pipeline as a generator
  coroutine: per packet it waits for the producer's arrival, encrypts
  on its own CPU (concurrently with other flows), then competes for
  the medium, backs off, transmits and releases;
- :func:`run_multiflow` wires N flows plus one MAC into an
  :class:`~repro.testbed.events.EventKernel` and returns per-flow
  :class:`~repro.testbed.simulator.SimulationRun` traces with
  percentile views — the delay *tails* that per-packet contention
  creates and a mean-service-time model cannot.

Randomness: each flow draws from its own ``SeedSequence``-spawned
stream in a fixed per-packet order (encryption, backoff, delivery,
transmission — the :class:`~repro.testbed.simulator.PacketService`
contract), so runs are deterministic under a seed and independent of
how flow events interleave in wall-clock terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.policies import EncryptionPolicy
from ..video.gop import Bitstream
from ..video.packetizer import DEFAULT_MTU, Packet, packetize
from ..wifi.channel import LossChannel
from ..wifi.dcf import DcfParameters, solve_dcf
from .devices import DeviceProfile
from .events import EventKernel, Request, Resource, Timeout, WaitUntil
from .simulator import (
    LinkConfig,
    PacketService,
    SimulationRun,
    arrival_times,
    sample_backoff_time,
)
from .tracing import PacketTrace, TraceLog
from .transport import (
    UDP_RTP,
    DeliveryOutcome,
    TransportConfig,
    delivery_outcome,
    delivery_outcome_with,
)

__all__ = ["ContentionMAC", "FlowProcess", "MultiFlowRun",
           "MULTIFLOW_ENGINES", "contention_link", "run_multiflow"]


class ContentionMAC:
    """The shared 802.11 MAC: one medium, N contenders.

    The DCF fixed point is solved once for the station count, so every
    flow sees the contention-adjusted packet success rate and backoff
    rate; the medium :class:`~repro.testbed.events.Resource` serialises
    the actual transmissions in FIFO order, which is what turns
    per-packet contention into head-of-line delay tails.

    ``channel`` adds residual per-packet loss *under* the MAC retries:
    a packet must survive both the retry-folded delivery rate and the
    channel's (possibly bursty) state.  ``None`` is the plain
    retry-folded delivery model, the one
    :class:`~repro.testbed.simulator.SenderSimulator` runs.
    """

    def __init__(self, kernel: EventKernel, *, link: LinkConfig,
                 channel: Optional[LossChannel] = None) -> None:
        self.kernel = kernel
        self.link = link
        self.channel = channel
        self.medium = Resource(kernel, capacity=1)

    @classmethod
    def for_flows(cls, kernel: EventKernel, n_flows: int, *,
                  background_stations: int = 1,
                  channel_error_rate: float = 0.0,
                  retry_limit: int = 7,
                  channel: Optional[LossChannel] = None) -> "ContentionMAC":
        """Solve the DCF for ``n_flows`` senders plus ``background_stations``
        ambient contenders (default 1, matching ``LinkConfig.default()``'s
        two stations in the one-flow case)."""
        link = contention_link(
            n_flows, background_stations=background_stations,
            channel_error_rate=channel_error_rate,
            retry_limit=retry_limit)
        return cls(kernel, link=link, channel=channel)

    def backoff_time(self, rng: np.random.Generator) -> float:
        return sample_backoff_time(self.link.dcf, rng)

    def delivery(self, transport: TransportConfig,
                 rng: np.random.Generator) -> DeliveryOutcome:
        """Sample one packet's fate on this MAC.

        The flow's own ``rng`` draws the MAC-level Bernoulli first (so
        with ``channel=None`` the stream is draw-for-draw
        :meth:`PacketService.delivery`'s), then the channel gets a veto
        per attempt.
        """
        rate = self.link.delivery_rate
        if self.channel is None:
            return delivery_outcome(transport, rate, rng)
        return delivery_outcome_with(
            transport,
            lambda: bool(rng.random() < rate) and self.channel.deliver(),
        )


class FlowProcess:
    """One sender flow as a kernel coroutine (the Fig. 3 pipeline)."""

    def __init__(self, flow_id: int, packets: Sequence[Packet],
                 arrivals: np.ndarray, *, mac: ContentionMAC,
                 service: PacketService, rng: np.random.Generator,
                 start_offset_s: float = 0.0) -> None:
        if len(packets) != len(arrivals):
            raise ValueError("one arrival instant per packet required")
        if start_offset_s < 0:
            raise ValueError("start offset must be non-negative")
        self.flow_id = flow_id
        self.packets = list(packets)
        self.arrivals = np.asarray(arrivals, dtype=float)
        self.mac = mac
        self.service = service
        self.rng = rng
        self.start_offset_s = start_offset_s
        self.traces: List[PacketTrace] = []
        self.usable_by_receiver: List[bool] = []
        self.usable_by_eavesdropper: List[bool] = []

    def process(self, kernel: EventKernel):
        """The generator the kernel drives; one iteration per packet."""
        for packet, base_arrival in zip(self.packets, self.arrivals):
            arrival = float(base_arrival) + self.start_offset_s
            if kernel.now < arrival:
                yield WaitUntil(arrival)
            start = kernel.now  # max(arrival, previous departure)

            # CPU work happens before the flow competes for the medium
            # and runs concurrently across flows (each sender has its
            # own processor).
            encryption = self.service.encryption_time(packet, self.rng)
            if encryption > 0.0:
                yield Timeout(encryption)

            yield Request(self.mac.medium)
            backoff = self.mac.backoff_time(self.rng)
            if backoff > 0.0:
                yield Timeout(backoff)
            outcome = self.mac.delivery(self.service.transport, self.rng)
            if outcome.extra_delay_s > 0.0:
                yield Timeout(outcome.extra_delay_s)
            transmit_at = kernel.now
            transmission = (self.service.transmission_time(packet, self.rng)
                            * outcome.attempts)
            yield Timeout(transmission)
            departure = kernel.now
            self.mac.medium.release()

            encrypted = bool(encryption > 0.0 or self.service.encrypts(packet))
            self.traces.append(PacketTrace(
                sequence_number=packet.sequence_number,
                frame_index=packet.frame_index,
                frame_type=packet.frame_type,
                payload_bytes=packet.payload_size,
                encrypted=encrypted,
                enqueue_time_s=arrival,
                service_start_s=float(start),
                encryption_time_s=float(encryption),
                transmit_time_s=float(transmit_at),
                departure_time_s=float(departure),
                delivered=outcome.delivered,
                attempts=outcome.attempts,
            ))
            self.usable_by_receiver.append(outcome.delivered)
            self.usable_by_eavesdropper.append(
                outcome.delivered and not encrypted)

    def as_run(self) -> SimulationRun:
        if len(self.traces) != len(self.packets):
            raise RuntimeError(
                f"flow {self.flow_id} finished {len(self.traces)} of"
                f" {len(self.packets)} packets; run the kernel to"
                " completion first"
            )
        return SimulationRun(
            trace=TraceLog(self.traces),
            packets=self.packets,
            usable_by_receiver=self.usable_by_receiver,
            usable_by_eavesdropper=self.usable_by_eavesdropper,
        )


@dataclass
class MultiFlowRun:
    """Per-flow results of one contention run."""

    flows: List[SimulationRun]

    @property
    def n_flows(self) -> int:
        return len(self.flows)

    def per_flow_delays_ms(self) -> List[np.ndarray]:
        return [
            np.array([t.sojourn_time_s for t in run.trace]) * 1e3
            for run in self.flows
        ]

    def delay_percentiles_ms(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0),
    ) -> List[Optional[Dict[str, float]]]:
        """Per-flow delay percentiles — the tail view the mean-service
        model cannot produce (one dict per flow, ``p50``-style keys plus
        ``mean``).  A zero-packet flow contributes ``None`` instead of a
        NaN-filled row (``np.percentile`` on an empty array)."""
        out: List[Optional[Dict[str, float]]] = []
        for delays in self.per_flow_delays_ms():
            if delays.size == 0:
                out.append(None)
                continue
            row = {f"p{q:g}": float(np.percentile(delays, q)) for q in qs}
            row["mean"] = float(delays.mean())
            out.append(row)
        return out

    @property
    def mean_delay_ms(self) -> float:
        """Mean per-packet delay across every packet of every flow
        (zero-packet flows carry no weight; an all-empty grid raises)."""
        populated = [d for d in self.per_flow_delays_ms() if d.size > 0]
        if not populated:
            raise ValueError(
                "mean_delay_ms is undefined: no flow in this run carried"
                " any packets")
        return float(np.concatenate(populated).mean())

    @property
    def makespan_s(self) -> float:
        spans = [run.trace.makespan_s() for run in self.flows
                 if len(run.trace) > 0]
        if not spans:
            raise ValueError(
                "makespan_s is undefined: no flow in this run carried"
                " any packets")
        return max(spans)


def contention_link(n_flows: int, *, background_stations: int = 1,
                    channel_error_rate: float = 0.0,
                    retry_limit: int = 7) -> LinkConfig:
    """The DCF fixed point for ``n_flows + background_stations``
    contenders, as a :class:`LinkConfig` (kernel-free: both engines and
    the benchmarks build their links through this)."""
    if n_flows < 1:
        raise ValueError(f"need at least one flow, got {n_flows}")
    if background_stations < 0:
        raise ValueError("background station count must be >= 0")
    params = DcfParameters(
        n_stations=n_flows + background_stations,
        channel_error_rate=channel_error_rate,
    )
    return LinkConfig(phy=params.phy, dcf=solve_dcf(params),
                      retry_limit=retry_limit)


MULTIFLOW_ENGINES = ("events", "vector")


def run_multiflow(
    bitstream: "Union[Bitstream, Sequence[Bitstream]]",
    *,
    flows: Optional[int] = None,
    policy: EncryptionPolicy,
    device: DeviceProfile,
    transport: TransportConfig = UDP_RTP,
    link: Optional[LinkConfig] = None,
    channel: Optional[LossChannel] = None,
    channel_error_rate: float = 0.0,
    retry_limit: int = 7,
    background_stations: int = 1,
    mtu: int = DEFAULT_MTU,
    disk_read_rate_pkts_per_s: float = 600.0,
    stagger_s: float = 0.0,
    seed: "Optional[int | np.random.SeedSequence]" = None,
    engine: str = "events",
    sampling: str = "batch",
) -> MultiFlowRun:
    """Run N contending senders; coroutine kernel or vector fast path.

    ``bitstream`` is either one encoded clip every flow transmits a copy
    of (then ``flows`` picks the count, default 2) or a sequence of
    clips, one per flow.  ``link`` overrides the DCF solution (no
    re-solve); otherwise the fixed point is solved for ``flows +
    background_stations`` stations.  ``stagger_s`` offsets flow ``i``'s
    producer by ``i * stagger_s`` to break phase-locked arrivals.

    ``engine="events"`` drives one generator coroutine per flow through
    the discrete-event kernel; ``engine="vector"`` pre-samples every
    flow's service draws into struct-of-arrays and schedules them in
    numpy (:mod:`repro.testbed.vector_flows`) — same process, orders of
    magnitude faster at large N.  ``sampling`` applies to the vector
    engine only: ``"oracle"`` replays the kernel's exact RNG streams
    (bit-identical traces, Python-loop sampling speed), ``"batch"``
    draws whole matrices from one Philox stream (the fast path,
    distributionally identical).  A stateful ``channel`` is only
    expressible on the events engine — its draws depend on cross-flow
    interleaving, which pre-sampling removes — so the vector engine
    rejects it.
    """
    if engine not in MULTIFLOW_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of"
            f" {MULTIFLOW_ENGINES}")
    if isinstance(bitstream, Bitstream):
        n_flows = 2 if flows is None else flows
        streams: List[Bitstream] = [bitstream] * n_flows
    else:
        streams = list(bitstream)
        if flows is not None and flows != len(streams):
            raise ValueError(
                f"flows={flows} but {len(streams)} bitstreams were given")
        n_flows = len(streams)
    if n_flows < 1:
        raise ValueError(f"need at least one flow, got {n_flows}")
    if stagger_s < 0:
        raise ValueError("stagger must be non-negative")

    if engine == "vector":
        if channel is not None:
            raise ValueError(
                "engine='vector' cannot thread a stateful LossChannel:"
                " shared channel state makes draws depend on cross-flow"
                " interleaving, which pre-sampling removes.  Use"
                " engine='events', or express iid loss via"
                " channel_error_rate / the transport's retry model."
            )
        if link is None:
            link = contention_link(
                n_flows, background_stations=background_stations,
                channel_error_rate=channel_error_rate,
                retry_limit=retry_limit)
        service = _service_for(policy, device, link, transport)
        flow_streams, flow_arrivals = _packetize_flows(
            streams, mtu=mtu,
            disk_read_rate_pkts_per_s=disk_read_rate_pkts_per_s,
            stagger_s=stagger_s)
        from .vector_flows import run_vector_flows
        vrun = run_vector_flows(
            flow_streams, flow_arrivals, service=service, seed=seed,
            sampling=sampling)
        return vrun.to_multiflow_run()

    kernel = EventKernel(seed=seed)
    if link is not None:
        mac = ContentionMAC(kernel, link=link, channel=channel)
    else:
        mac = ContentionMAC.for_flows(
            kernel, n_flows,
            background_stations=background_stations,
            channel_error_rate=channel_error_rate,
            retry_limit=retry_limit,
            channel=channel,
        )
    service = _service_for(policy, device, mac.link, transport)

    flow_processes: List[FlowProcess] = []
    for index, stream in enumerate(streams):
        packets = packetize(stream, mtu=mtu, carry_payload=False)
        arrivals = arrival_times(
            packets, fps=stream.fps,
            disk_read_rate_pkts_per_s=disk_read_rate_pkts_per_s,
        )
        flow = FlowProcess(
            index, packets, arrivals,
            mac=mac, service=service, rng=kernel.spawn_rng(),
            start_offset_s=index * stagger_s,
        )
        kernel.add_process(flow.process(kernel), name=f"flow-{index}")
        flow_processes.append(flow)

    kernel.run()
    return MultiFlowRun(flows=[flow.as_run() for flow in flow_processes])


def _service_for(policy: EncryptionPolicy, device: DeviceProfile,
                 link: LinkConfig,
                 transport: TransportConfig) -> PacketService:
    cost = (device.cipher_cost(policy.algorithm)
            if policy.algorithm is not None and policy.mode != "none"
            else None)
    return PacketService(link=link, transport=transport,
                         policy=policy, cost=cost)


def _packetize_flows(streams: List[Bitstream], *, mtu: int,
                     disk_read_rate_pkts_per_s: float, stagger_s: float):
    """Per-flow packet sequences and (offset) arrival arrays, with one
    packetize pass per *distinct* bitstream object — flows transmitting
    copies of the same clip share the packet list and base arrivals, so
    a 10^4-flow grid over one clip packetizes once."""
    by_stream: Dict[int, Tuple[List[Packet], np.ndarray]] = {}
    flow_streams: List[List[Packet]] = []
    flow_arrivals: List[np.ndarray] = []
    for index, stream in enumerate(streams):
        key = id(stream)
        if key not in by_stream:
            packets = packetize(stream, mtu=mtu, carry_payload=False)
            arrivals = arrival_times(
                packets, fps=stream.fps,
                disk_read_rate_pkts_per_s=disk_read_rate_pkts_per_s,
            )
            by_stream[key] = (packets, arrivals)
        packets, arrivals = by_stream[key]
        flow_streams.append(packets)
        # Replicates FlowProcess: arrival = float(base) + offset.
        flow_arrivals.append(arrivals + index * stagger_s)
    return flow_streams, flow_arrivals
