"""Discrete-event simulation of the Fig. 3 sender pipeline.

The producer thread reads video segments from disk into a queue; the
consumer thread takes the head-of-line segment, encrypts it if the policy
says so, and hands it to the transport, where it contends for the WiFi
channel (backoff) and is finally transmitted.  This module simulates that
pipeline packet by packet and emits the same traces the paper's
instrumented Android app logged.

Arrival process: frame ``f`` is read at ``f / fps``; an I-frame's MTU
fragments are enqueued back to back at the disk read rate, which is what
creates the two-phase (burst/trickle) structure the 2-MMPP models.

The run is the single-flow special case of the
:mod:`repro.testbed.events` kernel: one
:class:`~repro.testbed.multiflow.FlowProcess` owning an uncontended
:class:`~repro.testbed.multiflow.ContentionMAC` (eq. 19's single sender
owning the channel).  Every engine samples through the same
:class:`PacketService` in the same per-packet draw order (encryption,
backoff, delivery, transmission), so the vector engine's oracle mode
replays this run bit for bit — ``tests/test_events_differential.py``
asserts exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.policies import EncryptionPolicy
from ..crypto.timing import CipherCost
from ..video.gop import Bitstream
from ..video.packetizer import DEFAULT_MTU, Packet, packetize
from ..wifi.dcf import DcfParameters, DcfSolution, solve_dcf
from ..wifi.phy import Phy80211g
from .devices import DeviceProfile
from .tracing import TraceLog
from .transport import UDP_RTP, TransportConfig, delivery_outcome

__all__ = ["LinkConfig", "PacketService", "SenderSimulator",
           "SimulationRun", "arrival_times", "sample_backoff_time"]

@dataclass(frozen=True)
class LinkConfig:
    """The WiFi link as the sender experiences it."""

    phy: Phy80211g
    dcf: DcfSolution
    retry_limit: int = 7

    @classmethod
    def default(cls, *, n_stations: int = 2,
                channel_error_rate: float = 0.0) -> "LinkConfig":
        params = DcfParameters(n_stations=n_stations,
                               channel_error_rate=channel_error_rate)
        return cls(phy=params.phy, dcf=solve_dcf(params))

    @property
    def delivery_rate(self) -> float:
        """End-to-end per-packet delivery after MAC retries."""
        p = self.dcf.packet_success_rate
        return 1.0 - (1.0 - p) ** (self.retry_limit + 1)


def arrival_times(packets: Sequence[Packet], *, fps: float,
                  disk_read_rate_pkts_per_s: float) -> np.ndarray:
    """Enqueue instant of every packet (producer side of Fig. 3)."""
    times = np.empty(len(packets))
    fragment_gap = 1.0 / disk_read_rate_pkts_per_s
    for i, packet in enumerate(packets):
        frame_time = packet.frame_index / fps
        times[i] = frame_time + packet.fragment_index * fragment_gap
    return times


def sample_backoff_time(dcf: DcfSolution, rng: np.random.Generator) -> float:
    """Geometric collisions, exponential waits (the eq. 6-7 process)."""
    collisions = rng.geometric(dcf.packet_success_rate) - 1
    if collisions == 0:
        return 0.0
    lam = dcf.backoff_rate_per_s
    return float(rng.exponential(1.0 / lam, collisions).sum())


@dataclass(frozen=True)
class PacketService:
    """The stochastic per-packet service components (paper eqs. 6-7, 15).

    Every execution engine samples through this object, and the
    per-packet draw order — encryption, backoff, delivery, transmission
    — is part of its contract: it is what makes the event kernel and the
    vector engine's oracle mode produce identical streams from identical
    seeds.
    """

    link: LinkConfig
    transport: TransportConfig
    policy: EncryptionPolicy
    cost: Optional[CipherCost]

    def encrypts(self, packet: Packet) -> bool:
        return self.cost is not None and self.policy.encrypts(packet)

    def encryption_time(self, packet: Packet,
                        rng: np.random.Generator) -> float:
        if not self.encrypts(packet):
            return 0.0
        mean = self.cost.time_for(packet.payload_size)
        sigma = self.cost.sigma_for(packet.payload_size)
        return max(0.0, rng.normal(mean, sigma)) if sigma > 0 else mean

    def backoff_time(self, rng: np.random.Generator) -> float:
        return sample_backoff_time(self.link.dcf, rng)

    def delivery(self, rng: np.random.Generator):
        return delivery_outcome(self.transport, self.link.delivery_rate, rng)

    def transmission_time(self, packet: Packet,
                          rng: np.random.Generator) -> float:
        wire = packet.payload_size + self.transport.header_bytes
        mean = self.link.phy.packet_transmission_time_s(wire)
        return max(0.0, rng.normal(mean, 0.03 * mean))


@dataclass
class SimulationRun:
    """Everything one sender run produced."""

    trace: TraceLog
    packets: List[Packet]
    usable_by_receiver: List[bool]
    usable_by_eavesdropper: List[bool]

    @property
    def mean_delay_ms(self) -> float:
        return self.trace.mean_delay_s() * 1e3


class SenderSimulator:
    """Simulate transfers of one encoded clip under one policy."""

    def __init__(
        self,
        bitstream: Bitstream,
        *,
        device: DeviceProfile,
        link: Optional[LinkConfig] = None,
        transport: TransportConfig = UDP_RTP,
        mtu: int = DEFAULT_MTU,
        disk_read_rate_pkts_per_s: float = 600.0,
        padding: str = "none",
    ) -> None:
        self.bitstream = bitstream
        self.device = device
        self.link = link or LinkConfig.default()
        self.transport = transport
        self.mtu = mtu
        self.disk_read_rate = disk_read_rate_pkts_per_s
        self.packets = packetize(bitstream, mtu=mtu, carry_payload=False)
        if padding != "none":
            # Traffic-analysis countermeasure (see testbed.traffic_analysis):
            # padded payloads cost real airtime and crypto time here.
            from .traffic_analysis import pad_packets
            self.packets = pad_packets(self.packets, padding, mtu=mtu)

    # -- arrival process --------------------------------------------------------

    def _arrival_times(self) -> np.ndarray:
        return arrival_times(
            self.packets, fps=self.bitstream.fps,
            disk_read_rate_pkts_per_s=self.disk_read_rate,
        )

    def _service(self, policy: EncryptionPolicy) -> PacketService:
        cost = (self.device.cipher_cost(policy.algorithm)
                if policy.algorithm is not None and policy.mode != "none"
                else None)
        return PacketService(link=self.link, transport=self.transport,
                             policy=policy, cost=cost)

    # -- the run ------------------------------------------------------------------

    def run(self, policy: EncryptionPolicy, *,
            seed: "Optional[int | np.random.SeedSequence]" = None
            ) -> SimulationRun:
        """One transfer of the whole clip under ``policy``: one
        FlowProcess on an uncontended ContentionMAC built from this
        simulator's link (no DCF re-solve), drawing from
        ``default_rng(seed)``."""
        # Imported here: multiflow builds on this module's PacketService.
        from .events import EventKernel
        from .multiflow import ContentionMAC, FlowProcess

        kernel = EventKernel()
        mac = ContentionMAC(kernel, link=self.link)
        flow = FlowProcess(
            0, self.packets, self._arrival_times(),
            mac=mac, service=self._service(policy),
            rng=np.random.default_rng(seed),
        )
        kernel.add_process(flow.process(kernel), name="flow-0")
        kernel.run()
        return flow.as_run()
