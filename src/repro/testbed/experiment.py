"""End-to-end experiments: clip x policy x device -> the paper's metrics.

One experiment mirrors the paper's methodology (Section 6.1): transmit
the encoded clip through the simulated sender under a policy, reconstruct
the video at the legitimate receiver (decrypts everything delivered) and
at the eavesdropper (encrypted packets are erasures), and report

- per-packet delay (mean over packets; repeated runs give 95% CIs),
- PSNR and MOS at both observers (EvalVid-style),
- average power via the device energy model (eq. 29's quantity).

``run_repeated`` is the paper's "each experiment is repeated 20 times".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..analysis.stats import Summary, summarize
from ..core.policies import EncryptionPolicy
from ..crypto.timing import CipherCost
from ..video.concealment import CONCEALMENT_MODES, conceal_decode
from ..video.gop import Bitstream
from ..video.packetizer import frames_decodable
from ..video.quality import sequence_mos, sequence_psnr
from ..video.yuv import Sequence420
from ..wifi.dcf import DcfSolution
from ..wifi.phy import Phy80211g
from .devices import DeviceProfile
from .energy import EnergyBreakdown, average_power_w
from .multiflow import MultiFlowRun, run_multiflow
from .simulator import LinkConfig, SenderSimulator, SimulationRun
from .transport import UDP_RTP, TransportConfig

__all__ = ["ExperimentConfig", "ExperimentResult", "RepeatedResult",
           "Seed", "run_experiment", "run_repeated"]

# Anything np.random.default_rng accepts; SeedSequence children are what
# the engine and run_repeated hand out so streams never overlap.
Seed = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one experiment cell.

    ``engine`` selects the sender engine.  The default (``None``) and
    ``"events"`` run the discrete-event kernel, ``"vector"`` the
    struct-of-arrays fast path.  ``flows > 1`` runs that many senders
    contending for one AP through
    :func:`repro.testbed.multiflow.run_multiflow`; a default-engine
    config with ``flows > 1`` or ``mobility`` resolves to ``"events"``.
    Every engine and flow count can reconstruct video: the observers
    decode flow 0's packets.

    ``mobility`` runs the transfer along a named mobility profile
    (``"vehicular:hysteresis"`` — see
    :func:`repro.mobility.parse_mobility_spec`): the link is derived
    from the scenario's AP field, so ``link`` must stay ``None``.
    """

    policy: EncryptionPolicy
    device: DeviceProfile
    sensitivity_fraction: float
    transport: TransportConfig = UDP_RTP
    link: Optional[LinkConfig] = None
    decode_video: bool = True
    eavesdropper_mode: str = "best_effort"  # what a real attacker's decoder does
    receiver_mode: str = "strict"           # EvalVid's reconstruction policy
    flows: int = 1
    engine: Optional[str] = None            # None (kernel) | "events" | "vector"
    mobility: Optional[str] = None          # profile spec, e.g. "vehicular"

    def __post_init__(self) -> None:
        if self.engine not in (None, "events", "vector"):
            raise ValueError(
                f"unknown engine {self.engine!r}; expected 'events' or"
                " 'vector' (or None for the default kernel)"
            )
        if not isinstance(self.flows, int) or isinstance(self.flows, bool) \
                or self.flows < 1:
            raise ValueError(
                f"flows must be a positive integer, got {self.flows!r}")
        if self.engine is None and (self.flows > 1
                                    or self.mobility is not None):
            object.__setattr__(self, "engine", "events")
        for field_name in ("receiver_mode", "eavesdropper_mode"):
            mode = getattr(self, field_name)
            if mode not in CONCEALMENT_MODES:
                raise ValueError(
                    f"unknown {field_name} {mode!r}; expected one of"
                    f" {CONCEALMENT_MODES}")
        if not 0.0 <= self.sensitivity_fraction <= 1.0:
            raise ValueError(
                "sensitivity_fraction must lie in [0, 1], got"
                f" {self.sensitivity_fraction!r}")
        if self.mobility is not None:
            if self.link is not None:
                raise ValueError(
                    "mobility derives the link from the scenario's AP"
                    " field; leave link=None")
            from ..mobility.scenario import parse_mobility_spec
            parse_mobility_spec(self.mobility)  # raises on a bad spec

    # -- wire format ---------------------------------------------------------
    #
    # The canonical JSON-able description below is load-bearing twice
    # over: it feeds the engine's content-addressed cell keys *and* the
    # per-cell seed derivation, so its shape is part of the cache-key
    # schema (see ENGINE_SCHEMA_VERSION in engine.py).  Additive fields
    # must be emitted only when they leave their defaults, or every
    # pre-existing key and seed stream changes.

    def to_description(self) -> Dict[str, Any]:
        """Canonical JSON-able description of this cell config."""
        device = self.device
        link = None
        if self.link is not None:
            link = {
                "retry_limit": self.link.retry_limit,
                "phy": asdict(self.link.phy),
                "dcf": asdict(self.link.dcf),
            }
        description: Dict[str, Any] = {
            "policy": {
                "mode": self.policy.mode,
                "algorithm": self.policy.algorithm,
                "fraction": self.policy.fraction,
            },
            "device": {
                "name": device.name,
                "base_power_w": device.base_power_w,
                "cpu_power_w": device.cpu_power_w,
                "radio_tx_power_w": device.radio_tx_power_w,
                "cipher_costs": {
                    name: asdict(cost)
                    for name, cost in sorted(device.cipher_costs.items())
                },
            },
            "transport": asdict(self.transport),
            "link": link,
            "sensitivity_fraction": self.sensitivity_fraction,
            "decode_video": self.decode_video,
            "eavesdropper_mode": self.eavesdropper_mode,
            "receiver_mode": self.receiver_mode,
        }
        # Additive fields must not perturb pre-existing keys/seed streams:
        # emit them only when they leave the single-flow defaults.
        if self.flows != 1:
            description["flows"] = self.flows
        if self.engine is not None:
            description["engine"] = self.engine
        if self.mobility is not None:
            description["mobility"] = self.mobility
        return description

    @classmethod
    def from_description(cls, description: Dict[str, Any]
                         ) -> "ExperimentConfig":
        """Inverse of :meth:`to_description` — exact reconstruction.

        Queue workers receive cells as serialized descriptions and must
        rebuild a config whose :meth:`to_description` matches the
        submitter's byte for byte (the cell key and seed streams hash
        it), so unknown fields are an error, never silently dropped.
        """
        try:
            known = {"policy", "device", "transport", "link",
                     "sensitivity_fraction", "decode_video",
                     "eavesdropper_mode", "receiver_mode", "flows",
                     "engine", "mobility"}
            unknown = set(description) - known
            if unknown:
                raise ValueError(
                    f"unknown config fields {sorted(unknown)}; this worker"
                    " is older than the submitter"
                )
            policy = EncryptionPolicy(**description["policy"])
            device_desc = dict(description["device"])
            device = DeviceProfile(
                name=device_desc["name"],
                base_power_w=device_desc["base_power_w"],
                cpu_power_w=device_desc["cpu_power_w"],
                radio_tx_power_w=device_desc["radio_tx_power_w"],
                cipher_costs={
                    name: CipherCost(**cost)
                    for name, cost in device_desc["cipher_costs"].items()
                },
            )
            link = None
            if description.get("link") is not None:
                link_desc = description["link"]
                link = LinkConfig(
                    phy=Phy80211g(**link_desc["phy"]),
                    dcf=DcfSolution(**link_desc["dcf"]),
                    retry_limit=link_desc["retry_limit"],
                )
            return cls(
                policy=policy,
                device=device,
                sensitivity_fraction=description["sensitivity_fraction"],
                transport=TransportConfig(**description["transport"]),
                link=link,
                decode_video=description["decode_video"],
                eavesdropper_mode=description["eavesdropper_mode"],
                receiver_mode=description["receiver_mode"],
                flows=description.get("flows", 1),
                engine=description.get("engine"),
                mobility=description.get("mobility"),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"malformed experiment-config description: {exc!r}"
            ) from exc


@dataclass
class ExperimentResult:
    """Metrics of a single run.

    ``run`` is flow 0's trace, the scalar metrics aggregate over every
    flow's packets, and ``multiflow`` keeps the full per-flow runs
    (percentile views included; one flow for single-flow cells).
    """

    run: SimulationRun
    multiflow: MultiFlowRun
    mean_delay_ms: float
    mean_waiting_ms: float
    energy: EnergyBreakdown
    receiver_psnr_db: Optional[float] = None
    receiver_mos: Optional[float] = None
    eavesdropper_psnr_db: Optional[float] = None
    eavesdropper_mos: Optional[float] = None

    @property
    def average_power_w(self) -> float:
        return self.energy.average_power_w


def run_experiment(
    original: Sequence420,
    bitstream: Bitstream,
    config: ExperimentConfig,
    *,
    seed: Optional[Seed] = None,
    simulator: Optional[SenderSimulator] = None,
) -> ExperimentResult:
    """Run one transfer and measure everything the paper measures.

    Three stages: transfer the clip through the cell's sender engine,
    aggregate delay and energy over every flow, and (``decode_video``)
    reconstruct flow 0 at both observers.  ``simulator`` is reused by
    single-flow static kernel cells (see :func:`run_repeated`).
    """
    mrun = _transfer(bitstream, config, seed, simulator)
    result = _aggregate(config.device, mrun)
    if config.decode_video:
        _reconstruct(original, bitstream, config, result)
    return result


def _uses_simulator(config: ExperimentConfig) -> bool:
    """Single-flow static kernel cells run on :class:`SenderSimulator`."""
    return (config.flows == 1 and config.mobility is None
            and config.engine != "vector")


def _transfer(bitstream: Bitstream, config: ExperimentConfig,
              seed: Optional[Seed],
              simulator: Optional[SenderSimulator]) -> MultiFlowRun:
    if _uses_simulator(config):
        simulator = simulator or SenderSimulator(
            bitstream,
            device=config.device,
            link=config.link,
            transport=config.transport,
        )
        return MultiFlowRun([simulator.run(config.policy, seed=seed)])
    if config.mobility is not None:
        from ..mobility import run_mobility  # imports this module's config

        return run_mobility(
            bitstream,
            mobility=config.mobility,
            flows=config.flows,
            policy=config.policy,
            device=config.device,
            transport=config.transport,
            seed=seed,
            engine=config.engine,
        ).flows_run
    return run_multiflow(
        bitstream,
        flows=config.flows,
        policy=config.policy,
        device=config.device,
        transport=config.transport,
        link=config.link,
        seed=seed,
        engine=config.engine,
    )


def _aggregate(device: DeviceProfile, mrun: MultiFlowRun) -> ExperimentResult:
    """Scalar metrics over every flow of one transfer.

    Delays average over every packet of every flow.  The energy
    breakdown is the *average sender's*: per-flow CPU/radio busy times
    averaged over the shared transfer window (every phone is powered
    until the last departure).  Exact for one flow: ``np.mean`` and
    ``max`` over a single element return that element.
    """
    traces = [run.trace for run in mrun.flows]
    delays = [t.sojourn_time_s for trace in traces for t in trace]
    waits = [t.waiting_time_s for trace in traces for t in trace]
    energy = average_power_w(
        device,
        duration_s=mrun.makespan_s,
        crypto_time_s=float(np.mean(
            [trace.total_crypto_time_s() for trace in traces])),
        airtime_s=float(np.mean(
            [trace.total_airtime_s() for trace in traces])),
    )
    return ExperimentResult(
        run=mrun.flows[0],
        mean_delay_ms=float(np.mean(delays)) * 1e3,
        mean_waiting_ms=float(np.mean(waits)) * 1e3,
        energy=energy,
        multiflow=mrun,
    )


def _reconstruct(original: Sequence420, bitstream: Bitstream,
                 config: ExperimentConfig, result: ExperimentResult) -> None:
    """Decode flow 0 at the legitimate receiver (decrypts everything
    delivered) and at the eavesdropper (encrypted packets are
    erasures), and score both against the original clip."""
    run = result.run

    def observe(usable: List[bool], mode: str) -> Tuple[float, float]:
        decodable = frames_decodable(run.packets, usable,
                                     config.sensitivity_fraction)
        video = conceal_decode(bitstream, decodable, mode=mode).sequence
        return sequence_psnr(original, video), sequence_mos(original, video)

    result.receiver_psnr_db, result.receiver_mos = observe(
        run.usable_by_receiver, config.receiver_mode)
    result.eavesdropper_psnr_db, result.eavesdropper_mos = observe(
        run.usable_by_eavesdropper, config.eavesdropper_mode)


@dataclass
class RepeatedResult:
    """Aggregates over repeated runs (mean +/- 95% CI, Section 6.1)."""

    delay_ms: Summary
    power_w: Summary
    receiver_psnr_db: Optional[Summary]
    eavesdropper_psnr_db: Optional[Summary]
    eavesdropper_mos: Optional[Summary]
    runs: List[ExperimentResult]


def run_repeated(
    original: Sequence420,
    bitstream: Bitstream,
    config: ExperimentConfig,
    *,
    repeats: int = 20,
    base_seed: int = 0,
) -> RepeatedResult:
    """The paper's 20-repetition protocol with aggregate statistics.

    Per-run randomness comes from ``SeedSequence(base_seed).spawn(repeats)``
    rather than ``base_seed + i``: consecutive integer seeds made different
    experiment cells reuse overlapping seed ranges (cell A's run 1 and cell
    B's run 0 shared a stream whenever their base seeds differed by one),
    so repeats are now statistically independent across cells.
    """
    if repeats < 1:
        raise ValueError("need at least one repetition")
    simulator = SenderSimulator(
        bitstream,
        device=config.device,
        link=config.link,
        transport=config.transport,
    ) if _uses_simulator(config) else None
    seeds = np.random.SeedSequence(base_seed).spawn(repeats)
    results = [
        run_experiment(original, bitstream, config,
                       seed=seeds[i], simulator=simulator)
        for i in range(repeats)
    ]
    decode = config.decode_video
    return RepeatedResult(
        delay_ms=summarize([r.mean_delay_ms for r in results]),
        power_w=summarize([r.average_power_w for r in results]),
        receiver_psnr_db=(summarize([r.receiver_psnr_db for r in results])
                          if decode else None),
        eavesdropper_psnr_db=(
            summarize([r.eavesdropper_psnr_db for r in results])
            if decode else None),
        eavesdropper_mos=(summarize([r.eavesdropper_mos for r in results])
                          if decode else None),
        runs=results,
    )
