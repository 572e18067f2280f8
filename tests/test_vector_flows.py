"""The struct-of-arrays fast path vs the coroutine kernel.

The vector engine's contract has two tiers; the oracle tier is also
the single-flow sender's reference (``test_events_differential.py``):

- ``sampling="oracle"`` + ``scheduler="exact"`` must reproduce the
  event kernel's traces *bit for bit* — hypothesis sweeps seeds, flow
  counts and lossy-channel configs through both engines;
- ``sampling="batch"`` (the 10^4-flow path) only promises the same
  *distribution*, so it is pinned statistically, while the batch
  scheduler is pinned against the exact scheduler on identical
  pre-sampled tables (pure determinism, ulp-level tolerance).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import standard_policies
from repro.core.policies import EncryptionPolicy
from repro.testbed.devices import GALAXY_S2, HTC_AMAZE_4G
from repro.testbed.multiflow import (
    MultiFlowRun,
    _packetize_flows,
    _service_for,
    contention_link,
    run_multiflow,
)
from repro.testbed.simulator import LinkConfig, SimulationRun
from repro.testbed.tracing import TraceLog
from repro.testbed.transport import HTTP_TCP, UDP_RTP
from repro.testbed.vector_flows import (
    SATURATION_DRAIN_FACTOR,
    _schedule_batch,
    _schedule_exact,
    build_tables,
    run_vector_flows,
)

SEED_GUARD = 2013
from repro.video import CodecConfig, encode_sequence, generate_clip
from repro.wifi.channel import GilbertElliottChannel


@pytest.fixture(scope="module")
def tiny_bitstream():
    clip = generate_clip("slow", 12, seed=1)
    return encode_sequence(clip, CodecConfig(gop_size=6, quantizer=8))


def _trace_tuples(result):
    return [
        (t.sequence_number, t.enqueue_time_s, t.service_start_s,
         t.encryption_time_s, t.transmit_time_s, t.departure_time_s,
         t.encrypted, t.delivered, t.attempts)
        for run in result.flows for t in run.trace
    ]


def _both(bitstream, **kwargs):
    kernel = run_multiflow(bitstream, **kwargs)
    vector = run_multiflow(bitstream, engine="vector", sampling="oracle",
                           **kwargs)
    return kernel, vector


class TestOracleMatchesKernel:
    """Bit-identical traces: the differential anchor of the fast path."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        flows=st.sampled_from([1, 2, 4]),
        error=st.sampled_from([0.0, 0.1, 0.3]),
    )
    def test_trace_identical_over_seeds_flows_loss(self, tiny_bitstream,
                                                   seed, flows, error):
        kernel, vector = _both(
            tiny_bitstream, flows=flows,
            policy=standard_policies("AES256")["I"], device=GALAXY_S2,
            seed=seed, channel_error_rate=error,
        )
        assert _trace_tuples(kernel) == _trace_tuples(vector)

    @pytest.mark.parametrize("policy_name", ["none", "I", "P", "all"])
    def test_trace_identical_per_policy(self, tiny_bitstream, policy_name):
        kernel, vector = _both(
            tiny_bitstream, flows=3,
            policy=standard_policies("AES256")[policy_name],
            device=GALAXY_S2, seed=11,
        )
        assert _trace_tuples(kernel) == _trace_tuples(vector)

    def test_mixture_policy_identical(self, tiny_bitstream):
        policy = EncryptionPolicy("i_plus_p_fraction", "3DES", fraction=0.2)
        kernel, vector = _both(tiny_bitstream, flows=4, policy=policy,
                               device=GALAXY_S2, seed=5)
        assert _trace_tuples(kernel) == _trace_tuples(vector)

    def test_tcp_on_lossy_link_identical(self, tiny_bitstream):
        """The retransmission path: extra RTO delays, attempts > 1, and
        undelivered packets must all line up."""
        lossy = LinkConfig.default(channel_error_rate=0.2)
        lossy = LinkConfig(phy=lossy.phy, dcf=lossy.dcf, retry_limit=0)
        kernel, vector = _both(
            tiny_bitstream, flows=2,
            policy=standard_policies("AES256")["I"], device=HTC_AMAZE_4G,
            link=lossy, transport=HTTP_TCP, seed=12,
        )
        assert _trace_tuples(kernel) == _trace_tuples(vector)
        assert any(t.attempts > 1
                   for run in kernel.flows for t in run.trace)

    def test_stagger_identical(self, tiny_bitstream):
        kernel, vector = _both(
            tiny_bitstream, flows=3,
            policy=standard_policies("AES256")["all"], device=GALAXY_S2,
            seed=9, stagger_s=0.004,
        )
        assert _trace_tuples(kernel) == _trace_tuples(vector)

    def test_usable_flags_identical(self, tiny_bitstream):
        kernel, vector = _both(
            tiny_bitstream, flows=2,
            policy=standard_policies("AES256")["I"], device=GALAXY_S2,
            seed=4, channel_error_rate=0.15,
        )
        for k_run, v_run in zip(kernel.flows, vector.flows):
            assert k_run.usable_by_receiver == v_run.usable_by_receiver
            assert k_run.usable_by_eavesdropper == \
                v_run.usable_by_eavesdropper


def _tables_for(bitstream, n_flows, *, seed, sampling):
    link = contention_link(n_flows)
    service = _service_for(standard_policies("AES256")["I"], GALAXY_S2,
                           link, UDP_RTP)
    flow_streams, flow_arrivals = _packetize_flows(
        [bitstream] * n_flows, mtu=1460,
        disk_read_rate_pkts_per_s=600.0, stagger_s=0.0)
    tables, _ = build_tables(flow_streams, flow_arrivals, service=service,
                             seed=seed, sampling=sampling)
    return tables


class TestBatchScheduler:
    """The vectorized scheduler vs the heap replay, same sampled tables
    (pure determinism — any disagreement beyond float reassociation is
    a bug, not noise)."""

    @pytest.mark.parametrize("sampling", ["oracle", "batch"])
    @pytest.mark.parametrize("n_flows", [1, 4, 16])
    def test_agrees_with_exact_to_ulps(self, tiny_bitstream, n_flows,
                                       sampling):
        tables = _tables_for(tiny_bitstream, n_flows, seed=11,
                             sampling=sampling)
        e_start, e_transmit, e_depart = _schedule_exact(tables)
        b_start, b_transmit, b_depart = _schedule_batch(tables)
        np.testing.assert_allclose(b_start, e_start, rtol=0, atol=1e-9)
        np.testing.assert_allclose(b_transmit, e_transmit, rtol=0,
                                   atol=1e-9)
        np.testing.assert_allclose(b_depart, e_depart, rtol=0, atol=1e-9)

    def test_airtime_segment_exact_per_packet(self, tiny_bitstream):
        """Committed ``depart`` must equal ``transmit + transmission_s``
        exactly (not to ulps) — the same single rounding the kernel's
        ``Timeout(transmission)`` performs, so airtime sums agree."""
        tables = _tables_for(tiny_bitstream, 8, seed=3, sampling="batch")
        _, transmit, depart = _schedule_batch(tables)
        mask = tables.valid_mask()
        assert np.array_equal(depart[mask],
                              (transmit + tables.transmission_s)[mask])

    def test_server_never_overlaps(self, tiny_bitstream):
        """Grant intervals on the shared medium must not overlap (up to
        the documented ulp reassociation drift)."""
        tables = _tables_for(tiny_bitstream, 12, seed=7, sampling="batch")
        _, transmit, depart = _schedule_batch(tables)
        mask = tables.valid_mask()
        order = np.argsort(transmit[mask], kind="stable")
        busy_from = (transmit[mask]
                     - tables.backoff_s[mask]
                     - tables.extra_delay_s[mask])[order]
        busy_to = depart[mask][order]
        assert np.all(busy_from[1:] >= busy_to[:-1] - 1e-9)


class TestBatchSamplingDistribution:
    """Batch sampling promises the kernel's distribution, not its
    stream: pin the delay profile statistically across fixed seeds."""

    def test_mean_delay_matches_kernel_across_seeds(self, tiny_bitstream):
        policy = standard_policies("AES256")["I"]
        seeds = range(6)
        kernel_mean = np.mean([
            run_multiflow(tiny_bitstream, flows=8, policy=policy,
                          device=GALAXY_S2, seed=seed).mean_delay_ms
            for seed in seeds
        ])
        batch_mean = np.mean([
            run_multiflow(tiny_bitstream, flows=8, policy=policy,
                          device=GALAXY_S2, seed=seed,
                          engine="vector").mean_delay_ms
            for seed in seeds
        ])
        assert batch_mean == pytest.approx(kernel_mean, rel=0.15)

    def test_delivery_rate_matches_kernel(self, tiny_bitstream):
        policy = standard_policies("AES256")["none"]
        kwargs = dict(flows=8, policy=policy, device=GALAXY_S2,
                      channel_error_rate=0.2)
        kernel_rate = np.mean([
            np.mean([np.mean(run.usable_by_receiver) for run in
                     run_multiflow(tiny_bitstream, seed=s, **kwargs).flows])
            for s in range(6)
        ])
        vector_rate = np.mean([
            np.mean([np.mean(run.usable_by_receiver) for run in
                     run_multiflow(tiny_bitstream, seed=s,
                                   engine="vector", **kwargs).flows])
            for s in range(6)
        ])
        assert vector_rate == pytest.approx(kernel_rate, abs=0.05)

    def test_large_grid_sane(self, tiny_bitstream):
        """A few hundred flows through the fast path: finite delays,
        FIFO-consistent makespan, everything accounted for."""
        link = contention_link(200)
        service = _service_for(standard_policies("AES256")["I"],
                               GALAXY_S2, link, UDP_RTP)
        flow_streams, flow_arrivals = _packetize_flows(
            [tiny_bitstream] * 200, mtu=1460,
            disk_read_rate_pkts_per_s=600.0, stagger_s=0.0)
        vrun = run_vector_flows(flow_streams, flow_arrivals,
                                service=service, seed=5)
        assert vrun.n_flows == 200
        delays = vrun.delays_ms()
        mask = vrun.tables.valid_mask()
        assert np.isfinite(delays[mask]).all()
        assert (delays[mask] >= 0).all()
        assert vrun.makespan_s >= np.max(vrun.depart_s[mask]) - 1e-12


class TestVectorRunViews:
    def test_views_match_materialized_run(self, tiny_bitstream):
        vrun = run_multiflow(tiny_bitstream, flows=3,
                             policy=standard_policies("AES256")["I"],
                             device=GALAXY_S2, seed=8, engine="vector",
                             sampling="oracle")
        kernel_equiv = run_multiflow(
            tiny_bitstream, flows=3,
            policy=standard_policies("AES256")["I"],
            device=GALAXY_S2, seed=8)
        assert vrun.mean_delay_ms == pytest.approx(
            kernel_equiv.mean_delay_ms, rel=1e-12)
        assert vrun.makespan_s == pytest.approx(
            kernel_equiv.makespan_s, rel=1e-12)
        for v_row, k_row in zip(vrun.delay_percentiles_ms(),
                                kernel_equiv.delay_percentiles_ms()):
            for key in ("p50", "p90", "p99", "mean"):
                assert v_row[key] == pytest.approx(k_row[key], rel=1e-9)

    def test_zero_packet_flow_gives_none_row(self, tiny_bitstream):
        """Satellite regression, vector side: a zero-packet flow gets a
        ``None`` percentile row and NaN padding, never a NaN metric."""
        link = contention_link(2)
        service = _service_for(standard_policies("AES256")["I"],
                               GALAXY_S2, link, UDP_RTP)
        flow_streams, flow_arrivals = _packetize_flows(
            [tiny_bitstream], mtu=1460,
            disk_read_rate_pkts_per_s=600.0, stagger_s=0.0)
        flow_streams.append([])
        flow_arrivals.append(np.array([]))
        vrun = run_vector_flows(flow_streams, flow_arrivals,
                                service=service, seed=1)
        rows = vrun.delay_percentiles_ms()
        assert rows[0] is not None and rows[1] is None
        assert not np.isnan(vrun.mean_delay_ms)
        assert vrun.per_flow_delays_ms()[1].size == 0

    def test_all_empty_grid_raises_not_nan(self):
        link = contention_link(1)
        service = _service_for(standard_policies("AES256")["I"],
                               GALAXY_S2, link, UDP_RTP)
        vrun = run_vector_flows([[], []],
                                [np.array([]), np.array([])],
                                service=service, seed=1)
        assert vrun.delay_percentiles_ms() == [None, None]
        with pytest.raises(ValueError, match="no flow"):
            vrun.mean_delay_ms
        with pytest.raises(ValueError, match="no flow"):
            vrun.makespan_s


class TestMultiFlowRunEmptyFlows:
    """Satellite regression, kernel side: ``MultiFlowRun`` views used to
    crash (``np.percentile`` of an empty array) or emit NaN means when a
    flow carried zero packets."""

    def _empty_run(self):
        return SimulationRun(trace=TraceLog([]), packets=[],
                             usable_by_receiver=[],
                             usable_by_eavesdropper=[])

    def test_mixed_grid_skips_empty_flow(self, tiny_bitstream):
        populated = run_multiflow(
            tiny_bitstream, flows=1,
            policy=standard_policies("AES256")["I"], device=GALAXY_S2,
            seed=3).flows[0]
        mixed = MultiFlowRun(flows=[populated, self._empty_run()])
        rows = mixed.delay_percentiles_ms()
        assert rows[0] is not None and rows[1] is None
        assert not np.isnan(mixed.mean_delay_ms)
        assert mixed.makespan_s > 0

    def test_all_empty_grid_raises(self):
        empty = MultiFlowRun(flows=[self._empty_run(), self._empty_run()])
        assert empty.delay_percentiles_ms() == [None, None]
        with pytest.raises(ValueError, match="no flow"):
            empty.mean_delay_ms
        with pytest.raises(ValueError, match="no flow"):
            empty.makespan_s


class TestSaturationGuard:
    """Satellite regression: saturated grids must be flagged, not
    reported as astronomical-but-finite latency percentiles (the 10k-
    flow flows_scale point used to publish a p99 of ~8.2e14 ms)."""

    def _run(self, bitstream, n_flows):
        link = contention_link(n_flows)
        service = _service_for(standard_policies("AES256")["I"],
                               GALAXY_S2, link, UDP_RTP)
        flow_streams, flow_arrivals = _packetize_flows(
            [bitstream] * n_flows, mtu=1460,
            disk_read_rate_pkts_per_s=600.0, stagger_s=0.0)
        return run_vector_flows(flow_streams, flow_arrivals,
                                service=service, seed=SEED_GUARD)

    def test_light_grid_is_stable(self, tiny_bitstream):
        vrun = self._run(tiny_bitstream, 4)
        assert not vrun.saturated
        assert 1.0 <= vrun.drain_factor < SATURATION_DRAIN_FACTOR

    def test_overloaded_grid_is_flagged(self, tiny_bitstream):
        """Enough contenders that the backlog grows for the whole run:
        the drain factor blows past the threshold and the run must be
        reported unstable (the bench then emits p99 = inf)."""
        vrun = self._run(tiny_bitstream, 150)
        assert vrun.saturated
        assert vrun.drain_factor > SATURATION_DRAIN_FACTOR


class TestValidation:
    def test_unknown_engine_rejected(self, tiny_bitstream):
        with pytest.raises(ValueError, match="engine"):
            run_multiflow(tiny_bitstream, flows=2,
                          policy=standard_policies("AES256")["I"],
                          device=GALAXY_S2, engine="simpy")

    def test_stateful_channel_rejected_on_vector(self, tiny_bitstream):
        with pytest.raises(ValueError, match="LossChannel"):
            run_multiflow(tiny_bitstream, flows=2,
                          policy=standard_policies("AES256")["I"],
                          device=GALAXY_S2, engine="vector",
                          channel=GilbertElliottChannel(
                              p_gb=0.1, p_bg=0.4, seed=0))

    def test_unknown_sampling_and_scheduler_rejected(self, tiny_bitstream):
        link = contention_link(1)
        service = _service_for(standard_policies("AES256")["I"],
                               GALAXY_S2, link, UDP_RTP)
        flow_streams, flow_arrivals = _packetize_flows(
            [tiny_bitstream], mtu=1460,
            disk_read_rate_pkts_per_s=600.0, stagger_s=0.0)
        with pytest.raises(ValueError, match="sampling"):
            run_vector_flows(flow_streams, flow_arrivals,
                             service=service, sampling="quantum")
        with pytest.raises(ValueError, match="scheduler"):
            run_vector_flows(flow_streams, flow_arrivals,
                             service=service, scheduler="fifo")

    def test_mismatched_arrivals_rejected(self, tiny_bitstream):
        link = contention_link(1)
        service = _service_for(standard_policies("AES256")["I"],
                               GALAXY_S2, link, UDP_RTP)
        flow_streams, flow_arrivals = _packetize_flows(
            [tiny_bitstream], mtu=1460,
            disk_read_rate_pkts_per_s=600.0, stagger_s=0.0)
        with pytest.raises(ValueError, match="arrival"):
            run_vector_flows(flow_streams, [flow_arrivals[0][:-1]],
                             service=service)
