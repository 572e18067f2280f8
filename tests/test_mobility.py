"""The mobility layer: traces, AP selection, handoff gaps, and the
kernel-vs-vector arrival-latch contract.

The three properties the ISSUE pins:

- a handoff gap never *improves* delivered packets (gaps force the
  delivery rate to zero; everything else is unchanged);
- a zero-speed trace is byte-identical to the static multiflow
  simulator (the retune process spawns no RNG and never fires);
- hysteresis selection never flaps between equal-RSSI APs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import standard_policies
from repro.mobility import (
    MOBILITY_PROFILES,
    SELECTION_POLICIES,
    build_profile,
    build_scenario,
    default_field,
    linear_trace,
    parked_trace,
    parse_mobility_spec,
    run_mobility,
    select_aps,
    waypoint_trace,
)
from repro.mobility.field import error_rate_for_margin, rates_and_errors
from repro.mobility.selection import handoff_count
from repro.testbed import DEVICES, ExperimentConfig
from repro.testbed.multiflow import run_multiflow
from repro.video import CodecConfig, encode_sequence, generate_clip

POLICY = standard_policies("AES256")["I"]
DEVICE = DEVICES["samsung-s2"]


@pytest.fixture(scope="module")
def bitstream():
    clip = generate_clip("slow", 12, seed=1)
    return encode_sequence(clip, CodecConfig(gop_size=6, quantizer=8))


def _rows(result):
    return [
        (t.sequence_number, t.enqueue_time_s, t.service_start_s,
         t.encryption_time_s, t.transmit_time_s, t.departure_time_s,
         t.encrypted, t.delivered, t.attempts)
        for run in result.flows for t in run.trace]


def _delivered(result):
    return sum(sum(run.usable_by_receiver) for run in result.flows)


# -- traces --------------------------------------------------------------------


class TestTraces:
    def test_parked_is_one_position(self):
        trace = parked_trace(10.0)
        assert trace.speed_mps == 0.0
        assert np.all(trace.positions_m == trace.positions_m[0])
        assert trace.duration_s == 10.0

    def test_linear_covers_speed_times_duration(self):
        trace = linear_trace(2.0, 10.0, timestep_s=0.5)
        span = np.linalg.norm(trace.positions_m[-1] - trace.positions_m[0])
        assert span == pytest.approx(20.0)

    def test_position_at_interpolates_and_clamps(self):
        trace = linear_trace(1.0, 4.0, start_m=(0.0, 0.0))
        assert trace.position_at(1.5)[0, 0] == pytest.approx(1.5)
        assert trace.position_at(99.0)[0, 0] == pytest.approx(4.0)

    def test_waypoint_is_seed_deterministic(self):
        first = waypoint_trace(3.0, 20.0, seed=11)
        again = waypoint_trace(3.0, 20.0, seed=11)
        other = waypoint_trace(3.0, 20.0, seed=12)
        assert np.array_equal(first.positions_m, again.positions_m)
        assert not np.array_equal(first.positions_m, other.positions_m)

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            parked_trace(1.0).__class__(
                np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)), 0.0)
        with pytest.raises(ValueError, match="start at t = 0"):
            parked_trace(1.0).__class__(
                np.array([1.0, 2.0]), np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError, match="timestep"):
            parked_trace(1.0, timestep_s=0.0)
        with pytest.raises(ValueError, match="positive speed"):
            waypoint_trace(0.0, 10.0)


# -- field ---------------------------------------------------------------------


class TestField:
    def test_rssi_falls_with_distance(self):
        field = default_field(1)
        near, far = field.rssi_dbm(np.array([[0.0, 2.0], [0.0, 50.0]]))
        assert near[0] > far[0]

    def test_clean_margin_means_zero_error(self):
        assert error_rate_for_margin(30.0) == 0.0
        assert error_rate_for_margin(35.0) == 0.0
        assert 0.0 < error_rate_for_margin(10.0) <= 0.25

    def test_rates_ladder_monotone_in_rssi(self):
        rssi = np.array([-60.0, -70.0, -80.0, -95.0])
        rate, _ = rates_and_errors(rssi)
        assert rate[0] >= rate[1] >= rate[2]
        assert rate[-1] == 0.0  # out of range


# -- selection -----------------------------------------------------------------


class TestSelection:
    def test_strongest_is_argmax(self):
        rssi = np.array([[-60.0, -70.0], [-75.0, -65.0]])
        assert select_aps(rssi, "strongest").tolist() == [0, 1]

    @settings(max_examples=25, deadline=None)
    @given(level=st.floats(-90.0, -40.0),
           samples=st.integers(2, 40),
           n_aps=st.integers(2, 5),
           margin=st.floats(0.5, 10.0))
    def test_hysteresis_never_flaps_between_equal_aps(
            self, level, samples, n_aps, margin):
        """Between APs of exactly equal strength the damper must hold
        the first association forever — zero handoffs."""
        rssi = np.full((samples, n_aps), level)
        chosen = select_aps(rssi, "hysteresis", hysteresis_db=margin)
        assert handoff_count(chosen) == 0
        assert np.all(chosen == chosen[0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), samples=st.integers(2, 30))
    def test_hysteresis_switches_at_most_as_often_as_strongest(
            self, seed, samples):
        rng = np.random.default_rng(seed)
        rssi = -90.0 + 40.0 * rng.random((samples, 3))
        greedy = handoff_count(select_aps(rssi, "strongest"))
        damped = handoff_count(select_aps(rssi, "hysteresis"))
        assert damped <= greedy

    def test_history_smooths_a_transient_peak(self):
        # One-sample spike on AP 1: history's trailing mean ignores it.
        rssi = np.array([[-60.0, -70.0]] * 3 + [[-60.0, -50.0]]
                        + [[-60.0, -70.0]] * 3)
        spiky = select_aps(rssi, "strongest")
        smooth = select_aps(rssi, "history", history_window=3)
        assert handoff_count(smooth) <= handoff_count(spiky)


# -- scenarios -----------------------------------------------------------------


class TestScenario:
    def test_spec_parsing(self):
        assert parse_mobility_spec("parked") == ("parked", "strongest")
        assert parse_mobility_spec("vehicular:hysteresis") == \
            ("vehicular", "hysteresis")
        with pytest.raises(ValueError, match="unknown mobility profile"):
            parse_mobility_spec("teleport")
        with pytest.raises(ValueError, match="unknown selection policy"):
            parse_mobility_spec("parked:psychic")
        with pytest.raises(ValueError, match="non-empty"):
            parse_mobility_spec("")

    def test_every_named_profile_builds(self):
        for profile in MOBILITY_PROFILES:
            for selection in SELECTION_POLICIES:
                scenario = build_profile(f"{profile}:{selection}")
                assert scenario.segments[0].start_s == 0.0
                assert math.isinf(scenario.segments[-1].end_s)
                assert scenario.describe()["profile"] == profile

    def test_parked_profile_is_one_clean_segment(self):
        scenario = build_profile("parked")
        assert scenario.n_segments == 1
        assert scenario.handoffs == 0
        segment = scenario.segments[0]
        assert segment.rate_mbps == 54.0
        assert segment.error_rate == 0.0
        assert not segment.in_gap

    def test_gaps_open_on_handoffs(self):
        no_gap = build_scenario(
            linear_trace(25.0, 4.0, timestep_s=0.1),
            default_field(6, spacing_m=15.0), n_stations=3)
        gapped = build_scenario(
            linear_trace(25.0, 4.0, timestep_s=0.1),
            default_field(6, spacing_m=15.0),
            handoff_gap_s=0.15, n_stations=3)
        assert no_gap.handoffs == gapped.handoffs > 0
        assert no_gap.gap_time_s == 0.0
        assert gapped.gap_time_s > 0.0
        assert any(s.in_gap for s in gapped.segments)
        assert all(s.delivery_rate == 0.0
                   for s in gapped.segments if s.in_gap)

    def test_segment_index_latches_half_open_intervals(self):
        scenario = build_profile("vehicular")
        starts = scenario.segment_starts
        # exactly at a boundary -> the segment that starts there
        assert scenario.segment_at(float(starts[1])).start_s == starts[1]
        index = scenario.segment_index_at([0.0, float(starts[1]) - 1e-9])
        assert index[0] == 0
        assert index[1] == 0


# -- runs: the engine contract -------------------------------------------------


class TestRuns:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16))
    def test_kernel_and_vector_oracle_agree_exactly(self, bitstream, seed):
        scenario = build_scenario(
            linear_trace(25.0, 4.0, timestep_s=0.1),
            default_field(6, spacing_m=15.0),
            handoff_gap_s=0.15, n_stations=3)
        kwargs = dict(mobility=scenario, flows=2, policy=POLICY,
                      device=DEVICE, seed=seed)
        kernel = run_mobility(bitstream, **kwargs)
        vector = run_mobility(bitstream, engine="vector",
                              sampling="oracle", **kwargs)
        assert _rows(kernel.flows_run) == _rows(vector.flows_run)
        assert kernel.gap_packets == vector.gap_packets

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), flows=st.integers(1, 3))
    def test_zero_speed_is_byte_identical_to_static(self, bitstream,
                                                    seed, flows):
        kwargs = dict(flows=flows, policy=POLICY, device=DEVICE,
                      seed=seed)
        parked = run_mobility(bitstream, mobility="parked", **kwargs)
        static = run_multiflow(bitstream, **kwargs)
        assert _rows(parked.flows_run) == _rows(static)
        assert parked.retunes == 0
        assert parked.gap_packets == 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           gap_s=st.floats(0.05, 0.5))
    def test_handoff_gap_never_improves_delivery(self, bitstream, seed,
                                                 gap_s):
        """Same trace, same seed: opening gaps can only lose packets.
        With UDP the per-packet draw sequence is unchanged, so delivery
        outside gaps is identical and inside gaps forced to zero."""
        trace = linear_trace(25.0, 4.0, timestep_s=0.1)
        field = default_field(6, spacing_m=15.0)
        without = build_scenario(trace, field, n_stations=3)
        with_gap = build_scenario(trace, field, handoff_gap_s=gap_s,
                                  n_stations=3)
        kwargs = dict(flows=2, policy=POLICY, device=DEVICE, seed=seed,
                      engine="vector", sampling="oracle")
        clean = run_mobility(bitstream, mobility=without, **kwargs)
        gapped = run_mobility(bitstream, mobility=with_gap, **kwargs)
        assert _delivered(gapped.flows_run) <= _delivered(clean.flows_run)
        assert gapped.gap_packets >= 0

    def test_batch_sampling_is_sane(self, bitstream):
        run = run_mobility(bitstream, mobility="vehicular", flows=2,
                           policy=POLICY, device=DEVICE, seed=2013,
                           engine="vector")
        assert 0.0 < run.flows_run.mean_delay_ms < 1e4
        assert run.handoffs == run.scenario.handoffs

    def test_prebuilt_scenario_station_count_checked(self, bitstream):
        scenario = build_profile("parked", n_stations=5)
        with pytest.raises(ValueError, match="stations"):
            run_mobility(bitstream, mobility=scenario, flows=2,
                         policy=POLICY, device=DEVICE)


# -- experiment config plumbing ------------------------------------------------


class TestExperimentConfig:
    def test_mobility_roundtrips_in_description(self):
        config = ExperimentConfig(
            policy=POLICY, device=DEVICE, sensitivity_fraction=0.55,
            flows=2, decode_video=False, engine="events",
            mobility="vehicular:hysteresis")
        description = config.to_description()
        assert description["mobility"] == "vehicular:hysteresis"
        back = ExperimentConfig.from_description(description)
        assert back.mobility == "vehicular:hysteresis"

    def test_static_description_has_no_mobility_key(self):
        config = ExperimentConfig(
            policy=POLICY, device=DEVICE, sensitivity_fraction=0.55)
        assert "mobility" not in config.to_description()

    def test_mobility_requires_modern_engine(self):
        """A default-engine mobility cell resolves to the event kernel,
        with the explicit-events cell's description (and seeds)."""
        default = ExperimentConfig(
            policy=POLICY, device=DEVICE, sensitivity_fraction=0.55,
            mobility="parked")
        explicit = ExperimentConfig(
            policy=POLICY, device=DEVICE, sensitivity_fraction=0.55,
            engine="events", mobility="parked")
        assert default.engine == "events"
        assert default.to_description() == explicit.to_description()
        assert ExperimentConfig.from_description(
            default.to_description()) == explicit

    def test_bad_spec_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown mobility profile"):
            ExperimentConfig(
                policy=POLICY, device=DEVICE, sensitivity_fraction=0.55,
                engine="events", mobility="teleport")
