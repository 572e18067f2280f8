"""End-to-end experiments: metrics, repetition protocol."""

import pytest

from repro.core import standard_policies
from repro.testbed import (
    ExperimentConfig,
    GALAXY_S2,
    HTC_AMAZE_4G,
    run_experiment,
    run_repeated,
)
from repro.video.concealment import conceal_decode
from repro.video.packetizer import frames_decodable
from repro.video.quality import sequence_mos, sequence_psnr


@pytest.fixture(scope="module")
def base_config():
    return ExperimentConfig(
        policy=standard_policies("AES256")["I"],
        device=GALAXY_S2,
        sensitivity_fraction=0.55,
    )


class TestSingleRun:
    def test_produces_all_metrics(self, slow_clip, slow_bitstream,
                                  base_config):
        result = run_experiment(slow_clip, slow_bitstream, base_config,
                                seed=0)
        assert result.mean_delay_ms > 0
        assert result.average_power_w > GALAXY_S2.base_power_w * 0.9
        assert result.receiver_psnr_db > 30.0
        assert result.eavesdropper_psnr_db < 15.0
        assert result.eavesdropper_mos == pytest.approx(1.0, abs=0.2)

    def test_decode_disabled_skips_video_metrics(self, slow_clip,
                                                 slow_bitstream):
        config = ExperimentConfig(
            policy=standard_policies("AES256")["I"],
            device=GALAXY_S2, sensitivity_fraction=0.55, decode_video=False,
        )
        result = run_experiment(slow_clip, slow_bitstream, config, seed=0)
        assert result.receiver_psnr_db is None
        assert result.eavesdropper_psnr_db is None
        assert result.mean_delay_ms > 0

    def test_none_policy_gives_eavesdropper_everything(
            self, slow_clip, slow_bitstream):
        config = ExperimentConfig(
            policy=standard_policies("AES256")["none"],
            device=GALAXY_S2, sensitivity_fraction=0.55,
        )
        result = run_experiment(slow_clip, slow_bitstream, config, seed=0)
        assert result.eavesdropper_psnr_db == pytest.approx(
            result.receiver_psnr_db, abs=0.5
        )


class TestRepeatedRuns:
    def test_aggregates(self, slow_clip, slow_bitstream, base_config):
        repeated = run_repeated(slow_clip, slow_bitstream, base_config,
                                repeats=4, base_seed=100)
        assert repeated.delay_ms.n == 4
        assert repeated.delay_ms.ci_halfwidth >= 0.0
        assert len(repeated.runs) == 4
        assert repeated.eavesdropper_psnr_db.mean < 15.0

    def test_repeats_validated(self, slow_clip, slow_bitstream, base_config):
        with pytest.raises(ValueError):
            run_repeated(slow_clip, slow_bitstream, base_config, repeats=0)


class TestSeeding:
    """Regression: ``seed=base_seed + i`` let different experiment cells
    reuse overlapping seed ranges — cell A's run 1 (base_seed=0) and cell
    B's run 0 (base_seed=1) both ran on seed 1 and were bit-identical.
    ``SeedSequence(base_seed).spawn(n)`` keeps every stream distinct."""

    def test_overlapping_base_seeds_no_longer_share_streams(
            self, slow_clip, slow_bitstream, base_config):
        cell_a = run_repeated(slow_clip, slow_bitstream, base_config,
                              repeats=2, base_seed=0)
        cell_b = run_repeated(slow_clip, slow_bitstream, base_config,
                              repeats=2, base_seed=1)
        # Old scheme: cell_a seeds {0, 1}, cell_b seeds {1, 2} — so
        # cell_a.runs[1] equalled cell_b.runs[0] exactly.
        assert (cell_a.runs[1].mean_delay_ms
                != cell_b.runs[0].mean_delay_ms)
        delays = [r.mean_delay_ms for r in cell_a.runs + cell_b.runs]
        assert len(set(delays)) == 4, "repeat streams must all be distinct"

    def test_distinct_configs_no_longer_correlated(self, slow_clip,
                                                   slow_bitstream):
        """Two *distinct* configs with overlapping seed ranges used to be
        perfectly correlated: under the ``none`` policy the delay path is
        device-independent, so the Samsung cell's run 1 (seed 0+1) and
        the HTC cell's run 0 (seed 1+0) produced bit-identical traces."""
        config_a = ExperimentConfig(
            policy=standard_policies("AES256")["none"],
            device=GALAXY_S2, sensitivity_fraction=0.55, decode_video=False,
        )
        config_b = ExperimentConfig(
            policy=standard_policies("AES256")["none"],
            device=HTC_AMAZE_4G, sensitivity_fraction=0.55,
            decode_video=False,
        )
        cell_a = run_repeated(slow_clip, slow_bitstream, config_a,
                              repeats=2, base_seed=0)
        cell_b = run_repeated(slow_clip, slow_bitstream, config_b,
                              repeats=2, base_seed=1)
        assert (cell_a.runs[1].mean_delay_ms
                != cell_b.runs[0].mean_delay_ms)

    def test_reproducible_for_fixed_base_seed(self, slow_clip,
                                              slow_bitstream, base_config):
        first = run_repeated(slow_clip, slow_bitstream, base_config,
                             repeats=3, base_seed=42)
        second = run_repeated(slow_clip, slow_bitstream, base_config,
                              repeats=3, base_seed=42)
        assert ([r.mean_delay_ms for r in first.runs]
                == [r.mean_delay_ms for r in second.runs])
        assert first.delay_ms == second.delay_ms


class TestMultiFlow:
    @staticmethod
    def _config(flows):
        return ExperimentConfig(
            policy=standard_policies("AES256")["I"],
            device=GALAXY_S2, sensitivity_fraction=0.55,
            decode_video=False, flows=flows, engine="events",
        )

    def test_config_validation(self):
        base = dict(policy=standard_policies("AES256")["I"],
                    device=GALAXY_S2, sensitivity_fraction=0.55,
                    decode_video=False)
        with pytest.raises(ValueError, match="flows"):
            ExperimentConfig(**base, flows=0)
        with pytest.raises(ValueError, match="flows"):
            ExperimentConfig(**base, flows=True)
        with pytest.raises(ValueError, match="engine"):
            ExperimentConfig(**base, flows=2, engine="legacy")
        with pytest.raises(ValueError, match="engine"):
            ExperimentConfig(**base, flows=2, engine="simpy")
        # The default engine resolves to the kernel for contention, and
        # multi-flow cells may decode (flow 0 is reconstructed).
        default = ExperimentConfig(**base, flows=2)
        explicit = ExperimentConfig(**base, flows=2, engine="events")
        assert default.engine == "events"
        assert default.to_description() == explicit.to_description()
        decoding = ExperimentConfig(policy=standard_policies("AES256")["I"],
                                    device=GALAXY_S2,
                                    sensitivity_fraction=0.55,
                                    decode_video=True, flows=2,
                                    engine="events")
        assert decoding.decode_video

    def test_multiflow_experiment_produces_metrics(self, slow_clip,
                                                   slow_bitstream):
        result = run_experiment(slow_clip, slow_bitstream,
                                self._config(flows=2), seed=0)
        assert result.multiflow is not None
        assert result.multiflow.n_flows == 2
        assert result.run is result.multiflow.flows[0]
        assert result.mean_delay_ms > 0
        assert result.average_power_w > GALAXY_S2.base_power_w * 0.9
        assert result.receiver_psnr_db is None

    def test_contention_raises_delay(self, slow_clip, slow_bitstream):
        one = run_experiment(slow_clip, slow_bitstream,
                             self._config(flows=1), seed=0)
        four = run_experiment(slow_clip, slow_bitstream,
                              self._config(flows=4), seed=0)
        assert four.mean_delay_ms > one.mean_delay_ms

    def test_repeated_multiflow_aggregates(self, slow_clip, slow_bitstream):
        repeated = run_repeated(slow_clip, slow_bitstream,
                                self._config(flows=2), repeats=3,
                                base_seed=9)
        assert repeated.delay_ms.n == 3
        assert len(repeated.runs) == 3
        assert repeated.delay_ms.mean > 0


class TestReconstruction:
    """One reconstruction stage: every engine and flow count decodes
    flow 0 at both observers."""

    @staticmethod
    def _expected(clip, bitstream, config, run):
        scores = []
        for usable, mode in ((run.usable_by_receiver, config.receiver_mode),
                             (run.usable_by_eavesdropper,
                              config.eavesdropper_mode)):
            decodable = frames_decodable(run.packets, usable,
                                         config.sensitivity_fraction)
            video = conceal_decode(bitstream, decodable, mode=mode).sequence
            scores += [sequence_psnr(clip, video), sequence_mos(clip, video)]
        return scores

    @pytest.mark.parametrize("flows,engine", [(1, "vector"), (2, "events"),
                                              (3, "vector")])
    def test_decode_reconstructs_flow_zero(self, slow_clip, slow_bitstream,
                                           flows, engine):
        config = ExperimentConfig(
            policy=standard_policies("AES256")["I"], device=GALAXY_S2,
            sensitivity_fraction=0.55, flows=flows, engine=engine)
        result = run_experiment(slow_clip, slow_bitstream, config, seed=4)
        assert result.multiflow.n_flows == flows
        assert result.run is result.multiflow.flows[0]
        assert [result.receiver_psnr_db, result.receiver_mos,
                result.eavesdropper_psnr_db, result.eavesdropper_mos] == \
            self._expected(slow_clip, slow_bitstream, config, result.run)
        assert result.receiver_psnr_db > 30.0
        assert result.eavesdropper_psnr_db < 15.0


class TestConfigFields:
    """Observer modes and the sensitivity fraction are validated at
    construction, so a bad cell never reaches a worker or a cache key."""

    BASE = dict(policy=standard_policies("AES256")["I"], device=GALAXY_S2,
                sensitivity_fraction=0.55)

    @pytest.mark.parametrize("field,value", [
        ("receiver_mode", "bogus"),
        ("eavesdropper_mode", "nope"),
        ("sensitivity_fraction", 7.5),
        ("sensitivity_fraction", -0.1),
        ("sensitivity_fraction", float("nan")),
    ])
    def test_constructor_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{**self.BASE, field: value})

    @pytest.mark.parametrize("field,value", [
        ("receiver_mode", "bogus"),
        ("eavesdropper_mode", "nope"),
        ("sensitivity_fraction", 7.5),
    ])
    def test_wire_path_rejects(self, field, value):
        description = ExperimentConfig(**self.BASE).to_description()
        description[field] = value
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_description(description)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_bounds_inclusive(self, fraction):
        config = ExperimentConfig(**{**self.BASE,
                                     "sensitivity_fraction": fraction})
        assert ExperimentConfig.from_description(
            config.to_description()) == config


class TestEnergyAccounting:
    def test_power_ordering_over_policies(self, fast_clip, fast_bitstream):
        powers = {}
        for name, policy in standard_policies("3DES").items():
            config = ExperimentConfig(
                policy=policy, device=GALAXY_S2,
                sensitivity_fraction=0.9, decode_video=False,
            )
            result = run_experiment(fast_clip, fast_bitstream, config, seed=1)
            powers[name] = result.average_power_w
        assert powers["none"] < powers["I"] < powers["P"] <= powers["all"]
