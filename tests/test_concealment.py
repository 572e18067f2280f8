"""Loss concealment: the strict Section 4.3.2 policy and best-effort mode."""

import numpy as np
import pytest

from repro.video.codec import CodecConfig
from repro.video.concealment import conceal_decode
from repro.video.gop import FrameType
from repro.video.quality import sequence_psnr


def _all_indices(bitstream):
    return {f.index for f in bitstream}


class TestCleanDecode:
    def test_everything_decodable_matches_clean_decode(
            self, slow_clip, slow_bitstream):
        result = conceal_decode(slow_bitstream, _all_indices(slow_bitstream))
        assert result.n_frozen == 0
        assert sequence_psnr(slow_clip, result.sequence) > 32.0

    def test_records_have_zero_distance(self, slow_bitstream):
        result = conceal_decode(slow_bitstream, _all_indices(slow_bitstream))
        assert all(r.reference_distance == 0 for r in result.frames)


class TestStrictPolicy:
    def test_first_p_loss_freezes_rest_of_gop(self, slow_bitstream):
        """Case 1: even frames whose packets arrived are frozen once the
        chain breaks."""
        decodable = _all_indices(slow_bitstream) - {5}
        result = conceal_decode(slow_bitstream, decodable, mode="strict")
        # Frames 5..29 of GOP 0 are frozen at frame 4.
        frozen = [r for r in result.frames if 5 <= r.index < 30]
        assert all(not r.decoded for r in frozen)
        distances = [r.reference_distance for r in frozen]
        assert distances == [i - 4 for i in range(5, 30)]
        # The next GOP restarts cleanly.
        assert result.frames[30].decoded

    def test_frozen_frames_show_last_good_picture(self, slow_bitstream):
        decodable = _all_indices(slow_bitstream) - {5}
        result = conceal_decode(slow_bitstream, decodable, mode="strict")
        assert np.array_equal(result.sequence[10].y, result.sequence[4].y)

    def test_i_loss_freezes_whole_gop(self, slow_bitstream):
        """Case 2: the GOP freezes at the previous GOP's last frame."""
        decodable = _all_indices(slow_bitstream) - {30}
        result = conceal_decode(slow_bitstream, decodable, mode="strict")
        gop1 = [r for r in result.frames if 30 <= r.index < 60]
        assert all(not r.decoded for r in gop1)
        assert np.array_equal(result.sequence[45].y, result.sequence[29].y)
        assert gop1[0].reference_distance == 1
        assert gop1[-1].reference_distance == 30

    def test_initial_gop_lost_shows_blank(self, slow_bitstream):
        """Case 3: nothing ever decoded -> blank frames."""
        decodable = {f.index for f in slow_bitstream if f.index >= 30}
        result = conceal_decode(slow_bitstream, decodable, mode="strict")
        assert not result.frames[0].decoded
        assert int(result.sequence[0].y[0, 0]) == 16  # blank luma

    def test_gop_not_starting_with_i_rejected(self, slow_bitstream):
        import dataclasses
        broken = dataclasses.replace(slow_bitstream)
        broken.frames = [
            dataclasses.replace(f, frame_type=FrameType.P) if f.index == 0
            else f
            for f in slow_bitstream.frames
        ]
        with pytest.raises(ValueError):
            conceal_decode(broken, _all_indices(broken), mode="strict")

    def test_unknown_mode_rejected(self, slow_bitstream):
        with pytest.raises(ValueError):
            conceal_decode(slow_bitstream, set(), mode="optimistic")

    @pytest.mark.parametrize("config", [
        CodecConfig(gop_size=30, quantizer=16),
        CodecConfig(gop_size=30, quantizer=8, b_frames=2),
    ])
    def test_config_disagreeing_with_the_stream_rejected(
            self, slow_bitstream, config):
        """A wrong quantizer used to decode garbage (9.6 dB for 39.9)."""
        with pytest.raises(ValueError, match="does not match"):
            conceal_decode(slow_bitstream, _all_indices(slow_bitstream),
                           config)

    def test_matching_config_accepted(self, slow_clip, slow_bitstream):
        config = CodecConfig(gop_size=30, quantizer=8)
        result = conceal_decode(slow_bitstream, _all_indices(slow_bitstream),
                                config)
        assert sequence_psnr(slow_clip, result.sequence) > 32.0

    @pytest.mark.parametrize("index", [-1, 90, 1000])
    def test_decodable_index_outside_the_stream_rejected(
            self, slow_bitstream, index):
        for mode in ("strict", "best_effort"):
            with pytest.raises(ValueError, match="outside"):
                conceal_decode(slow_bitstream, {0, index}, mode=mode)


class TestBestEffort:
    def test_decodes_p_frames_without_i(self, fast_bitstream):
        """An eavesdropper missing every I-frame still reconstructs
        fast-motion P-frames (they are largely intra-coded)."""
        i_indices = {f.index for f in fast_bitstream if f.is_intra}
        decodable = _all_indices(fast_bitstream) - i_indices
        result = conceal_decode(fast_bitstream, decodable, mode="best_effort")
        decoded = [r for r in result.frames if r.decoded]
        assert len(decoded) == len(fast_bitstream) - len(i_indices)

    def test_best_effort_beats_strict_for_fast_motion(
            self, fast_clip, fast_bitstream):
        i_indices = {f.index for f in fast_bitstream if f.is_intra}
        decodable = _all_indices(fast_bitstream) - i_indices
        strict = conceal_decode(fast_bitstream, decodable, mode="strict")
        best = conceal_decode(fast_bitstream, decodable, mode="best_effort")
        assert (sequence_psnr(fast_clip, best.sequence)
                > sequence_psnr(fast_clip, strict.sequence) + 5.0)

    def test_best_effort_still_fails_for_slow_motion(
            self, slow_clip, slow_bitstream):
        """Slow-motion P-frames carry nothing; even best-effort decoding
        leaves the eavesdropper with garbage (the paper's key asymmetry)."""
        i_indices = {f.index for f in slow_bitstream if f.is_intra}
        decodable = _all_indices(slow_bitstream) - i_indices
        best = conceal_decode(slow_bitstream, decodable, mode="best_effort")
        assert sequence_psnr(slow_clip, best.sequence) < 15.0

    def test_nothing_decodable_all_blank(self, slow_bitstream):
        result = conceal_decode(slow_bitstream, set(), mode="best_effort")
        assert result.n_decoded == 0
        assert int(result.sequence[0].y[0, 0]) == 16


class TestResultApi:
    def test_freeze_distances(self, slow_bitstream):
        decodable = _all_indices(slow_bitstream) - {5}
        result = conceal_decode(slow_bitstream, decodable)
        assert result.freeze_distances() == [i - 4 for i in range(5, 30)]

    def test_counts_sum(self, slow_bitstream):
        decodable = _all_indices(slow_bitstream) - {5, 31}
        result = conceal_decode(slow_bitstream, decodable)
        assert result.n_decoded + result.n_frozen == len(slow_bitstream)
