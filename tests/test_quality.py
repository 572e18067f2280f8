"""MSE / PSNR (eq. 28) / EvalVid MOS metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.quality import (
    MAX_PSNR_DB,
    distortion_from_psnr,
    frame_psnr,
    mos_from_psnr,
    mse,
    psnr_from_distortion,
    sequence_mos,
    sequence_mse,
    sequence_psnr,
)
from repro.video.yuv import Frame, Sequence420


def _frame(value):
    return Frame(
        y=np.full((16, 16), value, dtype=np.uint8),
        u=np.full((8, 8), 128, dtype=np.uint8),
        v=np.full((8, 8), 128, dtype=np.uint8),
    )


class TestMse:
    def test_identical_is_zero(self):
        plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert mse(plane, plane) == 0.0

    def test_constant_offset(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.full((4, 4), 10, dtype=np.uint8)
        assert mse(a, b) == pytest.approx(100.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4), np.uint8), np.zeros((4, 8), np.uint8))


class TestPsnr:
    def test_eq28_value(self):
        # D = 255^2 -> PSNR = 0 dB.
        assert psnr_from_distortion(255.0 ** 2) == pytest.approx(0.0)

    def test_known_point(self):
        # D = 100 -> 20 log10(255/10) = 28.13 dB.
        assert psnr_from_distortion(100.0) == pytest.approx(
            20.0 * math.log10(25.5)
        )

    def test_zero_distortion_capped(self):
        assert psnr_from_distortion(0.0) == MAX_PSNR_DB

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            psnr_from_distortion(-1.0)

    @pytest.mark.parametrize("distortion", [
        float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, distortion):
        with pytest.raises(ValueError, match="finite"):
            psnr_from_distortion(distortion)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=255.0 ** 2))
    def test_inverse_roundtrip(self, distortion):
        psnr = psnr_from_distortion(distortion)
        assert distortion_from_psnr(psnr) == pytest.approx(
            distortion, rel=1e-9
        )

    def test_monotone_decreasing(self):
        values = [psnr_from_distortion(d) for d in (1.0, 10.0, 100.0, 1000.0)]
        assert values == sorted(values, reverse=True)


class TestMos:
    @pytest.mark.parametrize("psnr,expected", [
        (40.0, 5), (37.5, 5), (35.0, 4), (31.5, 4),
        (28.0, 3), (25.5, 3), (22.0, 2), (20.5, 2), (15.0, 1), (0.0, 1),
    ])
    def test_bucket_map(self, psnr, expected):
        assert mos_from_psnr(psnr) == expected

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            mos_from_psnr(float("nan"))


class TestSequenceMetrics:
    def test_sequence_mse_mean_of_frames(self):
        ref = Sequence420([_frame(0), _frame(0)])
        deg = Sequence420([_frame(0), _frame(10)])
        assert sequence_mse(ref, deg) == pytest.approx(50.0)

    def test_sequence_psnr_uses_average_distortion(self):
        ref = Sequence420([_frame(0), _frame(0)])
        deg = Sequence420([_frame(0), _frame(10)])
        assert sequence_psnr(ref, deg) == pytest.approx(
            psnr_from_distortion(50.0)
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sequence_mse(Sequence420([_frame(0)]),
                         Sequence420([_frame(0), _frame(0)]))

    def test_mos_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            sequence_mos(Sequence420([_frame(0)]),
                         Sequence420([_frame(0), _frame(0)]))

    def test_sequence_mos_fractional(self):
        """Per-frame bucketing averages to fractional values, as the
        paper's Table 2 MOS column shows."""
        ref = Sequence420([_frame(0), _frame(0)])
        deg = Sequence420([_frame(0), _frame(100)])  # one perfect, one bad
        score = sequence_mos(ref, deg)
        assert score == pytest.approx((5 + 1) / 2)

    def test_frame_psnr_identical(self):
        assert frame_psnr(_frame(7), _frame(7)) == MAX_PSNR_DB
