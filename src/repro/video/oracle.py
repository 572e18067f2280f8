"""Independent oracle for reconstruction by lookup (tests and selftest).

:func:`repro.video.concealment.conceal_decode` serves displayed frames
from a per-bitstream cache of clean decodes, and
:mod:`repro.video.quality` scores them from a per-clip distortion
table.  This module keeps the straightforward implementation they must
equal bit for bit: the concealment loop that runs the codec on every
decodable frame and copies every frozen one, and the float64-mean luma
MSE.  Nothing in the pipeline imports it.  ``IPP`` streams only; the
B-frame path has no fast version to check.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from .codec import CodecConfig, Decoder
from .concealment import ConcealedFrame, ConcealmentResult
from .gop import Bitstream, FrameType
from .quality import mos_from_psnr, psnr_from_distortion
from .yuv import Frame, Sequence420

__all__ = ["oracle_conceal_decode", "oracle_mse", "oracle_scores"]


def oracle_mse(reference: np.ndarray, degraded: np.ndarray) -> float:
    """Mean squared error between two luma planes."""
    diff = reference.astype(np.float64) - degraded.astype(np.float64)
    return float(np.mean(diff * diff))


def oracle_scores(reference: Sequence420,
                  degraded: Sequence420) -> Tuple[float, float]:
    """``(sequence PSNR, sequence MOS)`` with one MSE per frame and call."""
    total = 0.0
    for ref_frame, deg_frame in zip(reference, degraded):
        total += oracle_mse(ref_frame.y, deg_frame.y)
    psnr = psnr_from_distortion(total / len(reference))
    mos = float(np.mean([
        mos_from_psnr(psnr_from_distortion(oracle_mse(r.y, d.y)))
        for r, d in zip(reference, degraded)]))
    return psnr, mos


def _frozen(frame_index: int, last: Optional[Frame],
            last_index: Optional[int], width: int,
            height: int) -> Tuple[Frame, ConcealedFrame]:
    if last is None:
        return (Frame.blank(width, height),
                ConcealedFrame(frame_index, False, frame_index + 1))
    return (last.copy(),
            ConcealedFrame(frame_index, False, frame_index - last_index))


def oracle_conceal_decode(bitstream: Bitstream, decodable: Set[int],
                          mode: str = "strict") -> ConcealmentResult:
    """Decode every decodable frame with the codec; copy every frozen one."""
    config = CodecConfig(gop_size=bitstream.gop_layout.gop_size,
                         quantizer=bitstream.quantizer)
    decoder = Decoder(config)
    width, height = bitstream.width, bitstream.height
    displayed: List[Frame] = []
    records: List[ConcealedFrame] = []
    last: Optional[Frame] = None
    last_index: Optional[int] = None

    if mode == "best_effort":
        for frame in bitstream:
            if frame.index in decodable:
                if decoder.reference is None:
                    decoder.set_reference(Frame.blank(width, height))
                last, last_index = decoder.decode_frame(frame), frame.index
                displayed.append(last)
                records.append(ConcealedFrame(frame.index, True, 0))
            else:
                picture, record = _frozen(frame.index, last, last_index,
                                          width, height)
                displayed.append(picture)
                records.append(record)
        return ConcealmentResult(Sequence420(displayed, fps=bitstream.fps),
                                 records)

    for gop in bitstream.gops():
        if gop[0].frame_type is not FrameType.I:
            raise ValueError("GOP does not start with an I-frame")
        frozen = gop[0].index not in decodable
        for frame in gop:
            if not frozen and frame.index in decodable:
                last, last_index = decoder.decode_frame(frame), frame.index
                displayed.append(last)
                records.append(ConcealedFrame(frame.index, True, 0))
            else:
                frozen = True
                picture, record = _frozen(frame.index, last, last_index,
                                          width, height)
                displayed.append(picture)
                records.append(record)
    return ConcealmentResult(Sequence420(displayed, fps=bitstream.fps),
                             records)
