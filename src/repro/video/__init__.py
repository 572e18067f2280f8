"""Video substrate: YUV frames, synthetic clips, a predictive codec,
MTU packetization, quality metrics and loss concealment.

Together these replace the paper's x264/FFmpeg/GPAC/EvalVid toolchain
(Sections 5-6) while preserving the structural properties the analytical
framework depends on: large fragmented I-frames, small content-dependent
P-frames, predictive decode dependencies and freeze-frame concealment.
"""

from .codec import CodecConfig, Decoder, Encoder, decode_bitstream, encode_sequence
from .concealment import (
    ConcealedFrame,
    ConcealedSequence,
    ConcealmentResult,
    conceal_decode,
)
from .gop import Bitstream, EncodedFrame, FrameType, GopLayout
from .motion import (
    MotionClass,
    MotionReport,
    analyze_motion,
    block_motion_magnitude,
    frame_activity,
    sensitivity_for,
)
from .packetizer import (
    DEFAULT_MTU,
    Packet,
    frames_decodable,
    packetize,
    packetize_frame,
    required_packets,
)
from .quality import (
    MAX_PSNR_DB,
    distortion_from_psnr,
    frame_mses,
    frame_psnr,
    mos_from_psnr,
    mse,
    psnr_from_distortion,
    sequence_mos,
    sequence_mse,
    sequence_psnr,
)
from .synth import (
    FAST_MOTION,
    MEDIUM_MOTION,
    SLOW_MOTION,
    MotionProfile,
    SceneConfig,
    generate_clip,
    generate_mixed_clip,
    make_reference_clips,
)
from .yuv import CIF_HEIGHT, CIF_WIDTH, Frame, Sequence420, write_pgm

__all__ = [
    "CodecConfig", "Decoder", "Encoder", "decode_bitstream", "encode_sequence",
    "ConcealedFrame", "ConcealedSequence", "ConcealmentResult",
    "conceal_decode",
    "Bitstream", "EncodedFrame", "FrameType", "GopLayout",
    "MotionClass", "MotionReport", "analyze_motion",
    "block_motion_magnitude", "frame_activity", "sensitivity_for",
    "DEFAULT_MTU", "Packet", "frames_decodable", "packetize",
    "packetize_frame", "required_packets",
    "MAX_PSNR_DB", "distortion_from_psnr", "frame_mses", "frame_psnr",
    "mos_from_psnr",
    "mse", "psnr_from_distortion", "sequence_mos", "sequence_mse",
    "sequence_psnr",
    "FAST_MOTION", "MEDIUM_MOTION", "SLOW_MOTION", "MotionProfile",
    "SceneConfig", "generate_clip", "generate_mixed_clip",
    "make_reference_clips",
    "CIF_HEIGHT", "CIF_WIDTH", "Frame", "Sequence420", "write_pgm",
]
