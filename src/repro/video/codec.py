"""A from-scratch predictive video codec (the x264/GPAC substitute).

The analytical framework does not depend on H.264's coding tools — only on
the structure predictive coding induces (Section 2): intra-coded I-frames
that are large and get fragmented at the MTU, differential P-frames that
are small and content-dependent (tiny for slow motion, large for fast
motion), and the decode dependency of every P-frame on its predecessors
within the GOP.

This codec reproduces exactly that structure:

- **I-frames** quantize all three planes and entropy-code them with
  DEFLATE (zlib), giving content-dependent sizes two orders of magnitude
  above P-frames for slow content;
- **P-frames** quantize the residual against the previously *reconstructed*
  frame (closed-loop prediction, so encoder and decoder stay in sync) and
  entropy-code that; slow content yields near-empty residuals;
- the decoder reconstructs bit-exactly what the encoder's reconstruction
  loop produced, so a cleanly received stream has only quantization loss.

DEFLATE stands in for CAVLC/CABAC: both are entropy coders whose output
size tracks the information content of the residual, which is the property
the paper's delay/distortion trade-off rests on.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gop import Bitstream, EncodedFrame, FrameType, GopLayout
from .yuv import Frame, Sequence420

__all__ = ["CodecConfig", "Encoder", "Decoder", "encode_sequence",
           "decode_bitstream", "is_intra_coded"]

_MAGIC_I = 0x49  # 'I': intra frame
_MAGIC_P = 0x50  # 'P': predicted frame, residual-coded
_MAGIC_PI = 0x51  # 'P' frame whose content is intra-coded (intra fallback)
_MAGIC_B = 0x42  # 'B': bidirectionally predicted frame
# coding mode, width, height, frame index, global motion vector (dy, dx)
_HEADER = struct.Struct(">BHHIbb")

_MOTION_SEARCH_RANGE = 6  # pixels


@dataclass(frozen=True)
class CodecConfig:
    """Encoder parameters.

    ``quantizer`` is the uniform step applied to intra samples and
    residuals; larger values give smaller frames and more quantization
    distortion (it plays the role of H.264's QP).
    """

    gop_size: int = 30
    quantizer: int = 8
    compression_level: int = 6
    b_frames: int = 0

    def __post_init__(self) -> None:
        if self.gop_size < 1:
            raise ValueError("GOP size must be >= 1")
        if not 1 <= self.quantizer <= 64:
            raise ValueError("quantizer must be in [1, 64]")
        if not 1 <= self.compression_level <= 9:
            raise ValueError("zlib level must be in [1, 9]")
        # Delegate the pattern validation to GopLayout.
        GopLayout(self.gop_size, self.b_frames)


def _quantize_intra(plane: np.ndarray, q: int) -> np.ndarray:
    return (plane.astype(np.int16) // q).astype(np.uint8)


def _dequantize_intra(levels: np.ndarray, q: int) -> np.ndarray:
    return np.clip(levels.astype(np.int16) * q + q // 2, 0, 255).astype(np.uint8)


def _estimate_global_motion(current: np.ndarray,
                            reference: np.ndarray) -> Tuple[int, int]:
    """Global-pan motion estimation: the cheap core of H.264's motion
    compensation, enough to cancel camera pans.

    Searches integer (dy, dx) shifts on a subsampled grid, minimising
    the sum of absolute differences.  Chroma planes are half resolution
    and roll by floor(d/2): exact for even shifts, half-sample off for
    odd ones (invisible on 4:2:0 chroma).  Shifts wrap (np.roll),
    matching the toroidal synthetic scenes; for real content a wrapped
    edge strip simply stays in the residual.
    """
    best = (0, 0)
    current_coarse = current[::4, ::4].astype(np.int16)
    best_cost = None
    r = _MOTION_SEARCH_RANGE
    for dy in range(-r, r + 1):
        rolled_rows = np.roll(reference, dy, axis=0)
        for dx in range(-r, r + 1):
            candidate = np.roll(rolled_rows, dx, axis=1)
            cost = float(np.mean(np.abs(
                current_coarse - candidate[::4, ::4].astype(np.int16)
            )))
            if best_cost is None or cost < best_cost - 1e-9:
                best_cost = cost
                best = (dy, dx)
    return best


def _shift_frame(frame: Frame, dy: int, dx: int) -> Frame:
    """Apply a global motion vector to a reference frame (wrapping)."""
    if dy == 0 and dx == 0:
        return frame
    return Frame(
        y=np.roll(frame.y, (dy, dx), axis=(0, 1)),
        u=np.roll(frame.u, (dy // 2, dx // 2), axis=(0, 1)),
        v=np.roll(frame.v, (dy // 2, dx // 2), axis=(0, 1)),
    )


def _quantize_residual(residual: np.ndarray, q: int) -> np.ndarray:
    # Residuals live in [-255, 255]; symmetric mid-tread quantizer.
    levels = np.round(residual / q).astype(np.int16)
    return np.clip(levels, -127, 127).astype(np.int8)


def _dequantize_residual(levels: np.ndarray, q: int) -> np.ndarray:
    return levels.astype(np.int16) * q


class Encoder:
    """Stateful closed-loop encoder producing an ``IPP...P`` bitstream."""

    def __init__(self, config: CodecConfig) -> None:
        self.config = config
        self._reference: Optional[Frame] = None
        self._frame_index = 0

    def _encode_planes_intra(self, frame: Frame) -> Tuple[bytes, Frame]:
        q = self.config.quantizer
        parts = []
        recon_planes = []
        for plane in (frame.y, frame.u, frame.v):
            levels = _quantize_intra(plane, q)
            parts.append(levels.tobytes())
            recon_planes.append(_dequantize_intra(levels, q))
        raw = b"".join(parts)
        recon = Frame(*recon_planes)
        return raw, recon

    def _encode_planes_predicted(
        self, frame: Frame, reference: Frame
    ) -> Tuple[bytes, Frame, Tuple[int, int]]:
        q = self.config.quantizer
        dy, dx = _estimate_global_motion(frame.y, reference.y)
        shifted = _shift_frame(reference, dy, dx)
        parts = []
        recon_planes = []
        for plane, ref_plane in (
            (frame.y, shifted.y), (frame.u, shifted.u), (frame.v, shifted.v)
        ):
            residual = plane.astype(np.int16) - ref_plane.astype(np.int16)
            levels = _quantize_residual(residual, q)
            parts.append(levels.tobytes())
            recon = np.clip(
                ref_plane.astype(np.int16) + _dequantize_residual(levels, q),
                0, 255,
            ).astype(np.uint8)
            recon_planes.append(recon)
        raw = b"".join(parts)
        recon = Frame(*recon_planes)
        return raw, recon, (dy, dx)

    def encode_reference(self, frame: Frame, frame_index: int,
                         layout: GopLayout) -> Tuple[EncodedFrame, Frame]:
        """Encode an I- or P-reference frame at an explicit index.

        Returns the encoded frame and its reconstruction (the next
        reference for the prediction chain).  Used by the B-frame path,
        where references are coded against each other while B-frames in
        between are coded separately.
        """
        frame_type = layout.frame_type(frame_index)
        if frame_type is FrameType.B:
            # Promoted trailing frame: coded (and labelled) as a P
            # reference because no future anchor exists.
            frame_type = FrameType.P
        motion = (0, 0)
        if frame_type is FrameType.I or self._reference is None:
            raw, recon = self._encode_planes_intra(frame)
            magic = _MAGIC_I if frame_type is FrameType.I else _MAGIC_PI
            compressed = zlib.compress(raw, self.config.compression_level)
        else:
            raw, recon, motion = self._encode_planes_predicted(
                frame, self._reference
            )
            magic = _MAGIC_P
            compressed = zlib.compress(raw, self.config.compression_level)
            raw_intra, recon_intra = self._encode_planes_intra(frame)
            compressed_intra = zlib.compress(
                raw_intra, self.config.compression_level
            )
            if len(compressed_intra) < len(compressed):
                magic = _MAGIC_PI
                compressed = compressed_intra
                recon = recon_intra
                motion = (0, 0)
        header = _HEADER.pack(magic, frame.width, frame.height,
                              frame_index, motion[0], motion[1])
        encoded = EncodedFrame(
            index=frame_index,
            frame_type=frame_type,
            payload=header + compressed,
            gop_index=layout.gop_index(frame_index),
            position_in_gop=layout.position_in_gop(frame_index),
        )
        self._reference = recon
        return encoded, recon

    def encode_bidirectional(self, frame: Frame, frame_index: int,
                             previous_reference: Frame,
                             next_reference: Frame,
                             layout: GopLayout) -> EncodedFrame:
        """Encode a B-frame against the average of its two references.

        B-frames are never referenced themselves, so they update no
        reconstruction state.
        """
        q = self.config.quantizer
        predictor_planes = []
        for prev_plane, next_plane in (
            (previous_reference.y, next_reference.y),
            (previous_reference.u, next_reference.u),
            (previous_reference.v, next_reference.v),
        ):
            predictor_planes.append((
                (prev_plane.astype(np.int16) + next_plane.astype(np.int16))
                // 2
            ).astype(np.uint8))
        parts = []
        for plane, ref_plane in zip((frame.y, frame.u, frame.v),
                                    predictor_planes):
            residual = plane.astype(np.int16) - ref_plane.astype(np.int16)
            parts.append(_quantize_residual(residual, q).tobytes())
        compressed = zlib.compress(b"".join(parts),
                                   self.config.compression_level)
        header = _HEADER.pack(_MAGIC_B, frame.width, frame.height,
                              frame_index, 0, 0)
        return EncodedFrame(
            index=frame_index,
            frame_type=FrameType.B,
            payload=header + compressed,
            gop_index=layout.gop_index(frame_index),
            position_in_gop=layout.position_in_gop(frame_index),
        )

    def encode_frame(self, frame: Frame) -> EncodedFrame:
        """Encode the next frame in display order.

        P-frames carry an intra fallback: when the residual against the
        reference compresses worse than intra-coding the frame (rapid
        motion, scene cuts), the frame content is intra-coded while the
        frame keeps its P role in the GOP.  Real encoders do the same with
        per-macroblock intra modes; this is why fast-motion P-frames carry
        enough standalone information for an eavesdropper to partially
        recover content when only I-frames are encrypted (Section 6.2).
        """
        layout = GopLayout(self.config.gop_size)
        frame_type = layout.frame_type(self._frame_index)
        motion = (0, 0)
        if frame_type is FrameType.I or self._reference is None:
            frame_type = FrameType.I
            raw, recon = self._encode_planes_intra(frame)
            magic = _MAGIC_I
            compressed = zlib.compress(raw, self.config.compression_level)
        else:
            raw, recon, motion = self._encode_planes_predicted(
                frame, self._reference
            )
            magic = _MAGIC_P
            compressed = zlib.compress(raw, self.config.compression_level)
            raw_intra, recon_intra = self._encode_planes_intra(frame)
            compressed_intra = zlib.compress(
                raw_intra, self.config.compression_level
            )
            if len(compressed_intra) < len(compressed):
                magic = _MAGIC_PI
                compressed = compressed_intra
                recon = recon_intra
                motion = (0, 0)
        header = _HEADER.pack(magic, frame.width, frame.height,
                              self._frame_index, motion[0], motion[1])
        encoded = EncodedFrame(
            index=self._frame_index,
            frame_type=frame_type,
            payload=header + compressed,
            gop_index=layout.gop_index(self._frame_index),
            position_in_gop=layout.position_in_gop(self._frame_index),
        )
        self._reference = recon
        self._frame_index += 1
        return encoded


def is_intra_coded(encoded: EncodedFrame) -> bool:
    """Whether the frame decodes without a reference: I-frames and
    P-frames that took the intra fallback."""
    return encoded.payload[0] in (_MAGIC_I, _MAGIC_PI)


class Decoder:
    """Stateful decoder mirroring the encoder's reconstruction loop.

    The decoder assumes it is fed decodable frames in order; loss handling
    (freezing, reference substitution) lives in
    :mod:`repro.video.concealment`, which drives this class.
    """

    def __init__(self, config: CodecConfig) -> None:
        self.config = config
        self._reference: Optional[Frame] = None

    @property
    def reference(self) -> Optional[Frame]:
        """The most recently reconstructed frame."""
        return self._reference

    def set_reference(self, frame: Frame) -> None:
        """Override the prediction reference (used by concealment)."""
        self._reference = frame.copy()

    def decode_frame(self, encoded: EncodedFrame) -> Frame:
        """Decode one frame, updating the prediction reference."""
        magic, width, height, _index, motion_dy, motion_dx = (
            _HEADER.unpack_from(encoded.payload)
        )
        raw = zlib.decompress(encoded.payload[_HEADER.size:])
        q = self.config.quantizer
        y_size = width * height
        c_size = y_size // 4
        shapes = ((height, width), (height // 2, width // 2),
                  (height // 2, width // 2))
        offsets = (0, y_size, y_size + c_size)

        if magic == _MAGIC_B:
            raise ValueError(
                "B-frames need both references; use decode_b_frame"
            )
        if magic in (_MAGIC_I, _MAGIC_PI):
            planes = []
            for shape, offset in zip(shapes, offsets):
                levels = np.frombuffer(
                    raw, np.uint8, shape[0] * shape[1], offset
                ).reshape(shape)
                planes.append(_dequantize_intra(levels, q))
            frame = Frame(*planes)
        elif magic == _MAGIC_P:
            if self._reference is None:
                raise ValueError("P-frame received before any reference frame")
            shifted = _shift_frame(self._reference, motion_dy, motion_dx)
            ref_planes = (shifted.y, shifted.u, shifted.v)
            planes = []
            for shape, offset, ref_plane in zip(shapes, offsets, ref_planes):
                levels = np.frombuffer(
                    raw, np.int8, shape[0] * shape[1], offset
                ).reshape(shape)
                recon = np.clip(
                    ref_plane.astype(np.int16) + _dequantize_residual(levels, q),
                    0, 255,
                ).astype(np.uint8)
                planes.append(recon)
            frame = Frame(*planes)
        else:
            raise ValueError(f"corrupt frame header (magic {magic:#x})")

        self._reference = frame
        return frame

    def decode_b_frame(self, encoded: EncodedFrame,
                       previous_reference: Frame,
                       next_reference: Frame) -> Frame:
        """Decode a B-frame given both of its references.

        Does not touch the prediction reference (B-frames are never
        referenced).
        """
        magic, width, height, _index, _dy, _dx = _HEADER.unpack_from(
            encoded.payload
        )
        if magic != _MAGIC_B:
            raise ValueError("decode_b_frame called on a non-B frame")
        raw = zlib.decompress(encoded.payload[_HEADER.size:])
        q = self.config.quantizer
        y_size = width * height
        c_size = y_size // 4
        shapes = ((height, width), (height // 2, width // 2),
                  (height // 2, width // 2))
        offsets = (0, y_size, y_size + c_size)
        prev_planes = (previous_reference.y, previous_reference.u,
                       previous_reference.v)
        next_planes = (next_reference.y, next_reference.u, next_reference.v)
        planes = []
        for shape, offset, prev_plane, next_plane in zip(
                shapes, offsets, prev_planes, next_planes):
            predictor = ((prev_plane.astype(np.int16)
                          + next_plane.astype(np.int16)) // 2)
            levels = np.frombuffer(
                raw, np.int8, shape[0] * shape[1], offset
            ).reshape(shape)
            recon = np.clip(
                predictor + _dequantize_residual(levels, q), 0, 255
            ).astype(np.uint8)
            planes.append(recon)
        return Frame(*planes)


def encode_sequence(sequence: Sequence420,
                    config: Optional[CodecConfig] = None) -> Bitstream:
    """Encode a whole uncompressed sequence into a :class:`Bitstream`.

    With ``config.b_frames > 0`` the references (I/P) are coded first in
    chain order and the B-frames between them against the average of
    their surrounding reconstructions; the returned bitstream is in
    display order regardless.
    """
    config = config or CodecConfig()
    layout = GopLayout(config.gop_size, config.b_frames)
    encoder = Encoder(config)
    if config.b_frames == 0:
        frames = [encoder.encode_frame(frame) for frame in sequence]
    else:
        frames_by_index: dict = {}
        reconstructions: dict = {}
        reference_indices = [
            i for i in range(len(sequence))
            if layout.frame_type(i) is not FrameType.B
        ]
        # Frames after the clip's last reference have no future anchor;
        # promote them to P references (what real encoders do at the end
        # of a stream).
        last_reference = reference_indices[-1]
        for index in range(last_reference + 1, len(sequence)):
            reference_indices.append(index)
        for index in reference_indices:
            encoded, recon = encoder.encode_reference(
                sequence[index], index, layout
            )
            frames_by_index[index] = encoded
            reconstructions[index] = recon
        reference_set = set(reference_indices)
        for index in range(len(sequence)):
            if index in reference_set:
                continue
            previous_ref = max(i for i in reference_indices if i < index)
            next_ref = min(i for i in reference_indices if i > index)
            frames_by_index[index] = encoder.encode_bidirectional(
                sequence[index], index,
                reconstructions[previous_ref], reconstructions[next_ref],
                layout,
            )
        frames = [frames_by_index[i] for i in range(len(sequence))]
    return Bitstream(
        frames=frames,
        width=sequence.width,
        height=sequence.height,
        fps=sequence.fps,
        gop_layout=layout,
        quantizer=config.quantizer,
        name=sequence.name,
    )


def decode_bitstream(bitstream: Bitstream,
                     config: Optional[CodecConfig] = None) -> Sequence420:
    """Decode a loss-free bitstream back to YUV (quantization loss only)."""
    layout = bitstream.gop_layout
    config = config or CodecConfig(
        gop_size=layout.gop_size, quantizer=bitstream.quantizer,
        b_frames=layout.b_frames,
    )
    decoder = Decoder(config)
    if layout.b_frames == 0:
        frames = [decoder.decode_frame(encoded) for encoded in bitstream]
        return Sequence420(frames, fps=bitstream.fps, name=bitstream.name)

    encoded_frames = list(bitstream)
    reference_indices = [f.index for f in encoded_frames
                         if f.frame_type is not FrameType.B]
    decoded: dict = {}
    for index in reference_indices:
        decoded[index] = decoder.decode_frame(encoded_frames[index])
    for encoded in encoded_frames:
        if encoded.frame_type is not FrameType.B:
            continue
        previous_ref = max(i for i in reference_indices if i < encoded.index)
        next_ref = min(i for i in reference_indices if i > encoded.index)
        decoded[encoded.index] = decoder.decode_b_frame(
            encoded, decoded[previous_ref], decoded[next_ref]
        )
    frames = [decoded[i] for i in range(len(encoded_frames))]
    return Sequence420(frames, fps=bitstream.fps, name=bitstream.name)
