"""Loss concealment exactly as the distortion model assumes (Section 4.3.2).

The paper's decoder policy, which EvalVid implements and eqs. (21)-(27)
model:

- *Case 1 (intra-GOP)*: the GOP's I-frame decodes; if the i-th P-frame is
  the first loss, frame i and **all** its successors in the GOP are
  replaced by frame i-1 (their prediction chain is broken even if their
  packets arrived).
- *Case 2 (inter-GOP)*: the I-frame is lost; the entire GOP is replaced by
  the most recent correctly decoded frame of a previous GOP.
- *Case 3 (initial GOP)*: nothing has ever decoded; the display shows a
  blank frame and distortion is maximal.

``conceal_decode`` drives the real codec with this policy and reports, per
frame, whether it was decoded or frozen and at what reference distance —
the quantity Fig. 2's polynomials are fitted over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .codec import CodecConfig, Decoder
from .gop import Bitstream, FrameType
from .yuv import Frame, Sequence420

__all__ = ["CONCEALMENT_MODES", "ConcealedFrame", "ConcealmentResult",
           "conceal_decode"]

CONCEALMENT_MODES = ("strict", "best_effort")


@dataclass(frozen=True)
class ConcealedFrame:
    """Bookkeeping for one displayed frame."""

    index: int
    decoded: bool
    # Display distance (in frames) between the shown substitute and the
    # frame that should have been shown; 0 when decoded.
    reference_distance: int


@dataclass
class ConcealmentResult:
    """Output of a lossy decode."""

    sequence: Sequence420
    frames: List[ConcealedFrame]

    @property
    def n_decoded(self) -> int:
        return sum(1 for frame in self.frames if frame.decoded)

    @property
    def n_frozen(self) -> int:
        return len(self.frames) - self.n_decoded

    def freeze_distances(self) -> List[int]:
        """Reference distances of all frozen frames (Fig. 2's x-axis)."""
        return [f.reference_distance for f in self.frames if not f.decoded]


def conceal_decode(
    bitstream: Bitstream,
    decodable: Set[int],
    config: Optional[CodecConfig] = None,
    *,
    mode: str = "strict",
) -> ConcealmentResult:
    """Decode a bitstream given the set of decodable frame indices.

    ``decodable`` comes from :func:`repro.video.packetizer.frames_decodable`
    (channel losses + encryption visibility).  Frames in the set are decoded
    with the real codec; the rest follow the freeze policy above.

    ``mode`` selects the decoder's attitude to broken prediction chains:

    - ``"strict"`` — the paper's policy (Section 4.3.2, quoted above);
      this is what the distortion model assumes and what EvalVid's
      reconstruction does.
    - ``"best_effort"`` — what a real eavesdropper running ffmpeg gets:
      every arriving frame is decoded against whatever reference is
      available (a blank frame, a stale frame, garbage).  Fast-motion
      P-frames, which are largely intra-coded, recover real content this
      way even when every I-frame is encrypted — the mechanism behind the
      paper's observation that I-frame encryption distorts slow-motion
      video far more than fast-motion video (Section 6.2, Fig. 4).

    Note: when the eq. (20) rule declares a frame decodable despite a
    missing non-essential packet, we decode it from the intact payload.
    This emulates the model's abstraction that a decoder of sensitivity
    ``s`` reconstructs acceptably from ``s`` packets, which our DEFLATE
    codec cannot literally do (documented in DESIGN.md).
    """
    config = config or CodecConfig(
        gop_size=bitstream.gop_layout.gop_size, quantizer=bitstream.quantizer
    )
    if mode not in CONCEALMENT_MODES:
        raise ValueError(f"unknown concealment mode {mode!r}")
    if any(frame.frame_type is FrameType.B for frame in bitstream):
        return _conceal_decode_b(bitstream, decodable, config, mode)
    if mode == "best_effort":
        return _best_effort_decode(bitstream, decodable, config)
    decoder = Decoder(config)

    displayed: List[Frame] = []
    records: List[ConcealedFrame] = []

    last_good: Optional[Frame] = None
    # Index of the source frame last_good corresponds to.
    last_good_index: Optional[int] = None

    for gop in bitstream.gops():
        i_frame = gop[0]
        if i_frame.frame_type is not FrameType.I:
            raise ValueError(
                f"GOP {i_frame.gop_index} does not start with an I-frame"
            )
        gop_broken = i_frame.index not in decodable

        if gop_broken:
            # Case 2 / Case 3: freeze the whole GOP.
            for frame in gop:
                if last_good is None:
                    displayed.append(Frame.blank(bitstream.width,
                                                 bitstream.height))
                    distance = frame.index + 1  # "infinite"; bounded by clip
                else:
                    displayed.append(last_good.copy())
                    distance = frame.index - last_good_index
                records.append(ConcealedFrame(
                    index=frame.index, decoded=False,
                    reference_distance=distance,
                ))
            continue

        # Case 1: decode until the first unrecoverable P-frame.
        frozen = False
        for frame in gop:
            if not frozen and frame.index in decodable:
                reconstructed = decoder.decode_frame(frame)
                displayed.append(reconstructed)
                records.append(ConcealedFrame(
                    index=frame.index, decoded=True, reference_distance=0,
                ))
                last_good = reconstructed
                last_good_index = frame.index
            else:
                frozen = True
                if last_good is None:
                    displayed.append(Frame.blank(bitstream.width,
                                                 bitstream.height))
                    distance = frame.index + 1
                else:
                    displayed.append(last_good.copy())
                    distance = frame.index - last_good_index
                records.append(ConcealedFrame(
                    index=frame.index, decoded=False,
                    reference_distance=distance,
                ))

    sequence = Sequence420(displayed, fps=bitstream.fps,
                           name=f"{bitstream.name}-concealed")
    return ConcealmentResult(sequence=sequence, frames=records)


def _best_effort_decode(
    bitstream: Bitstream,
    decodable: Set[int],
    config: CodecConfig,
) -> ConcealmentResult:
    """ffmpeg-style decode: use whatever reference exists, freeze otherwise."""
    decoder = Decoder(config)
    displayed: List[Frame] = []
    records: List[ConcealedFrame] = []
    last_shown: Optional[Frame] = None
    last_decoded_index: Optional[int] = None

    for frame in bitstream:
        if frame.index in decodable:
            if decoder.reference is None:
                # Prediction with no reference at all: decode against blank,
                # as real decoders do when joining mid-stream.
                decoder.set_reference(
                    Frame.blank(bitstream.width, bitstream.height)
                )
            reconstructed = decoder.decode_frame(frame)
            displayed.append(reconstructed)
            records.append(ConcealedFrame(
                index=frame.index, decoded=True, reference_distance=0,
            ))
            last_shown = reconstructed
            last_decoded_index = frame.index
        else:
            if last_shown is None:
                displayed.append(Frame.blank(bitstream.width,
                                             bitstream.height))
                distance = frame.index + 1
            else:
                displayed.append(last_shown.copy())
                distance = frame.index - last_decoded_index
            records.append(ConcealedFrame(
                index=frame.index, decoded=False,
                reference_distance=distance,
            ))

    sequence = Sequence420(displayed, fps=bitstream.fps,
                           name=f"{bitstream.name}-best-effort")
    return ConcealmentResult(sequence=sequence, frames=records)


def _conceal_decode_b(
    bitstream: Bitstream,
    decodable: Set[int],
    config: CodecConfig,
    mode: str,
) -> ConcealmentResult:
    """Concealment for IBB..P streams (extension beyond the paper's IPP).

    References (I/P) follow the chosen reference policy; a B-frame
    displays iff its own packets decode *and* both surrounding references
    decoded (B-frames are leaves of the prediction tree, so their loss
    freezes only themselves).
    """
    decoder = Decoder(config)
    frames = list(bitstream)
    reference_indices = [f.index for f in frames
                         if f.frame_type is not FrameType.B]
    reference_set = set(reference_indices)

    # Pass 1: decode the reference chain under the chosen policy.
    decoded_refs: dict = {}
    if mode == "best_effort":
        for index in reference_indices:
            if index not in decodable:
                continue
            if (frames[index].frame_type is not FrameType.I
                    and decoder.reference is None):
                decoder.set_reference(
                    Frame.blank(bitstream.width, bitstream.height)
                )
            decoded_refs[index] = decoder.decode_frame(frames[index])
    else:
        # Strict: within each GOP, references decode until the first
        # unrecoverable one; an unrecoverable I kills the GOP's refs.
        by_gop: dict = {}
        for index in reference_indices:
            by_gop.setdefault(frames[index].gop_index, []).append(index)
        for gop_index in sorted(by_gop):
            chain_alive = True
            for index in by_gop[gop_index]:
                if not chain_alive or index not in decodable:
                    chain_alive = False
                    continue
                if (frames[index].frame_type is FrameType.P
                        and decoder.reference is None):
                    chain_alive = False
                    continue
                decoded_refs[index] = decoder.decode_frame(frames[index])

    # Pass 2: display order with per-frame concealment.
    displayed: List[Frame] = []
    records: List[ConcealedFrame] = []
    last_shown: Optional[Frame] = None
    last_shown_index: Optional[int] = None

    def freeze(frame_index: int) -> None:
        nonlocal last_shown, last_shown_index
        if last_shown is None:
            displayed.append(Frame.blank(bitstream.width, bitstream.height))
            distance = frame_index + 1
        else:
            displayed.append(last_shown.copy())
            distance = frame_index - last_shown_index
        records.append(ConcealedFrame(
            index=frame_index, decoded=False, reference_distance=distance,
        ))

    def show(frame_index: int, picture: Frame) -> None:
        nonlocal last_shown, last_shown_index
        displayed.append(picture)
        records.append(ConcealedFrame(
            index=frame_index, decoded=True, reference_distance=0,
        ))
        last_shown = picture
        last_shown_index = frame_index

    for frame in frames:
        if frame.index in reference_set:
            if frame.index in decoded_refs:
                show(frame.index, decoded_refs[frame.index])
            else:
                freeze(frame.index)
            continue
        previous_candidates = [i for i in reference_indices
                               if i < frame.index]
        next_candidates = [i for i in reference_indices if i > frame.index]
        previous_ref = max(previous_candidates) if previous_candidates else None
        next_ref = min(next_candidates) if next_candidates else None
        if (frame.index in decodable
                and previous_ref in decoded_refs
                and next_ref in decoded_refs):
            picture = decoder.decode_b_frame(
                frame, decoded_refs[previous_ref], decoded_refs[next_ref]
            )
            show(frame.index, picture)
        else:
            freeze(frame.index)

    sequence = Sequence420(displayed, fps=bitstream.fps,
                           name=f"{bitstream.name}-concealed")
    return ConcealmentResult(sequence=sequence, frames=records)
