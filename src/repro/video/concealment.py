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

Reconstruction by lookup.  Under this policy every displayed frame is
its clean decode ``clean(k)``, an earlier clean frame held frozen, or
blank.  So each bitstream's clean decodes are built once, lazily, in a
per-process cache keyed on the bitstream object's identity (and dropped
when it is collected), and a concealed sequence records each frame's
source: a clean index, :data:`BLANK`, or ``None`` for a *drifted*
picture (a best-effort decode against a wrong reference).
:func:`repro.video.quality.frame_mses` reads clean and blank sources
from a per-clip distortion table ``D[i, j]`` kept with that cache.
Displayed frames of ``IPP`` streams are therefore shared between
frames and between calls, and their planes are read-only; a caller
that edits one takes :meth:`Frame.copy` first.  Bitstreams and
reference clips are treated as immutable once decoded or scored.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

from .codec import CodecConfig, Decoder, is_intra_coded
from .gop import Bitstream, EncodedFrame, FrameType
from .yuv import Frame, Sequence420

__all__ = ["BLANK", "CONCEALMENT_MODES", "ConcealedFrame",
           "ConcealedSequence", "ConcealmentResult", "conceal_decode"]

CONCEALMENT_MODES = ("strict", "best_effort")

# Source of a displayed blank frame (Case 3).  Clean sources are frame
# indices >= 0; a drifted picture's source is None.
BLANK = -1

Source = Optional[int]


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


def _read_only(frame: Frame) -> Frame:
    for plane in (frame.y, frame.u, frame.v):
        plane.setflags(write=False)
    return frame


class _CleanFrames:
    """One bitstream's clean decodes, built on first use, and the
    distortion tables that score them against reference clips."""

    def __init__(self, bitstream: Bitstream, config: CodecConfig) -> None:
        self._encoded: List[EncodedFrame] = list(bitstream)
        self._config = config
        self._frames: List[Optional[Frame]] = [None] * len(self._encoded)
        self.blank = _read_only(Frame.blank(bitstream.width,
                                            bitstream.height))
        # reference clip -> {(display index, source): luma MSE}
        self._tables: "weakref.WeakKeyDictionary[Sequence420, dict]" = \
            weakref.WeakKeyDictionary()

    def frame(self, k: int) -> Frame:
        """``clean(k)``: an intra frame's own decode, else
        ``decode(P_k, clean(k-1))``; decodes only what is missing.
        Two threads racing here decode the same bits twice, harmlessly."""
        frames = self._frames
        if frames[k] is not None:
            return frames[k]
        start = k
        while (start > 0 and frames[start] is None
               and not is_intra_coded(self._encoded[start])):
            start -= 1
        decoder = Decoder(self._config)
        if frames[start] is not None:
            decoder.set_reference(frames[start])
            start += 1
        for j in range(start, k + 1):
            frames[j] = _read_only(decoder.decode_frame(self._encoded[j]))
        return frames[k]

    def picture(self, source: Source) -> Frame:
        return self.blank if source == BLANK else self.frame(source)

    def table(self, reference: Sequence420) -> Dict[Tuple[int, int], float]:
        return self._tables.setdefault(reference, {})


_CLEAN: Dict[int, _CleanFrames] = {}
_CLEAN_LOCK = threading.Lock()


def _clean_frames(bitstream: Bitstream, config: CodecConfig) -> _CleanFrames:
    """The bitstream's cache entry.  It is keyed on ``id(bitstream)``
    and removed by ``weakref.finalize`` when the bitstream is
    collected, so an id is never reused while its entry lives; nothing
    is stored on the (pickled, shipped-to-workers) bitstream itself."""
    key = id(bitstream)
    entry = _CLEAN.get(key)
    if entry is None:
        with _CLEAN_LOCK:
            entry = _CLEAN.get(key)
            if entry is None:
                entry = _CLEAN[key] = _CleanFrames(bitstream, config)
                weakref.finalize(bitstream, _CLEAN.pop, key, None)
    return entry


class ConcealedSequence(Sequence420):
    """The displayed frames of an ``IPP`` lossy decode plus their sources.

    ``sources[i]`` is the clean index whose decode frame ``i`` shows,
    :data:`BLANK`, or ``None`` for a drifted picture.  The frames are
    read-only and may be shared.  ``mse_memo`` holds the last
    ``(reference, per-frame MSEs)`` pair scored by
    :func:`repro.video.quality.frame_mses`.
    """

    def __init__(self, frames: Sequence[Frame], sources: Sequence[Source],
                 clean: _CleanFrames, *, fps: float, name: str) -> None:
        super().__init__(frames, fps=fps, name=name)
        self.sources: Tuple[Source, ...] = tuple(sources)
        self._clean = clean
        self.mse_memo: Optional[Tuple[Sequence420, Tuple[float, ...]]] = None

    def distortion_table(self, reference: Sequence420
                         ) -> Dict[Tuple[int, int], float]:
        """``D[i, source]`` against ``reference``, shared by every
        sequence concealed from the same bitstream."""
        return self._clean.table(reference)


def conceal_decode(
    bitstream: Bitstream,
    decodable: AbstractSet[int],
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

    ``config`` must match the bitstream's quantizer and B-frame count
    (it defaults to them); indices outside the bitstream are rejected.

    Note: when the eq. (20) rule declares a frame decodable despite a
    missing non-essential packet, we decode it from the intact payload.
    This emulates the model's abstraction that a decoder of sensitivity
    ``s`` reconstructs acceptably from ``s`` packets, which our DEFLATE
    codec cannot literally do (documented in DESIGN.md).
    """
    layout = bitstream.gop_layout
    if config is None:
        config = CodecConfig(gop_size=layout.gop_size,
                             quantizer=bitstream.quantizer,
                             b_frames=layout.b_frames)
    elif (config.quantizer != bitstream.quantizer
          or config.b_frames != layout.b_frames):
        raise ValueError(
            f"config (quantizer {config.quantizer}, b_frames"
            f" {config.b_frames}) does not match the bitstream (quantizer"
            f" {bitstream.quantizer}, b_frames {layout.b_frames})")
    if mode not in CONCEALMENT_MODES:
        raise ValueError(f"unknown concealment mode {mode!r}")
    outside = sorted(i for i in decodable if not 0 <= i < len(bitstream))
    if outside:
        raise ValueError(
            f"decodable indices outside [0, {len(bitstream)}):"
            f" {outside[:5]}")
    if any(frame.frame_type is FrameType.B for frame in bitstream):
        return _conceal_decode_b(bitstream, decodable, config, mode)
    clean = _clean_frames(bitstream, config)
    if mode == "best_effort":
        return _best_effort_decode(bitstream, decodable, config, clean)

    sources: List[Source] = []
    records: List[ConcealedFrame] = []
    last_good = BLANK
    for gop in bitstream.gops():
        i_frame = gop[0]
        if i_frame.frame_type is not FrameType.I:
            raise ValueError(
                f"GOP {i_frame.gop_index} does not start with an I-frame"
            )
        # Case 1: decode until the first unrecoverable frame; Cases 2
        # and 3 (lost I-frame): the chain never starts.
        chain = True
        for frame in gop:
            chain = chain and frame.index in decodable
            if chain:
                last_good = frame.index
            sources.append(last_good)
            records.append(_record(frame.index, chain, last_good))

    displayed = [clean.picture(source) for source in sources]
    sequence = ConcealedSequence(displayed, sources, clean, fps=bitstream.fps,
                                 name=f"{bitstream.name}-concealed")
    return ConcealmentResult(sequence=sequence, frames=records)


def _record(index: int, decoded: bool, shown: int) -> ConcealedFrame:
    """A frame's record; a frozen frame shows ``shown`` (or blank)."""
    if decoded:
        distance = 0
    elif shown == BLANK:
        distance = index + 1  # "infinite"; bounded by clip
    else:
        distance = index - shown
    return ConcealedFrame(index=index, decoded=decoded,
                          reference_distance=distance)


def _best_effort_decode(
    bitstream: Bitstream,
    decodable: AbstractSet[int],
    config: CodecConfig,
    clean: _CleanFrames,
) -> ConcealmentResult:
    """ffmpeg-style decode: use whatever reference exists, freeze otherwise.

    A decodable frame is ``clean(k)`` when it is intra-coded or its
    reference is ``clean(k-1)``; anything else is decoded against the
    drifted (or blank) reference, the only real decoding done here.
    """
    displayed: List[Frame] = []
    sources: List[Source] = []
    records: List[ConcealedFrame] = []
    shown: Frame = clean.blank
    shown_source: Source = BLANK
    last_decoded_index = BLANK

    for frame in bitstream:
        k = frame.index
        if k in decodable:
            if is_intra_coded(frame) or (k > 0 and shown_source == k - 1):
                shown, shown_source = clean.frame(k), k
            else:
                # Prediction from a wrong reference (or, joining
                # mid-stream, from blank): a drifted picture.
                decoder = Decoder(config)
                decoder.set_reference(shown)
                shown = _read_only(decoder.decode_frame(frame))
                shown_source = None
            last_decoded_index = k
            records.append(_record(k, True, k))
        else:
            records.append(_record(k, False, last_decoded_index))
        displayed.append(shown)
        sources.append(shown_source)

    sequence = ConcealedSequence(displayed, sources, clean, fps=bitstream.fps,
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
