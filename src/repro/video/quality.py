"""Video quality metrics: MSE, PSNR (paper eq. 28) and EvalVid's MOS map.

The paper reports eavesdropper quality as luma PSNR computed by EvalVid
and as the Mean Opinion Score EvalVid derives from PSNR.  Both metrics are
reproduced here with the same definitions.

Scoring a concealed sequence is a lookup: :func:`frame_mses` reads the
frames :func:`repro.video.concealment.conceal_decode` showed from a
clean decode or blank out of the bitstream's per-clip distortion
table, calls :func:`mse` only for drifted pictures and table misses,
and hands one per-frame pass to both :func:`sequence_psnr` and
:func:`sequence_mos`.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .concealment import ConcealedSequence
from .yuv import Frame, Sequence420

__all__ = [
    "mse",
    "psnr_from_distortion",
    "distortion_from_psnr",
    "frame_psnr",
    "frame_mses",
    "sequence_mse",
    "sequence_psnr",
    "mos_from_psnr",
    "sequence_mos",
    "MAX_PSNR_DB",
]

# PSNR of a bit-exact frame is infinite; EvalVid caps it for averaging.
MAX_PSNR_DB = 100.0


def mse(reference: np.ndarray, degraded: np.ndarray) -> float:
    """Mean squared error between two luma planes."""
    if reference.shape != degraded.shape:
        raise ValueError(
            f"shape mismatch {reference.shape} vs {degraded.shape}"
        )
    # Squares of uint8 differences are integers and every partial sum
    # stays below 2**53, so the dot product is exact in any order and
    # equals the float64 ``mean(diff * diff)`` bit for bit.
    diff = reference.astype(np.float64).ravel()
    diff -= degraded.ravel()
    return float(np.dot(diff, diff) / diff.size)


def psnr_from_distortion(distortion: float) -> float:
    """Paper eq. (28): ``PSNR = 20*log10(255 / sqrt(D))`` in dB."""
    if not math.isfinite(distortion):
        raise ValueError(f"distortion must be finite, got {distortion}")
    if distortion < 0:
        raise ValueError("distortion must be non-negative")
    if distortion == 0:
        return MAX_PSNR_DB
    return min(20.0 * math.log10(255.0 / math.sqrt(distortion)), MAX_PSNR_DB)


def distortion_from_psnr(psnr_db: float) -> float:
    """Inverse of eq. (28): the MSE corresponding to a PSNR value."""
    return (255.0 / (10.0 ** (psnr_db / 20.0))) ** 2


def frame_psnr(reference: Frame, degraded: Frame) -> float:
    """Luma PSNR of one frame pair."""
    return psnr_from_distortion(mse(reference.y, degraded.y))


def frame_mses(reference: Sequence420,
               degraded: Sequence420) -> Tuple[float, ...]:
    """Per-frame luma MSE of ``degraded`` against ``reference``.

    For a :class:`~repro.video.concealment.ConcealedSequence` a frame
    shown from clean decode ``j`` (or blank) is ``D[i, j]``, read from
    the bitstream's table for ``reference`` and filled through
    :func:`mse` on a miss; a drifted picture calls :func:`mse`.  The
    result is memoized on the concealed sequence for ``reference``.
    Any other sequence is scored frame by frame.
    """
    if len(reference) != len(degraded):
        raise ValueError(
            f"length mismatch: {len(reference)} vs {len(degraded)} frames"
        )
    if not isinstance(degraded, ConcealedSequence):
        return tuple(mse(ref_frame.y, deg_frame.y)
                     for ref_frame, deg_frame in zip(reference, degraded))
    memo = degraded.mse_memo
    if memo is not None and memo[0] is reference:
        return memo[1]
    table = degraded.distortion_table(reference)
    values: List[float] = []
    for i, (ref_frame, deg_frame, source) in enumerate(
            zip(reference, degraded, degraded.sources)):
        if source is None:
            values.append(mse(ref_frame.y, deg_frame.y))
            continue
        value = table.get((i, source))
        if value is None:
            value = table[i, source] = mse(ref_frame.y, deg_frame.y)
        values.append(value)
    scores = tuple(values)
    degraded.mse_memo = (reference, scores)
    return scores


def sequence_mse(reference: Sequence420, degraded: Sequence420) -> float:
    """Mean per-frame luma MSE across a clip (the paper's average distortion,
    eq. 27, measured instead of modelled)."""
    # A left-to-right float loop: builtin sum() compensates on 3.12+.
    total = 0.0
    for value in frame_mses(reference, degraded):
        total += value
    return total / len(reference)


def sequence_psnr(reference: Sequence420, degraded: Sequence420) -> float:
    """Clip-level PSNR: average distortion mapped through eq. (28).

    The paper converts its *average* distortion to PSNR (Section 4.3.4),
    so we do the same rather than averaging per-frame PSNRs (which would
    overweight pristine frames).
    """
    return psnr_from_distortion(sequence_mse(reference, degraded))


def mos_from_psnr(psnr_db: float) -> int:
    """EvalVid's PSNR-to-MOS bucket map (ITU-R heuristic).

    > 37 dB -> 5 (excellent), 31-37 -> 4, 25-31 -> 3, 20-25 -> 2,
    < 20 dB -> 1 (bad).  The paper's Figs. 5/15 use this scale.
    """
    if math.isnan(psnr_db):
        raise ValueError("PSNR is NaN")
    if psnr_db > 37.0:
        return 5
    if psnr_db > 31.0:
        return 4
    if psnr_db > 25.0:
        return 3
    if psnr_db > 20.0:
        return 2
    return 1


def sequence_mos(reference: Sequence420, degraded: Sequence420) -> float:
    """Mean per-frame MOS across a clip, as EvalVid reports it.

    Per-frame PSNRs are bucketed individually and averaged, which is why
    the paper's MOS values are fractional (e.g. 1.26 in Table 2).
    """
    scores = [mos_from_psnr(psnr_from_distortion(value))
              for value in frame_mses(reference, degraded)]
    return float(np.mean(scores))
