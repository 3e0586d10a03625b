"""Two-pass VBR heuristic policy over the surrogate encoder.

Mirrors the qualitative behavior of a production VBR rate controller:
per-frame bit targets proportional to first-pass frame weights with strong
boosts for key and alternate-reference frames, realized frame by frame by
the largest QP whose trial encode still spends the target (found from the
inverse of the RD formula, then settled by trial encodes), with the
remaining budget recomputed after every frame so the episode closes on its
total budget. The episode runs on ``simenc.encode_episode``: each frame's
search starts from the frame's RD terms, and its winning trial is the
frame's encode, so no QP is encoded twice.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from . import simenc
from .simenc import EpisodeTrace, FrameType, GopPlan, SyntheticVideo

__all__ = [
    "allocate_frame_targets",
    "qp_for_target_bits",
    "run_baseline",
]


# Weight of each frame type in the bit split.
FRAME_TYPE_BOOST = {FrameType.KEY: 4.0, FrameType.ALT_REF_HIDDEN: 3.0, FrameType.INTER: 1.0}

_STEPS = [simenc.quantizer_step(qp) for qp in range(simenc.QP_MAX + 1)]
_MSE_CAPS = simenc.QP_MSE_CAP.tolist()


def allocate_frame_targets(
    video: SyntheticVideo, gop: GopPlan, target_bitrate_kbps: float
) -> list[float]:
    """Split the total bit budget into per-frame targets.

    Each frame's share is its first-pass coded-error weight times its frame
    type boost, normalized so the targets sum to the full budget. The coded
    error is read as ``video.inter_energy``, without the first-pass matrix.
    """
    budget = video.budget_bits(target_bitrate_kbps)
    if budget <= 0:
        raise ValueError("total bit budget must be positive")
    # Every weight is positive, since ``SyntheticVideo`` refuses a coded error
    # of 0. They add up in frame order: numpy's pairwise sum rounds otherwise.
    weights = np.array(video.inter_energy) * gop.by_type(FRAME_TYPE_BOOST)
    return (budget * weights / sum(weights.tolist())).tolist()


def qp_for_target_bits(
    energy: float, gain: float, header: float, target_bits: float
) -> tuple[int, float, float]:
    """(qp, bits, mse) of the largest QP whose encode still spends ``target_bits``.

    ``energy``, ``gain`` and ``header`` are the frame's RD terms, as
    ``simenc.encode_episode`` passes them to its chooser. Frame bits are nonincreasing in QP, so
    the QPs reaching the target form a prefix and the answer is its last
    element: the least-overspending choice, with exact hits resolving to the
    highest QP achieving them. The inverse of the RD formula gives the
    prefix's length up to rounding; trial encodes (``simenc.rate_distortion``
    at one QP each) then move it to the exact edge, in at most 3 when the
    inverse is at most one QP off. The winning trial is returned: it is the
    frame's encode at that QP. Clamps to 0 when even the finest quantizer
    cannot reach the target and to 255 when the coarsest one already
    exceeds it.
    """
    if not target_bits > 0:
        raise ValueError("target_bits must be positive")

    # QPs below ``reaching`` reach the target: every QP when the header
    # alone does, else those whose MSE cap is at most E * 2^(-2 (target -
    # header) / gain), where the residual bits meet the rest of the target.
    if target_bits <= header:
        reaching = simenc.QP_MAX + 1
    else:
        reaching = bisect_right(_MSE_CAPS, energy * 2.0 ** (-2.0 * (target_bits - header) / gain))
    # Step up while the next QP still reaches; down while this one does not.
    qp = min(reaching, simenc.QP_MAX)
    bits, mse = simenc.rate_distortion(energy, _STEPS[qp], gain, header)
    while bits >= target_bits and qp < simenc.QP_MAX:
        above = simenc.rate_distortion(energy, _STEPS[qp + 1], gain, header)
        if above[0] < target_bits:
            break
        qp, (bits, mse) = qp + 1, above
    while bits < target_bits and qp > 0:
        qp -= 1
        bits, mse = simenc.rate_distortion(energy, _STEPS[qp], gain, header)
    return qp, bits, mse


def run_baseline(video: SyntheticVideo, gop: GopPlan, target_bitrate_kbps: float) -> EpisodeTrace:
    """Encode one video with the heuristic VBR policy."""
    budget = video.budget_bits(target_bitrate_kbps)
    targets = allocate_frame_targets(video, gop, target_bitrate_kbps)
    remaining = np.cumsum(targets[::-1])[::-1].tolist()  # sums from t to the end

    def search(t, cum_bits, energy, gain, header):
        target = max(1.0, targets[t] * (budget - cum_bits) / remaining[t])
        return qp_for_target_bits(energy, gain, header, target)

    return simenc.encode_episode(video, gop, target_bitrate_kbps, search)
