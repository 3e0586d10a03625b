"""Two-pass VBR heuristic policy over the surrogate encoder.

Mirrors the qualitative behavior of a production VBR rate controller:
per-frame bit targets proportional to first-pass frame weights with strong
boosts for key and alternate-reference frames, realized frame by frame by
the largest QP whose trial encode still spends the target (found from the
inverse of the RD formula, then settled by trial encodes), with the
remaining budget recomputed after every frame so the episode closes on its
total budget.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from . import simenc
from .simenc import (
    FIRST_PASS_FEATURES,
    EncodeState,
    EpisodeTrace,
    FrameType,
    GopPlan,
    Observation,
    SyntheticVideo,
)

__all__ = [
    "AllocationError",
    "allocate_frame_targets",
    "qp_for_target_bits",
    "BaselinePolicy",
    "run_baseline",
]


class AllocationError(ValueError):
    """Frame weights sum to zero; no budget split is possible."""


# Weight of each frame type in the bit split.
FRAME_TYPE_BOOST = {FrameType.KEY: 4.0, FrameType.ALT_REF_HIDDEN: 3.0, FrameType.INTER: 1.0}

_CODED_ERROR = FIRST_PASS_FEATURES.index("coded_error")

_MSE_CAPS = simenc.QP_MSE_CAP.tolist()


def allocate_frame_targets(
    video: SyntheticVideo, gop: GopPlan, target_bitrate_kbps: float
) -> list[float]:
    """Split the total bit budget into per-frame targets.

    Each frame's share is its first-pass coded-error weight times its frame
    type boost, normalized so the targets sum to the full budget.
    """
    budget = target_bitrate_kbps * 1000.0 * video.duration
    if budget <= 0:
        raise ValueError("total bit budget must be positive")
    coded_error = video.first_pass[:, _CODED_ERROR].tolist()
    weights = [e * FRAME_TYPE_BOOST[ft] for e, ft in zip(coded_error, gop.frame_types)]
    total = sum(weights)
    if total <= 0.0:
        raise AllocationError("frame weights sum to zero")
    return [budget * w / total for w in weights]


def qp_for_target_bits(
    video: SyntheticVideo, gop: GopPlan, state: EncodeState, target_bits: float
) -> int:
    """The largest QP whose trial encode still spends ``target_bits``.

    Frame bits are nonincreasing in QP, so the QPs reaching the target form
    a prefix and the answer is its last element: the least-overspending
    choice, with exact hits resolving to the highest QP achieving them.
    The inverse of the RD formula gives the prefix's length up to rounding;
    trial encodes (``simenc.rate_distortion`` at one QP each) then move it
    to the exact edge, in at most 3 probes when the inverse is at most one
    QP off. Clamps to 0 when even the finest quantizer cannot reach the
    target and to 255 when the coarsest one already exceeds it. Trial
    encodes never commit ``state``.
    """
    if not target_bits > 0:
        raise ValueError("target_bits must be positive")
    energy, gain, header = simenc.rd_terms(video, gop, state)

    def reaches(qp: int) -> bool:
        bits, _ = simenc.rate_distortion(energy, simenc.quantizer_step(qp), gain, header)
        return bits >= target_bits

    # QPs below ``reaching`` reach the target: every QP when the header
    # alone does, else those whose MSE cap is at most E * 2^(-2 (target -
    # header) / gain), where the residual bits meet the rest of the target.
    if target_bits <= header:
        reaching = simenc.QP_MAX + 1
    else:
        reaching = bisect_right(_MSE_CAPS, energy * 2.0 ** (-2.0 * (target_bits - header) / gain))
    while reaching > 0 and not reaches(reaching - 1):
        reaching -= 1
    while reaching <= simenc.QP_MAX and reaches(reaching):
        reaching += 1
    return max(0, reaching - 1)


class BaselinePolicy:
    """Per-episode callback for :func:`ratelab.simenc.run_episode`.

    Trial-encodes from the encoder state each observation carries, and
    rescales the remaining per-frame targets to the remaining budget before
    every frame.
    """

    def __init__(self, video: SyntheticVideo, gop: GopPlan, target_bitrate_kbps: float) -> None:
        self._video = video
        self._gop = gop
        self._budget = target_bitrate_kbps * 1000.0 * video.duration
        self._targets = allocate_frame_targets(video, gop, target_bitrate_kbps)
        self._remaining = np.cumsum(self._targets[::-1])[::-1].tolist()  # sums from t to the end

    def __call__(self, obs: Observation) -> int:
        t = obs.frame_index
        remaining_budget = self._budget - obs.state.cum_bits
        target = max(1.0, self._targets[t] * remaining_budget / self._remaining[t])
        return qp_for_target_bits(self._video, self._gop, obs.state, target)


def run_baseline(
    video: SyntheticVideo,
    gop: GopPlan | None = None,
    target_bitrate_kbps: float = 512.0,
) -> EpisodeTrace:
    """Encode one video with the heuristic VBR policy."""
    if gop is None:
        gop = simenc.plan_gop(video)
    policy = BaselinePolicy(video, gop, target_bitrate_kbps)
    return simenc.run_episode(video, gop, target_bitrate_kbps, policy)
