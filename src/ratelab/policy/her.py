"""Hindsight relabeling of policy rollouts into a refined teacher dataset.

Each (video, original target) pair is rolled out with the trained policy
under truncated sampling (no feedback control); the resulting trajectory is
stored as a teacher record whose target bitrate is rewritten to the bitrate
the episode actually achieved. The relabeled episodes are consistent by
construction: replaying them under the new target reproduces the labels,
and their budget-residual term is exactly zero.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .. import simenc
from ..inference import controlled_policy
from ..simenc import SyntheticVideo
from ..teacher import TeacherRecord
from .features import FeatureSpec
from .network import PolicyParams

__all__ = ["her_relabel"]


def her_relabel(
    params: PolicyParams,
    spec: FeatureSpec,
    videos: Sequence[SyntheticVideo],
    original_targets_kbps: Sequence[Sequence[float]],
    seed: int = 0,
    gop_interval: int = 16,
) -> list[TeacherRecord]:
    """Roll out the policy and relabel every episode's goal in hindsight.

    ``original_targets_kbps[i]`` lists the target bitrates to roll video
    ``i`` at. Records carry provenance "HER" and an empty baseline sequence.
    """
    if len(videos) != len(original_targets_kbps):
        raise ValueError("need one target list per video")
    records = []
    for vi, (video, targets) in enumerate(zip(videos, original_targets_kbps)):
        gop = simenc.plan_gop(video, gop_interval)
        for ti, target in enumerate(targets):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence((seed, vi, ti)))
            )
            runner, _ = controlled_policy(params, spec, None, rng)
            trace = simenc.run_episode(video, gop, float(target), runner)
            # Under the achieved-bitrate goal the overshoot penalty vanishes.
            relabeled = replace(trace, target_bitrate_kbps=trace.bitrate_kbps)
            records.append(
                TeacherRecord(
                    video_id=video.video_id,
                    target_bitrate_kbps=relabeled.target_bitrate_kbps,
                    provenance="HER",
                    label_qps=relabeled.qps,
                    label_bits=relabeled.bits,
                    baseline_qps=(),
                    psnr_db=relabeled.psnr_db,
                    bitrate_kbps=relabeled.bitrate_kbps,
                    reward=simenc.episode_reward(relabeled),
                )
            )
    return records
