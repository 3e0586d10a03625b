"""Conversion of teacher records into training episodes.

Observations are not stored in the teacher dataset; they are regenerated
here by replaying the label QPs through the deterministic encoder, which
reproduces the recorded bits exactly. The bundles keep a previous-reward
slot, which is always zero: the environment pays only a terminal reward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import simenc
from ..simenc import GopPlan, Observation, SyntheticVideo
from ..teacher import TeacherRecord
from .features import SCALAR_FLOAT_FEATURES, FeatureSpec, build_features, fit_feature_spec

__all__ = ["EpisodeData", "collect_observations", "fit_spec_from_records", "episodes_from_records"]


@dataclass(frozen=True)
class EpisodeData:
    """One teacher-forced training episode, fully preprocessed."""

    video_id: str
    target_bitrate_kbps: float
    first_pass_norm: np.ndarray     # (T, 25)
    bundles: np.ndarray             # (T, bundle_dim)
    label_qps: np.ndarray           # (T,) int
    label_bits_kbit: np.ndarray     # (T,) kilobits
    budget_kbit: float              # target bitrate * duration, kilobits


def collect_observations(
    video: SyntheticVideo,
    gop: GopPlan,
    qps: Sequence[int],
    target_bitrate_kbps: float,
) -> list[Observation]:
    """Replay a QP sequence and capture the observation before every frame."""
    observations: list[Observation] = []
    simenc.run_episode(
        video,
        gop,
        target_bitrate_kbps,
        _Recorder(qps, observations),
    )
    return observations


class _Recorder:
    def __init__(self, qps: Sequence[int], sink: list[Observation]):
        self._qps = list(qps)
        self._sink = sink

    def __call__(self, obs: Observation) -> int:
        self._sink.append(obs)
        return self._qps[obs.frame_index]


def _record_episode(
    record: TeacherRecord, corpus: Mapping[str, SyntheticVideo], gop_interval: int
) -> tuple[SyntheticVideo, list[Observation]]:
    if record.video_id not in corpus:
        raise KeyError(f"teacher record references unknown video {record.video_id!r}")
    video = corpus[record.video_id]
    gop = simenc.plan_gop(video, gop_interval)
    obs = collect_observations(video, gop, record.label_qps, record.target_bitrate_kbps)
    return video, obs


def fit_spec_from_records(
    records: Sequence[TeacherRecord],
    corpus: Mapping[str, SyntheticVideo],
    gop_interval: int = 16,
    seed: int = 0,
) -> FeatureSpec:
    """Fit normalization statistics over the replayed training episodes."""
    matrices = []
    scalars: dict[str, list[float]] = {name: [] for name in SCALAR_FLOAT_FEATURES}
    seen_videos: set[str] = set()
    for record in records:
        video, observations = _record_episode(record, corpus, gop_interval)
        if video.video_id not in seen_videos:
            seen_videos.add(video.video_id)
            matrices.append(simenc.first_pass_matrix(video))
            scalars["width"].append(float(video.width))
            scalars["height"].append(float(video.height))
            scalars["duration"].append(video.duration)
            scalars["frame_rate"].append(video.frame_rate)
        scalars["target_bitrate_kbps"].append(record.target_bitrate_kbps)
        scalars["prev_mse"].extend(o.prev_mse for o in observations)
    return fit_feature_spec(matrices, scalars, seed=seed)


def episodes_from_records(
    records: Sequence[TeacherRecord],
    corpus: Mapping[str, SyntheticVideo],
    spec: FeatureSpec,
    gop_interval: int = 16,
) -> list[EpisodeData]:
    """Build teacher-forced episodes: bundles use the label QP as the
    previous action, per the ground-truth history convention."""
    episodes = []
    for record in records:
        video, observations = _record_episode(record, corpus, gop_interval)
        bundles = np.stack([build_features(obs, spec) for obs in observations])
        episodes.append(
            EpisodeData(
                video_id=record.video_id,
                target_bitrate_kbps=record.target_bitrate_kbps,
                first_pass_norm=spec.normalize_first_pass(simenc.first_pass_matrix(video)),
                bundles=bundles,
                label_qps=np.asarray(record.label_qps, dtype=np.int64),
                label_bits_kbit=np.asarray(record.label_bits, dtype=np.float64) / 1000.0,
                budget_kbit=record.target_bitrate_kbps * video.duration,
            )
        )
    return episodes
