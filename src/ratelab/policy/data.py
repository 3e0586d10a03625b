"""Conversion of teacher records into training episodes.

Observations are not stored in the teacher dataset. Each record's labels
are re-encoded open-loop by ``replay_qp_sequence``, as teacher verification
re-encodes them, and must reproduce the recorded bits exactly (else
``TeacherDataError``). Under teacher forcing, step t sees label t - 1 as its
previous frame, so one ``build_features`` call, the code rollouts run per
frame, builds all of an episode's history columns from the replay's columns;
they follow its ``episode_features`` block, which rollouts build at frame 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import simenc
from ..simenc import GopPlan, SyntheticVideo
from ..teacher import TeacherDataError, TeacherRecord
from .features import SCALAR_FLOAT_FEATURES, FeatureSpec
from .features import build_features, episode_features, fit_feature_spec

__all__ = ["EpisodeData", "fit_spec_from_records", "episodes_from_records"]


@dataclass(frozen=True)
class EpisodeData:
    """One teacher-forced training episode, fully preprocessed."""

    video_id: str
    target_bitrate_kbps: float
    first_pass_norm: np.ndarray     # (T, 25)
    bundles: np.ndarray             # (T, bundle_dim)
    label_qps: np.ndarray           # (T,) int
    label_bits_kbit: np.ndarray     # (T,) kilobits
    budget_kbit: float              # SyntheticVideo.budget_bits, in kilobits


def _replay(
    record: TeacherRecord, corpus: Mapping[str, SyntheticVideo], gop_interval: int
) -> tuple[SyntheticVideo, GopPlan, np.ndarray, np.ndarray]:
    """(video, gop, bits, mse) of the record's labels, verified against its bits."""
    if record.video_id not in corpus:
        raise KeyError(f"teacher record references unknown video {record.video_id!r}")
    video = corpus[record.video_id]
    if len(record.label_qps) != video.num_frames:
        raise TeacherDataError(
            f"{record.video_id} at {record.target_bitrate_kbps} kbps: "
            f"{len(record.label_qps)} labels for a {video.num_frames}-frame video"
        )
    gop = simenc.plan_gop(video, gop_interval)
    trace = simenc.replay_qp_sequence(video, gop, record.label_qps, record.target_bitrate_kbps)
    if list(trace.bits) != list(record.label_bits):
        raise TeacherDataError(
            f"{record.video_id} at {record.target_bitrate_kbps} kbps: label bits do not replay"
        )
    return video, gop, np.array(trace.bits), np.array(trace.mse)


def _previous(values: np.ndarray, first) -> np.ndarray:
    """Each step's value of the step before it; ``first`` at step 0."""
    return np.concatenate([[first], values[:-1]])


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
        video, _, _, mse = _replay(record, corpus, gop_interval)
        if video.video_id not in seen_videos:
            seen_videos.add(video.video_id)
            matrices.append(video.first_pass)
            for name in ("width", "height", "duration", "frame_rate"):
                scalars[name].append(float(getattr(video, name)))
        scalars["target_bitrate_kbps"].append(record.target_bitrate_kbps)
        scalars["prev_mse"].extend(_previous(mse, 0.0).tolist())
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
        video, gop, bits, mse = _replay(record, corpus, gop_interval)
        target, qps = record.target_bitrate_kbps, np.asarray(record.label_qps, dtype=np.int64)
        history = build_features(
            spec, _previous(qps, -1), _previous(bits, 0.0), _previous(mse, 0.0),
            _previous(np.cumsum(bits), 0.0), video.budget_bits(target),
        )
        episodes.append(
            EpisodeData(
                video_id=record.video_id,
                target_bitrate_kbps=target,
                first_pass_norm=spec.normalize_first_pass(video.first_pass),
                bundles=np.hstack([episode_features(spec, video, gop, target), history]),
                label_qps=qps,
                label_bits_kbit=bits / 1000.0,
                budget_kbit=video.budget_bits(target) / 1000.0,
            )
        )
    return episodes
