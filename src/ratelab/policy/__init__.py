"""Neural rate-control policy: teacher-data replay, features, network, trainer, rollouts."""

from .data import EpisodeData, episodes_from_records, fit_spec_from_records
from .features import FeatureSpec, FeatureError, build_features, fit_feature_spec
from .network import ArchConfig, PRESETS, PolicyParams, forward
from .rollout import PolicyRunner
from .train import (
    Adam,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    episode_loss,
    load_checkpoint,
    save_checkpoint,
    top_k_coverage,
    train,
)

__all__ = [
    "ArchConfig",
    "Adam",
    "EpisodeData",
    "FeatureError",
    "FeatureSpec",
    "PolicyParams",
    "PolicyRunner",
    "PRESETS",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "build_features",
    "episode_loss",
    "episodes_from_records",
    "fit_feature_spec",
    "fit_spec_from_records",
    "forward",
    "load_checkpoint",
    "save_checkpoint",
    "top_k_coverage",
    "train",
]
