"""Observation feature pipeline for the neural policy.

Float features are standardized to zero mean and unit variance with
statistics fitted on the training corpus; a feature whose training variance
is below ``_VAR_FLOOR`` is only centered. Count-like features get a
``log(1 + x)`` transform instead. The previous QP and the current frame
type are embedded through fixed random tables created when the spec is
fitted; the spec is frozen afterwards and serialized with the model.
A bundle joins the columns an episode fixes, ``episode_features``, to those
its encode history sets, in ``build_features``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..simenc import FIRST_PASS_FEATURES, FrameType

__all__ = ["FeatureSpec", "FeatureError", "fit_feature_spec", "episode_features", "build_features"]

EMBED_DIM = 16

# First-pass columns treated as counts (log1p) rather than standardized floats.
FIRST_PASS_COUNT_FEATURES = frozenset(
    {"frame_index", "frame_count", "inactive_zone_rows", "inactive_zone_cols"}
)

# Scalar observation features that are standardized; stats are fitted from
# the training episodes.
SCALAR_FLOAT_FEATURES = (
    "width",
    "height",
    "duration",
    "frame_rate",
    "target_bitrate_kbps",
    "prev_mse",
)

FRAME_TYPE_ORDER = (FrameType.KEY, FrameType.ALT_REF_HIDDEN, FrameType.INTER)

_VAR_FLOOR = 1e-6


class FeatureError(ValueError):
    """Unknown feature name or use of an unfitted spec."""


@dataclass
class FeatureSpec:
    """Frozen normalization statistics and embedding tables.

    ``bundle_dim`` is the fixed per-step input dimensionality:
    7 static + 2 frame-position + 16 frame-type embedding
    + 16 prev-QP embedding + 2 prev bits/mse + 1 prev reward
    + 2 cumulative-bits features = 46.
    """

    first_pass_mean: np.ndarray | None = None   # (25,)
    first_pass_std: np.ndarray | None = None    # (25,)
    scalar_mean: dict[str, float] = field(default_factory=dict)
    scalar_std: dict[str, float] = field(default_factory=dict)
    qp_embedding: np.ndarray | None = None      # (256, 16)
    frame_type_embedding: np.ndarray | None = None  # (3, 16)
    seed: int = 0
    fitted: bool = False

    @property
    def bundle_dim(self) -> int:
        return 7 + 2 + EMBED_DIM + EMBED_DIM + 2 + 1 + 2

    @cached_property
    def qp_rows(self) -> np.ndarray:
        """``qp_embedding`` and a zero row, which index -1 (no previous QP) selects."""
        return np.vstack([self.qp_embedding, np.zeros(EMBED_DIM)])

    def require_fitted(self) -> None:
        if not self.fitted:
            raise FeatureError("feature spec has not been fitted")

    def scalar_transform(self, name: str, value: float) -> float:
        """Standardize one named scalar float feature."""
        self.require_fitted()
        if name not in self.scalar_mean:
            raise FeatureError(f"unknown scalar feature {name!r}")
        return (value - self.scalar_mean[name]) / self.scalar_std[name]

    def normalize_first_pass(self, matrix: np.ndarray) -> np.ndarray:
        """Transform a (T, 25) first-pass matrix column-wise."""
        self.require_fitted()
        if matrix.ndim != 2 or matrix.shape[1] != len(FIRST_PASS_FEATURES):
            raise FeatureError(f"expected (T, {len(FIRST_PASS_FEATURES)}) matrix")
        out = np.empty_like(matrix, dtype=np.float64)
        for j, name in enumerate(FIRST_PASS_FEATURES):
            if name in FIRST_PASS_COUNT_FEATURES:
                out[:, j] = np.log1p(matrix[:, j])
            else:
                out[:, j] = (matrix[:, j] - self.first_pass_mean[j]) / self.first_pass_std[j]
        return out

    def to_arrays(self) -> dict[str, np.ndarray]:
        self.require_fitted()
        arrays = {
            "first_pass_mean": self.first_pass_mean,
            "first_pass_std": self.first_pass_std,
            "qp_embedding": self.qp_embedding,
            "frame_type_embedding": self.frame_type_embedding,
            "scalar_names": np.array(list(self.scalar_mean), dtype="U32"),
            "scalar_mean": np.array([self.scalar_mean[k] for k in self.scalar_mean]),
            "scalar_std": np.array([self.scalar_std[k] for k in self.scalar_mean]),
            "seed": np.array(self.seed, dtype=np.int64),
        }
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "FeatureSpec":
        names = [str(n) for n in arrays["scalar_names"]]
        return cls(
            first_pass_mean=np.asarray(arrays["first_pass_mean"], dtype=np.float64),
            first_pass_std=np.asarray(arrays["first_pass_std"], dtype=np.float64),
            scalar_mean=dict(zip(names, (float(v) for v in arrays["scalar_mean"]))),
            scalar_std=dict(zip(names, (float(v) for v in arrays["scalar_std"]))),
            qp_embedding=np.asarray(arrays["qp_embedding"], dtype=np.float64),
            frame_type_embedding=np.asarray(arrays["frame_type_embedding"], dtype=np.float64),
            seed=int(arrays["seed"]),
            fitted=True,
        )


def _std_or_one(var: np.ndarray) -> np.ndarray:
    """Standard deviation, or 1 where the variance is below ``_VAR_FLOOR``.

    Dividing a near-constant feature by its tiny deviation would blow up
    any value away from the training mean, such as an unseen target.
    """
    return np.where(var < _VAR_FLOOR, 1.0, np.sqrt(var))


def fit_feature_spec(
    first_pass_matrices: list[np.ndarray],
    scalar_samples: dict[str, list[float]],
    seed: int = 0,
) -> FeatureSpec:
    """Fit normalization statistics and create the fixed embedding tables.

    ``scalar_samples`` must provide values for every name in
    ``SCALAR_FLOAT_FEATURES`` collected over the training episodes.
    """
    if not first_pass_matrices:
        raise FeatureError("need at least one first-pass matrix to fit")
    missing = set(SCALAR_FLOAT_FEATURES) - set(scalar_samples)
    if missing:
        raise FeatureError(f"missing scalar samples for {sorted(missing)}")
    stacked = np.concatenate(first_pass_matrices, axis=0)
    mean = stacked.mean(axis=0)
    std = _std_or_one(stacked.var(axis=0))

    scalar_mean = {}
    scalar_std = {}
    for name in SCALAR_FLOAT_FEATURES:
        vals = np.asarray(scalar_samples[name], dtype=np.float64)
        scalar_mean[name] = float(vals.mean())
        scalar_std[name] = float(_std_or_one(vals.var()))

    rng = np.random.Generator(np.random.PCG64(seed))
    scale = 1.0 / np.sqrt(EMBED_DIM)
    return FeatureSpec(
        first_pass_mean=mean,
        first_pass_std=std,
        scalar_mean=scalar_mean,
        scalar_std=scalar_std,
        qp_embedding=rng.normal(0.0, scale, size=(256, EMBED_DIM)),
        frame_type_embedding=rng.normal(0.0, scale, size=(len(FRAME_TYPE_ORDER), EMBED_DIM)),
        seed=seed,
        fitted=True,
    )


def episode_features(
    spec: FeatureSpec, video, target_bitrate_kbps: float, encode_speed: int
) -> np.ndarray:
    """The (T, 9) bundle columns an episode fixes: 7 static, 2 frame-position.

    ``video`` has the video's ``width``, ``height``, ``num_frames``,
    ``duration`` and ``frame_rate``: a ``SyntheticVideo`` or an ``Observation``.
    """
    T = video.num_frames
    static = [
        spec.scalar_transform("width", float(video.width)),
        spec.scalar_transform("height", float(video.height)),
        np.log1p(float(T)),
        spec.scalar_transform("duration", video.duration),
        spec.scalar_transform("frame_rate", video.frame_rate),
        spec.scalar_transform("target_bitrate_kbps", target_bitrate_kbps),
        float(encode_speed),
    ]
    index = np.arange(T, dtype=np.float64)
    position = np.column_stack([np.log1p(index), (index + 1.0) / T])
    return np.concatenate([np.broadcast_to(static, (T, 7)), position], axis=1)


def build_features(
    spec: FeatureSpec, episode, frame_type, prev_qp, prev_bits, prev_mse, cum_bits, rel_cum_bits
) -> np.ndarray:
    """Input bundles, (46,) for one step or (T, 46) for T steps at once.

    ``episode`` holds the steps' ``episode_features`` rows; the rest are
    scalars or (T,) arrays: ``frame_type`` indexes ``FRAME_TYPE_ORDER``,
    and the others are the ``Observation`` fields of the same name.
    ``prev_qp`` is the label under teacher forcing, the policy's action in a
    rollout, and -1 (embedded as zeros) on the first frame. The environment
    pays only a terminal reward, so the previous-reward slot is always 0.
    """
    prev_bits = np.asarray(prev_bits, dtype=np.float64)  # never negative
    mse = spec.scalar_transform("prev_mse", prev_mse)
    tail = np.array(
        [np.log1p(prev_bits), mse, np.zeros(prev_bits.shape), np.log1p(cum_bits), rel_cum_bits]
    ).T
    types = spec.frame_type_embedding[frame_type]
    return np.concatenate([episode, types, spec.qp_rows[prev_qp], tail], axis=-1)
