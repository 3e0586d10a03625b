"""Surrogate two-pass video encoder environment.

Generates synthetic videos whose per-frame latent complexity drives a set of
first-pass statistics, and exposes a deterministic sequential encoding
environment: choosing a quantization parameter (QP) for each frame yields
frame bits and frame MSE, with reference-quality state propagating forward.

The rate-distortion core is an explicit closed-form stand-in for a real
codec, chosen to be monotone in QP and to carry per-frame multiplicative
rate noise:

    D = min(E, Q^2 / 12)
    bits = header + gain * max(0, 0.5 * log2(E / D))

where ``E`` is the frame's effective prediction-error energy (which for
inter-coded frames includes a fraction of the reference frames' distortion,
creating the long-horizon coupling), ``Q`` the quantizer step size and
``gain = rd_gain * n_blocks * rate_multiplier``.

Every encode runs through one kernel, ``_encode_step``, which computes one
frame element-wise over rows of QPs and reference states from per-frame
constants cached on the video. ``encode_batch`` loops it over the frames of
B whole episodes at once (ES populations); ``encode_frame`` and
``replay_qp_sequence`` are its one-row cases and ``encode_all_qps`` its
256-QP trial encode (the baseline's QP search). The kernel takes its
logarithm with ``math.log2`` element by element, because numpy's
vectorized ``log2`` can differ from it in the last bit and teacher labels
are verified by exact replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .io import read_jsonl, write_jsonl

__all__ = [
    "FIRST_PASS_FEATURES",
    "CORPUS_SCHEMA",
    "TRACE_SCHEMA",
    "FrameType",
    "FrameLatent",
    "FirstPassFeatures",
    "SyntheticVideo",
    "VideoConfig",
    "GopPlan",
    "EncodeState",
    "Observation",
    "RewardConfig",
    "EpisodeTrace",
    "generate_video",
    "generate_corpus",
    "plan_gop",
    "quantizer_step",
    "rate_distortion",
    "encode_frame",
    "encode_batch",
    "encode_all_qps",
    "episode_reward",
    "batch_rewards",
    "run_episode",
    "replay_qp_sequence",
    "psnr_from_mse",
    "first_pass_matrix",
    "save_corpus",
    "load_corpus",
    "save_traces",
    "load_traces",
]

CORPUS_SCHEMA = "simenc.v1"
TRACE_SCHEMA = "trace.v1"

QP_MAX = 255

# Step size doubles roughly every 23 QP values; Q(0) anchors at 0.25.
_QP_STEPS = tuple(0.25 * math.exp(0.03 * q) for q in range(QP_MAX + 1))

# First-pass statistics exposed per frame, in column order of the feature
# matrix fed to policies.
FIRST_PASS_FEATURES = (
    "frame_index",
    "frame_weight",
    "intra_error",
    "coded_error",
    "sr_coded_error",
    "frame_noise_energy",
    "pcnt_inter",
    "pcnt_motion",
    "pcnt_second_ref",
    "pcnt_neutral",
    "pcnt_intra_low",
    "pcnt_intra_high",
    "intra_skip_pct",
    "intra_smooth_pct",
    "inactive_zone_rows",
    "inactive_zone_cols",
    "MVr",
    "mvr_abs",
    "MVc",
    "mvc_abs",
    "MVrv",
    "Mvcv",
    "mv_in_out_count",
    "duration",
    "frame_count",
)


class ConfigError(ValueError):
    """Invalid generation or encoder configuration."""


class EpisodeError(RuntimeError):
    """Stepping past the end of an episode, or finalizing an incomplete one."""


class FrameType(Enum):
    KEY = "KEY"
    ALT_REF_HIDDEN = "ALT_REF_HIDDEN"
    INTER = "INTER"


@dataclass(frozen=True)
class FrameLatent:
    """Hidden per-frame ground truth the simulator encodes against.

    Values are fixed at generation time and constant for the lifetime of the
    video. ``rate_multiplier`` carries the scene-dependent multiplicative
    noise of the QP-to-bits mapping.
    """

    intra_energy: float        # MSE units, > 0
    inter_fraction: float      # (0, 1]; 1 at scene changes
    noise_energy: float        # MSE units, >= 0
    rate_multiplier: float     # > 0, lognormal, clamped
    mv_row_mean: float
    mv_row_abs: float
    mv_col_mean: float
    mv_col_abs: float
    mv_row_var: float
    mv_col_var: float
    mv_in_out: float
    scene_id: int

    def __post_init__(self) -> None:
        if not self.intra_energy > 0.0:
            raise ConfigError(f"intra_energy must be > 0, got {self.intra_energy}")
        if not 0.0 < self.inter_fraction <= 1.0:
            raise ConfigError(f"inter_fraction must be in (0,1], got {self.inter_fraction}")
        if self.noise_energy < 0.0:
            raise ConfigError(f"noise_energy must be >= 0, got {self.noise_energy}")
        if not self.rate_multiplier > 0.0:
            raise ConfigError(f"rate_multiplier must be > 0, got {self.rate_multiplier}")


@dataclass(frozen=True)
class FirstPassFeatures:
    """The 25 per-frame statistics computed by the (surrogate) first pass."""

    frame_index: float
    frame_weight: float
    intra_error: float
    coded_error: float
    sr_coded_error: float
    frame_noise_energy: float
    pcnt_inter: float
    pcnt_motion: float
    pcnt_second_ref: float
    pcnt_neutral: float
    pcnt_intra_low: float
    pcnt_intra_high: float
    intra_skip_pct: float
    intra_smooth_pct: float
    inactive_zone_rows: float
    inactive_zone_cols: float
    MVr: float
    mvr_abs: float
    MVc: float
    mvc_abs: float
    MVrv: float
    Mvcv: float
    mv_in_out_count: float
    duration: float
    frame_count: float

    def as_row(self) -> list[float]:
        return [getattr(self, name) for name in FIRST_PASS_FEATURES]


@dataclass(frozen=True)
class SyntheticVideo:
    video_id: str
    seed: int
    width: int
    height: int
    frame_rate: float
    frames: tuple[FrameLatent, ...]
    first_pass: tuple[FirstPassFeatures, ...]

    def __post_init__(self) -> None:
        if len(self.frames) != len(self.first_pass):
            raise ConfigError("frames and first_pass must have equal length")
        if len(self.frames) < 2:
            raise ConfigError("a video needs at least 2 frames")

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def duration(self) -> float:
        return self.num_frames / self.frame_rate

    @property
    def n_blocks(self) -> int:
        return math.ceil(self.width / 16) * math.ceil(self.height / 16)


def first_pass_matrix(video: SyntheticVideo) -> np.ndarray:
    """First-pass statistics as a (T, 25) float matrix in feature order."""
    return np.array([fp.as_row() for fp in video.first_pass], dtype=np.float64)


# ---------------------------------------------------------------------------
# Synthetic video generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VideoConfig:
    """Ranges and distributions for synthetic video generation."""

    num_frames_min: int = 100
    num_frames_max: int = 150
    width: int = 640
    height: int = 480
    frame_rate: float = 30.0
    mean_scene_length: float = 45.0
    intra_energy_log_mean: float = math.log(120.0)
    intra_energy_log_sigma: float = 0.7
    intra_energy_min: float = 10.0
    intra_energy_max: float = 1200.0
    noise_energy_min: float = 0.5
    noise_energy_max: float = 6.0
    inter_fraction_min: float = 0.08
    inter_fraction_max: float = 0.55
    rate_multiplier_sigma_log: float = 0.15
    rate_multiplier_min: float = 0.6
    rate_multiplier_max: float = 1.8
    # Per-frame log-scale jitter around the scene-level values; zero gives
    # constant latents within a scene.
    intra_jitter: float = 0.08
    noise_jitter: float = 0.10
    inter_fraction_jitter: float = 0.06

    def validate(self) -> None:
        if self.num_frames_min < 2:
            raise ConfigError("num_frames_min must be >= 2")
        if self.num_frames_max < self.num_frames_min:
            raise ConfigError("num_frames_max must be >= num_frames_min")
        if self.width < 16 or self.height < 16:
            raise ConfigError("resolution must be at least one 16x16 block")
        if self.frame_rate <= 0:
            raise ConfigError("frame_rate must be positive")
        if self.intra_energy_min <= 0 or self.intra_energy_max < self.intra_energy_min:
            raise ConfigError("intra energy range must be positive and ordered")
        if self.noise_energy_min < 0 or self.noise_energy_max < self.noise_energy_min:
            raise ConfigError("noise energy range must be nonnegative and ordered")
        if not (0.0 < self.inter_fraction_min <= self.inter_fraction_max <= 1.0):
            raise ConfigError("inter fraction range must lie in (0,1]")
        if self.rate_multiplier_min <= 0:
            raise ConfigError("rate multiplier clamp must be positive")


def _first_pass_row(
    latent: FrameLatent, index: int, num_frames: int, frame_rate: float
) -> FirstPassFeatures:
    """Derive the published first-pass statistics from one frame's latents.

    The mapping is fixed and deterministic: feature noise comes only from the
    latents themselves.
    """
    intra = latent.intra_energy + latent.noise_energy
    coded = latent.inter_fraction * latent.intra_energy + latent.noise_energy
    # Second (golden) reference predicts slightly worse than the last frame.
    sr_fraction = latent.inter_fraction + 0.15 * (1.0 - latent.inter_fraction)
    sr_coded = sr_fraction * latent.intra_energy + latent.noise_energy

    pcnt_inter = _clip01(1.0 - latent.inter_fraction)
    motion_activity = 1.0 - math.exp(-(latent.mv_row_abs + latent.mv_col_abs) / 2.0)
    low_variance = math.exp(-latent.intra_energy / 150.0)

    return FirstPassFeatures(
        frame_index=float(index),
        frame_weight=coded / (coded + 50.0),
        intra_error=intra,
        coded_error=coded,
        sr_coded_error=min(sr_coded, intra),
        frame_noise_energy=latent.noise_energy,
        pcnt_inter=pcnt_inter,
        pcnt_motion=_clip01(pcnt_inter * motion_activity),
        pcnt_second_ref=_clip01(0.35 * pcnt_inter),
        pcnt_neutral=_clip01(0.05 + 0.1 * latent.inter_fraction * (1.0 - latent.inter_fraction)),
        pcnt_intra_low=_clip01(0.6 * latent.inter_fraction * low_variance),
        pcnt_intra_high=_clip01(0.6 * latent.inter_fraction * (1.0 - low_variance)),
        intra_skip_pct=_clip01(0.8 * math.exp(-latent.intra_energy / 30.0)),
        intra_smooth_pct=_clip01(math.exp(-latent.intra_energy / 60.0)),
        inactive_zone_rows=0.0,
        inactive_zone_cols=0.0,
        MVr=latent.mv_row_mean,
        mvr_abs=latent.mv_row_abs,
        MVc=latent.mv_col_mean,
        mvc_abs=latent.mv_col_abs,
        MVrv=latent.mv_row_var,
        Mvcv=latent.mv_col_var,
        mv_in_out_count=latent.mv_in_out,
        duration=1.0 / frame_rate,
        frame_count=float(num_frames),
    )


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


def generate_video(seed: int, config: VideoConfig = VideoConfig()) -> SyntheticVideo:
    """Generate one synthetic video, deterministically in ``seed``."""
    config.validate()
    rng = np.random.Generator(np.random.PCG64(seed))

    num_frames = int(rng.integers(config.num_frames_min, config.num_frames_max + 1))

    # Scene segmentation: geometric lengths, at least 4 frames per scene.
    scene_starts = [0]
    t = 0
    while True:
        length = max(4, int(rng.geometric(1.0 / config.mean_scene_length)))
        t += length
        if t >= num_frames:
            break
        scene_starts.append(t)

    frames: list[FrameLatent] = []
    scene_id = -1
    base_intra = base_noise = base_rho = motion_scale = 0.0
    for index in range(num_frames):
        at_scene_start = scene_id + 1 < len(scene_starts) and index == scene_starts[scene_id + 1]
        if at_scene_start:
            scene_id += 1
            base_intra = float(
                np.clip(
                    rng.lognormal(config.intra_energy_log_mean, config.intra_energy_log_sigma),
                    config.intra_energy_min,
                    config.intra_energy_max,
                )
            )
            base_noise = float(rng.uniform(config.noise_energy_min, config.noise_energy_max))
            base_rho = float(rng.uniform(config.inter_fraction_min, config.inter_fraction_max))
            motion_scale = float(rng.lognormal(math.log(2.0), 0.6))

        intra = base_intra * float(np.exp(rng.normal(0.0, config.intra_jitter)))
        noise = base_noise * float(np.exp(rng.normal(0.0, config.noise_jitter)))
        if at_scene_start:
            rho = 1.0  # no usable previous frame across a cut
        else:
            rho = float(
                np.clip(base_rho * np.exp(rng.normal(0.0, config.inter_fraction_jitter)), 1e-3, 1.0)
            )
        w = float(
            np.clip(
                np.exp(rng.normal(0.0, config.rate_multiplier_sigma_log)),
                config.rate_multiplier_min,
                config.rate_multiplier_max,
            )
        )
        mu_r = float(rng.normal(0.0, 0.4 * motion_scale))
        mu_c = float(rng.normal(0.0, 0.4 * motion_scale))
        sd_r = motion_scale * float(np.exp(rng.normal(0.0, 0.2)))
        sd_c = motion_scale * float(np.exp(rng.normal(0.0, 0.2)))
        frames.append(
            FrameLatent(
                intra_energy=intra,
                inter_fraction=rho,
                noise_energy=noise,
                rate_multiplier=w,
                mv_row_mean=mu_r,
                mv_row_abs=abs(mu_r) + 0.8 * sd_r,
                mv_col_mean=mu_c,
                mv_col_abs=abs(mu_c) + 0.8 * sd_c,
                mv_row_var=sd_r * sd_r,
                mv_col_var=sd_c * sd_c,
                mv_in_out=float(np.clip(rng.normal(0.0, 0.2), -1.0, 1.0)),
                scene_id=scene_id,
            )
        )

    first_pass = tuple(
        _first_pass_row(latent, i, num_frames, config.frame_rate)
        for i, latent in enumerate(frames)
    )
    return SyntheticVideo(
        video_id=f"sim-{seed & 0xFFFFFFFFFFFFFFFF:016x}",
        seed=seed,
        width=config.width,
        height=config.height,
        frame_rate=config.frame_rate,
        frames=tuple(frames),
        first_pass=first_pass,
    )


def generate_corpus(
    count: int, master_seed: int, config: VideoConfig = VideoConfig()
) -> list[SyntheticVideo]:
    """Generate ``count`` videos with per-video seeds derived from a master seed."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    children = np.random.SeedSequence(master_seed).spawn(count)
    videos = []
    for i, child in enumerate(children):
        seed = int(child.generate_state(1, dtype=np.uint64)[0])
        video = generate_video(seed, config)
        videos.append(replace(video, video_id=f"sim{i:05d}-{seed:016x}"))
    return videos


# ---------------------------------------------------------------------------
# GOP planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GopPlan:
    """Frame types, show flags and reference-slot usage for one video."""

    frame_types: tuple[FrameType, ...]
    show: tuple[bool, ...]
    references: tuple[tuple[str, ...], ...]  # subset of ("LAST", "GOLDEN")


def plan_gop(video: SyntheticVideo, gop_interval: int = 16) -> GopPlan:
    """Fixed-interval GOP: frame 0 is KEY, then a hidden alternate reference
    every ``gop_interval`` coding positions; everything else is INTER."""
    if gop_interval < 2:
        raise ConfigError("gop_interval must be >= 2")
    types: list[FrameType] = []
    for t in range(video.num_frames):
        if t == 0:
            types.append(FrameType.KEY)
        elif t % gop_interval == 0:
            types.append(FrameType.ALT_REF_HIDDEN)
        else:
            types.append(FrameType.INTER)
    show = tuple(ft is not FrameType.ALT_REF_HIDDEN for ft in types)
    refs = tuple(() if ft is FrameType.KEY else ("LAST", "GOLDEN") for ft in types)
    return GopPlan(frame_types=tuple(types), show=show, references=refs)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

# Constants of the surrogate rate-distortion model. Header bits are given
# at a 640x480-equivalent block count and scale linearly with the actual one.
RD_GAIN = 12.0
ERROR_PROPAGATION = 0.5
REF_MIX_LAST = 0.7
REF_MIX_GOLDEN = 0.3
HEADER_BITS = {FrameType.KEY: 4000.0, FrameType.ALT_REF_HIDDEN: 2500.0, FrameType.INTER: 300.0}
REFERENCE_BLOCKS = 1200


@dataclass(frozen=True)
class EncodeState:
    """Reference-quality state of the encoder between frames.

    Immutable; ``encode_frame`` returns the successor state. A single state
    value must not be advanced from two threads at once, but distinct
    episodes are fully independent.
    """

    cursor: int = 0
    d_last: float = 0.0
    d_golden: float = 0.0
    cum_bits: float = 0.0
    last: tuple[int, float, float] = (-1, 0.0, 0.0)  # (qp, bits, mse) of the previous frame


def quantizer_step(qp: int) -> float:
    """Map integer QP 0..255 to its quantizer step size (strictly increasing)."""
    if not isinstance(qp, (int, np.integer)) or isinstance(qp, bool):
        raise TypeError(f"qp must be an integer, got {type(qp).__name__}")
    if not 0 <= qp <= QP_MAX:
        raise ValueError(f"qp must be in [0, {QP_MAX}], got {qp}")
    return _QP_STEPS[qp]


def rate_distortion(
    energy: float, q_step: float, gain: float, header: float
) -> tuple[float, float]:
    """Closed-form surrogate RD: returns (bits, mse) for one frame.

    ``mse = min(energy, q_step^2 / 12)``; residual bits are proportional to
    half the log-ratio of energy to achieved distortion, zero when the
    quantizer is coarse enough to saturate.
    """
    if energy <= 0.0:
        raise ValueError("frame energy must be positive")
    mse = min(energy, q_step * q_step / 12.0)
    bits = header + gain * max(0.0, 0.5 * math.log2(energy / mse))
    return bits, mse


# Saturation distortion ``Q^2 / 12`` of every QP, as ``rate_distortion`` computes it.
_QP_MSE_CAP = np.array([q * q / 12.0 for q in _QP_STEPS])


@dataclass(frozen=True)
class _FrameConstants:
    """Per-frame encoder constants of one (video, gop), as (T,) arrays."""

    gop: GopPlan
    key_energy: np.ndarray      # intra + noise energy of a KEY frame
    inter_energy: np.ndarray    # inter_fraction * intra + noise, before reference error
    gain: np.ndarray
    header: np.ndarray
    key: np.ndarray             # KEY frames ignore the reference state
    golden_reset: np.ndarray    # KEY and ALT_REF frames refresh the golden slot


def _frame_constants(video: SyntheticVideo, gop: GopPlan) -> _FrameConstants:
    """The per-frame constants of (video, gop), cached on the video.

    The cache is for the last GOP plan used, compared by identity; it holds
    the plan, so its id cannot be reused while it does.
    """
    cached = video.__dict__.get("_frame_constants")
    if cached is not None and cached.gop is gop:
        return cached
    if len(gop.frame_types) != video.num_frames:
        raise ConfigError(
            f"GOP plans {len(gop.frame_types)} frames, video has {video.num_frames}"
        )
    n_blocks = video.n_blocks
    cached = _FrameConstants(
        gop=gop,
        key_energy=np.array([f.intra_energy + f.noise_energy for f in video.frames]),
        inter_energy=np.array(
            [f.inter_fraction * f.intra_energy + f.noise_energy for f in video.frames]
        ),
        gain=np.array([RD_GAIN * n_blocks * f.rate_multiplier for f in video.frames]),
        header=np.array(
            [HEADER_BITS[ft] * n_blocks / REFERENCE_BLOCKS for ft in gop.frame_types]
        ),
        key=np.array([ft is FrameType.KEY for ft in gop.frame_types]),
        golden_reset=np.array([ft is not FrameType.INTER for ft in gop.frame_types]),
    )
    # A cache, not a field: equality, replace() and persistence ignore it.
    object.__setattr__(video, "_frame_constants", cached)
    return cached


def _encode_step(
    c: _FrameConstants,
    t: int,
    mse_cap: np.ndarray,
    d_last: np.ndarray,
    d_golden: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The encoder kernel: bits and MSE of frame ``t``, element-wise.

    ``mse_cap`` holds ``Q^2 / 12`` of the QPs being encoded, one per row;
    it broadcasts against the (rows,) or (1,) reference state
    ``d_last``/``d_golden``. Its arithmetic is that of ``rate_distortion``,
    operation for operation, so results are bitwise equal to it.
    """
    if c.key[t]:
        energy = c.key_energy[t]
    else:
        d_ref = REF_MIX_LAST * d_last + REF_MIX_GOLDEN * d_golden
        energy = c.inter_energy[t] + ERROR_PROPAGATION * d_ref
    mse = np.minimum(energy, mse_cap)
    # energy / mse >= 1, so the log is never negative. It is math.log2, not
    # np.log2, for the reason the module docstring gives.
    ratio = (energy / mse).tolist()
    log2 = np.fromiter(map(math.log2, ratio), np.float64, len(ratio))
    bits = c.header[t] + c.gain[t] * (0.5 * log2)
    return bits, mse


def encode_batch(video: SyntheticVideo, gop: GopPlan, qps) -> tuple[np.ndarray, np.ndarray]:
    """Encode B whole episodes at once: ``qps`` (B, T) -> (bits, mse), each (B, T).

    Loops over frames and vectorizes over rows; row i is bitwise equal to
    encoding ``qps[i]`` frame by frame with ``encode_frame``.
    """
    qps = np.asarray(qps)
    if qps.ndim != 2 or qps.shape[1] != video.num_frames:
        raise EpisodeError(f"need (B, {video.num_frames}) QPs, got shape {qps.shape}")
    if qps.dtype.kind not in "iu":
        raise TypeError(f"qps must be integers, got dtype {qps.dtype}")
    if qps.size and (qps.min() < 0 or qps.max() > QP_MAX):
        raise ValueError(f"qps must be in [0, {QP_MAX}]")
    c = _frame_constants(video, gop)
    caps = _QP_MSE_CAP[qps.T]                   # (T, B), one row per frame
    bits = np.empty(caps.shape)
    mse = np.empty(caps.shape)
    d_last = d_golden = np.zeros(qps.shape[0])
    for t in range(video.num_frames):
        bits[t], mse[t] = _encode_step(c, t, caps[t], d_last, d_golden)
        d_last = mse[t]
        if c.golden_reset[t]:
            d_golden = d_last
    return bits.T, mse.T


def encode_frame(
    video: SyntheticVideo, gop: GopPlan, state: EncodeState, qp: int
) -> tuple[float, float, EncodeState]:
    """Encode the frame at the state's cursor with ``qp``.

    Pure: identical inputs produce identical outputs. Returns
    (bits, mse, next_state).
    """
    t = state.cursor
    if t >= video.num_frames:
        raise EpisodeError(f"episode ended at frame {video.num_frames}, cannot encode frame {t}")
    quantizer_step(qp)  # validates qp
    c = _frame_constants(video, gop)
    b, m = _encode_step(
        c, t, _QP_MSE_CAP[qp : qp + 1], np.array([state.d_last]), np.array([state.d_golden])
    )
    bits, mse = float(b[0]), float(m[0])
    next_state = EncodeState(
        cursor=t + 1,
        d_last=mse,
        d_golden=mse if c.golden_reset[t] else state.d_golden,
        cum_bits=state.cum_bits + bits,
        last=(int(qp), bits, mse),
    )
    return bits, mse, next_state


def encode_all_qps(
    video: SyntheticVideo, gop: GopPlan, state: EncodeState
) -> tuple[np.ndarray, np.ndarray]:
    """Trial-encode the frame at the state's cursor with every QP 0..255.

    Returns (bits, mse), each (256,) and indexed by QP; entry ``qp`` is
    bitwise equal to ``encode_frame(video, gop, state, qp)``. Does not
    advance ``state``.
    """
    t = state.cursor
    if t >= video.num_frames:
        raise EpisodeError(f"episode ended at frame {video.num_frames}, cannot encode frame {t}")
    c = _frame_constants(video, gop)
    return _encode_step(c, t, _QP_MSE_CAP, np.array([state.d_last]), np.array([state.d_golden]))


# ---------------------------------------------------------------------------
# Episodes, reward, traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewardConfig:
    """Episodic reward: final PSNR minus a penalty per kbps of overshoot."""

    penalty_per_kbps: float = 0.02
    bitrate_target_kbps: float = 512.0

    def __post_init__(self) -> None:
        if not self.penalty_per_kbps > 0.0:
            raise ConfigError("penalty_per_kbps must be > 0")
        if not self.bitrate_target_kbps > 0.0:
            raise ConfigError("bitrate_target_kbps must be > 0")


@dataclass(frozen=True)
class Observation:
    """What a policy sees before choosing the QP of frame ``frame_index``.

    Depends only on first-pass data and encode history strictly before the
    current frame. ``prev_qp`` is -1 on the first frame; ``state`` is the
    encoder state before this frame, from which trial encodes start.
    """

    width: int
    height: int
    num_frames: int
    duration: float
    frame_rate: float
    target_bitrate_kbps: float
    encode_speed: int
    first_pass: np.ndarray  # (T, 25), shared across steps
    frame_type: FrameType
    frame_index: int
    prev_qp: int
    prev_bits: float
    prev_mse: float
    cum_bits: float
    rel_cum_bits: float
    state: EncodeState


@dataclass(frozen=True)
class EpisodeTrace:
    """Full record of one encode episode."""

    video_id: str
    num_frames: int
    target_bitrate_kbps: float
    qps: tuple[int, ...]
    bits: tuple[float, ...]
    mse: tuple[float, ...]
    show: tuple[bool, ...]
    psnr_db: float
    bitrate_kbps: float
    reward: float


def psnr_from_mse(mean_mse: float) -> float:
    """PSNR in dB for 8-bit peak signal: 10*log10(255^2 / MSE)."""
    if mean_mse <= 0.0:
        raise ValueError("mean MSE must be positive")
    return 10.0 * math.log10(255.0 * 255.0 / mean_mse)


def _reward(psnr_db: float, bitrate_kbps: float, reward_config: RewardConfig) -> float:
    overshoot = max(0.0, bitrate_kbps - reward_config.bitrate_target_kbps)
    return psnr_db - reward_config.penalty_per_kbps * overshoot


def episode_reward(trace: EpisodeTrace, reward_config: RewardConfig) -> float:
    """Terminal reward: PSNR - penalty * max(0, bitrate - target)."""
    if len(trace.qps) != trace.num_frames:
        raise EpisodeError(
            f"incomplete trace: {len(trace.qps)} of {trace.num_frames} frames encoded"
        )
    return _reward(trace.psnr_db, trace.bitrate_kbps, reward_config)


def _quality_and_rate(
    video: SyntheticVideo, gop: GopPlan, bits: Sequence[float], mses: Sequence[float]
) -> tuple[float, float]:
    """(PSNR over shown frames, bitrate in kbps) of one episode's frames."""
    bitrate_kbps = math.fsum(bits) / video.duration / 1000.0
    show_mses = [m for m, s in zip(mses, gop.show) if s]
    return psnr_from_mse(math.fsum(show_mses) / len(show_mses)), bitrate_kbps


def _finalize_trace(
    video: SyntheticVideo,
    gop: GopPlan,
    target_bitrate_kbps: float,
    qps: Sequence[int],
    bits: Sequence[float],
    mses: Sequence[float],
    reward_config: RewardConfig | None,
) -> EpisodeTrace:
    psnr, bitrate_kbps = _quality_and_rate(video, gop, bits, mses)
    trace = EpisodeTrace(
        video_id=video.video_id,
        num_frames=video.num_frames,
        target_bitrate_kbps=target_bitrate_kbps,
        qps=tuple(int(q) for q in qps),
        bits=tuple(bits),
        mse=tuple(mses),
        show=gop.show,
        psnr_db=psnr,
        bitrate_kbps=bitrate_kbps,
        reward=0.0,
    )
    cfg = reward_config or RewardConfig(bitrate_target_kbps=target_bitrate_kbps)
    return replace(trace, reward=episode_reward(trace, cfg))


def batch_rewards(
    video: SyntheticVideo,
    gop: GopPlan,
    bits: np.ndarray,
    mses: np.ndarray,
    target_bitrate_kbps: float,
    reward_config: RewardConfig | None = None,
) -> np.ndarray:
    """Terminal rewards of the rows of an ``encode_batch`` result, shape (B,).

    Row i equals the ``reward`` of the trace that replaying row i builds:
    the reductions are the same exact ``math.fsum`` sums.
    """
    cfg = reward_config or RewardConfig(bitrate_target_kbps=target_bitrate_kbps)
    return np.array(
        [
            _reward(*_quality_and_rate(video, gop, b.tolist(), m.tolist()), cfg)
            for b, m in zip(bits, mses)
        ],
        dtype=np.float64,
    )


def run_episode(
    video: SyntheticVideo,
    gop: GopPlan,
    target_bitrate_kbps: float,
    policy_callback: Callable[[Observation], int],
    reward_config: RewardConfig | None = None,
) -> EpisodeTrace:
    """Encode a full episode, querying ``policy_callback`` once per frame."""
    if target_bitrate_kbps <= 0:
        raise ConfigError("target bitrate must be positive")
    fp_matrix = first_pass_matrix(video)
    budget_bits = target_bitrate_kbps * 1000.0 * video.duration
    state = EncodeState()
    qps: list[int] = []
    bits: list[float] = []
    mses: list[float] = []
    for t in range(video.num_frames):
        prev_qp, prev_bits, prev_mse = state.last
        obs = Observation(
            width=video.width,
            height=video.height,
            num_frames=video.num_frames,
            duration=video.duration,
            frame_rate=video.frame_rate,
            target_bitrate_kbps=target_bitrate_kbps,
            encode_speed=0,
            first_pass=fp_matrix,
            frame_type=gop.frame_types[t],
            frame_index=t,
            prev_qp=prev_qp,
            prev_bits=prev_bits,
            prev_mse=prev_mse,
            cum_bits=state.cum_bits,
            rel_cum_bits=state.cum_bits / budget_bits,
            state=state,
        )
        qp = int(policy_callback(obs))
        b, m, state = encode_frame(video, gop, state, qp)
        qps.append(qp)
        bits.append(b)
        mses.append(m)
    return _finalize_trace(video, gop, target_bitrate_kbps, qps, bits, mses, reward_config)


def replay_qp_sequence(
    video: SyntheticVideo,
    gop: GopPlan,
    qps: Sequence[int],
    target_bitrate_kbps: float,
    reward_config: RewardConfig | None = None,
) -> EpisodeTrace:
    """Encode a fixed QP sequence without building observations.

    A one-row ``encode_batch``: the same kernel as ``encode_frame``, so the
    trace is bitwise equal to ``run_episode`` with a callback that replays
    the same QPs.
    """
    if len(qps) != video.num_frames:
        raise EpisodeError(f"need {video.num_frames} QPs, got {len(qps)}")
    bits, mses = encode_batch(video, gop, [qps])
    return _finalize_trace(
        video, gop, target_bitrate_kbps, qps, bits[0].tolist(), mses[0].tolist(), reward_config
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_LATENT_FIELDS = (
    "intra_energy",
    "inter_fraction",
    "noise_energy",
    "rate_multiplier",
    "mv_row_mean",
    "mv_row_abs",
    "mv_col_mean",
    "mv_col_abs",
    "mv_row_var",
    "mv_col_var",
    "mv_in_out",
    "scene_id",
)


def video_to_record(video: SyntheticVideo) -> dict:
    return {
        "video_id": video.video_id,
        "seed": video.seed,
        "width": video.width,
        "height": video.height,
        "frame_rate": video.frame_rate,
        "frames": [[getattr(f, name) for name in _LATENT_FIELDS] for f in video.frames],
        "first_pass": [fp.as_row() for fp in video.first_pass],
    }


def video_from_record(rec: dict) -> SyntheticVideo:
    frames = tuple(
        FrameLatent(**dict(zip(_LATENT_FIELDS, row))) for row in rec["frames"]
    )
    first_pass = tuple(
        FirstPassFeatures(**dict(zip(FIRST_PASS_FEATURES, row))) for row in rec["first_pass"]
    )
    return SyntheticVideo(
        video_id=rec["video_id"],
        seed=rec["seed"],
        width=rec["width"],
        height=rec["height"],
        frame_rate=rec["frame_rate"],
        frames=frames,
        first_pass=first_pass,
    )


def save_corpus(path, videos: Iterable[SyntheticVideo]) -> int:
    return write_jsonl(path, (video_to_record(v) for v in videos), CORPUS_SCHEMA)


def load_corpus(path) -> list[SyntheticVideo]:
    return [video_from_record(rec) for rec in read_jsonl(path, CORPUS_SCHEMA)]


def trace_to_record(trace: EpisodeTrace) -> dict:
    return {
        "video_id": trace.video_id,
        "num_frames": trace.num_frames,
        "target_bitrate_kbps": trace.target_bitrate_kbps,
        "qps": list(trace.qps),
        "bits": list(trace.bits),
        "mse": list(trace.mse),
        "show": [1 if s else 0 for s in trace.show],
        "psnr_db": trace.psnr_db,
        "bitrate_kbps": trace.bitrate_kbps,
        "reward": trace.reward,
    }


def trace_from_record(rec: dict) -> EpisodeTrace:
    return EpisodeTrace(
        video_id=rec["video_id"],
        num_frames=rec["num_frames"],
        target_bitrate_kbps=rec["target_bitrate_kbps"],
        qps=tuple(int(q) for q in rec["qps"]),
        bits=tuple(rec["bits"]),
        mse=tuple(rec["mse"]),
        show=tuple(bool(s) for s in rec["show"]),
        psnr_db=rec["psnr_db"],
        bitrate_kbps=rec["bitrate_kbps"],
        reward=rec["reward"],
    )


def save_traces(path, traces: Iterable[EpisodeTrace]) -> int:
    return write_jsonl(path, (trace_to_record(t) for t in traces), TRACE_SCHEMA)


def load_traces(path) -> list[EpisodeTrace]:
    return [trace_from_record(rec) for rec in read_jsonl(path, TRACE_SCHEMA)]
