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

A video is stored by column: its latents are one structured array and its
first-pass statistics one (T, 25) matrix, the form policies read them in.
The encoder formula has two forms with one set of inputs. ``_frame_terms``
gives a frame's energy, gain and header from per-frame constants cached as
(T,) tuples on the video and on the GOP plan, and from the reference state.
``rate_distortion`` is the scalar form: ``encode_frame`` and
``replay_qp_sequence``, which walks it, encode one row on Python floats, and
the baseline's QP search bisects over it through ``rd_terms``.
``_encode_step`` is the row form: ``encode_batch`` loops it over the frames
of B whole episodes at once (ES populations). Both take the logarithm with
``math.log2``, because numpy's vectorized ``log2`` can differ from it in the
last bit and teacher labels are verified by exact replay; property tests
pin the two forms equal bit for bit.

``run_episode`` asks a policy callback for each frame's QP, passing an
``Observation``: the video, its GOP plan, the target and the encoder state
before that frame. Policies derive their inputs from these at the source.
``replay_qp_sequence`` encodes a fixed QP sequence without observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .io import read_jsonl, write_jsonl

__all__ = [
    "FIRST_PASS_FEATURES",
    "CORPUS_SCHEMA",
    "TRACE_SCHEMA",
    "LATENT_DTYPE",
    "LATENT_FIELDS",
    "PENALTY_PER_KBPS",
    "FrameType",
    "SyntheticVideo",
    "VideoConfig",
    "GopPlan",
    "EncodeState",
    "Observation",
    "EpisodeTrace",
    "generate_video",
    "generate_corpus",
    "plan_gop",
    "quantizer_step",
    "rate_distortion",
    "rd_terms",
    "encode_frame",
    "encode_batch",
    "episode_reward",
    "batch_rewards",
    "run_episode",
    "replay_qp_sequence",
    "psnr_from_mse",
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


# Hidden per-frame ground truth the simulator encodes against, one column
# per latent, in the column order of corpus rows. Values are fixed at
# generation time; ``rate_multiplier`` carries the scene-dependent
# multiplicative noise of the QP-to-bits mapping.
LATENT_DTYPE = np.dtype(
    [
        ("intra_energy", np.float64),       # MSE units, > 0
        ("inter_fraction", np.float64),     # (0, 1]; 1 at scene changes
        ("noise_energy", np.float64),       # MSE units, >= 0
        ("rate_multiplier", np.float64),    # > 0, lognormal, clamped
        ("mv_row_mean", np.float64),
        ("mv_row_abs", np.float64),
        ("mv_col_mean", np.float64),
        ("mv_col_abs", np.float64),
        ("mv_row_var", np.float64),
        ("mv_col_var", np.float64),
        ("mv_in_out", np.float64),
        ("scene_id", np.int64),
    ]
)
LATENT_FIELDS = LATENT_DTYPE.names


@dataclass(frozen=True, eq=False)
class SyntheticVideo:
    """One video, stored by column; both arrays are made read-only.

    ``frames`` is a (T,) structured array of ``LATENT_DTYPE``;
    ``first_pass`` is the (T, 25) float matrix of first-pass statistics, in
    ``FIRST_PASS_FEATURES`` order. Arrays have no value equality, so neither
    has the video: compare videos by ``video_to_record``.
    """

    video_id: str
    seed: int
    width: int
    height: int
    frame_rate: float
    frames: np.ndarray
    first_pass: np.ndarray

    def __post_init__(self) -> None:
        frames = self.frames
        if frames.dtype != LATENT_DTYPE or frames.ndim != 1:
            raise ConfigError("frames must be a (T,) array of LATENT_DTYPE")
        if len(frames) < 2:
            raise ConfigError("a video needs at least 2 frames")
        shape = (len(frames), len(FIRST_PASS_FEATURES))
        if self.first_pass.dtype != np.float64 or self.first_pass.shape != shape:
            raise ConfigError(f"first_pass must be a {shape} float64 matrix")
        # Corpus files are outside input: reject latents the encoder cannot take.
        inter = frames["inter_fraction"]
        for name, ok, rule in (
            ("intra_energy", frames["intra_energy"] > 0.0, "> 0"),
            ("inter_fraction", (inter > 0.0) & (inter <= 1.0), "in (0,1]"),
            ("noise_energy", frames["noise_energy"] >= 0.0, ">= 0"),
            ("rate_multiplier", frames["rate_multiplier"] > 0.0, "> 0"),
        ):
            if not ok.all():
                raise ConfigError(f"{name} must be {rule}, got {frames[name][~ok][0]}")
        frames.flags.writeable = False
        self.first_pass.flags.writeable = False

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def duration(self) -> float:
        return self.num_frames / self.frame_rate

    @cached_property
    def n_blocks(self) -> int:
        return math.ceil(self.width / 16) * math.ceil(self.height / 16)

    # Per-frame constants of the encoder, (T,) tuples of Python floats: the
    # scalar path computes on them without numpy's per-element overhead.

    @cached_property
    def key_energy(self) -> tuple[float, ...]:
        """Prediction-error energy of each frame coded as KEY: intra + noise."""
        return tuple((self.frames["intra_energy"] + self.frames["noise_energy"]).tolist())

    @cached_property
    def inter_energy(self) -> tuple[float, ...]:
        """Energy of each inter-coded frame before reference error."""
        f = self.frames
        return tuple((f["inter_fraction"] * f["intra_energy"] + f["noise_energy"]).tolist())

    @cached_property
    def gain(self) -> tuple[float, ...]:
        """Residual bits per unit of ``0.5 * log2(E / D)``: rd_gain * n_blocks * rate_multiplier."""
        return tuple((RD_GAIN * self.n_blocks * self.frames["rate_multiplier"]).tolist())


# ---------------------------------------------------------------------------
# Synthetic video generation
# ---------------------------------------------------------------------------

# Latent distributions of generated videos. Scene lengths are geometric
# with this mean; each scene draws its intra energy (lognormal, clamped to
# its range), noise energy and inter fraction (uniform over their ranges)
# and a motion scale, and each frame scatters around its scene's values by
# log-scale jitter. Rate multipliers are lognormal per frame, clamped.
MEAN_SCENE_LENGTH = 45.0
INTRA_ENERGY_LOG_MEAN = math.log(120.0)
INTRA_ENERGY_LOG_SIGMA = 0.7
INTRA_ENERGY_RANGE = (10.0, 1200.0)
NOISE_ENERGY_RANGE = (0.5, 6.0)
INTER_FRACTION_RANGE = (0.08, 0.55)
RATE_MULTIPLIER_SIGMA_LOG = 0.15
RATE_MULTIPLIER_RANGE = (0.6, 1.8)
INTRA_JITTER = 0.08
NOISE_JITTER = 0.10
INTER_FRACTION_JITTER = 0.06


@dataclass(frozen=True)
class VideoConfig:
    """Length range, frame size and frame rate of generated videos.

    The latent distributions are the module constants above.
    """

    num_frames_min: int = 100
    num_frames_max: int = 150
    width: int = 640
    height: int = 480
    frame_rate: float = 30.0

    def validate(self) -> None:
        if self.num_frames_min < 2:
            raise ConfigError("num_frames_min must be >= 2")
        if self.num_frames_max < self.num_frames_min:
            raise ConfigError("num_frames_max must be >= num_frames_min")
        if self.width < 16 or self.height < 16:
            raise ConfigError("resolution must be at least one 16x16 block")
        if self.frame_rate <= 0:
            raise ConfigError("frame_rate must be positive")


def _first_pass_row(latent, index: int, num_frames: int, frame_rate: float) -> list[float]:
    """Derive the published first-pass statistics from one frame's latents.

    ``latent`` is one row of ``frames``. The mapping is fixed and
    deterministic: feature noise comes only from the latents themselves.
    Returns the row in ``FIRST_PASS_FEATURES`` order.
    """
    intra_energy = latent["intra_energy"]
    inter_fraction = latent["inter_fraction"]
    noise_energy = latent["noise_energy"]
    intra = intra_energy + noise_energy
    coded = inter_fraction * intra_energy + noise_energy
    # Second (golden) reference predicts slightly worse than the last frame.
    sr_fraction = inter_fraction + 0.15 * (1.0 - inter_fraction)
    sr_coded = sr_fraction * intra_energy + noise_energy

    pcnt_inter = _clip01(1.0 - inter_fraction)
    motion_activity = 1.0 - math.exp(-(latent["mv_row_abs"] + latent["mv_col_abs"]) / 2.0)
    low_variance = math.exp(-intra_energy / 150.0)

    row = {
        "frame_index": float(index),
        "frame_weight": coded / (coded + 50.0),
        "intra_error": intra,
        "coded_error": coded,
        "sr_coded_error": min(sr_coded, intra),
        "frame_noise_energy": noise_energy,
        "pcnt_inter": pcnt_inter,
        "pcnt_motion": _clip01(pcnt_inter * motion_activity),
        "pcnt_second_ref": _clip01(0.35 * pcnt_inter),
        "pcnt_neutral": _clip01(0.05 + 0.1 * inter_fraction * (1.0 - inter_fraction)),
        "pcnt_intra_low": _clip01(0.6 * inter_fraction * low_variance),
        "pcnt_intra_high": _clip01(0.6 * inter_fraction * (1.0 - low_variance)),
        "intra_skip_pct": _clip01(0.8 * math.exp(-intra_energy / 30.0)),
        "intra_smooth_pct": _clip01(math.exp(-intra_energy / 60.0)),
        "inactive_zone_rows": 0.0,
        "inactive_zone_cols": 0.0,
        "MVr": latent["mv_row_mean"],
        "mvr_abs": latent["mv_row_abs"],
        "MVc": latent["mv_col_mean"],
        "mvc_abs": latent["mv_col_abs"],
        "MVrv": latent["mv_row_var"],
        "Mvcv": latent["mv_col_var"],
        "mv_in_out_count": latent["mv_in_out"],
        "duration": 1.0 / frame_rate,
        "frame_count": float(num_frames),
    }
    return [row[name] for name in FIRST_PASS_FEATURES]


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
        length = max(4, int(rng.geometric(1.0 / MEAN_SCENE_LENGTH)))
        t += length
        if t >= num_frames:
            break
        scene_starts.append(t)

    rows: list[tuple] = []
    scene_id = -1
    base_intra = base_noise = base_rho = motion_scale = 0.0
    for index in range(num_frames):
        at_scene_start = scene_id + 1 < len(scene_starts) and index == scene_starts[scene_id + 1]
        if at_scene_start:
            scene_id += 1
            base_intra = float(
                np.clip(
                    rng.lognormal(INTRA_ENERGY_LOG_MEAN, INTRA_ENERGY_LOG_SIGMA),
                    *INTRA_ENERGY_RANGE,
                )
            )
            base_noise = float(rng.uniform(*NOISE_ENERGY_RANGE))
            base_rho = float(rng.uniform(*INTER_FRACTION_RANGE))
            motion_scale = float(rng.lognormal(math.log(2.0), 0.6))

        intra = base_intra * float(np.exp(rng.normal(0.0, INTRA_JITTER)))
        noise = base_noise * float(np.exp(rng.normal(0.0, NOISE_JITTER)))
        if at_scene_start:
            rho = 1.0  # no usable previous frame across a cut
        else:
            rho = float(
                np.clip(base_rho * np.exp(rng.normal(0.0, INTER_FRACTION_JITTER)), 1e-3, 1.0)
            )
        w = float(
            np.clip(np.exp(rng.normal(0.0, RATE_MULTIPLIER_SIGMA_LOG)), *RATE_MULTIPLIER_RANGE)
        )
        mu_r = float(rng.normal(0.0, 0.4 * motion_scale))
        mu_c = float(rng.normal(0.0, 0.4 * motion_scale))
        sd_r = motion_scale * float(np.exp(rng.normal(0.0, 0.2)))
        sd_c = motion_scale * float(np.exp(rng.normal(0.0, 0.2)))
        mv_in_out = float(np.clip(rng.normal(0.0, 0.2), -1.0, 1.0))
        rows.append((  # in LATENT_FIELDS order
            intra, rho, noise, w,
            mu_r, abs(mu_r) + 0.8 * sd_r, mu_c, abs(mu_c) + 0.8 * sd_c, sd_r * sd_r, sd_c * sd_c,
            mv_in_out, scene_id,
        ))

    frames = np.array(rows, dtype=LATENT_DTYPE)
    first_pass = np.array(
        [_first_pass_row(f, i, num_frames, config.frame_rate) for i, f in enumerate(frames)],
        dtype=np.float64,
    )
    return SyntheticVideo(
        video_id=f"sim-{seed & 0xFFFFFFFFFFFFFFFF:016x}",
        seed=seed,
        width=config.width,
        height=config.height,
        frame_rate=config.frame_rate,
        frames=frames,
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
    """Frame types and show flags for one video."""

    frame_types: tuple[FrameType, ...]
    show: tuple[bool, ...]

    # Per-frame constants of the encoder kernel, (T,) each. The kernel reads
    # them once per frame step, where comparing or hashing an enum member
    # would cost more than the tuple lookup.

    @cached_property
    def key(self) -> tuple[bool, ...]:
        """KEY frames, which ignore the reference state."""
        return tuple(ft is FrameType.KEY for ft in self.frame_types)

    @cached_property
    def refreshes_golden(self) -> tuple[bool, ...]:
        """KEY and ALT_REF frames, which refresh the golden reference slot."""
        return tuple(ft is not FrameType.INTER for ft in self.frame_types)

    @cached_property
    def header_bits(self) -> tuple[float, ...]:
        """Header bits at ``REFERENCE_BLOCKS`` blocks, which the kernel scales."""
        return tuple(HEADER_BITS[ft] for ft in self.frame_types)


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
    return GopPlan(frame_types=tuple(types), show=show)


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


def _check_gop(video: SyntheticVideo, gop: GopPlan) -> None:
    if len(gop.frame_types) != video.num_frames:
        raise ConfigError(
            f"GOP plans {len(gop.frame_types)} frames, video has {video.num_frames}"
        )


def _frame_terms(video: SyntheticVideo, gop: GopPlan, t: int, d_last, d_golden):
    """(energy, gain, header) of frame ``t``: what ``rate_distortion`` takes
    besides the quantizer step.

    The reference distortions ``d_last``/``d_golden`` are floats, or
    (rows,) arrays, for which the energy is (rows,) too.
    """
    if gop.key[t]:
        energy = video.key_energy[t]
    else:
        d_ref = REF_MIX_LAST * d_last + REF_MIX_GOLDEN * d_golden
        energy = video.inter_energy[t] + ERROR_PROPAGATION * d_ref
    return energy, video.gain[t], gop.header_bits[t] * video.n_blocks / REFERENCE_BLOCKS


def rd_terms(
    video: SyntheticVideo, gop: GopPlan, state: EncodeState
) -> tuple[float, float, float]:
    """(energy, gain, header) of the frame at the state's cursor.

    ``rate_distortion(energy, quantizer_step(qp), gain, header)`` is then
    that frame's (bits, mse) at ``qp``, as ``encode_frame`` computes them.
    """
    t = state.cursor
    if t >= video.num_frames:
        raise EpisodeError(f"episode ended at frame {video.num_frames}, cannot encode frame {t}")
    _check_gop(video, gop)
    return _frame_terms(video, gop, t, state.d_last, state.d_golden)


def _encode_step(
    video: SyntheticVideo,
    gop: GopPlan,
    t: int,
    mse_cap: np.ndarray,
    d_last: np.ndarray,
    d_golden: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The row form of the encoder: bits and MSE of frame ``t``, element-wise.

    ``mse_cap`` holds ``Q^2 / 12`` of the QPs being encoded, one per row,
    and ``d_last``/``d_golden`` the rows' reference states. Its arithmetic
    is that of ``rate_distortion``, operation for operation, so results are
    bitwise equal to it.
    """
    energy, gain, header = _frame_terms(video, gop, t, d_last, d_golden)
    mse = np.minimum(energy, mse_cap)
    # energy / mse >= 1, so the log is never negative. It is math.log2, not
    # np.log2, for the reason the module docstring gives.
    ratio = (energy / mse).tolist()
    log2 = np.fromiter(map(math.log2, ratio), np.float64, len(ratio))
    bits = header + gain * (0.5 * log2)
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
    _check_gop(video, gop)
    caps = _QP_MSE_CAP[qps.T]                   # (T, B), one row per frame
    bits = np.empty(caps.shape)
    mse = np.empty(caps.shape)
    d_last = d_golden = np.zeros(qps.shape[0])
    for t in range(video.num_frames):
        bits[t], mse[t] = _encode_step(video, gop, t, caps[t], d_last, d_golden)
        d_last = mse[t]
        if gop.refreshes_golden[t]:
            d_golden = d_last
    return bits.T, mse.T


def encode_frame(
    video: SyntheticVideo, gop: GopPlan, state: EncodeState, qp: int
) -> tuple[float, float, EncodeState]:
    """Encode the frame at the state's cursor with ``qp``.

    Pure: identical inputs produce identical outputs. Returns
    (bits, mse, next_state).
    """
    energy, gain, header = rd_terms(video, gop, state)
    bits, mse = rate_distortion(energy, quantizer_step(qp), gain, header)
    t = state.cursor
    next_state = EncodeState(
        cursor=t + 1,
        d_last=mse,
        d_golden=mse if gop.refreshes_golden[t] else state.d_golden,
        cum_bits=state.cum_bits + bits,
        last=(int(qp), bits, mse),
    )
    return bits, mse, next_state


# ---------------------------------------------------------------------------
# Episodes, reward, traces
# ---------------------------------------------------------------------------

# Episodic reward: final PSNR minus this penalty per kbps of overshoot.
PENALTY_PER_KBPS = 0.02


@dataclass(frozen=True)
class Observation:
    """What a policy sees before choosing the QP of the frame at ``state.cursor``.

    The episode's fixed inputs and the encoder state, nothing derived from
    them. Policies read the video's first-pass matrix and metadata (size,
    frame rate, length, duration), never its latent ``frames``, and the
    encode history strictly before the current frame: ``state.last`` is the
    previous frame's (qp, bits, mse), with qp -1 on the first frame, and
    ``state`` is where trial encodes start.
    """

    video: SyntheticVideo
    gop: GopPlan
    target_bitrate_kbps: float
    state: EncodeState

    @property
    def frame_index(self) -> int:
        return self.state.cursor


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


def _check_target(target_bitrate_kbps: float) -> None:
    if not target_bitrate_kbps > 0:
        raise ConfigError("target bitrate must be positive")


def _reward(psnr_db: float, bitrate_kbps: float, target_bitrate_kbps: float) -> float:
    overshoot = max(0.0, bitrate_kbps - target_bitrate_kbps)
    return psnr_db - PENALTY_PER_KBPS * overshoot


def episode_reward(trace: EpisodeTrace) -> float:
    """Terminal reward: PSNR - PENALTY_PER_KBPS * max(0, bitrate - the trace's target)."""
    if len(trace.qps) != trace.num_frames:
        raise EpisodeError(
            f"incomplete trace: {len(trace.qps)} of {trace.num_frames} frames encoded"
        )
    return _reward(trace.psnr_db, trace.bitrate_kbps, trace.target_bitrate_kbps)


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
) -> EpisodeTrace:
    psnr, bitrate_kbps = _quality_and_rate(video, gop, bits, mses)
    return EpisodeTrace(
        video_id=video.video_id,
        num_frames=video.num_frames,
        target_bitrate_kbps=target_bitrate_kbps,
        qps=tuple(int(q) for q in qps),
        bits=tuple(bits),
        mse=tuple(mses),
        show=gop.show,
        psnr_db=psnr,
        bitrate_kbps=bitrate_kbps,
        reward=_reward(psnr, bitrate_kbps, target_bitrate_kbps),
    )


def batch_rewards(
    video: SyntheticVideo,
    gop: GopPlan,
    bits: np.ndarray,
    mses: np.ndarray,
    target_bitrate_kbps: float,
) -> np.ndarray:
    """Terminal rewards of the rows of an ``encode_batch`` result, shape (B,).

    Row i equals the ``reward`` of the trace that replaying row i builds:
    the reductions are the same exact ``math.fsum`` sums.
    """
    _check_target(target_bitrate_kbps)
    return np.array(
        [
            _reward(*_quality_and_rate(video, gop, b.tolist(), m.tolist()), target_bitrate_kbps)
            for b, m in zip(bits, mses)
        ],
        dtype=np.float64,
    )


def run_episode(
    video: SyntheticVideo,
    gop: GopPlan,
    target_bitrate_kbps: float,
    policy_callback: Callable[[Observation], int],
) -> EpisodeTrace:
    """Encode a full episode, querying ``policy_callback`` once per frame."""
    _check_target(target_bitrate_kbps)
    state = EncodeState()
    qps: list[int] = []
    bits: list[float] = []
    mses: list[float] = []
    for _ in range(video.num_frames):
        qp = int(policy_callback(Observation(video, gop, target_bitrate_kbps, state)))
        b, m, state = encode_frame(video, gop, state, qp)
        qps.append(qp)
        bits.append(b)
        mses.append(m)
    return _finalize_trace(video, gop, target_bitrate_kbps, qps, bits, mses)


def replay_qp_sequence(
    video: SyntheticVideo,
    gop: GopPlan,
    qps: Sequence[int],
    target_bitrate_kbps: float,
) -> EpisodeTrace:
    """Encode a fixed QP sequence without building observations.

    Walks ``encode_frame`` as ``run_episode`` does, so the trace is bitwise
    equal to ``run_episode`` with a callback that replays the same QPs.
    """
    if len(qps) != video.num_frames:
        raise EpisodeError(f"need {video.num_frames} QPs, got {len(qps)}")
    _check_target(target_bitrate_kbps)
    state = EncodeState()
    bits: list[float] = []
    mses: list[float] = []
    for qp in qps:
        b, m, state = encode_frame(video, gop, state, qp)
        bits.append(b)
        mses.append(m)
    return _finalize_trace(video, gop, target_bitrate_kbps, qps, bits, mses)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def video_to_record(video: SyntheticVideo) -> dict:
    return {
        "video_id": video.video_id,
        "seed": video.seed,
        "width": video.width,
        "height": video.height,
        "frame_rate": video.frame_rate,
        "frames": video.frames.tolist(),
        "first_pass": video.first_pass.tolist(),
    }


def video_from_record(rec: dict) -> SyntheticVideo:
    return SyntheticVideo(
        video_id=rec["video_id"],
        seed=rec["seed"],
        width=rec["width"],
        height=rec["height"],
        frame_rate=rec["frame_rate"],
        frames=np.array([tuple(row) for row in rec["frames"]], dtype=LATENT_DTYPE),
        first_pass=np.array(rec["first_pass"], dtype=np.float64),
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
