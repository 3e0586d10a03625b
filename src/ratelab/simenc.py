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

A video's latents are drawn one scene at a time: four scalar draws, then
one block of ``9 * n - 1`` normals for its ``n`` frames, frame-major, which
whole-column numpy operations map to latents. These are the bytes a loop of
scalar draws per frame gave: ``Generator.normal(0, s)`` is ``0 + s * z`` on
the stream ``standard_normal`` reads, numpy's ``exp`` of an array is its
``exp`` of each element (``math.exp`` is not), and a clip does not round.

A video stores only its latents, by column, in one structured array; a
corpus file holds nothing else per frame. Its first-pass statistics, the
(T, 25) matrix policies read, are a fixed function of the latents and the
frame rate, derived on first use in one pass over whole columns. Their four
exponentials map ``math.exp`` over the column, not ``np.exp``: numpy's
vectorized ``exp`` differs from it in the last bit on a few percent of
inputs, and every feature spec, checkpoint and rollout built on the matrix
would move with it.

A GOP plan is its frame types alone: every flag the encoder reads derives
from them, the shown frames (all but hidden alternate references, which
PSNR skips) included. A trace stores neither its plan nor its length.

The encoder formula has two forms with one set of inputs: a frame's energy,
from ``_frame_energy`` on the reference state, and its gain and header, from
per-frame constants cached on the video and on the GOP plan.
``rate_distortion`` is the scalar form, on Python floats. The choosers of
``encode_episode`` call it; that is the one episode loop, which carries the
reference state as floats, reads the per-frame constants in one pass over
their columns, and takes each frame's (qp, bits, mse) from its chooser.
``replay_qp_sequence`` encodes the given QP, the baseline's QP search
returns its winning trial encode, and ``run_episode``, for learned
policies, asks a policy callback for the QP, passing an ``Observation``:
the video, its GOP plan, the target, the frame index, the bits spent and
the previous frame's (qp, bits, mse).

``ranking_rewards`` is the batch form, for ES populations: the rewards of B
whole episodes at once. ES reads them only through their ranks and through
the values of its lead row and its first maximum, and keeps either only if
it beats the best reward so far, which it passes in. It first settles the
energies and MSEs the reference state needs by fixed-point passes over
whole episodes: it guesses that no frame saturates (MSE = cap), computes
every frame's energy at once from that state, sets MSE = min(energy, cap),
and repeats until a pass changes nothing. After any pass, every frame up to
the first one it changed is exact; when the passes do not settle, a frame
loop finishes from there. Every element is computed from exact inputs with
the scalar form's operations in its order, so both paths give the same
MSEs. From them it computes every reward with ``np.log2``, ``np.sum`` and
``np.log10``, each within a stated tolerance of its exact value. When every
gap between neighbouring sorted rewards exceeds twice that tolerance, the
order is certified, and of those two rows only one that comes within twice
the tolerance of the best so far, or above it, takes the exact path: a row
further below loses its one comparison whatever its exact value. When the
order is not certified, as on tied rows, the whole batch takes it. The
exact path takes the bits with the scalar form's operations, the logarithm
with ``math.log2`` (numpy's vectorized ``log2`` can differ from it in the
last bit, and teacher labels are verified by exact replay) and the sums
with its ``math.fsum``. Ranks, best row and stored rewards are those of
replaying each row, bit for bit; property tests pin them to the scalar
form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress, repeat
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .io import read_jsonl, read_rows, write_jsonl, write_rows

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
    "Observation",
    "EpisodeTrace",
    "generate_video",
    "generate_corpus",
    "plan_gop",
    "check_gop",
    "quantizer_step",
    "rate_distortion",
    "encode_frame",
    "ranking_rewards",
    "run_episode",
    "encode_episode",
    "replay_qp_sequence",
    "psnr_from_mse",
    "save_corpus",
    "load_corpus",
    "save_traces",
    "load_traces",
]

CORPUS_SCHEMA = "simenc.v2"
TRACE_SCHEMA = "trace.v2"

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
    """QPs for another number of frames than the video has."""


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
_FLOAT_LATENTS = tuple(name for name in LATENT_FIELDS if LATENT_DTYPE[name].kind == "f")
_NONNEGATIVE_LATENTS = ("noise_energy", "mv_row_abs", "mv_col_abs", "mv_row_var", "mv_col_var")


@dataclass(frozen=True, eq=False)
class SyntheticVideo:
    """One video: its metadata and its latents, a read-only (T,) structured
    array ``frames`` of ``LATENT_DTYPE``.

    Everything else is derived from them and cached: the (T, 25) first-pass
    matrix that policies read, and the encoder's per-frame constants. Arrays
    have no value equality, so neither has the video: compare videos by
    ``video_to_record``.
    """

    video_id: str
    seed: int
    width: int
    height: int
    frame_rate: float
    frames: np.ndarray

    def __post_init__(self) -> None:
        # Corpus files are outside input: reject metadata and latents the
        # encoder or the first-pass derivation cannot take.
        for name in ("width", "height", "frame_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        frames = self.frames
        if frames.dtype != LATENT_DTYPE or frames.ndim != 1:
            raise ConfigError("frames must be a (T,) array of LATENT_DTYPE")
        if len(frames) < 2:
            raise ConfigError("a video needs at least 2 frames")
        inter = frames["inter_fraction"]
        checks = [(name, np.isfinite(frames[name]), "finite") for name in _FLOAT_LATENTS]
        checks += [
            ("intra_energy", frames["intra_energy"] > 0.0, "> 0"),
            ("inter_fraction", (inter > 0.0) & (inter <= 1.0), "in (0,1]"),
            ("rate_multiplier", frames["rate_multiplier"] > 0.0, "> 0"),
        ]
        # A negative motion magnitude would overflow the first pass's math.exp.
        checks += [(name, frames[name] >= 0.0, ">= 0") for name in _NONNEGATIVE_LATENTS]
        for name, ok, rule in checks:
            if not ok.all():
                raise ConfigError(f"{name} must be {rule}, got {frames[name][~ok][0]}")
        # The heuristic splits its budget in proportion to each frame's coded
        # error (its inter energy): trailing frames of coded error 0 underflow
        # the split into a division by zero.
        coded = np.array(self.inter_energy)
        if not (coded > 0.0).all():
            raise ConfigError(
                "coded error inter_fraction * intra_energy + noise_energy must be > 0, "
                f"got {coded[coded <= 0.0][0]}"
            )
        frames.flags.writeable = False

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def duration(self) -> float:
        return self.num_frames / self.frame_rate

    def budget_bits(self, target_bitrate_kbps: float) -> float:
        """The episode's bit budget at ``target_bitrate_kbps``."""
        return target_bitrate_kbps * 1000.0 * self.duration

    @cached_property
    def first_pass(self) -> np.ndarray:
        """The read-only (T, 25) first-pass matrix, in ``FIRST_PASS_FEATURES`` order."""
        return _first_pass_matrix(self.frames, self.frame_rate)

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

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``key_energy``, ``inter_energy`` and ``gain`` as read-only (T, 1)
        columns, which ``ranking_rewards`` broadcasts over its rows."""
        columns = np.array([self.key_energy, self.inter_energy, self.gain])[:, :, None]
        columns.flags.writeable = False
        return tuple(columns)


# ---------------------------------------------------------------------------
# Synthetic video generation
# ---------------------------------------------------------------------------

# Latent distributions of generated videos; ``_generate`` gives the draws.
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
        if not 0 < self.frame_rate < math.inf:
            raise ConfigError(f"frame_rate must be positive and finite, got {self.frame_rate}")


def _first_pass_matrix(frames: np.ndarray, frame_rate: float) -> np.ndarray:
    """The published first-pass statistics of latents ``frames``: a read-only
    (T, 25) matrix in ``FIRST_PASS_FEATURES`` order.

    The mapping is fixed and deterministic: feature noise comes only from
    the latents themselves. It runs on whole columns; its four exponentials
    map ``math.exp`` over the column, for the reason the module docstring
    gives.
    """
    num_frames = len(frames)
    intra_energy = frames["intra_energy"]
    inter_fraction = frames["inter_fraction"]
    noise_energy = frames["noise_energy"]
    intra = intra_energy + noise_energy
    coded = inter_fraction * intra_energy + noise_energy
    # Second (golden) reference predicts slightly worse than the last frame.
    sr_fraction = inter_fraction + 0.15 * (1.0 - inter_fraction)
    sr_coded = sr_fraction * intra_energy + noise_energy

    pcnt_inter = _clip01(1.0 - inter_fraction)
    motion_activity = 1.0 - _exp(-(frames["mv_row_abs"] + frames["mv_col_abs"]) / 2.0)
    low_variance = _exp(-intra_energy / 150.0)

    columns = {
        "frame_index": np.arange(num_frames, dtype=np.float64),
        "frame_weight": coded / (coded + 50.0),
        "intra_error": intra,
        "coded_error": coded,
        "sr_coded_error": np.minimum(sr_coded, intra),
        "frame_noise_energy": noise_energy,
        "pcnt_inter": pcnt_inter,
        "pcnt_motion": _clip01(pcnt_inter * motion_activity),
        "pcnt_second_ref": _clip01(0.35 * pcnt_inter),
        "pcnt_neutral": _clip01(0.05 + 0.1 * inter_fraction * (1.0 - inter_fraction)),
        "pcnt_intra_low": _clip01(0.6 * inter_fraction * low_variance),
        "pcnt_intra_high": _clip01(0.6 * inter_fraction * (1.0 - low_variance)),
        "intra_skip_pct": _clip01(0.8 * _exp(-intra_energy / 30.0)),
        "intra_smooth_pct": _clip01(_exp(-intra_energy / 60.0)),
        "inactive_zone_rows": 0.0,
        "inactive_zone_cols": 0.0,
        "MVr": frames["mv_row_mean"],
        "mvr_abs": frames["mv_row_abs"],
        "MVc": frames["mv_col_mean"],
        "mvc_abs": frames["mv_col_abs"],
        "MVrv": frames["mv_row_var"],
        "Mvcv": frames["mv_col_var"],
        "mv_in_out_count": frames["mv_in_out"],
        "duration": 1.0 / frame_rate,
        "frame_count": float(num_frames),
    }
    matrix = np.empty((num_frames, len(FIRST_PASS_FEATURES)))
    for j, name in enumerate(FIRST_PASS_FEATURES):
        matrix[:, j] = columns[name]
    matrix.flags.writeable = False
    return matrix


def _exp(column: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.exp, column.tolist()), np.float64, len(column))


def _clip01(column: np.ndarray) -> np.ndarray:
    return np.minimum(1.0, np.maximum(0.0, column))


def generate_video(seed: int, config: VideoConfig = VideoConfig()) -> SyntheticVideo:
    """Generate one synthetic video, deterministically in ``seed``; ``_generate``
    gives the draws."""
    return _generate(f"sim-{seed & 0xFFFFFFFFFFFFFFFF:016x}", seed, config)


def _generate(video_id: str, seed: int, config: VideoConfig) -> SyntheticVideo:
    """The video ``generate_video`` makes from ``seed``, named ``video_id``.

    Draws, in order: the frame count, the scene lengths, then per scene of
    ``n`` frames its intra energy, noise energy, inter fraction and motion
    scale, and one block of ``9 * n - 1`` standard normals, frame-major:
    intra, noise, inter fraction (none on the scene's first frame, whose
    fraction is 1), rate, row and column motion means and spreads, in/out.
    """
    config.validate()
    rng = np.random.Generator(np.random.PCG64(seed))

    num_frames = int(rng.integers(config.num_frames_min, config.num_frames_max + 1))

    # Scene segmentation: geometric lengths, at least 4 frames per scene.
    scene_starts, p = [0], 1.0 / MEAN_SCENE_LENGTH
    while (t := scene_starts[-1] + max(4, int(rng.geometric(p)))) < num_frames:
        scene_starts.append(t)
    lengths = np.diff(scene_starts + [num_frames])

    scenes, normals = [], []
    for n in lengths:
        intra = rng.lognormal(INTRA_ENERGY_LOG_MEAN, INTRA_ENERGY_LOG_SIGMA)
        noise, inter = rng.uniform(*NOISE_ENERGY_RANGE), rng.uniform(*INTER_FRACTION_RANGE)
        motion = rng.lognormal(math.log(2.0), 0.6)
        scenes.append((intra, noise, inter, motion))
        block = rng.standard_normal(9 * n - 1)
        normals += [block[:2], (0.0,), block[2:]]  # the first frame draws no inter fraction
    base_intra, base_noise, base_rho, motion_scale = np.repeat(scenes, lengths, axis=0).T
    # One row per draw. ``Generator.normal(0, s)`` is ``0 + s * z``: -0.0 becomes 0.0.
    z = np.concatenate(normals).reshape(num_frames, 9).T + 0.0
    rho = np.clip(base_rho * np.exp(INTER_FRACTION_JITTER * z[2]), 1e-3, 1.0)
    rho[scene_starts] = 1.0  # no usable previous frame across a cut
    mu_r, mu_c = 0.4 * motion_scale * z[4:6]
    sd_r, sd_c = motion_scale * np.exp(0.2 * z[6:8])
    columns = (  # in LATENT_FIELDS order
        np.clip(base_intra, *INTRA_ENERGY_RANGE) * np.exp(INTRA_JITTER * z[0]), rho,
        base_noise * np.exp(NOISE_JITTER * z[1]),
        np.clip(np.exp(RATE_MULTIPLIER_SIGMA_LOG * z[3]), *RATE_MULTIPLIER_RANGE),
        mu_r, np.abs(mu_r) + 0.8 * sd_r, mu_c, np.abs(mu_c) + 0.8 * sd_c, sd_r * sd_r, sd_c * sd_c,
        np.clip(0.2 * z[8], -1.0, 1.0), np.repeat(np.arange(len(lengths)), lengths),
    )
    frames = np.empty(num_frames, LATENT_DTYPE)
    for name, column in zip(LATENT_FIELDS, columns):
        frames[name] = column

    return SyntheticVideo(
        video_id=video_id,
        seed=seed,
        width=config.width,
        height=config.height,
        frame_rate=config.frame_rate,
        frames=frames,
    )


def generate_corpus(
    count: int, master_seed: int, config: VideoConfig = VideoConfig()
) -> list[SyntheticVideo]:
    """Generate ``count`` videos with per-video seeds derived from a master seed."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    children = np.random.SeedSequence(master_seed).spawn(count)
    seeds = [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]
    return [_generate(f"sim{i:05d}-{seed:016x}", seed, config) for i, seed in enumerate(seeds)]


# ---------------------------------------------------------------------------
# GOP planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GopPlan:
    """Frame types for one video; everything else about the plan derives from them.

    The encoder reads a plan through per-frame constants, cached on first
    use: tuples for the scalar loop, columns for the batch form. They are
    built from identity tests and whole-column operations: hashing an enum
    member once per frame costs more than the encoder step that reads it.
    """

    frame_types: tuple[FrameType, ...]

    def __post_init__(self) -> None:
        # PSNR averages the shown frames: one frame at least must be shown.
        if not any(self.show):
            raise ConfigError("GOP shows no frame")

    @cached_property
    def show(self) -> tuple[bool, ...]:
        """Displayed frames, which PSNR averages: all but ALT_REF_HIDDEN ones,
        which are coded as references and never shown."""
        return tuple(map(operator.is_not, self.frame_types, repeat(FrameType.ALT_REF_HIDDEN)))

    @cached_property
    def key(self) -> tuple[bool, ...]:
        """KEY frames, which ignore the reference state."""
        return tuple(map(operator.is_, self.frame_types, repeat(FrameType.KEY)))

    @cached_property
    def refreshes_golden(self) -> tuple[bool, ...]:
        """KEY and ALT_REF frames, which refresh the golden reference slot."""
        return tuple(map(operator.is_not, self.frame_types, repeat(FrameType.INTER)))

    def by_type(self, values: dict) -> np.ndarray:
        """Each frame's entry of ``values``, a dict keyed by ``FrameType``, as a (T,) array."""
        key, refreshes = _flag_array(self.key), _flag_array(self.refreshes_golden)
        refreshed = np.where(refreshes, values[FrameType.ALT_REF_HIDDEN], values[FrameType.INTER])
        return np.where(key, values[FrameType.KEY], refreshed)

    @cached_property
    def golden_source(self) -> tuple[int, ...]:
        """Row of ``_settle_batch``'s (T + 1)-row state holding each frame's
        golden reference: 1 + the last earlier frame that refreshes the
        golden slot, or 0, the all-zero row before the first frame."""
        return tuple(self.columns[2].tolist())

    @cached_property
    def header_bits(self) -> tuple[float, ...]:
        """Header bits at ``REFERENCE_BLOCKS`` blocks, which the kernel scales."""
        return tuple(self.columns[1][:, 0].tolist())

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``key`` and ``header_bits`` as read-only (T, 1) columns, which
        ``ranking_rewards`` broadcasts over its rows, ``golden_source`` as a
        (T,) index array, and the indices of the shown frames."""
        num_frames = len(self.frame_types)
        refreshed_rows = np.where(
            _flag_array(self.refreshes_golden[:-1]), np.arange(1, num_frames), 0
        )
        golden_source = np.zeros(num_frames, dtype=np.intp)
        golden_source[1:] = np.maximum.accumulate(refreshed_rows)
        columns = (
            _flag_array(self.key)[:, None],
            self.by_type(HEADER_BITS)[:, None],
            golden_source,
            np.flatnonzero(self.show),
        )
        for column in columns:
            column.flags.writeable = False
        return columns


def _flag_array(flags: tuple[bool, ...]) -> np.ndarray:
    return np.fromiter(flags, bool, len(flags))


def plan_gop(video: SyntheticVideo, gop_interval: int = 16) -> GopPlan:
    """Fixed-interval GOP: frame 0 is KEY, then a hidden alternate reference
    every ``gop_interval`` coding positions; everything else is INTER."""
    if gop_interval < 2:
        raise ConfigError("gop_interval must be >= 2")
    num_frames = video.num_frames
    hidden = len(range(gop_interval, num_frames, gop_interval))
    types = [FrameType.KEY] + [FrameType.INTER] * (num_frames - 1)
    types[gop_interval::gop_interval] = [FrameType.ALT_REF_HIDDEN] * hidden
    return GopPlan(frame_types=tuple(types))


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


# Saturation distortion ``Q^2 / 12`` of every QP, as ``rate_distortion``
# computes it; increasing in QP.
QP_MSE_CAP = np.array([q * q / 12.0 for q in _QP_STEPS])


def check_gop(video: SyntheticVideo, gop: GopPlan) -> None:
    """Raise ``ConfigError`` unless ``gop`` plans exactly the video's frames."""
    if len(gop.frame_types) != video.num_frames:
        raise ConfigError(
            f"GOP plans {len(gop.frame_types)} frames, video has {video.num_frames}"
        )


def _frame_energy(video: SyntheticVideo, gop: GopPlan, t: int, d_last, d_golden):
    """Prediction-error energy of frame ``t`` given the reference state.

    The reference distortions ``d_last``/``d_golden`` are floats, or
    (rows,) arrays, for which an inter frame's energy is (rows,) too.
    """
    if gop.key[t]:
        return video.key_energy[t]
    return _inter_energy(video.inter_energy[t], d_last, d_golden)


def _inter_energy(inter_energy, d_last, d_golden):
    """An inter frame's energy: its own plus a share of its references'
    distortion. Floats, or arrays that broadcast together."""
    d_ref = REF_MIX_LAST * d_last + REF_MIX_GOLDEN * d_golden
    return inter_energy + ERROR_PROPAGATION * d_ref


def _frame_header(video: SyntheticVideo, header_bits):
    """Header bits at the video's block count: a float, or a (T,) column."""
    return header_bits * video.n_blocks / REFERENCE_BLOCKS


# Whole-episode passes ``_settle_batch`` makes before its frame loop takes
# over. A pass settles each chain of saturated frames by one more link; the
# ES teacher's batches settle in at most 8 passes (at 100-300 frames).
SETTLE_PASSES = 10
# A first pass that saturates more than this share of the elements means long
# chains, and the frame loop takes over at once. ES batches saturate under
# 10% of their elements; a row of QP 255 saturates all of its own.
DENSE_SATURATION = 0.25
# Batches of more rows run the frame loop alone. A pass costs in proportion
# to its elements, a loop step mostly a fixed overhead per frame; from about
# 100-150 rows, the passes an ES batch needs cost more than the loop.
SETTLE_MAX_ROWS = 64


def _settle_by_passes(video: SyntheticVideo, gop: GopPlan, caps, state, energy) -> int:
    """Fixed-point passes of the encoder recurrence over whole episodes.

    ``state`` is (T + 1, B): row 0 is zeros and row t + 1 receives frame
    t's MSE; ``energy`` (T, B) receives the energies. Starting from the
    guess that no frame saturates (MSE = cap), each pass computes every
    unsettled frame's energy from the current state and sets MSE =
    min(energy, cap). A frame's result depends only on earlier frames, so
    after a pass every frame up to the first one that changed is exact.
    Returns the first frame not known exact: T when a pass changed nothing.
    """
    num_frames, rows = caps.shape
    mse = state[1:]
    mse[...] = caps
    key_energy, inter_energy, _ = video.columns
    key, _, golden, _ = gop.columns
    start = 0
    for n in range(SETTLE_PASSES):
        inter = _inter_energy(inter_energy[start:], state[start:-1], state[golden[start:]])
        energy[start:] = np.where(key[start:], key_energy[start:], inter)
        settled = np.minimum(energy[start:], caps[start:])
        changed = np.flatnonzero(settled != mse[start:])
        mse[start:] = settled
        if not changed.size:
            return num_frames
        start += int(changed[0]) // rows + 1
        if n == 0 and changed.size > DENSE_SATURATION * settled.size:
            break
    return start


def _settle_batch(video: SyntheticVideo, gop: GopPlan, qps) -> tuple[np.ndarray, np.ndarray]:
    """The exact (energy, mse) of B whole episodes ``qps`` (B, T), each (T, B).

    ``_settle_by_passes`` settles the recurrence: a frame's MSE is its cap
    unless its energy is lower, which in ES batches is rare, so a few
    whole-episode passes reach the fixed point. When they do not (after
    ``SETTLE_PASSES`` passes, or after a first pass that saturates more
    than ``DENSE_SATURATION`` of the elements), the frame loop picks up at
    the first frame not yet exact; batches of more than ``SETTLE_MAX_ROWS``
    rows run the loop from frame 0. A pass and the loop compute an element
    from the same exact inputs with ``_frame_energy``'s operations, in its
    order, so the path taken does not change a bit.
    """
    qps = np.asarray(qps)
    if qps.ndim != 2 or qps.shape[1] != video.num_frames:
        raise EpisodeError(f"need (B, {video.num_frames}) QPs, got shape {qps.shape}")
    if qps.dtype.kind not in "iu":
        raise TypeError(f"qps must be integers, got dtype {qps.dtype}")
    if qps.size and (qps.min() < 0 or qps.max() > QP_MAX):
        raise ValueError(f"qps must be in [0, {QP_MAX}]")
    check_gop(video, gop)
    caps = QP_MSE_CAP[qps.T]                    # (T, B), one row per frame
    num_frames, rows = caps.shape
    state = np.zeros((num_frames + 1, rows))
    mse = state[1:]
    energy = np.empty(caps.shape)
    start = _settle_by_passes(video, gop, caps, state, energy) if rows <= SETTLE_MAX_ROWS else 0
    unsettled = zip(range(start, num_frames), energy[start:], caps[start:], mse[start:])
    for t, energy_t, cap_t, mse_t in unsettled:
        energy_t[...] = _frame_energy(video, gop, t, state[t], state[gop.golden_source[t]])
        np.minimum(energy_t, cap_t, out=mse_t)
    return energy, mse


def encode_frame(energy: float, gain: float, header: float, qp: int) -> tuple[int, float, float]:
    """Commit ``qp`` for the frame with RD terms (energy, gain, header): (qp, bits, mse)."""
    return (qp, *rate_distortion(energy, quantizer_step(qp), gain, header))


# ---------------------------------------------------------------------------
# Episodes, reward, traces
# ---------------------------------------------------------------------------

# Episodic reward: final PSNR minus this penalty per kbps of overshoot.
PENALTY_PER_KBPS = 0.02


class Observation(NamedTuple):
    """What a policy sees before choosing the QP of frame ``frame_index``.

    The episode's fixed inputs and its encode history strictly before the
    frame, nothing derived from them. Policies read the video's first-pass
    matrix and metadata (size, frame rate, length, duration), never its
    latent ``frames``. ``cum_bits`` is the bits spent so far and ``last``
    the previous frame's (qp, bits, mse), with qp -1 on the first frame.
    """

    video: SyntheticVideo
    gop: GopPlan
    target_bitrate_kbps: float
    frame_index: int
    cum_bits: float
    last: tuple[int, float, float]


@dataclass(frozen=True)
class EpisodeTrace:
    """Full record of one encode episode. Its frame count is ``len(qps)``,
    and which frames were shown is its GOP plan's ``show``."""

    video_id: str
    target_bitrate_kbps: float
    qps: tuple[int, ...]
    bits: tuple[float, ...]
    mse: tuple[float, ...]
    psnr_db: float
    bitrate_kbps: float
    reward: float


def psnr_from_mse(mean_mse: float) -> float:
    """PSNR in dB for 8-bit peak signal: 10*log10(255^2 / MSE)."""
    if mean_mse <= 0.0:
        raise ValueError("mean MSE must be positive")
    return 10.0 * math.log10(255.0 * 255.0 / mean_mse)


def _check_target(target_bitrate_kbps: float) -> None:
    if not 0 < target_bitrate_kbps < math.inf:
        raise ConfigError(
            f"target bitrate must be positive and finite, got {target_bitrate_kbps}"
        )


def _reward(psnr_db: float, bitrate_kbps: float, target_bitrate_kbps: float) -> float:
    overshoot = max(0.0, bitrate_kbps - target_bitrate_kbps)
    return psnr_db - PENALTY_PER_KBPS * overshoot


def _quality_and_rate(
    video: SyntheticVideo, bits: Sequence[float], shown_mses: Sequence[float]
) -> tuple[float, float]:
    """(PSNR over the shown frames' MSEs, bitrate in kbps) of one episode."""
    bitrate_kbps = math.fsum(bits) / video.duration / 1000.0
    return psnr_from_mse(math.fsum(shown_mses) / len(shown_mses)), bitrate_kbps


def _finalize_trace(
    video: SyntheticVideo,
    gop: GopPlan,
    target_bitrate_kbps: float,
    qps: Sequence[int],
    bits: Sequence[float],
    mses: Sequence[float],
) -> EpisodeTrace:
    shown_mses = list(compress(mses, gop.show))
    psnr, bitrate_kbps = _quality_and_rate(video, bits, shown_mses)
    return EpisodeTrace(
        video_id=video.video_id,
        target_bitrate_kbps=target_bitrate_kbps,
        qps=tuple(map(int, qps)),
        bits=tuple(bits),
        mse=tuple(mses),
        psnr_db=psnr,
        bitrate_kbps=bitrate_kbps,
        reward=_reward(psnr, bitrate_kbps, target_bitrate_kbps),
    )


def _exact_rewards(
    video: SyntheticVideo, gop: GopPlan, energy, mse, target_bitrate_kbps: float
) -> np.ndarray:
    """Exact rewards, shape (K,), of K settled episodes given by their
    (T, K) ``energy`` and ``mse``: each equals the ``reward`` of replaying
    that episode's QPs.

    The bits take ``rate_distortion``'s arithmetic, operation for operation,
    and the sums are ``_quality_and_rate``'s exact ``math.fsum``.
    """
    _, _, gain = video.columns
    _, header_bits, _, show = gop.columns
    # energy / mse >= 1, so the log is never negative. It is math.log2, not
    # np.log2, for the reason the module docstring gives.
    ratio = energy / mse
    log2 = np.fromiter(map(math.log2, ratio.ravel().tolist()), np.float64, ratio.size)
    bits = _frame_header(video, header_bits) + gain * (0.5 * log2.reshape(ratio.shape))
    return np.array(
        [
            _reward(*_quality_and_rate(video, b, m), target_bitrate_kbps)
            for b, m in zip(bits.T.tolist(), mse[show].T.tolist())
        ],
        dtype=np.float64,
    )


# Bound on how far a vectorized reward may lie from the exact one, relative
# to the row maximum of |psnr| + PENALTY_PER_KBPS * rate + 1.
RANK_TOLERANCE = 2.0**-30


def ranking_rewards(
    video: SyntheticVideo, gop: GopPlan, qps, target_bitrate_kbps: float, floor: float = -math.inf
) -> np.ndarray:
    """Rewards of B whole episodes ``qps`` (B, T), exact where ES reads them.

    The ES update reads a batch's rewards only through their order, and
    best-so-far reads the values of row 0 (the lead) and of the first
    maximum. So the batch is settled exactly (``_settle_batch``), and its
    rewards are first computed from those exact MSEs with ``np.log2``, a
    pairwise ``np.sum`` and ``np.log10``. Each lies within ``tol`` =
    ``RANK_TOLERANCE`` x the row maximum of |psnr| + PENALTY_PER_KBPS *
    rate + 1 of its exact value: over 2e7 draws across the ranges ES
    produces, ``np.log2`` differed from ``math.log2`` by at most 1 ulp and
    ``np.log10`` from ``math.log10`` by at most 2, and pairwise summation
    keeps the end-to-end error under 2**-40 of that scale, a margin of
    2**10 or more. If every gap between neighbouring sorted rewards is
    wider than 2 * tol, the exact rewards have the same strict order and no
    ties; then of row 0 and the maximum, only those at or above ``floor`` -
    2 * tol are scored exactly, by ``_exact_rewards``, and written in, which
    keeps the order. ``floor`` is the best reward so far, which a row must
    beat to be kept: a row further below it loses that one comparison
    whatever its exact value, so it keeps its vectorized one. Otherwise, and
    for batches of at most 2 rows, every row is scored exactly. The ranks
    and the first maximum are those of the rows' ``replay_qp_sequence``
    rewards, and so are the values at row 0 and at that maximum that reach
    ``floor`` - 2 * tol, bit for bit.
    """
    _check_target(target_bitrate_kbps)
    energy, mse = _settle_batch(video, gop, qps)
    _, _, gain = video.columns
    _, header_bits, _, show = gop.columns
    bits = _frame_header(video, header_bits) + gain * (0.5 * np.log2(energy / mse))
    shown = mse[show]
    # Summing along the contiguous axis makes np.sum pairwise.
    rate = np.ascontiguousarray(bits.T).sum(axis=1) / video.duration / 1000.0
    mean_mse = np.ascontiguousarray(shown.T).sum(axis=1) / len(shown)
    psnr = 10.0 * np.log10(255.0 * 255.0 / mean_mse)
    rewards = psnr - PENALTY_PER_KBPS * np.maximum(0.0, rate - target_bitrate_kbps)
    tol = RANK_TOLERANCE * np.max(np.abs(psnr) + PENALTY_PER_KBPS * rate + 1.0, initial=0.0)
    exact = list(range(len(rewards)))
    if len(rewards) > 2 and (np.diff(np.sort(rewards)) > 2.0 * tol).all():
        best = int(np.argmax(rewards))
        exact = [i for i in sorted({0, best}) if rewards[i] >= floor - 2.0 * tol]
    if exact:
        rewards[exact] = _exact_rewards(
            video, gop, energy[:, exact], mse[:, exact], target_bitrate_kbps
        )
    return rewards


def run_episode(
    video: SyntheticVideo,
    gop: GopPlan,
    target_bitrate_kbps: float,
    policy_callback: Callable[[Observation], int],
) -> EpisodeTrace:
    """Encode a full episode, querying ``policy_callback`` once per frame."""
    last = (-1, 0.0, 0.0)

    def choose(t, cum_bits, energy, gain, header):
        nonlocal last
        qp = int(policy_callback(Observation(video, gop, target_bitrate_kbps, t, cum_bits, last)))
        last = encode_frame(energy, gain, header, qp)
        return last

    return encode_episode(video, gop, target_bitrate_kbps, choose)


def encode_episode(
    video: SyntheticVideo,
    gop: GopPlan,
    target_bitrate_kbps: float,
    choose: Callable[[int, float, float, float, float], tuple[int, float, float]],
) -> EpisodeTrace:
    """Encode a full episode, carrying the reference state as Python floats.

    ``choose(t, cum_bits, energy, gain, header)`` returns frame ``t``'s
    (qp, bits, mse), with ``cum_bits`` spent before it: (bits, mse) must be
    ``rate_distortion(energy, quantizer_step(qp), gain, header)``. The loop
    reads each frame's constants from one pass over the video's and the GOP
    plan's per-frame columns, with the headers scaled as one column; an
    inter frame's energy is ``_inter_energy`` on its reference state.
    """
    _check_target(target_bitrate_kbps)
    check_gop(video, gop)
    d_last = d_golden = cum_bits = 0.0
    encoded: list[tuple[int, float, float]] = []
    _, header_bits, _, _ = gop.columns
    headers = _frame_header(video, header_bits[:, 0]).tolist()
    frames = zip(
        gop.key, gop.refreshes_golden, video.key_energy, video.inter_energy, video.gain, headers
    )
    for t, (key, refreshes, key_energy, inter_energy, gain, header) in enumerate(frames):
        # ``_frame_energy``, on this frame's columns.
        energy = key_energy if key else _inter_energy(inter_energy, d_last, d_golden)
        encoded.append(choose(t, cum_bits, energy, gain, header))
        _, bits, d_last = encoded[-1]
        if refreshes:
            d_golden = d_last
        cum_bits += bits
    return _finalize_trace(video, gop, target_bitrate_kbps, *zip(*encoded))


def replay_qp_sequence(
    video: SyntheticVideo,
    gop: GopPlan,
    qps: Sequence[int],
    target_bitrate_kbps: float,
) -> EpisodeTrace:
    """Encode a fixed QP sequence without building observations.

    The trace is bitwise equal to ``run_episode`` with a callback that
    replays the same QPs; an invalid QP raises as ``quantizer_step`` does.
    """
    if len(qps) != video.num_frames:
        raise EpisodeError(f"need {video.num_frames} QPs, got {len(qps)}")

    def replay(t, cum_bits, energy, gain, header):
        return (qps[t], *rate_distortion(energy, quantizer_step(qps[t]), gain, header))

    return encode_episode(video, gop, target_bitrate_kbps, replay)


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
    }


def video_from_record(rec: dict) -> SyntheticVideo:
    return SyntheticVideo(
        video_id=rec["video_id"],
        seed=rec["seed"],
        width=rec["width"],
        height=rec["height"],
        frame_rate=rec["frame_rate"],
        frames=np.array([tuple(row) for row in rec["frames"]], dtype=LATENT_DTYPE),
    )


def save_corpus(path, videos: Iterable[SyntheticVideo]) -> int:
    return write_jsonl(path, (video_to_record(v) for v in videos), CORPUS_SCHEMA)


def load_corpus(path) -> list[SyntheticVideo]:
    return [video_from_record(rec) for rec in read_jsonl(path, CORPUS_SCHEMA)]


def save_traces(path, traces: Iterable[EpisodeTrace]) -> int:
    return write_rows(path, traces, TRACE_SCHEMA)


def load_traces(path) -> list[EpisodeTrace]:
    return read_rows(path, EpisodeTrace, TRACE_SCHEMA)
