"""Builders the test modules share; import them with ``from helpers import ...``."""

import math
from dataclasses import dataclass

import numpy as np

from ratelab import simenc
from ratelab.policy.features import fit_feature_spec
from ratelab.policy.network import PolicyParams, arch_from_preset

# Short videos keep the suites fast; the encoder model is scale-free in T.
FAST_CONFIG = simenc.VideoConfig(num_frames_min=40, num_frames_max=60)


def constant_video(
    num_frames=4,
    intra_energy=99.0,
    noise_energy=1.0,
    inter_fraction=0.5,
    rate_multiplier=1.0,
    width=160,
    height=240,
    frame_rate=30.0,
):
    """Hand-built video with identical latents on every frame."""
    latent = dict(
        intra_energy=intra_energy,
        inter_fraction=inter_fraction,
        noise_energy=noise_energy,
        rate_multiplier=rate_multiplier,
        mv_row_mean=0.0,
        mv_row_abs=0.5,
        mv_col_mean=0.0,
        mv_col_abs=0.5,
        mv_row_var=0.25,
        mv_col_var=0.25,
        mv_in_out=0.0,
        scene_id=0,
    )
    row = tuple(latent[name] for name in simenc.LATENT_FIELDS)
    return simenc.SyntheticVideo(
        video_id="const",
        seed=0,
        width=width,
        height=height,
        frame_rate=frame_rate,
        frames=np.array([row] * num_frames, dtype=simenc.LATENT_DTYPE),
    )


def all_inter_gop(num_frames):
    """GOP with every frame INTER (for allocation symmetry tests)."""
    return simenc.GopPlan(frame_types=(simenc.FrameType.INTER,) * num_frames)


def reference_plan_types(num_frames, gop_interval):
    """``plan_gop``'s frame types, decided one frame at a time."""
    types = []
    for t in range(num_frames):
        if t == 0:
            types.append(simenc.FrameType.KEY)
        elif t % gop_interval == 0:
            types.append(simenc.FrameType.ALT_REF_HIDDEN)
        else:
            types.append(simenc.FrameType.INTER)
    return tuple(types)


def reference_gop_constants(frame_types):
    """The per-frame constants the encoder reads from a GOP plan of
    ``frame_types``, one frame at a time: ``GopPlan``'s tuples by name."""
    show = tuple(ft is not simenc.FrameType.ALT_REF_HIDDEN for ft in frame_types)
    key = tuple(ft is simenc.FrameType.KEY for ft in frame_types)
    refreshes = tuple(ft is not simenc.FrameType.INTER for ft in frame_types)
    sources, row = [], 0
    for t, refreshed in enumerate(refreshes):
        sources.append(row)
        if refreshed:
            row = t + 1
    return {
        "show": show,
        "key": key,
        "refreshes_golden": refreshes,
        "golden_source": tuple(sources),
        "header_bits": tuple(simenc.HEADER_BITS[ft] for ft in frame_types),
    }


def tiny_policy(videos, target_bitrate_kbps=512.0, seed=0):
    """Untrained tiny-preset params and a feature spec fitted on ``videos``."""
    scalars = {
        name: [float(getattr(v, name)) for v in videos]
        for name in ("width", "height", "duration", "frame_rate")
    }
    spec = fit_feature_spec(
        [v.first_pass for v in videos],
        {**scalars, "target_bitrate_kbps": [target_bitrate_kbps], "prev_mse": [1.0, 20.0]},
        seed=seed,
    )
    return PolicyParams(arch_from_preset("tiny", spec.bundle_dim), seed=seed), spec


# ---------------------------------------------------------------------------
# Reference encoder: a frozen state stepped one frame at a time, the episode
# loop ``simenc.run_episode`` replaced. Tests pin the library's loop, the
# baseline and the QP search against it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodeState:
    """Reference-quality state of the encoder between frames."""

    cursor: int = 0
    d_last: float = 0.0
    d_golden: float = 0.0
    cum_bits: float = 0.0
    last: tuple[int, float, float] = (-1, 0.0, 0.0)  # (qp, bits, mse) of the previous frame


@dataclass(frozen=True)
class StateObservation:
    """An observation read from an ``EncodeState``; it has the fields of
    ``simenc.Observation``, so policies run on either loop."""

    video: simenc.SyntheticVideo
    gop: simenc.GopPlan
    target_bitrate_kbps: float
    state: EncodeState

    @property
    def frame_index(self):
        return self.state.cursor

    @property
    def cum_bits(self):
        return self.state.cum_bits

    @property
    def last(self):
        return self.state.last


def rd_terms(video, gop, state):
    """(energy, gain, header) of the frame at the state's cursor."""
    t = state.cursor
    if t >= video.num_frames:
        raise simenc.EpisodeError(f"episode ended at frame {video.num_frames}, cannot encode {t}")
    simenc.check_gop(video, gop)
    energy = simenc._frame_energy(video, gop, t, state.d_last, state.d_golden)
    return energy, video.gain[t], simenc._frame_header(video, gop.header_bits[t])


def step_frame(video, gop, state, qp):
    """Encode the frame at the state's cursor with ``qp``: (bits, mse, next_state)."""
    energy, gain, header = rd_terms(video, gop, state)
    bits, mse = simenc.rate_distortion(energy, simenc.quantizer_step(qp), gain, header)
    t = state.cursor
    next_state = EncodeState(
        cursor=t + 1,
        d_last=mse,
        d_golden=mse if gop.refreshes_golden[t] else state.d_golden,
        cum_bits=state.cum_bits + bits,
        last=(int(qp), bits, mse),
    )
    return bits, mse, next_state


def reference_episode(video, gop, target_bitrate_kbps, policy_callback):
    """``simenc.run_episode`` on the stepper: the callback sees a ``StateObservation``."""
    state = EncodeState()
    qps, bits, mses = [], [], []
    for _ in range(video.num_frames):
        qp = int(policy_callback(StateObservation(video, gop, target_bitrate_kbps, state)))
        b, m, state = step_frame(video, gop, state, qp)
        qps.append(qp)
        bits.append(b)
        mses.append(m)
    return simenc._finalize_trace(video, gop, target_bitrate_kbps, qps, bits, mses)


# ---------------------------------------------------------------------------
# Reference first pass: one frame's statistics from its latents, on numpy
# scalars, the per-row form ``SyntheticVideo.first_pass`` replaced. A
# property test pins the derived matrix to it byte for byte.
# ---------------------------------------------------------------------------


def first_pass_row(latent, index, num_frames, frame_rate):
    """One frame's first-pass statistics, in ``FIRST_PASS_FEATURES`` order;
    ``latent`` is one row of a video's ``frames``."""
    intra_energy = latent["intra_energy"]
    inter_fraction = latent["inter_fraction"]
    noise_energy = latent["noise_energy"]
    intra = intra_energy + noise_energy
    coded = inter_fraction * intra_energy + noise_energy
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
    return [row[name] for name in simenc.FIRST_PASS_FEATURES]


def _clip01(x):
    return min(1.0, max(0.0, x))


def reference_first_pass(video):
    """The (T, 25) matrix of ``first_pass_row`` over the video's frames."""
    return np.array(
        [
            first_pass_row(f, i, video.num_frames, video.frame_rate)
            for i, f in enumerate(video.frames)
        ],
        dtype=np.float64,
    )


# ---------------------------------------------------------------------------
# Reference generator: the per-frame loop ``simenc.generate_video`` replaced,
# with scalar draws in the same order. A property test pins the generator to
# it byte for byte.
# ---------------------------------------------------------------------------


def reference_generate_video(seed, config=simenc.VideoConfig()):
    """One synthetic video from ``seed``, one frame at a time."""
    config.validate()
    rng = np.random.Generator(np.random.PCG64(seed))

    num_frames = int(rng.integers(config.num_frames_min, config.num_frames_max + 1))

    scene_starts = [0]
    t = 0
    while True:
        length = max(4, int(rng.geometric(1.0 / simenc.MEAN_SCENE_LENGTH)))
        t += length
        if t >= num_frames:
            break
        scene_starts.append(t)

    rows = []
    scene_id = -1
    base_intra = base_noise = base_rho = motion_scale = 0.0
    for index in range(num_frames):
        at_scene_start = scene_id + 1 < len(scene_starts) and index == scene_starts[scene_id + 1]
        if at_scene_start:
            scene_id += 1
            base_intra = float(
                np.clip(
                    rng.lognormal(simenc.INTRA_ENERGY_LOG_MEAN, simenc.INTRA_ENERGY_LOG_SIGMA),
                    *simenc.INTRA_ENERGY_RANGE,
                )
            )
            base_noise = float(rng.uniform(*simenc.NOISE_ENERGY_RANGE))
            base_rho = float(rng.uniform(*simenc.INTER_FRACTION_RANGE))
            motion_scale = float(rng.lognormal(math.log(2.0), 0.6))

        intra = base_intra * float(np.exp(rng.normal(0.0, simenc.INTRA_JITTER)))
        noise = base_noise * float(np.exp(rng.normal(0.0, simenc.NOISE_JITTER)))
        if at_scene_start:
            rho = 1.0  # no usable previous frame across a cut
        else:
            rho = float(
                np.clip(
                    base_rho * np.exp(rng.normal(0.0, simenc.INTER_FRACTION_JITTER)), 1e-3, 1.0
                )
            )
        w = float(
            np.clip(
                np.exp(rng.normal(0.0, simenc.RATE_MULTIPLIER_SIGMA_LOG)),
                *simenc.RATE_MULTIPLIER_RANGE,
            )
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

    return simenc.SyntheticVideo(
        video_id=f"sim-{seed & 0xFFFFFFFFFFFFFFFF:016x}",
        seed=seed,
        width=config.width,
        height=config.height,
        frame_rate=config.frame_rate,
        frames=np.array(rows, dtype=simenc.LATENT_DTYPE),
    )
