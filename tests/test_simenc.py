import dataclasses
import json
import math

import numpy as np
import pytest

from ratelab import simenc
from ratelab.io import SchemaError
from ratelab.simenc import (
    FrameType,
    generate_video,
    plan_gop,
    quantizer_step,
    rate_distortion,
    replay_qp_sequence,
    run_episode,
)

from helpers import FAST_CONFIG, EncodeState, all_inter_gop, constant_video, step_frame


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _corpus_bytes(tmp_path, videos) -> bytes:
    """Videos have no value equality: the bytes of their corpus file compare them."""
    simenc.save_corpus(tmp_path / "compared.jsonl", videos)
    return (tmp_path / "compared.jsonl").read_bytes()


def test_generation_deterministic_in_seed(tmp_path):
    a = generate_video(1, FAST_CONFIG)
    b = generate_video(1, FAST_CONFIG)
    assert _corpus_bytes(tmp_path, [a]) == _corpus_bytes(tmp_path, [b])


def test_generation_seed_sensitivity():
    a = generate_video(1, FAST_CONFIG)
    b = generate_video(2, FAST_CONFIG)
    assert not np.array_equal(a.frames["intra_energy"], b.frames["intra_energy"])


def test_generation_invariants(video):
    assert video.frames.shape == (video.num_frames,)
    assert video.first_pass.shape == (video.num_frames, len(simenc.FIRST_PASS_FEATURES))
    f = video.frames
    assert np.all(f["intra_energy"] > 0)
    assert np.all((f["inter_fraction"] > 0) & (f["inter_fraction"] <= 1))
    assert np.all(f["noise_energy"] >= 0)
    assert np.all(f["rate_multiplier"] > 0)
    column = dict(zip(simenc.FIRST_PASS_FEATURES, video.first_pass.T))
    assert np.all(column["coded_error"] <= column["intra_error"])
    for name in (
        "pcnt_inter",
        "pcnt_motion",
        "pcnt_second_ref",
        "pcnt_neutral",
        "pcnt_intra_low",
        "pcnt_intra_high",
        "intra_skip_pct",
        "intra_smooth_pct",
    ):
        assert np.all((column[name] >= 0.0) & (column[name] <= 1.0))


def test_invalid_config_rejected():
    for bad in (
        dict(num_frames_min=1),
        dict(num_frames_max=39),
        dict(width=15),
        dict(frame_rate=0.0),
        dict(frame_rate=math.nan),
        dict(frame_rate=math.inf),
    ):
        with pytest.raises(simenc.ConfigError):
            generate_video(1, dataclasses.replace(FAST_CONFIG, **bad))


def test_generate_corpus_validates_each_video_once(monkeypatch):
    # Each video is built once, under its corpus id; renaming a generated
    # video would run the validation a second time.
    seen = []
    post_init = simenc.SyntheticVideo.__post_init__

    def counted(self):
        seen.append(self.video_id)
        post_init(self)

    monkeypatch.setattr(simenc.SyntheticVideo, "__post_init__", counted)
    videos = simenc.generate_corpus(3, 7, FAST_CONFIG)
    assert seen == [v.video_id for v in videos]
    assert all(v.video_id.startswith(f"sim{i:05d}-") for i, v in enumerate(videos))


def test_numpy_logs_stay_far_inside_the_ranking_tolerance():
    """``ranking_rewards`` bounds its vectorized rewards by their distance
    from the exact ones. Its margin rests on ``np.log2`` and ``np.log10``
    agreeing with ``math.log2`` and ``math.log10`` to within a few ulps;
    here they must agree to 2**-40 relative, 2**10 inside the tolerance, on
    the ranges ES produces: energy-to-MSE ratios from 1 to 1e6, and PSNR
    arguments 255**2 / MSE for mean MSEs from 1e-3 to 1e5."""
    rng = np.random.default_rng(0)
    ratios = np.concatenate([[1.0, np.nextafter(1.0, 2.0)], np.exp(rng.uniform(0, 14, 10**5))])
    psnr_args = 255.0 * 255.0 / np.exp(rng.uniform(math.log(1e-3), math.log(1e5), 10**5))
    assert simenc.RANK_TOLERANCE / 2.0**-40 >= 2**10
    for fast, exact, x in ((np.log2, math.log2, ratios), (np.log10, math.log10, psnr_args)):
        reference = np.array([exact(v) for v in x.tolist()])
        error = np.abs(fast(x) - reference)
        assert np.all(error <= 2.0**-40 * np.maximum(np.abs(reference), 1.0))


def test_corpus_roundtrip(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    simenc.save_corpus(path, small_corpus)
    loaded = simenc.load_corpus(path)
    assert all(not v.frames.flags.writeable for v in loaded)
    assert [v.frames.tobytes() for v in loaded] == [v.frames.tobytes() for v in small_corpus]
    # Byte-identical when rewritten.
    assert _corpus_bytes(tmp_path, loaded) == path.read_bytes()


@pytest.mark.parametrize(
    "name, bad",
    [
        ("intra_energy", 0.0),
        ("intra_energy", -1.0),
        ("intra_energy", math.inf),
        ("inter_fraction", 0.0),
        ("inter_fraction", 1.5),
        ("noise_energy", -0.1),
        ("rate_multiplier", 0.0),
        ("mv_row_mean", math.nan),
        ("mv_col_abs", math.inf),
        ("mv_in_out", -math.inf),
        ("mv_row_abs", -0.5),
        ("mv_col_abs", -1e-300),
        ("mv_row_var", -1.0),
        ("mv_col_var", -2.0),
    ],
)
def test_load_corpus_rejects_out_of_range_latent(tmp_path, small_corpus, name, bad):
    """The first-pass matrix is derived from the latents: a non-finite
    latent, or a negative motion magnitude, would reach the policy (or
    overflow ``math.exp``), so loading refuses it and names the field."""
    path = tmp_path / "corpus.jsonl"
    simenc.save_corpus(path, small_corpus[:1])
    row = json.loads(path.read_text())
    row["frames"][3][simenc.LATENT_FIELDS.index(name)] = bad
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(simenc.ConfigError, match=name):
        simenc.load_corpus(path)


def test_load_corpus_rejects_zero_coded_error(tmp_path):
    """A frame's coded error, inter_fraction * intra_energy + noise_energy,
    weighs its share of the heuristic's budget. On the last frames of a
    video, 0.5 * 5e-324 + 0 underflows to 0: replay encoded such a corpus,
    and the heuristic then divided by zero. Loading refuses it."""
    video = generate_video(3, simenc.VideoConfig(40, 40))
    path = tmp_path / "corpus.jsonl"
    simenc.save_corpus(path, [video])
    row = json.loads(path.read_text())
    latents = {"intra_energy": 5e-324, "noise_energy": 0.0, "inter_fraction": 0.5}
    for frame in row["frames"][-3:]:
        for name, value in latents.items():
            frame[simenc.LATENT_FIELDS.index(name)] = value
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(simenc.ConfigError, match="coded error"):
        simenc.load_corpus(path)


@pytest.mark.parametrize(
    "name, bad",
    [
        ("frame_rate", float("nan")),
        ("frame_rate", float("inf")),
        ("frame_rate", 0.0),
        ("frame_rate", -30.0),
        ("width", 0),
        ("width", float("inf")),
        ("height", -16),
        ("height", float("nan")),
    ],
)
def test_load_corpus_rejects_bad_metadata(tmp_path, small_corpus, name, bad):
    """A hand-edited corpus cannot carry a size or frame rate the encoder
    cannot take: before, a NaN frame rate loaded and every bitrate was NaN."""
    path = tmp_path / "corpus.jsonl"
    simenc.save_corpus(path, small_corpus[:1])
    row = json.loads(path.read_text())
    row[name] = bad
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(simenc.ConfigError, match=name):
        simenc.load_corpus(path)


def test_corpus_schema_mismatch(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    simenc.save_traces(path, [])  # wrong schema on disk
    path.write_text(path.read_text() + '{"schema": "other.v9"}\n')
    with pytest.raises(SchemaError):
        simenc.load_corpus(path)


# ---------------------------------------------------------------------------
# GOP planning
# ---------------------------------------------------------------------------

def test_plan_gop_enumerated_rule():
    v = constant_video(num_frames=10)
    plan = plan_gop(v, gop_interval=5)
    expected = (
        [FrameType.KEY]
        + [FrameType.INTER] * 4
        + [FrameType.ALT_REF_HIDDEN]
        + [FrameType.INTER] * 4
    )
    assert list(plan.frame_types) == expected


def test_plan_gop_interval_exceeds_length():
    v = constant_video(num_frames=2)
    plan = plan_gop(v, gop_interval=100)
    assert list(plan.frame_types) == [FrameType.KEY, FrameType.INTER]


def test_plan_gop_show_flags(video):
    plan = plan_gop(video, gop_interval=7)
    hidden = [t for t, ft in enumerate(plan.frame_types) if ft is FrameType.ALT_REF_HIDDEN]
    assert [t for t, s in enumerate(plan.show) if not s] == hidden
    assert plan.frame_types[0] is FrameType.KEY


def test_plan_gop_rejects_tiny_interval(video):
    with pytest.raises(simenc.ConfigError):
        plan_gop(video, gop_interval=1)


# ---------------------------------------------------------------------------
# Quantizer and RD core
# ---------------------------------------------------------------------------

def test_quantizer_anchor_and_growth():
    assert quantizer_step(0) == 0.25
    assert quantizer_step(255) == pytest.approx(0.25 * math.exp(7.65), rel=1e-12)
    steps = [quantizer_step(q) for q in range(256)]
    assert all(b > a for a, b in zip(steps, steps[1:]))


def test_quantizer_rejects_out_of_range():
    for bad in (-1, 256, 1.5, "3"):
        with pytest.raises((ValueError, TypeError)):
            quantizer_step(bad)


def test_rate_distortion_closed_form():
    # E=100, Q^2/12=25, gain=1200, header=500 -> bits 1700, mse 25.
    bits, mse = rate_distortion(100.0, math.sqrt(300.0), 1200.0, 500.0)
    assert mse == pytest.approx(25.0, rel=1e-14)
    assert bits == pytest.approx(1700.0, abs=1e-9)


def test_rate_distortion_saturation():
    # Coarse quantizer: distortion capped at the energy, header-only bits.
    bits, mse = rate_distortion(4.0, 100.0, 1200.0, 500.0)
    assert mse == 4.0
    assert bits == 500.0


def test_encode_frame_matches_reference_formula():
    """``run_episode`` commits the key frame by the closed form, and the
    next observation carries that frame as its history."""
    v = constant_video(num_frames=3, intra_energy=99.0, noise_energy=1.0, rate_multiplier=2.0 / 3.0)
    gop = plan_gop(v, gop_interval=100)
    qp = 141
    observations = []
    trace = run_episode(v, gop, 512.0, lambda obs: observations.append(obs) or qp)
    q = quantizer_step(qp)
    gain = 12.0 * v.n_blocks * (2.0 / 3.0)
    header = 4000.0 * v.n_blocks / 1200.0
    expect_mse = min(100.0, q * q / 12.0)
    expect_bits = header + gain * max(0.0, 0.5 * math.log2(100.0 / expect_mse))
    assert (trace.bits[0], trace.mse[0]) == (expect_bits, expect_mse)
    assert simenc.encode_frame(100.0, gain, header, qp) == (qp, expect_bits, expect_mse)
    assert observations[1].frame_index == 1
    assert observations[1].cum_bits == expect_bits
    assert observations[1].last == (qp, expect_bits, expect_mse)


def test_encode_monotone_in_qp(video, gop):
    # Fixed state: bits nonincreasing, MSE nondecreasing across all QPs.
    _, _, state = step_frame(video, gop, EncodeState(), 120)
    results = [step_frame(video, gop, state, qp)[:2] for qp in range(256)]
    bits = [r[0] for r in results]
    mses = [r[1] for r in results]
    assert all(b1 >= b2 for b1, b2 in zip(bits, bits[1:]))
    assert all(m1 <= m2 for m1, m2 in zip(mses, mses[1:]))


def test_gop_of_another_length_rejected(video):
    short = plan_gop(constant_video(num_frames=video.num_frames - 1))
    with pytest.raises(simenc.ConfigError):
        simenc.ranking_rewards(video, short, np.full((2, video.num_frames), 100), 512.0)
    with pytest.raises(simenc.ConfigError):
        run_episode(video, short, 512.0, lambda obs: 100)
    with pytest.raises(simenc.ConfigError):
        replay_qp_sequence(video, short, [100] * video.num_frames, 512.0)


def test_malformed_gop_rejected():
    """One shown frame at least, else replay and ``ranking_rewards`` would
    fail on an empty mean; a plan may start INTER."""
    for types in ((), (FrameType.ALT_REF_HIDDEN,) * 4):
        with pytest.raises(simenc.ConfigError, match="shows no frame"):
            simenc.GopPlan(frame_types=types)
    v = constant_video(num_frames=4)
    gop = all_inter_gop(4)
    trace = replay_qp_sequence(v, gop, [100] * 4, 512.0)
    assert gop.show == (True,) * 4
    assert trace.psnr_db == simenc.psnr_from_mse(math.fsum(trace.mse) / 4)


def test_encode_past_end_rejected():
    """A QP past the last frame is refused; a policy is asked once per frame."""
    v = constant_video(num_frames=2)
    gop = plan_gop(v, gop_interval=100)
    with pytest.raises(simenc.EpisodeError):
        replay_qp_sequence(v, gop, [100, 100, 100], 512.0)
    with pytest.raises(simenc.EpisodeError):
        simenc.ranking_rewards(v, gop, np.full((1, 3), 100), 512.0)
    asked = []
    run_episode(v, gop, 512.0, lambda obs: asked.append(obs.frame_index) or 100)
    assert asked == [0, 1]


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------

def test_reward_under_target_no_penalty(video, gop):
    trace = replay_qp_sequence(video, gop, [100] * video.num_frames, 1e6)
    assert trace.bitrate_kbps < trace.target_bitrate_kbps
    assert trace.reward == trace.psnr_db


def test_reward_overshoot_penalty(video, gop):
    # At 1 kbps even QP 255 overshoots.
    trace = replay_qp_sequence(video, gop, [255] * video.num_frames, 1.0)
    overshoot = trace.bitrate_kbps - 1.0
    assert overshoot > 0.0
    assert trace.reward == trace.psnr_db - simenc.PENALTY_PER_KBPS * overshoot


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

def test_run_episode_accounting(video, gop):
    trace = run_episode(video, gop, 512.0, lambda obs: 128)
    assert len(trace.qps) == video.num_frames
    assert trace.bitrate_kbps == pytest.approx(
        math.fsum(trace.bits) / video.duration / 1000.0, rel=1e-12
    )
    shown = [m for m, s in zip(trace.mse, gop.show) if s]
    assert trace.psnr_db == pytest.approx(
        10 * math.log10(255**2 / (math.fsum(shown) / len(shown))), rel=1e-12
    )
    # Hidden alt-ref frames are excluded from PSNR.
    assert sum(1 for s in gop.show if not s) == sum(
        1 for ft in gop.frame_types if ft is FrameType.ALT_REF_HIDDEN
    )


def test_replay_matches_run_episode(video, gop, rng):
    qps = [int(q) for q in rng.integers(0, 256, size=video.num_frames)]
    via_callback = run_episode(video, gop, 512.0, lambda obs: qps[obs.frame_index])
    via_replay = replay_qp_sequence(video, gop, qps, 512.0)
    assert via_callback == via_replay


def test_replay_rejects_bad_qps():
    v = constant_video(num_frames=3)
    gop = plan_gop(v)
    for qps, error in (
        ([30, 1.5, 30], TypeError),
        ([True, False, True], TypeError),
        ([30, True, 30], TypeError),
        ([30, -1, 30], ValueError),
        ([30, 256, 30], ValueError),
        ([30, 30], simenc.EpisodeError),
        ([30, 30, 30, 30], simenc.EpisodeError),
    ):
        with pytest.raises(error):
            replay_qp_sequence(v, gop, qps, 512.0)


def test_replay_deterministic(video, gop, rng):
    qps = [int(q) for q in rng.integers(0, 256, size=video.num_frames)]
    assert replay_qp_sequence(video, gop, qps, 512.0) == replay_qp_sequence(
        video, gop, qps, 512.0
    )


def test_extreme_qp_ordering(video, gop):
    finest = replay_qp_sequence(video, gop, [0] * video.num_frames, 512.0)
    coarsest = replay_qp_sequence(video, gop, [255] * video.num_frames, 512.0)
    assert math.fsum(coarsest.bits) < math.fsum(finest.bits)
    assert coarsest.psnr_db < finest.psnr_db


def test_quality_propagation_from_key_frame(video, gop, rng):
    qps = [int(q) for q in rng.integers(60, 200, size=video.num_frames)]
    base = replay_qp_sequence(video, gop, qps, 512.0)
    lowered = list(qps)
    lowered[0] = max(0, qps[0] - 40)
    better = replay_qp_sequence(video, gop, lowered, 512.0)
    assert all(b <= a + 1e-15 for a, b in zip(base.mse, better.mse))


def test_observation_causality(video, gop):
    captured = {}

    def capture(which):
        def cb(obs):
            if obs.frame_index == 5:
                captured[which] = obs
            return 100 if which == "a" or obs.frame_index < 5 else 240

        return cb

    run_episode(video, gop, 512.0, capture("a"))
    run_episode(video, gop, 512.0, capture("b"))
    assert captured["a"].frame_index == 5
    assert captured["a"] == captured["b"]


def test_trace_roundtrip(tmp_path, video, gop):
    trace = run_episode(video, gop, 512.0, lambda obs: 150)
    path = tmp_path / "traces.jsonl"
    simenc.save_traces(path, [trace])
    assert simenc.load_traces(path) == [trace]
