import dataclasses
import json
import math

import numpy as np
import pytest

from ratelab import simenc
from ratelab.io import SchemaError
from ratelab.simenc import (
    EncodeState,
    EpisodeTrace,
    FrameType,
    encode_frame,
    episode_reward,
    generate_video,
    plan_gop,
    quantizer_step,
    rate_distortion,
    replay_qp_sequence,
    run_episode,
)

from conftest import FAST_CONFIG, constant_video


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_generation_deterministic_in_seed():
    a = generate_video(1, FAST_CONFIG)
    b = generate_video(1, FAST_CONFIG)
    assert simenc.video_to_record(a) == simenc.video_to_record(b)


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
    ):
        with pytest.raises(simenc.ConfigError):
            generate_video(1, dataclasses.replace(FAST_CONFIG, **bad))


def test_corpus_roundtrip(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    simenc.save_corpus(path, small_corpus)
    loaded = simenc.load_corpus(path)
    assert [simenc.video_to_record(v) for v in loaded] == [
        simenc.video_to_record(v) for v in small_corpus
    ]
    # Byte-identical when rewritten.
    second = tmp_path / "again.jsonl"
    simenc.save_corpus(second, loaded)
    assert path.read_bytes() == second.read_bytes()


# Column of each range-checked latent in a corpus row's "frames" lists.
_CHECKED_LATENTS = {"intra_energy": 0, "inter_fraction": 1, "noise_energy": 2, "rate_multiplier": 3}


@pytest.mark.parametrize(
    "name, bad",
    [
        ("intra_energy", 0.0),
        ("intra_energy", -1.0),
        ("inter_fraction", 0.0),
        ("inter_fraction", 1.5),
        ("noise_energy", -0.1),
        ("rate_multiplier", 0.0),
    ],
)
def test_load_corpus_rejects_out_of_range_latent(tmp_path, small_corpus, name, bad):
    path = tmp_path / "corpus.jsonl"
    simenc.save_corpus(path, small_corpus[:1])
    row = json.loads(path.read_text())
    row["frames"][3][_CHECKED_LATENTS[name]] = bad
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
    v = constant_video(num_frames=3, intra_energy=99.0, noise_energy=1.0, rate_multiplier=2.0 / 3.0)
    gop = plan_gop(v, gop_interval=100)
    qp = 141
    bits, mse, state = encode_frame(v, gop, EncodeState(), qp)
    q = quantizer_step(qp)
    gain = 12.0 * v.n_blocks * (2.0 / 3.0)
    header = 4000.0 * v.n_blocks / 1200.0
    expect_mse = min(100.0, q * q / 12.0)
    expect_bits = header + gain * max(0.0, 0.5 * math.log2(100.0 / expect_mse))
    assert mse == expect_mse
    assert bits == expect_bits
    assert state.cursor == 1 and state.d_last == mse and state.d_golden == mse


def test_encode_monotone_in_qp(video, gop):
    # Fixed state: bits nonincreasing, MSE nondecreasing across all QPs.
    _, _, state = encode_frame(video, gop, EncodeState(), 120)
    results = [encode_frame(video, gop, state, qp)[:2] for qp in range(256)]
    bits = [r[0] for r in results]
    mses = [r[1] for r in results]
    assert all(b1 >= b2 for b1, b2 in zip(bits, bits[1:]))
    assert all(m1 <= m2 for m1, m2 in zip(mses, mses[1:]))


def test_gop_of_another_length_rejected(video):
    short = plan_gop(constant_video(num_frames=video.num_frames - 1))
    with pytest.raises(simenc.ConfigError):
        simenc.encode_batch(video, short, np.full((2, video.num_frames), 100))
    with pytest.raises(simenc.ConfigError):
        encode_frame(video, short, EncodeState(), 100)


def test_encode_past_end_rejected():
    v = constant_video(num_frames=2)
    gop = plan_gop(v, gop_interval=100)
    state = EncodeState()
    for qp in (100, 100):
        _, _, state = encode_frame(v, gop, state, qp)
    with pytest.raises(simenc.EpisodeError):
        encode_frame(v, gop, state, 100)


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------

def _trace(psnr, bitrate, num_frames=5, target=512.0):
    return EpisodeTrace(
        video_id="x",
        num_frames=num_frames,
        target_bitrate_kbps=target,
        qps=tuple([100] * num_frames),
        bits=tuple([1000.0] * num_frames),
        mse=tuple([10.0] * num_frames),
        show=tuple([True] * num_frames),
        psnr_db=psnr,
        bitrate_kbps=bitrate,
        reward=0.0,
    )


def test_reward_under_target_no_penalty():
    assert episode_reward(_trace(40.0, 500.0, target=512.0)) == 40.0


def test_reward_overshoot_penalty():
    trace = _trace(40.0, 612.0, target=512.0)
    assert episode_reward(trace) == pytest.approx(38.0, abs=1e-12)


def test_reward_incomplete_trace_rejected():
    bad = dataclasses.replace(_trace(40.0, 500.0), qps=(100,))
    with pytest.raises(simenc.EpisodeError):
        episode_reward(bad)


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

def test_run_episode_accounting(video, gop):
    trace = run_episode(video, gop, 512.0, lambda obs: 128)
    assert len(trace.qps) == video.num_frames
    assert trace.bitrate_kbps == pytest.approx(
        math.fsum(trace.bits) / video.duration / 1000.0, rel=1e-12
    )
    shown = [m for m, s in zip(trace.mse, trace.show) if s]
    assert trace.psnr_db == pytest.approx(
        10 * math.log10(255**2 / (math.fsum(shown) / len(shown))), rel=1e-12
    )
    # Hidden alt-ref frames are excluded from PSNR.
    assert sum(1 for s in trace.show if not s) == sum(
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
                captured[which] = obs.state
            return 100 if which == "a" or obs.frame_index < 5 else 240

        return cb

    run_episode(video, gop, 512.0, capture("a"))
    run_episode(video, gop, 512.0, capture("b"))
    assert captured["a"].cursor == 5
    assert captured["a"] == captured["b"]


def test_trace_roundtrip(tmp_path, video, gop):
    trace = run_episode(video, gop, 512.0, lambda obs: 150)
    path = tmp_path / "traces.jsonl"
    simenc.save_traces(path, [trace])
    assert simenc.load_traces(path) == [trace]
