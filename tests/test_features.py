import dataclasses

import numpy as np
import pytest

from ratelab import simenc
from ratelab.policy import rollout
from ratelab.policy.autodiff import lstm_cell
from ratelab.policy.network import PolicyParams, arch_from_preset
from ratelab.policy.data import episodes_from_records, fit_spec_from_records
from ratelab.policy.features import (
    EMBED_DIM,
    FeatureError,
    FeatureSpec,
    FRAME_TYPE_ORDER,
    build_features,
    episode_features,
    fit_feature_spec,
)
from ratelab.teacher import TeacherDataError, TeacherRecord

from conftest import FAST_CONFIG


@pytest.fixture(scope="module")
def corpus():
    videos = simenc.generate_corpus(3, master_seed=5, config=FAST_CONFIG)
    return {v.video_id: v for v in videos}


@pytest.fixture(scope="module")
def records(corpus):
    recs = []
    for video in corpus.values():
        gop = simenc.plan_gop(video)
        trace = simenc.replay_qp_sequence(video, gop, [140] * video.num_frames, 500.0)
        recs.append(
            TeacherRecord(
                video_id=video.video_id,
                target_bitrate_kbps=500.0,
                provenance="ES",
                label_qps=trace.qps,
                label_bits=trace.bits,
                baseline_qps=trace.qps,
                psnr_db=trace.psnr_db,
                bitrate_kbps=trace.bitrate_kbps,
                reward=trace.reward,
            )
        )
    return recs


@pytest.fixture(scope="module")
def spec(records, corpus):
    return fit_spec_from_records(records, corpus, seed=7)


def test_unfitted_spec_rejected():
    with pytest.raises(FeatureError):
        FeatureSpec().scalar_transform("width", 640.0)


def test_unknown_scalar_feature(spec):
    with pytest.raises(FeatureError):
        spec.scalar_transform("no_such_feature", 1.0)


def test_mean_value_normalizes_to_zero(spec):
    mean = spec.scalar_mean["prev_mse"]
    assert spec.scalar_transform("prev_mse", mean) == pytest.approx(0.0, abs=1e-12)


def test_first_pass_standardization(spec, corpus):
    video = next(iter(corpus.values()))
    mat = simenc.first_pass_matrix(video)
    out = spec.normalize_first_pass(mat)
    # Count features use log1p: frame_index 0 maps to exactly 0.
    j = simenc.FIRST_PASS_FEATURES.index("frame_index")
    assert out[0, j] == 0.0
    assert out[3, j] == pytest.approx(np.log1p(3.0))
    # Float columns standardized with the fitted stats.
    j = simenc.FIRST_PASS_FEATURES.index("coded_error")
    expect = (mat[0, j] - spec.first_pass_mean[j]) / spec.first_pass_std[j]
    assert out[0, j] == pytest.approx(expect, rel=1e-12)


def _observations(video, qp, target=500.0):
    """The observation before every frame of a constant-QP episode."""
    observations = []

    def record(obs):
        observations.append(obs)
        return qp

    simenc.run_episode(video, simenc.plan_gop(video), target, record)
    return observations


def _bundle(obs, spec):
    episode = episode_features(spec, obs, obs.target_bitrate_kbps, obs.encode_speed)
    return build_features(
        spec,
        episode[obs.frame_index],
        FRAME_TYPE_ORDER.index(obs.frame_type),
        obs.prev_qp,
        obs.prev_bits,
        obs.prev_mse,
        obs.cum_bits,
        obs.rel_cum_bits,
    )


def test_qp_embedding_lookup(spec, corpus):
    obs = _observations(next(iter(corpus.values())), 17)[1]
    assert obs.prev_qp == 17
    bundle = _bundle(obs, spec)
    start = 7 + 2 + EMBED_DIM
    assert bundle[start : start + EMBED_DIM] == pytest.approx(spec.qp_embedding[17])


def test_no_previous_frame_embeds_zero(spec, corpus):
    obs = _observations(next(iter(corpus.values())), 17)[0]
    assert obs.prev_qp == -1
    bundle = _bundle(obs, spec)
    start = 7 + 2 + EMBED_DIM
    assert np.all(bundle[start : start + EMBED_DIM] == 0.0)


def test_bundle_dim_fixed(spec, corpus):
    for o in _observations(next(iter(corpus.values())), 100)[:3]:
        assert _bundle(o, spec).shape == (spec.bundle_dim,)
    assert spec.bundle_dim == 46


def test_constant_feature_is_centered_not_scaled(spec, corpus, monkeypatch):
    """Every training record targets 500 kbps: the target is then only
    centered, so a rollout at another target stays in range."""
    assert spec.scalar_std["target_bitrate_kbps"] == 1.0
    assert spec.scalar_transform("target_bitrate_kbps", 2000.0) == 1500.0
    video = next(iter(corpus.values()))
    params = PolicyParams(arch_from_preset("tiny", spec.bundle_dim), seed=2)
    runner = rollout.PolicyRunner(params, spec, sampler=lambda logits: int(np.argmax(logits)))
    gates = []

    def step(pre, c):
        h, c, g = lstm_cell(pre, c)
        gates.append(g)
        return h, c, g

    monkeypatch.setattr(rollout, "lstm_cell", step)
    with np.errstate(all="raise"):
        simenc.run_episode(video, simenc.plan_gop(video), 2000.0, runner)
    gates = np.array(gates)
    assert gates.shape[0] == video.num_frames
    assert np.all(np.isfinite(gates))
    assert np.all(np.isfinite(runner.bits_predictions))


def test_fit_requires_scalar_samples():
    with pytest.raises(FeatureError):
        fit_feature_spec([np.zeros((4, 25))], {"width": [640.0]})


def test_spec_array_roundtrip(spec):
    arrays = spec.to_arrays()
    back = FeatureSpec.from_arrays(arrays)
    assert np.array_equal(back.qp_embedding, spec.qp_embedding)
    assert back.scalar_mean == spec.scalar_mean
    assert np.array_equal(back.first_pass_std, spec.first_pass_std)


def test_episodes_from_records(records, corpus, spec):
    episodes = episodes_from_records(records, corpus, spec)
    assert len(episodes) == len(records)
    for ep, rec in zip(episodes, records):
        T = len(rec.label_qps)
        assert ep.first_pass_norm.shape == (T, 25)
        assert ep.bundles.shape == (T, spec.bundle_dim)
        assert ep.label_bits_kbit == pytest.approx(np.asarray(rec.label_bits) / 1000.0)
        video = corpus[rec.video_id]
        assert ep.budget_kbit == pytest.approx(rec.target_bitrate_kbps * video.duration)


def test_record_whose_bits_do_not_replay_is_rejected(records, corpus, spec):
    bits = list(records[0].label_bits)
    bits[5] = np.nextafter(bits[5], np.inf)
    tampered = dataclasses.replace(records[0], label_bits=tuple(bits))
    with pytest.raises(TeacherDataError, match="do not replay"):
        episodes_from_records([tampered], corpus, spec)
    with pytest.raises(TeacherDataError, match="do not replay"):
        fit_spec_from_records([records[1], tampered], corpus)
