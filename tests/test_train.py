import numpy as np
import pytest

from ratelab import simenc
from ratelab.policy import (
    TrainConfig,
    TrainingDiverged,
    episodes_from_records,
    fit_spec_from_records,
    forward,
    her_relabel,
    load_checkpoint,
    save_checkpoint,
    top_k_coverage,
    train,
)
from ratelab.policy.network import PolicyParams, arch_from_preset
from ratelab.policy.rollout import PolicyRunner
from ratelab.inference import truncated_sample
from ratelab.teacher import EsConfig, TeacherConfig, build_teacher_dataset

from conftest import FAST_CONFIG


@pytest.fixture(scope="module")
def corpus():
    videos = simenc.generate_corpus(4, master_seed=17, config=FAST_CONFIG)
    return {v.video_id: v for v in videos}


@pytest.fixture(scope="module")
def records(corpus):
    cfg = TeacherConfig(
        bitrates_per_video=2,
        es=EsConfig(max_steps=8),
        seed=23,
    )
    return build_teacher_dataset(list(corpus.values()), cfg)


@pytest.fixture(scope="module")
def spec(records, corpus):
    return fit_spec_from_records(records, corpus, seed=1)


@pytest.fixture(scope="module")
def episodes(records, corpus, spec):
    return episodes_from_records(records, corpus, spec)


def test_single_episode_overfit(episodes, spec):
    config = TrainConfig(
        epochs=200, batch_size=1, learning_rate=3e-4, dropout=False, seed=4, preset="tiny"
    )
    result = train(episodes[:1], spec, config)
    losses = [row["L_QP"] + 2 * row["L_frame_bits"] + 2 * row["L_total_bits"] for row in result.log_rows]
    assert len(losses) == 200
    # Strictly decreasing up to plateaus of at most 10 consecutive steps.
    best = losses[0]
    stall = 0
    worst_stall = 0
    for value in losses[1:]:
        if value < best:
            best = value
            stall = 0
        else:
            stall += 1
            worst_stall = max(worst_stall, stall)
    assert worst_stall <= 10
    assert losses[-1] < losses[0] * 0.7


def test_training_deterministic(episodes, spec, tmp_path):
    config = TrainConfig(epochs=3, batch_size=4, seed=11, preset="tiny")
    a = train(episodes, spec, config)
    b = train(episodes, spec, config)
    for name, t in a.params.items():
        assert np.array_equal(t.data, b.params.tensors[name].data)
    assert a.log_rows == b.log_rows


def test_training_log_columns(episodes, spec, tmp_path):
    path = tmp_path / "log.csv"
    config = TrainConfig(epochs=1, batch_size=4, seed=1, preset="tiny")
    train(episodes, spec, config, log_path=path)
    header = path.read_text().splitlines()[0]
    assert header == "step,L_QP,L_frame_bits,L_total_bits,top1,top15"


def test_divergence_detected(episodes, spec):
    import dataclasses

    poisoned = [dataclasses.replace(episodes[0], budget_kbit=float("inf"))]
    config = TrainConfig(epochs=1, batch_size=1, seed=0, preset="tiny")
    with pytest.raises(TrainingDiverged):
        train(poisoned, spec, config)


def test_empty_dataset_rejected(spec):
    with pytest.raises(ValueError):
        train([], spec, TrainConfig())


def test_checkpoint_roundtrip_bitwise(episodes, spec, tmp_path, rng):
    config = TrainConfig(epochs=2, batch_size=4, seed=7, preset="tiny")
    result = train(episodes, spec, config)
    ep = episodes[0]
    before = forward(result.params, ep.first_pass_norm, ep.bundles).logits.data.copy()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, result.params, spec, config)
    params2, spec2, config2 = load_checkpoint(path)
    after = forward(params2, ep.first_pass_norm, ep.bundles).logits.data
    assert np.array_equal(before, after)
    assert config2 == config
    assert np.array_equal(spec2.qp_embedding, spec.qp_embedding)


def test_checkpoint_schema_guard(tmp_path, episodes, spec):
    from ratelab.io import SchemaError
    import json

    config = TrainConfig(epochs=1, batch_size=4, seed=7, preset="tiny")
    result = train(episodes[:1], spec, config)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, result.params, spec, config)
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["schema"] = "policy.v999"
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    bad = tmp_path / "bad.npz"
    with bad.open("wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(SchemaError):
        load_checkpoint(bad)


def test_loads_checkpoint_with_removed_settings_and_key_bias(tmp_path, spec):
    """Checkpoints saved before the Adam and learning-rate decay settings
    were removed, and before the key bias was dropped, still load."""
    import json

    config = TrainConfig(epochs=1, batch_size=4, seed=7, preset="tiny")
    params = PolicyParams(arch_from_preset("tiny", spec.bundle_dim), seed=4)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, spec, config)
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["train_config"].update(
        lr_decay=1.0, lr_decay_steps=100.0, adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8
    )
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    arrays["param/attn_bk"] = np.full(params["attn_wk"].data.shape[1], 0.25)
    old = tmp_path / "old.npz"
    with old.open("wb") as fh:
        np.savez(fh, **arrays)
    params2, _, config2 = load_checkpoint(old)
    assert config2 == config
    assert params2.tensors.keys() == params.tensors.keys()
    for name, tensor in params.items():
        assert np.array_equal(params2[name].data, tensor.data)


def test_coverage_metric_counts_topk(episodes, spec):
    config = TrainConfig(epochs=1, batch_size=4, seed=2, preset="tiny")
    result = train(episodes, spec, config)
    top1, top15 = top_k_coverage(result.params, episodes)
    assert 0.0 <= top1 <= top15 <= 1.0


# ---------------------------------------------------------------------------
# HER
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(episodes, spec):
    return train(episodes, spec, TrainConfig(epochs=4, batch_size=4, seed=3, preset="tiny"))


def test_her_relabels_to_achieved_bitrate(trained, corpus):
    videos = list(corpus.values())[:2]
    records = her_relabel(
        trained.params, trained.spec, videos, [[512.0], [400.0]], seed=5
    )
    assert len(records) == 2
    for rec in records:
        assert rec.provenance == "HER"
        assert rec.target_bitrate_kbps == rec.bitrate_kbps
        video = corpus[rec.video_id]
        # Budget residual of the relabeled episode is exactly zero.
        budget_kbit = rec.target_bitrate_kbps * video.duration
        assert sum(rec.label_bits) / 1000.0 == pytest.approx(budget_kbit, rel=1e-12)


def test_her_labels_replayable(trained, corpus):
    videos = list(corpus.values())[:1]
    rec = her_relabel(trained.params, trained.spec, videos, [[512.0]], seed=5)[0]
    video = corpus[rec.video_id]
    gop = simenc.plan_gop(video)
    replay = simenc.replay_qp_sequence(video, gop, rec.label_qps, rec.target_bitrate_kbps)
    assert replay.bits == rec.label_bits
    assert replay.psnr_db == rec.psnr_db
    assert replay.reward == rec.reward


def test_her_deterministic(trained, corpus):
    videos = list(corpus.values())[:2]
    a = her_relabel(trained.params, trained.spec, videos, [[512.0], [400.0]], seed=9)
    b = her_relabel(trained.params, trained.spec, videos, [[512.0], [400.0]], seed=9)
    assert a == b


def test_rollout_runner_qps_valid(trained, corpus):
    video = next(iter(corpus.values()))
    gop = simenc.plan_gop(video)
    rng = np.random.default_rng(0)
    runner = PolicyRunner(
        trained.params, trained.spec, sampler=lambda logits: truncated_sample(logits, rng)
    )
    trace = simenc.run_episode(video, gop, 512.0, runner)
    assert all(0 <= q <= 255 for q in trace.qps)
    assert len(runner.bits_predictions) == video.num_frames


def test_rollout_runs_past_relative_radius(trained):
    """A 300-frame video (longer than ``REL_RADIUS + 1``) rolls out in full."""
    config = simenc.VideoConfig(num_frames_min=300, num_frames_max=300)
    video = simenc.generate_video(8, config)
    rng = np.random.default_rng(0)
    runner = PolicyRunner(
        trained.params, trained.spec, sampler=lambda logits: truncated_sample(logits, rng)
    )
    trace = simenc.run_episode(video, simenc.plan_gop(video), 512.0, runner)
    assert len(trace.qps) == 300
    assert all(0 <= q <= 255 for q in trace.qps)
