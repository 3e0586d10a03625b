import json
import re

import numpy as np
import pytest

from ratelab import cli, simenc
from ratelab.io import SchemaError
from ratelab.policy import (
    TrainConfig,
    TrainingDiverged,
    episodes_from_records,
    fit_spec_from_records,
    forward,
    load_checkpoint,
    save_checkpoint,
    top_k_coverage,
    train,
)
from ratelab.policy.network import PolicyParams, arch_from_preset
from ratelab.policy.rollout import PolicyRunner
from ratelab.inference import truncated_sample
from ratelab.teacher import EsConfig, TeacherConfig, build_teacher_dataset

from helpers import FAST_CONFIG


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
    config = TrainConfig(epochs=200, batch_size=1, learning_rate=3e-4, seed=4, preset="tiny")
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


@pytest.mark.parametrize(
    "setting",
    [
        {"beta1_frame_bits": float("nan")},
        {"beta2_total_bits": float("inf")},
        {"learning_rate": float("nan")},
        {"learning_rate": 0.0},
    ],
    ids=["beta1-nan", "beta2-inf", "learning-rate-nan", "learning-rate-zero"],
)
def test_non_finite_setting_rejected(setting):
    with pytest.raises(ValueError, match="must be finite"):
        TrainConfig(**setting)


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


def _rewrite_checkpoint(src, dst, edit):
    """Copy a checkpoint to ``dst``, letting ``edit(meta, arrays)`` change it."""
    with np.load(src) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    edit(meta, arrays)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with dst.open("wb") as fh:
        np.savez(fh, **arrays)


def test_checkpoint_schema_guard(tmp_path, corpus, spec):
    path = tmp_path / "ckpt.npz"
    params = PolicyParams(arch_from_preset("tiny", spec.bundle_dim))
    save_checkpoint(path, params, spec, TrainConfig())
    corpus_file = tmp_path / "corpus.jsonl"
    simenc.save_corpus(corpus_file, list(corpus.values()))
    # A policy.v2 file, as written before attention dropout was removed,
    # still holds the setting in its train_config.
    older = {"policy.v1": {}, "policy.v2": {"dropout": True}, "policy.v999": {}}
    for schema, settings in older.items():

        def edit(meta, arrays, schema=schema, settings=settings):
            meta["schema"] = schema
            meta["train_config"].update(settings)

        bad = tmp_path / f"{schema}.npz"
        _rewrite_checkpoint(path, bad, edit)
        with pytest.raises(SchemaError):
            load_checkpoint(bad)
        argv = ["evaluate", "--corpus", str(corpus_file), "--checkpoint", str(bad)]
        assert cli.main([*argv, "--out", str(tmp_path / schema)]) == 4
        assert not (tmp_path / schema / "policy_traces.jsonl").exists()


def _meta(text: str) -> dict:
    return {"__meta__": np.frombuffer(text.encode(), dtype=np.uint8)}


@pytest.mark.parametrize(
    "edit, message",
    [
        (None, "pickled"),
        (lambda arrays: arrays.pop("__meta__"), "KeyError"),
        (lambda arrays: arrays.update(_meta("{not json")), "JSONDecodeError"),
        (lambda arrays: arrays.update(_meta('{"schema": "policy.v3"}')), "KeyError('train_config')"),
    ],
    ids=["text-file", "no-meta", "meta-not-json", "no-train-config"],
)
def test_a_file_that_is_not_a_checkpoint_is_refused(tmp_path, spec, edit, message):
    """A text file, an npz without ``__meta__``, metadata that is not JSON
    and metadata without ``train_config`` all raise ``SchemaError``."""
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, PolicyParams(arch_from_preset("tiny", spec.bundle_dim)), spec, TrainConfig())
    if edit is None:
        path.write_text("not a checkpoint\n")
    else:
        with np.load(path) as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
        edit(arrays)
        np.savez(path, **arrays)
    with pytest.raises(SchemaError, match=f"not a policy.v3 checkpoint: .*{re.escape(message)}"):
        load_checkpoint(path)


def test_checkpoint_refuses_stray_array_and_setting(tmp_path, spec):
    config = TrainConfig(epochs=1, batch_size=4, seed=7, preset="tiny")
    params = PolicyParams(arch_from_preset("tiny", spec.bundle_dim), seed=4)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, spec, config)
    key_bias = np.full(params["attn_wk"].data.shape[1], 0.25)

    def add_key_bias(meta, arrays):
        arrays["param/attn_bk"] = key_bias

    def add_setting(meta, arrays):
        meta["train_config"]["lr_decay"] = 1.0

    _rewrite_checkpoint(path, tmp_path / "array.npz", add_key_bias)
    with pytest.raises(SchemaError, match="attn_bk"):
        load_checkpoint(tmp_path / "array.npz")
    _rewrite_checkpoint(path, tmp_path / "setting.npz", add_setting)
    with pytest.raises(SchemaError, match="lr_decay"):
        load_checkpoint(tmp_path / "setting.npz")


def test_save_checkpoint_refuses_params_of_another_preset(tmp_path, spec):
    params = PolicyParams(arch_from_preset("paper", spec.bundle_dim))
    with pytest.raises(ValueError, match="preset 'tiny'"):
        save_checkpoint(tmp_path / "ckpt.npz", params, spec, TrainConfig(preset="tiny"))
    assert not (tmp_path / "ckpt.npz").exists()


def test_coverage_metric_counts_topk(episodes, spec):
    config = TrainConfig(epochs=1, batch_size=4, seed=2, preset="tiny")
    result = train(episodes, spec, config)
    top1, top15 = top_k_coverage(result.params, episodes)
    assert 0.0 <= top1 <= top15 <= 1.0


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(episodes, spec):
    return train(episodes, spec, TrainConfig(epochs=4, batch_size=4, seed=3, preset="tiny"))


def test_rollout_runner_qps_valid(trained, corpus):
    video = next(iter(corpus.values()))
    gop = simenc.plan_gop(video)
    rng = np.random.default_rng(0)
    runner = PolicyRunner(
        trained.params, trained.spec, sampler=lambda logits: truncated_sample(logits, rng)
    )
    trace = simenc.run_episode(video, gop, 512.0, runner)
    assert all(0 <= q <= 255 for q in trace.qps)


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
