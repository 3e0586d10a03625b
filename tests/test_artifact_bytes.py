"""Byte pins of the pipeline's artifacts.

The corpus, the heuristic's traces and the ES teacher labels feed every
later stage, and teacher labels are verified by exact replay, so a refactor
of the encoder or its video representation must leave these bytes alone.
Those digests were taken from the code as it stood before the video became
columnar. The policy path's pins (a tiny-preset training log and checkpoint,
and a controlled rollout's traces, bounds and control events) were taken
from the code as it stood before the rollout and recurrent-core fast paths;
the checkpoint's was retaken when its metadata became ``policy.v2``, with
every parameter and spec array unchanged.
When attention dropout was removed, training became the deterministic pass
that ``dropout=False`` used to select, so the training log, checkpoint,
policy traces and control events were retaken from the code as it stood
just before, trained with ``dropout=False``: the log, traces and events are
the same bytes, and the checkpoint differs only in its ``policy.v3``
metadata. The corpus, heuristic-trace, teacher and bounds pins did not move.
When the envelope became the raw per-position quantiles in place of two
fitted log curves, the bounds file became ``bounds.v2``, which stores the
points, and the controlled rollout reads other bounds: the bounds, policy
trace and control-event pins were retaken then. The corpus, heuristic-trace,
teacher, training-log and checkpoint pins did not move.
Change a digest only with a change that means to change the bytes.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from ratelab import baseline, inference, simenc, teacher
from ratelab.policy import data
from ratelab.policy.train import TrainConfig, save_checkpoint, train, write_training_log

from helpers import FAST_CONFIG

CORPUS_SHA256 = "83dbd353a8d56eec7ab1fe92d0fd95db77d696f760932bd4ab1944fe6b56a41c"
BASELINE_TRACES_SHA256 = "c62a835cc49e66e8b26fdfe92c0dccc0a7c825d35212f93c8a89277930a5bd38"
TEACHER_SHA256 = "221fc06ad830c4cb837f57bf66feb5c260ecfd8a55488e5db0589246704de88e"
TRAIN_LOG_SHA256 = "8f932a69c0a6f3a8f763e3b6e75f07c57246108c41da66309deaf62b52c6e31a"
CHECKPOINT_SHA256 = "f46a25791c46304e829093c24999220d70893a67fb2adfbf7520b244a7a354bc"
POLICY_TRACES_SHA256 = "0e21febc0aa3b41890255f8f02f96b7a20c57073b12806956c446c9f1b3692ac"
BOUNDS_SHA256 = "976de838bcaec3914207845d8ae6a1b8858ec0c8b6eb8eb4b8c42cd32135aed4"
CONTROL_EVENTS_SHA256 = "23af71eb66132d440f3beb30531aa24508c1b1bb9e012095b463b4de03e14187"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def videos():
    return simenc.generate_corpus(3, 0, FAST_CONFIG)


def test_corpus_bytes(tmp_path, videos):
    simenc.save_corpus(tmp_path / "corpus.jsonl", videos)
    assert _sha256(tmp_path / "corpus.jsonl") == CORPUS_SHA256


def test_baseline_trace_bytes(tmp_path, videos):
    traces = [baseline.run_baseline(v, simenc.plan_gop(v), 512.0) for v in videos]
    simenc.save_traces(tmp_path / "traces.jsonl", traces)
    assert _sha256(tmp_path / "traces.jsonl") == BASELINE_TRACES_SHA256


@pytest.fixture(scope="module")
def records(videos):
    config = teacher.TeacherConfig(es=teacher.EsConfig(max_steps=2, batch_size=4))
    return teacher.build_teacher_dataset(videos, config)


@pytest.fixture(scope="module")
def trained(videos, records):
    corpus = {v.video_id: v for v in videos}
    spec = data.fit_spec_from_records(records, corpus)
    episodes = data.episodes_from_records(records, corpus, spec)
    config = TrainConfig(epochs=2, batch_size=2, preset="tiny")
    return train(episodes, spec, config)


def test_teacher_dataset_bytes(tmp_path, records):
    teacher.save_teacher_dataset(tmp_path / "teacher.jsonl", records)
    assert _sha256(tmp_path / "teacher.jsonl") == TEACHER_SHA256


def test_train_log_and_checkpoint_bytes(tmp_path, trained):
    write_training_log(tmp_path / "train_log.csv", trained.log_rows)
    save_checkpoint(tmp_path / "checkpoint.npz", trained.params, trained.spec, trained.config)
    assert _sha256(tmp_path / "train_log.csv") == TRAIN_LOG_SHA256
    assert _sha256(tmp_path / "checkpoint.npz") == CHECKPOINT_SHA256


def test_controlled_rollout_bytes(tmp_path, videos, trained):
    gops = [simenc.plan_gop(v) for v in videos]
    calibration = [baseline.run_baseline(v, g, 512.0) for v, g in zip(videos, gops)]
    bounds = inference.fit_bounds(calibration, 512.0, min_traces=len(calibration))
    traces, events = [], []
    for vi, (video, gop) in enumerate(zip(videos, gops)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, vi))))
        callback, controller = inference.controlled_policy(
            trained.params, trained.spec, bounds, rng, inference.FeedbackConfig(alpha=5.0)
        )
        traces.append(simenc.run_episode(video, gop, 512.0, callback))
        events.extend(dataclasses.asdict(e) for e in controller.events)
    # The pin covers steps the controller moved as well as steps it kept.
    assert 0 < sum(e["sampled_index"] != e["adjusted_index"] for e in events) < len(events)
    simenc.save_traces(tmp_path / "policy_traces.jsonl", traces)
    inference.save_bounds(tmp_path / "bounds.json", bounds)
    (tmp_path / "events.json").write_text(json.dumps(events))
    assert _sha256(tmp_path / "policy_traces.jsonl") == POLICY_TRACES_SHA256
    assert _sha256(tmp_path / "bounds.json") == BOUNDS_SHA256
    assert _sha256(tmp_path / "events.json") == CONTROL_EVENTS_SHA256
