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
When the first-pass matrix became a value derived from the latents, corpus
rows dropped their ``first_pass`` lists and the schema became
``simenc.v2``: the corpus pin was retaken then. The new file is the old one
with that key removed and the tag changed, byte for byte, and the derived
matrix equals the stored one, so no other pin moved.
When generation began drawing each scene's latents in one block of normals,
``LONG_CORPUS_SHA256`` was added, taken from the per-frame generator before
that change: its four 100-300-frame videos have 2 to 8 scenes each, where
the pipeline corpus's 40-60-frame videos have at most three.
When traces stopped storing their GOP plan's show flags and their frame
count (``trace.v2``) and teacher records their provenance (``teacher.v2``),
the heuristic-trace, teacher and policy-trace pins were retaken. Each new
file is the old one with those keys removed and the tag changed, byte for
byte, so no other pin moved.
When the bounds file became one row of the shared row codec (``bounds.v3``),
the bounds pin was retaken: the new file holds the same values under the
same keys, in field order on one line. When training's episode budget
became ``SyntheticVideo.budget_bits`` in kilobits, the budget floats moved
in their last digits, so the training-log and checkpoint pins were retaken;
the policy-trace and control-event pins did not move.
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

LONG_CORPUS_SHA256 = "0db79cae11deada680736f6a7548a224e437b98a501a98c9e13734fda3a51100"
CORPUS_SHA256 = "d32b99928e61247ac62e08fcd5a8e1903055542be97854b17fcfcf27328cbfbf"
BASELINE_TRACES_SHA256 = "e8f472c1e875e854ac886b98ceeec1ce93eba016d43a4c1c41627a8fb4bc0d20"
TEACHER_SHA256 = "e2ab61e53d4c8d87e94b8ab1856c2ab98bd8bd5f1ad660bb0e751cc34b678bc5"
TRAIN_LOG_SHA256 = "5cb83a10be18df70563f53a858b4fd9f630e73468fe7fc6cb92d463f87cc0357"
CHECKPOINT_SHA256 = "540400f1296f65387d96d76ea07de0dc46bff61c790971edfe6cdcb98cb16050"
POLICY_TRACES_SHA256 = "3c1cac44c80dfbbdd889cae55cb4c416e1ad2a91f0033ebe651da94eae1fd839"
BOUNDS_SHA256 = "8682d9148c383981b4e4b988f89c37cd6aa70fdf526c6268fdb8c96a3a6c13fe"
CONTROL_EVENTS_SHA256 = "23af71eb66132d440f3beb30531aa24508c1b1bb9e012095b463b4de03e14187"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def videos():
    return simenc.generate_corpus(3, 0, FAST_CONFIG)


def test_corpus_bytes(tmp_path, videos):
    simenc.save_corpus(tmp_path / "corpus.jsonl", videos)
    assert _sha256(tmp_path / "corpus.jsonl") == CORPUS_SHA256


def test_long_corpus_bytes(tmp_path):
    videos = simenc.generate_corpus(4, 0, simenc.VideoConfig(100, 300))
    simenc.save_corpus(tmp_path / "corpus.jsonl", videos)
    assert _sha256(tmp_path / "corpus.jsonl") == LONG_CORPUS_SHA256


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
