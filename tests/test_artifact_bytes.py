"""Byte pins of the pipeline's first artifacts.

The corpus, the heuristic's traces and the ES teacher labels feed every
later stage, and teacher labels are verified by exact replay, so a refactor
of the encoder or its video representation must leave these bytes alone.
The digests were taken from the code as it stood before the video became
columnar; change them only with a change that means to change the bytes.
"""

import hashlib

import pytest

from ratelab import baseline, simenc, teacher

from conftest import FAST_CONFIG

CORPUS_SHA256 = "83dbd353a8d56eec7ab1fe92d0fd95db77d696f760932bd4ab1944fe6b56a41c"
BASELINE_TRACES_SHA256 = "c62a835cc49e66e8b26fdfe92c0dccc0a7c825d35212f93c8a89277930a5bd38"
TEACHER_SHA256 = "221fc06ad830c4cb837f57bf66feb5c260ecfd8a55488e5db0589246704de88e"


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


def test_teacher_dataset_bytes(tmp_path, videos):
    config = teacher.TeacherConfig(es=teacher.EsConfig(max_steps=2, batch_size=4))
    teacher.save_teacher_dataset(
        tmp_path / "teacher.jsonl", teacher.build_teacher_dataset(videos, config)
    )
    assert _sha256(tmp_path / "teacher.jsonl") == TEACHER_SHA256
