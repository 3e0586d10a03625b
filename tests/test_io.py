"""The row codec that traces and teacher records share: ``io.write_rows`` and
``io.read_rows`` write a flat dataclass's fields in order and read back
exactly those keys, or refuse the row with a ``SchemaError``, as
``io.read_jsonl`` refuses a line that is not a JSON object."""

import json

import pytest

from ratelab import baseline, simenc, teacher
from ratelab.io import SchemaError, write_jsonl


@pytest.fixture(scope="module")
def traces(video, gop):
    assert not all(gop.show)  # a hidden alternate reference is in the plan
    return [baseline.run_baseline(video, gop, target) for target in (256.0, 768.0)]


@pytest.fixture(scope="module")
def records(video):
    config = teacher.TeacherConfig(bitrates_per_video=2, es=teacher.EsConfig(max_steps=2))
    return teacher.build_teacher_dataset([video], config)


ARTIFACTS = {
    "trace": (simenc.save_traces, simenc.load_traces, "traces"),
    "teacher": (teacher.save_teacher_dataset, teacher.load_teacher_dataset, "records"),
}


def _rows(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("kind", ARTIFACTS)
def test_save_load_save_is_byte_identical(tmp_path, request, kind):
    save, load, fixture = ARTIFACTS[kind]
    items = request.getfixturevalue(fixture)
    save(tmp_path / "a.jsonl", items)
    loaded = load(tmp_path / "a.jsonl")
    assert loaded == items
    save(tmp_path / "b.jsonl", loaded)
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()


# What a v1 row held beyond a v2 row's keys.
V1_KEYS = {"trace": {"num_frames": 2, "show": [1, 0]}, "teacher": {"provenance": "ES"}}


@pytest.mark.parametrize("kind", ARTIFACTS)
def test_a_v1_file_is_refused(tmp_path, request, kind):
    """``trace.v1`` rows also stored the frame count and the plan's show
    flags, and ``teacher.v1`` rows a provenance: both tags are refused."""
    save, load, fixture = ARTIFACTS[kind]
    path = tmp_path / "rows.jsonl"
    save(path, request.getfixturevalue(fixture))
    rows = [{k: v for k, v in row.items() if k != "schema"} for row in _rows(path)]
    write_jsonl(path, (row | V1_KEYS[kind] for row in rows), f"{kind}.v1")
    with pytest.raises(SchemaError, match=f"expected schema '{kind}.v2', found '{kind}.v1'"):
        load(path)


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("trace", lambda row: row.update(show=[1]), r"row 2 .*missing keys \[\], extra keys \['show'\]"),
        ("trace", lambda row: row.pop("mse"), r"row 2 .*missing keys \['mse'\], extra keys \[\]"),
        ("teacher", lambda row: row.update(provenance="ES"), r"extra keys \['provenance'\]"),
        (
            "teacher",
            lambda row: row.update(label=row.pop("label_qps")),
            r"missing keys \['label_qps'\], extra keys \['label'\]",
        ),
    ],
    ids=["trace-extra", "trace-missing", "teacher-extra", "teacher-renamed"],
)
def test_a_row_whose_keys_are_not_the_fields_is_refused(tmp_path, request, kind, edit, message):
    save, load, fixture = ARTIFACTS[kind]
    path = tmp_path / "rows.jsonl"
    save(path, request.getfixturevalue(fixture))
    rows = _rows(path)
    edit(rows[1])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(SchemaError, match=message):
        load(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: "[1, 2]\n", r"rows.jsonl:1: not a JSON object: '\[1, 2\]'"),
        (lambda text: text[: len(text) * 3 // 4], r"rows.jsonl:2: not a JSON object: '\{"),
    ],
    ids=["a-list", "a-truncated-row"],
)
def test_a_line_that_is_not_a_json_object_is_refused(tmp_path, traces, edit, message):
    path = tmp_path / "rows.jsonl"
    simenc.save_traces(path, traces)
    path.write_text(edit(path.read_text()))
    with pytest.raises(SchemaError, match=message):
        simenc.load_traces(path)


def test_a_record_with_its_own_schema_key_is_refused(tmp_path):
    """The tag argument is the only tag: a record that carries another one
    raises ``ValueError`` and leaves no file behind."""
    path = tmp_path / "rows.jsonl"
    with pytest.raises(ValueError, match="record 2 has its own schema key"):
        write_jsonl(path, [{"a": 1}, {"schema": "trace.v2", "a": 2}], "trace.v1")
    assert not path.exists()
