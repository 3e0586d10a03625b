import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratelab import baseline, cli, inference, metrics, simenc, teacher
from ratelab.io import write_jsonl
from ratelab.policy import TrainConfig, save_checkpoint

from helpers import FAST_CONFIG, tiny_policy
from test_artifact_bytes import BOUNDS_SHA256


def run(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert (
        run(
            [
                "gen-videos",
                "--count",
                "3",
                "--seed",
                "7",
                "--frames-min",
                "40",
                "--frames-max",
                "50",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    return out


def test_gen_videos_reproducible(tmp_path, corpus_dir):
    again = tmp_path / "again"
    assert (
        run(
            [
                "gen-videos",
                "--count",
                "3",
                "--seed",
                "7",
                "--frames-min",
                "40",
                "--frames-max",
                "50",
                "--out",
                str(again),
            ]
        )
        == 0
    )
    assert (again / "corpus.jsonl").read_bytes() == (corpus_dir / "corpus.jsonl").read_bytes()


def test_manifest_written(corpus_dir):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert manifest["schema"] == "manifest.v1"
    assert manifest["command"] == "gen-videos"
    assert manifest["config"]["seed"] == 7
    assert len(manifest["config_sha256"]) == 64


def test_evaluate_baseline_self_comparison(tmp_path, corpus_dir):
    out = tmp_path / "selfeval"
    assert (
        run(
            [
                "evaluate",
                "--corpus",
                str(corpus_dir / "corpus.jsonl"),
                "--target",
                "512",
                "--anchors",
                "0.75,1.0,1.25",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    summary = json.loads((out / "summary.json").read_text())
    # Baseline evaluated against its own anchored curve: zero projected diff.
    assert abs(summary["median_proj_bitrate_diff_pct"]) < 1e-9
    assert abs(summary["median_proj_psnr_diff_db"]) < 1e-9
    assert summary["n_projected"] == summary["n_videos"] == 3
    rows = metrics.read_suite_csv(out / "eval.csv")
    assert len(rows) == 3


def test_build_dataset_and_workers_match(tmp_path, corpus_dir):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base_args = [
        "build-dataset",
        "--corpus",
        str(corpus_dir / "corpus.jsonl"),
        "--per-video",
        "1",
        "--steps",
        "3",
        "--seed",
        "5",
    ]
    assert run(base_args + ["--workers", "1", "--out", str(serial)]) == 0
    assert run(base_args + ["--workers", "2", "--out", str(parallel)]) == 0
    assert (serial / "teacher.jsonl").read_bytes() == (parallel / "teacher.jsonl").read_bytes()
    records = teacher.load_teacher_dataset(serial / "teacher.jsonl")
    assert len(records) == 3


def test_build_dataset_matches_library(tmp_path, corpus_dir):
    """The subcommand and ``teacher.build_teacher_dataset`` seed ES tasks alike."""
    out = tmp_path / "cli"
    args = [
        "build-dataset",
        "--corpus",
        str(corpus_dir / "corpus.jsonl"),
        "--per-video",
        "2",
        "--steps",
        "2",
        "--seed",
        "9",
        "--out",
        str(out),
    ]
    assert run(args) == 0
    config = teacher.TeacherConfig(
        bitrates_per_video=2, es=teacher.EsConfig(max_steps=2), seed=9
    )
    videos = simenc.load_corpus(corpus_dir / "corpus.jsonl")
    expected = teacher.build_teacher_dataset(videos, config)
    assert teacher.load_teacher_dataset(out / "teacher.jsonl") == expected


@pytest.mark.parametrize(
    "argv",
    [
        "build-dataset --corpus c --gop-interval",
        "build-dataset --corpus c --reward-lambda",
        "train --corpus c --dataset d --gop-interval",
        "train --corpus c --dataset d --lr-decay",
        "train --corpus c --dataset d --no-dropout",
        "fit-bounds --corpus c --traces",
        "evaluate --corpus c --gop-interval",
        "evaluate --corpus c --within-pct",
    ],
)
def test_removed_flags_exit_code(tmp_path, capsys, argv):
    # Every required flag is given, so the removed one, last, is the only error.
    with pytest.raises(SystemExit) as exc:
        run([*argv.split(), "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv.split()[-1]} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-es", "her-refine", "run-baseline"])
def test_removed_subcommands_exit_code(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--corpus", "c", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_pipeline_runs_every_stage_on_earlier_artifacts(tmp_path):
    """gen-videos -> build-dataset -> train -> fit-bounds -> evaluate ->
    report, at toy size."""
    corpus, dataset, trained, bounds, evaluated, reported = (
        tmp_path / name for name in ("corpus", "dataset", "train", "bounds", "eval", "report")
    )
    corpus_file = str(corpus / "corpus.jsonl")
    stages = [
        ["gen-videos", "--count", "3", "--frames-min", "40", "--frames-max", "50",
         "--out", str(corpus)],
        ["build-dataset", "--corpus", corpus_file, "--steps", "2", "--per-video", "2",
         "--out", str(dataset)],
        ["train", "--corpus", corpus_file, "--dataset", str(dataset / "teacher.jsonl"),
         "--epochs", "1", "--out", str(trained)],
        ["fit-bounds", "--corpus", corpus_file, "--min-traces", "3", "--out", str(bounds)],
        ["evaluate", "--corpus", corpus_file, "--checkpoint", str(trained / "checkpoint.npz"),
         "--bounds", str(bounds / "bounds.json"), "--out", str(evaluated)],
        ["report", "--inputs", f"policy={evaluated / 'eval.csv'}", "--out", str(reported)],
    ]
    # The pipeline is every subcommand the parser offers, each once.
    assert sorted(argv[0] for argv in stages) == sorted(cli.build_parser()[1])
    for argv in stages:
        assert run(argv) == 0, argv[0]
        manifest = json.loads((Path(argv[-1]) / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
    assert len(teacher.load_teacher_dataset(dataset / "teacher.jsonl")) == 6
    assert len((trained / "train_log.csv").read_text().splitlines()) > 1
    assert json.loads((evaluated / "summary.json").read_text())["n_videos"] == 3
    assert "evaluation report (policy, 3 videos" in (reported / "summary.txt").read_text()


@pytest.mark.parametrize(
    "argv, artifact",
    [
        ("evaluate --target inf", "policy_traces.jsonl"),
        ("evaluate --anchors 1,inf", "policy_traces.jsonl"),
        ("fit-bounds --target inf", "bounds.json"),
        ("build-dataset --bitrate-range 256,inf", "teacher.jsonl"),
        ("evaluate --alpha nan", "policy_traces.jsonl"),
        ("evaluate --alpha inf", "policy_traces.jsonl"),
        ("build-dataset --steps 2 --alpha inf", "teacher.jsonl"),
        ("build-dataset --steps 2 --alpha nan", "teacher.jsonl"),
        ("build-dataset --steps 2 --sigma nan", "teacher.jsonl"),
    ],
)
def test_non_finite_input_refused_before_any_artifact(tmp_path, capsys, corpus_dir, argv, artifact):
    command, *flags = argv.split()
    corpus = str(corpus_dir / "corpus.jsonl")
    assert run([command, "--corpus", corpus, *flags, "--out", str(tmp_path)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / artifact).exists()
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv, artifact",
    [
        ("build-dataset --bitrate-range 512", "teacher.jsonl"),
        ("fit-bounds --quantiles 0.1", "bounds.json"),
        ("evaluate --anchors 1,x", "policy_traces.jsonl"),
        ("evaluate --anchors ,", "policy_traces.jsonl"),
    ],
)
def test_number_lists_refused_before_any_artifact(tmp_path, capsys, corpus_dir, argv, artifact):
    command, flag, value = argv.split()
    corpus = str(corpus_dir / "corpus.jsonl")
    with pytest.raises(SystemExit) as exc:
        run([command, "--corpus", corpus, flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: {value!r}" in capsys.readouterr().err
    assert not (tmp_path / artifact).exists()
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["gen-videos", "build-dataset", "train", "evaluate"])
def test_negative_seed_refused_before_any_input(
    tmp_path, capsys, corpus_dir, dataset_file, command, source
):
    """numpy refuses a negative seed; the flag refuses it first, with exit 2,
    before the corpus is read or an encode runs."""
    inputs = {
        "gen-videos": [],
        "build-dataset": ["--corpus", str(corpus_dir / "corpus.jsonl")],
        "train": ["--corpus", str(corpus_dir / "corpus.jsonl"), "--dataset", str(dataset_file)],
        "evaluate": ["--corpus", str(corpus_dir / "corpus.jsonl")],
    }[command]
    out = tmp_path / "out"
    argv = [command, *inputs, "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "lab.ini"
        cfg.write_text(f"[{command}]\nseed = -1\n")
        assert run(["--config", str(cfg), *argv]) == 2
    else:
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--seed", "-1"])
        assert exc.value.code == 2
    assert "'-1': expected an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, value, low", [("steps", "-3", 0), ("workers", "-4", 1),
                                              ("workers", "0", 1)])
def test_build_dataset_counts_refused_before_any_input(
    tmp_path, capsys, corpus_dir, monkeypatch, flag, value, low, source
):
    """``--steps -3`` ran no ES step and wrote the heuristic's QPs as ES
    labels, and ``--workers -4`` ran serial; each now exits 2 before the
    corpus is read."""
    def no_read(*args, **kwargs):
        raise AssertionError("read the corpus")

    monkeypatch.setattr(simenc, "load_corpus", no_read)
    out = tmp_path / "out"
    argv = ["build-dataset", "--corpus", str(corpus_dir / "corpus.jsonl"), "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "lab.ini"
        cfg.write_text(f"[build-dataset]\n{flag} = {value}\n")
        assert run(["--config", str(cfg), *argv]) == 2
    else:
        with pytest.raises(SystemExit) as exc:
            run([*argv, f"--{flag}", value])
        assert exc.value.code == 2
    assert f"{value!r}: expected an integer >= {low}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-videos", "--count", "0"], "count must be >= 1"),
        (["gen-videos", "--frames-min", "1"], "num_frames_min must be >= 2"),
        (["gen-videos", "--width", "8"], "at least one 16x16 block"),
        (["build-dataset", "--batch", "3"], "batch_size must be even"),
        (["build-dataset", "--per-video", "0"], "bitrates_per_video must be >= 1"),
        (["build-dataset", "--sigma", "-1"], "sigma must be finite and > 0"),
        (["build-dataset", "--bitrate-range", "5,1"], "bitrate range must be positive"),
        (["evaluate", "--alpha", "-1"], "alpha must be finite and >= 0"),
        (["evaluate", "--target", "-5"], "--target must be finite and > 0, got -5"),
        (["evaluate", "--target", "nan"], "--target must be finite and > 0, got nan"),
        (["evaluate", "--anchors=-1,2"], "--anchors must be finite and > 0, got -1,2"),
        (["evaluate", "--anchors=0,1"], "--anchors must be finite and > 0, got 0,1"),
        (["fit-bounds", "--target", "-5"], "--target must be finite and > 0, got -5"),
        (["fit-bounds", "--target", "0"], "--target must be finite and > 0, got 0"),
        (["fit-bounds", "--target", "inf"], "--target must be finite and > 0, got inf"),
        (["fit-bounds", "--quantiles=0.9,0.1"], "--quantiles must satisfy 0 <= lo < hi <= 1"),
        (["fit-bounds", "--quantiles=-1,2"], "--quantiles must satisfy 0 <= lo < hi <= 1"),
        (["fit-bounds", "--quantiles=nan,1"], "--quantiles must satisfy 0 <= lo < hi <= 1"),
        (
            ["evaluate", "--target", "1e308", "--anchors", "2,3"],
            "--target * --anchors must be finite and > 0, got inf,inf",
        ),
        (["evaluate", "--bounds", "b.json"], "--bounds controls a policy: it needs --checkpoint"),
    ],
)
def test_config_errors_exit_before_any_output_or_input(
    tmp_path, capsys, corpus_dir, monkeypatch, argv, message
):
    """Each subcommand builds its config and checks its targets, their
    products with the anchors, its quantiles and ``evaluate``'s ``--bounds``
    without ``--checkpoint`` first: a value it refuses exits 1 with a
    message that names the setting before ``--out`` is created or the
    corpus is read."""
    def no_read(*args, **kwargs):
        raise AssertionError("read the corpus")

    monkeypatch.setattr(simenc, "load_corpus", no_read)
    out = tmp_path / "out"
    corpus = [] if argv[0] == "gen-videos" else ["--corpus", str(corpus_dir / "corpus.jsonl")]
    assert run([*argv, *corpus, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


SCIPY_PROBE = """
import json, sys
from ratelab import cli
seen = {"import": "scipy.optimize" in sys.modules}
corpus, checkpoint, videos, bounds, evaluated = sys.argv[1:]
for name, argv in (
    ("gen-videos", ["gen-videos", "--count", "3", "--frames-min", "40", "--frames-max", "50",
                    "--out", videos]),
    ("fit-bounds", ["fit-bounds", "--corpus", corpus, "--min-traces", "3", "--out", bounds]),
    ("evaluate", ["evaluate", "--corpus", corpus, "--checkpoint", checkpoint,
                  "--bounds", bounds + "/bounds.json", "--anchors", "0.75,1.25",
                  "--out", evaluated]),
):
    assert cli.main(argv) == 0, name
    seen[name] = "scipy.optimize" in sys.modules
print(json.dumps(seen))
"""


def test_no_stage_loads_scipy(tmp_path, corpus_dir):
    """The envelope is the traces' raw quantiles, so no stage, not even
    ``fit-bounds`` or a controlled ``evaluate``, imports scipy's optimizers."""
    checkpoint = tmp_path / "checkpoint.npz"
    params, spec = tiny_policy(simenc.load_corpus(corpus_dir / "corpus.jsonl"))
    save_checkpoint(checkpoint, params, spec, TrainConfig())
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    dirs = [str(tmp_path / name) for name in ("videos", "bounds", "evaluated")]
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(corpus_dir / "corpus.jsonl"), str(checkpoint),
         *dirs],
        env=env, capture_output=True, text=True, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == dict.fromkeys(
        ("import", "gen-videos", "fit-bounds", "evaluate"), False
    )
    assert inference.load_bounds(tmp_path / "bounds" / "bounds.json").target_bitrate_kbps == 512.0
    assert (tmp_path / "evaluated" / "policy_traces.jsonl").exists()


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("dataset")
    corpus = str(corpus_dir / "corpus.jsonl")
    argv = ["build-dataset", "--corpus", corpus, "--steps", "2", "--per-video", "1"]
    assert run([*argv, "--out", str(out)]) == 0
    return out / "teacher.jsonl"


@pytest.mark.parametrize("flags", ["--learning-rate nan", "--learning-rate inf"])
def test_train_refuses_non_finite_settings_before_any_artifact(
    tmp_path, capsys, corpus_dir, dataset_file, flags
):
    corpus = str(corpus_dir / "corpus.jsonl")
    argv = ["train", "--corpus", corpus, "--dataset", str(dataset_file), "--epochs", "1"]
    assert run([*argv, *flags.split(), "--out", str(tmp_path)]) == 1
    assert "finite" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == []


def test_write_jsonl_refuses_nan(tmp_path):
    path = tmp_path / "rows.jsonl"
    with pytest.raises(ValueError):
        write_jsonl(path, [{"x": 1.0}, {"x": float("nan")}], "test.v1")
    assert not path.exists()


def test_evaluate_reports_a_collapsed_anchor_curve_as_unprojected(tmp_path, corpus_dir):
    """At 16x16 and 0.5 fps every anchor clamps at one QP, so that video's
    reference curve is one RD point; the others still project."""
    tiny = tmp_path / "tiny"
    gen = [
        "gen-videos", "--count", "1", "--seed", "8", "--width", "16", "--height", "16",
        "--frame-rate", "0.5", "--frames-min", "20", "--frames-max", "30",
    ]
    assert run([*gen, "--out", str(tiny)]) == 0
    corpus = tmp_path / "mixed.jsonl"
    corpus.write_text(
        (corpus_dir / "corpus.jsonl").read_text() + (tiny / "corpus.jsonl").read_text()
    )
    out = tmp_path / "eval"
    assert run(["evaluate", "--corpus", str(corpus), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_videos"] == 4
    assert summary["n_projected"] == 3
    rows = metrics.read_suite_csv(out / "eval.csv")
    (collapsed,) = simenc.load_corpus(tiny / "corpus.jsonl")
    assert [r.video_id for r in rows if math.isnan(r.proj_bitrate_diff_pct)] == [
        collapsed.video_id
    ]


@pytest.fixture(scope="module")
def bounds_640(tmp_path_factory, corpus_dir):
    """Bounds that ``fit-bounds`` fits on the corpus's 640 kbps baseline traces."""
    out = tmp_path_factory.mktemp("bounds")
    argv = ["fit-bounds", "--corpus", str(corpus_dir / "corpus.jsonl"), "--target", "640"]
    assert run([*argv, "--min-traces", "3", "--out", str(out)]) == 0
    return out / "bounds.json"


def test_fit_bounds_reads_its_target_from_the_traces(bounds_640):
    """The bounds carry the target of the traces they were fitted on: the
    heuristic's, encoded at ``--target``."""
    assert inference.load_bounds(bounds_640).target_bitrate_kbps == 640.0


def test_fit_bounds_writes_the_pinned_bounds(tmp_path):
    """``fit-bounds`` encodes the corpus with the heuristic in memory and
    writes the bounds that ``inference.fit_bounds`` gives on those traces,
    byte for byte as when the traces came from a file."""
    corpus = tmp_path / "corpus.jsonl"
    simenc.save_corpus(corpus, simenc.generate_corpus(3, 0, FAST_CONFIG))
    out = tmp_path / "out"
    assert run(["fit-bounds", "--corpus", str(corpus), "--min-traces", "3", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "bounds.json").read_bytes()).hexdigest() == BOUNDS_SHA256


@pytest.mark.parametrize("source", ["flag", "config"])
def test_fit_bounds_min_traces_refused_before_any_input(
    tmp_path, capsys, corpus_dir, monkeypatch, source
):
    """An envelope needs one trace at least: ``--min-traces`` below 1 exits 2
    before ``--out`` is created or the corpus is read."""
    def no_read(*args, **kwargs):
        raise AssertionError("read the corpus")

    monkeypatch.setattr(simenc, "load_corpus", no_read)
    out = tmp_path / "out"
    argv = ["fit-bounds", "--corpus", str(corpus_dir / "corpus.jsonl"), "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "lab.ini"
        cfg.write_text("[fit-bounds]\nmin_traces = 0\n")
        assert run(["--config", str(cfg), *argv]) == 2
    else:
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--min-traces", "0"])
        assert exc.value.code == 2
    assert "'0': expected an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_rejects_bounds_without_checkpoint(tmp_path, capsys, corpus_dir, bounds_640):
    corpus = str(corpus_dir / "corpus.jsonl")
    args = ["evaluate", "--corpus", corpus, "--bounds", str(bounds_640), "--target", "640"]
    assert run([*args, "--out", str(tmp_path)]) == 1
    assert "IncompatibleInputError" in capsys.readouterr().err
    assert not (tmp_path / "policy_traces.jsonl").exists()


def test_evaluate_rejects_bounds_at_another_target(tmp_path, capsys, corpus_dir, bounds_640):
    videos = simenc.load_corpus(corpus_dir / "corpus.jsonl")
    checkpoint = tmp_path / "checkpoint.npz"
    params, spec = tiny_policy(videos)
    save_checkpoint(checkpoint, params, spec, TrainConfig())
    args = [
        "evaluate", "--corpus", str(corpus_dir / "corpus.jsonl"), "--checkpoint",
        str(checkpoint), "--bounds", str(bounds_640), "--anchors", "0.75,1.25",
    ]
    assert run([*args, "--target", "640", "--out", str(tmp_path / "at640")]) == 0
    capsys.readouterr()
    assert run([*args, "--target", "768", "--out", str(tmp_path / "at768")]) == 1
    assert "IncompatibleInputError" in capsys.readouterr().err
    assert not (tmp_path / "at768" / "policy_traces.jsonl").exists()


CURVE = {"a1": 0.0, "a2": 1.0, "a3": 1.0, "a4": 512.0, "a5": 0.0}
HALF_LINE = [512.0 * k / 49 for k in range(50)]


@pytest.mark.parametrize(
    "schema, lower, upper, message",
    [
        ("bounds.v1", {**CURVE, "a4": 480.0}, {**CURVE, "a4": 540.0}, "expected schema 'bounds.v2'"),
        ("bounds.v2", HALF_LINE, [x + 1.0 for x in HALF_LINE], "must hold 101 points"),
    ],
    ids=["v1-curves", "v2-50-points"],
)
def test_evaluate_refuses_unreadable_bounds_before_any_encode(
    tmp_path, capsys, corpus_dir, monkeypatch, schema, lower, upper, message
):
    """A ``bounds.v1`` file holds log-curve coefficients, which nothing reads
    any more, and a ``bounds.v2`` file must hold the whole grid: ``evaluate``
    exits 4 on either before it encodes a frame."""
    videos = simenc.load_corpus(corpus_dir / "corpus.jsonl")
    checkpoint = tmp_path / "checkpoint.npz"
    params, spec = tiny_policy(videos)
    save_checkpoint(checkpoint, params, spec, TrainConfig())
    doc = {"schema": schema, "target_bitrate_kbps": 512.0, "quantiles": [0.025, 0.975],
           "lower": lower, "upper": upper}
    (tmp_path / "bounds.json").write_text(json.dumps(doc))

    def no_encode(*args, **kwargs):
        raise AssertionError("encoded before the bounds were read")

    # The anchors and the rollouts all run through the one episode loop.
    monkeypatch.setattr(simenc, "encode_episode", no_encode)
    args = ["evaluate", "--corpus", str(corpus_dir / "corpus.jsonl"), "--checkpoint",
            str(checkpoint), "--bounds", str(tmp_path / "bounds.json")]
    assert run([*args, "--out", str(tmp_path / "out")]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "policy_traces.jsonl").exists()


@pytest.fixture(scope="module")
def v1_corpus(tmp_path_factory, corpus_dir):
    """``corpus_dir``'s corpus as a ``simenc.v1`` file, which stored each
    frame's first-pass statistics beside its latents."""
    videos = simenc.load_corpus(corpus_dir / "corpus.jsonl")
    rows = [json.loads(line) for line in (corpus_dir / "corpus.jsonl").read_text().splitlines()]
    v1_rows = (
        {**{k: v for k, v in row.items() if k != "schema"}, "first_pass": video.first_pass.tolist()}
        for row, video in zip(rows, videos)
    )
    path = tmp_path_factory.mktemp("v1") / "corpus.jsonl"
    write_jsonl(path, v1_rows, "simenc.v1")
    return path


def test_build_dataset_refuses_a_v1_corpus_before_any_encode(
    tmp_path, capsys, v1_corpus, monkeypatch
):
    """A ``simenc.v1`` corpus stored each frame's first-pass statistics
    beside its latents, where they could disagree. They are derived now, and
    ``build-dataset`` exits 4 on such a file before it encodes a frame."""

    def no_encode(*args, **kwargs):
        raise AssertionError("encoded before the corpus was read")

    # The heuristic runs through the episode loop, ES through the ranking form.
    monkeypatch.setattr(simenc, "encode_episode", no_encode)
    monkeypatch.setattr(simenc, "ranking_rewards", no_encode)
    args = ["build-dataset", "--corpus", str(v1_corpus)]
    assert run([*args, "--out", str(tmp_path / "out")]) == 4
    assert "expected schema 'simenc.v2', found 'simenc.v1'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "teacher.jsonl").exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("build-dataset --corpus {v1}", 4, "found 'simenc.v1'"),
        ("train --corpus {v1} --dataset {dataset}", 4, "found 'simenc.v1'"),
        ("fit-bounds --corpus {v1}", 4, "found 'simenc.v1'"),
        ("evaluate --corpus {v1}", 4, "found 'simenc.v1'"),
        ("report --inputs {tmp}/missing.csv", 3, "missing.csv"),
        ("train --corpus {tmp}/list.jsonl --dataset {dataset}", 4, "list.jsonl:1: not a JSON object"),
    ],
    ids=["build-dataset", "train", "fit-bounds", "evaluate", "report", "train-not-an-object"],
)
def test_a_refused_input_leaves_no_output_directory(
    tmp_path, capsys, v1_corpus, dataset_file, argv, code, message
):
    """Each stage reads and checks its inputs before it creates ``--out``:
    a corpus of another schema or with a line that is not a JSON object
    exits 4, a missing input 3, and none leaves an output directory behind."""
    (tmp_path / "list.jsonl").write_text("[1, 2]\n")
    out = tmp_path / "out"
    args = argv.format(v1=v1_corpus, dataset=dataset_file, tmp=tmp_path).split()
    assert run([*args, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_a_v1_dataset_before_any_output(tmp_path, capsys, corpus_dir, dataset_file):
    """``teacher.v1`` rows carried a provenance, always "ES": ``train`` exits
    4 on such a dataset without creating ``--out``."""
    rows = [json.loads(line) for line in dataset_file.read_text().splitlines()]
    v1_rows = ({**row, "provenance": "ES", "schema": "teacher.v1"} for row in rows)
    (tmp_path / "teacher.jsonl").write_text("".join(json.dumps(row) + "\n" for row in v1_rows))
    out = tmp_path / "out"
    argv = ["train", "--corpus", str(corpus_dir / "corpus.jsonl")]
    assert run([*argv, "--dataset", str(tmp_path / "teacher.jsonl"), "--out", str(out)]) == 4
    assert "expected schema 'teacher.v2', found 'teacher.v1'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_exit_code(tmp_path):
    assert run(["fit-bounds", "--corpus", "nope.jsonl", "--out", str(tmp_path)]) == 3


def test_schema_mismatch_exit_code(tmp_path, corpus_dir):
    video = simenc.load_corpus(corpus_dir / "corpus.jsonl")[0]
    traces = tmp_path / "traces.jsonl"
    simenc.save_traces(traces, [baseline.run_baseline(video, simenc.plan_gop(video), 512.0)])
    assert run(["fit-bounds", "--corpus", str(traces), "--out", str(tmp_path)]) == 4


def test_negative_alpha_rejected(tmp_path, corpus_dir):
    corpus = str(corpus_dir / "corpus.jsonl")
    args = ["evaluate", "--corpus", corpus, "--alpha", "-1", "--out", str(tmp_path)]
    assert run(args) == 1


def test_invalid_flags_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen-videos", "--count", "NaNsense", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_report_requires_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("video_id,psnr_db\nv0,30\n")
    assert run(["report", "--inputs", f"x={bad}", "--out", str(tmp_path)]) == 4


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[gen-videos]\ncount = 2\nseed = 9\nframes_min = 40\nframes_max = 45\n")
    out = tmp_path / "gen"
    assert run(["--config", str(cfg), "gen-videos", "--out", str(out)]) == 0
    videos = simenc.load_corpus(out / "corpus.jsonl")
    assert len(videos) == 2
    # Flags still override the file.
    out2 = tmp_path / "gen2"
    assert run(["--config", str(cfg), "gen-videos", "--count", "4", "--out", str(out2)]) == 0
    assert len(simenc.load_corpus(out2 / "corpus.jsonl")) == 4


def test_config_file_key_no_subcommand_takes(tmp_path, capsys):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[gen-videos]\ncount = 2\n[evaluate]\ngop_interval = 8\n")
    assert run(["--config", str(cfg), "gen-videos", "--out", str(tmp_path)]) == 2
    assert "evaluate takes no gop_interval" in capsys.readouterr().err
    assert not (tmp_path / "corpus.jsonl").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[train]\ncount = 3\n", "train takes no count"),
        ("[corpus]\ncount = 3\n", "[corpus] names no subcommand"),
        ("[DEFAULT]\ncount = 3\n", "[DEFAULT] names no subcommand"),
        ("[gen-videos]\ncount = three\n", "invalid literal for int()"),
        ("[train]\npreset = huge\n", "train preset: invalid choice 'huge'"),
        ("count = 3\n", "no section headers"),
    ],
    ids=[
        "other-subcommand", "unknown-section", "default-section", "bad-value", "bad-choice",
        "no-section",
    ],
)
def test_config_file_refused_before_any_work(tmp_path, capsys, text, message):
    cfg = tmp_path / "lab.ini"
    cfg.write_text(text)
    assert run(["--config", str(cfg), "gen-videos", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "corpus.jsonl").exists()


def test_config_file_sections_set_their_own_subcommand(tmp_path, corpus_dir, dataset_file):
    cfg = tmp_path / "lab.ini"
    cfg.write_text(
        "[gen-videos]\ncount = 2\nseed = 0\nframes_max = 100\n"
        f"[train]\nseed = 3\nepochs = 1\ncorpus = {corpus_dir / 'corpus.jsonl'}\n"
        f"dataset = {dataset_file}\n"
    )
    for command, seed in (("gen-videos", 0), ("train", 3)):
        out = tmp_path / command
        assert run(["--config", str(cfg), command, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == seed
    assert len(simenc.load_corpus(tmp_path / "gen-videos" / "corpus.jsonl")) == 2


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_gen_videos_rejects_non_finite_frame_rate(tmp_path, capsys, rate):
    assert run(["gen-videos", "--count", "1", "--frame-rate", rate, "--out", str(tmp_path)]) != 0
    assert "frame_rate must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "corpus.jsonl").exists()


def test_missing_config_file(tmp_path):
    assert run(["--config", str(tmp_path / "none.ini"), "gen-videos", "--out", str(tmp_path)]) == 3


def test_report_outputs(tmp_path, corpus_dir):
    out = tmp_path / "selfeval"
    run(
        [
            "evaluate",
            "--corpus",
            str(corpus_dir / "corpus.jsonl"),
            "--target",
            "512",
            "--anchors",
            "0.75,1.0,1.25",
            "--out",
            str(out),
        ]
    )
    rep = tmp_path / "rep"
    assert run(["report", "--inputs", f"base={out / 'eval.csv'}", "--out", str(rep)]) == 0
    for name in (
        "hist_proj_bitrate_diff_pct.csv",
        "hist_proj_psnr_diff_db.csv",
        "hist_bitrate_kbps.csv",
        "ablation_table.csv",
        "summary.txt",
    ):
        assert (rep / name).exists()
    table = (rep / "ablation_table.csv").read_text().splitlines()
    assert table[0].startswith("variant,median_proj_bitrate_diff_pct")
    assert "full-scale reference: 8.5%" in (rep / "summary.txt").read_text()


def test_report_on_suite_with_no_projected_row(tmp_path):
    row = metrics.SuiteRow("v0", 512.0, 900.0, 40.0, float("nan"), float("nan"), float("nan"))
    suite = tmp_path / "eval.csv"
    metrics.write_suite_csv(metrics.report_from_rows([row]), suite)
    rep = tmp_path / "rep"
    assert run(["report", "--inputs", f"x={suite}", "--out", str(rep)]) == 0
    summary = (rep / "summary.txt").read_text()
    assert "1 videos, 0 projected inside their reference span" in summary
    assert "median projected bitrate reduction: n/a%" in summary
    assert "proj bitrate n/a%" in summary
    table = (rep / "ablation_table.csv").read_text().splitlines()
    assert table[0] == (
        "variant,median_proj_bitrate_diff_pct,p25_proj_bitrate_diff_pct,p75_proj_bitrate_diff_pct,"
        "median_proj_psnr_diff_db,n_projected,within_target_frac,under_target_frac,"
        "over_target_frac,within_pct"
    )
    assert table[1] == "x,,,,,0,0.0,0.0,1.0,5.0"
    assert (rep / "hist_proj_bitrate_diff_pct.csv").read_text().strip() == "bin_lo,bin_hi,count"
