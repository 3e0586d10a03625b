import json

import pytest

from ratelab import cli, inference, metrics, simenc, teacher
from ratelab.policy import TrainConfig, save_checkpoint

from conftest import tiny_policy


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


def test_run_baseline_traces(tmp_path, corpus_dir):
    out = tmp_path / "base"
    assert (
        run(
            [
                "run-baseline",
                "--corpus",
                str(corpus_dir / "corpus.jsonl"),
                "--targets",
                "384,512",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    traces = simenc.load_traces(out / "baseline_traces.jsonl")
    assert len(traces) == 6


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


def test_run_es_matches_build_dataset_at_one_target(tmp_path, corpus_dir):
    """``run-es`` at one target writes what ``build-dataset`` samples from a
    range that holds only that target."""
    common = ["--corpus", str(corpus_dir / "corpus.jsonl"), "--steps", "3", "--seed", "4"]
    es_out, dataset_out = tmp_path / "es", tmp_path / "dataset"
    assert run(["run-es", *common, "--targets", "512", "--out", str(es_out)]) == 0
    assert run([
        "build-dataset", *common, "--per-video", "1", "--bitrate-range", "512,512",
        "--out", str(dataset_out),
    ]) == 0
    written = (es_out / "es_records.jsonl").read_bytes()
    assert written == (dataset_out / "teacher.jsonl").read_bytes()
    assert len(teacher.load_teacher_dataset(es_out / "es_records.jsonl")) == 3


@pytest.mark.parametrize(
    "argv",
    [
        "run-baseline --corpus c --gop-interval",
        "run-es --corpus c --gop-interval",
        "run-es --corpus c --reward-lambda",
        "build-dataset --corpus c --gop-interval",
        "build-dataset --corpus c --reward-lambda",
        "train --corpus c --dataset d --gop-interval",
        "train --corpus c --dataset d --lr-decay",
        "her-refine --corpus c --dataset d --checkpoint k --gop-interval",
        "fit-bounds --traces t --target",
        "evaluate --corpus c --gop-interval",
    ],
)
def test_removed_flags_exit_code(tmp_path, capsys, argv):
    # Every required flag is given, so the removed one, last, is the only error.
    with pytest.raises(SystemExit) as exc:
        run([*argv.split(), "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv.split()[-1]} 1" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bounds_640(tmp_path_factory, corpus_dir):
    """Bounds that ``fit-bounds`` fits on the corpus's 640 kbps baseline traces."""
    out = tmp_path_factory.mktemp("bounds")
    corpus = str(corpus_dir / "corpus.jsonl")
    assert run(["run-baseline", "--corpus", corpus, "--targets", "640", "--out", str(out)]) == 0
    traces = str(out / "baseline_traces.jsonl")
    assert run(["fit-bounds", "--traces", traces, "--min-traces", "3", "--out", str(out)]) == 0
    return out / "bounds.json"


def test_fit_bounds_reads_its_target_from_the_traces(tmp_path, capsys, corpus_dir, bounds_640):
    assert inference.load_bounds(bounds_640).target_bitrate_kbps == 640.0
    corpus = str(corpus_dir / "corpus.jsonl")
    mixed = ["run-baseline", "--corpus", corpus, "--targets", "384,512", "--out", str(tmp_path)]
    assert run(mixed) == 0
    traces = str(tmp_path / "baseline_traces.jsonl")
    capsys.readouterr()
    assert run(["fit-bounds", "--traces", traces, "--min-traces", "3", "--out", str(tmp_path)]) == 1
    assert "BoundsFitError" in capsys.readouterr().err
    assert not (tmp_path / "bounds.json").exists()


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


def test_missing_input_exit_code(tmp_path):
    assert run(["run-baseline", "--corpus", "nope.jsonl", "--out", str(tmp_path)]) == 3


def test_schema_mismatch_exit_code(tmp_path, corpus_dir):
    assert (
        run(
            [
                "fit-bounds",
                "--traces",
                str(corpus_dir / "corpus.jsonl"),
                "--out",
                str(tmp_path),
            ]
        )
        == 4
    )


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
    cfg.write_text("[corpus]\ncount = 2\nseed = 9\nframes_min = 40\nframes_max = 45\n")
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
    cfg.write_text("[corpus]\ncount = 2\n[encoder]\ngop_interval = 8\n")
    assert run(["--config", str(cfg), "gen-videos", "--out", str(tmp_path)]) == 2
    assert "no subcommand takes gop_interval" in capsys.readouterr().err
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
