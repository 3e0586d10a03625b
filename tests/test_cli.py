import json

import pytest

from ratelab import cli, metrics, simenc, teacher


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


def test_missing_input_exit_code(tmp_path):
    assert run(["run-baseline", "--corpus", "nope.jsonl", "--out", str(tmp_path)]) == 3


def test_schema_mismatch_exit_code(tmp_path, corpus_dir):
    assert (
        run(
            [
                "fit-bounds",
                "--traces",
                str(corpus_dir / "corpus.jsonl"),
                "--target",
                "512",
                "--out",
                str(tmp_path),
            ]
        )
        == 4
    )


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
