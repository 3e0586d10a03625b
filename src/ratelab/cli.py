"""Command-line pipeline tying the lab together.

Subcommands cover the full experiment flow: corpus generation, baseline and
search runs, teacher dataset assembly, policy training, hindsight
refinement, envelope fitting, evaluation against baseline RD curves, and
report emission. Every run writes a manifest (resolved configuration, its
hash, seeds, package version) next to its artifacts so results can be
replayed exactly.

Settings that every stage must share are constants, not flags, so the
stages cannot disagree: the GOP plan (``simenc.plan_gop``, an alternate
reference every 16 frames), the reward's overshoot penalty
(``simenc.PENALTY_PER_KBPS``), the latent distributions of generated videos
(``simenc`` module constants) and a constant training learning rate.
``fit-bounds`` reads its target from its traces, which must share one, and
``evaluate`` rejects bounds without a checkpoint or fitted at another target
before it encodes anything.

Exit codes: 0 success, 2 invalid flags (argparse) or a config-file key no
subcommand takes, 3 missing input file,
4 artifact schema mismatch, 1 any other failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime as _dt
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, baseline, inference, metrics, simenc, teacher
from .io import SchemaError, config_digest
from .policy import (
    TrainConfig,
    episodes_from_records,
    fit_spec_from_records,
    her_relabel,
    load_checkpoint,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_SCHEMA = 4
EXIT_FAILURE = 1

# Published full-scale reference for the median projected-bitrate reduction
# of a learned policy over the production baseline; desk-scale results are
# reported alongside it, never asserted against it.
REFERENCE_FULL_SCALE_MEDIAN_REDUCTION_PCT = 8.5

MANIFEST_SCHEMA = "manifest.v1"


class MissingInputError(FileNotFoundError):
    pass


class IncompatibleInputError(ValueError):
    """Inputs that cannot go together in one run, e.g. bounds fitted for another target."""


def _require(path: str | Path) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"required input not found: {p}")
    return p


def _out_dir(args) -> Path:
    root = args.out or os.environ.get("RATELAB_OUT", "runs")
    out = Path(root)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, args: argparse.Namespace) -> None:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")
    }
    doc = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "config": config,
        "config_sha256": config_digest(config),
        "package_version": __version__,
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(json.dumps(doc, indent=2, default=str) + "\n")


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# gen-videos
# ---------------------------------------------------------------------------

def cmd_gen_videos(args) -> int:
    out = _out_dir(args)
    config = simenc.VideoConfig(
        num_frames_min=args.frames_min,
        num_frames_max=args.frames_max,
        width=args.width,
        height=args.height,
        frame_rate=args.frame_rate,
    )
    videos = simenc.generate_corpus(args.count, args.seed, config)
    n = simenc.save_corpus(out / "corpus.jsonl", videos)
    _write_manifest(out, "gen-videos", args)
    print(f"wrote {n} videos to {out / 'corpus.jsonl'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run-baseline
# ---------------------------------------------------------------------------

def cmd_run_baseline(args) -> int:
    out = _out_dir(args)
    videos = simenc.load_corpus(_require(args.corpus))
    targets = _parse_floats(args.targets)
    traces = []
    for video in videos:
        gop = simenc.plan_gop(video)
        for target in targets:
            traces.append(baseline.run_baseline(video, gop, target))
    n = simenc.save_traces(out / "baseline_traces.jsonl", traces)
    _write_manifest(out, "run-baseline", args)
    print(f"wrote {n} baseline traces to {out / 'baseline_traces.jsonl'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run-es / build-dataset
# ---------------------------------------------------------------------------

def _es_config_from_args(args) -> teacher.EsConfig:
    return teacher.EsConfig(
        sigma=args.sigma,
        batch_size=args.batch,
        learning_rate=args.alpha,
        max_steps=args.steps,
    )


def cmd_run_es(args) -> int:
    out = _out_dir(args)
    videos = simenc.load_corpus(_require(args.corpus))
    targets = _parse_floats(args.targets)
    records = teacher.run_es_tasks(
        videos, [targets] * len(videos), _es_config_from_args(args), args.seed, args.workers
    )
    n = teacher.save_teacher_dataset(out / "es_records.jsonl", records)
    _write_manifest(out, "run-es", args)
    print(f"wrote {n} search records to {out / 'es_records.jsonl'}")
    return EXIT_OK


def cmd_build_dataset(args) -> int:
    out = _out_dir(args)
    videos = simenc.load_corpus(_require(args.corpus))
    lo, hi = _parse_floats(args.bitrate_range)
    config = teacher.TeacherConfig(
        bitrates_per_video=args.per_video,
        bitrate_min_kbps=lo,
        bitrate_max_kbps=hi,
        es=_es_config_from_args(args),
        seed=args.seed,
    )
    records = teacher.build_teacher_dataset(videos, config, args.workers)
    n = teacher.save_teacher_dataset(out / "teacher.jsonl", records)
    _write_manifest(out, "build-dataset", args)
    print(f"wrote {n} teacher records to {out / 'teacher.jsonl'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / her-refine
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    out = _out_dir(args)
    videos = simenc.load_corpus(_require(args.corpus))
    records = teacher.load_teacher_dataset(_require(args.dataset))
    corpus = {v.video_id: v for v in videos}
    spec = fit_spec_from_records(records, corpus, seed=args.seed)
    episodes = episodes_from_records(records, corpus, spec)
    config = TrainConfig(
        beta1_frame_bits=args.beta1,
        beta2_total_bits=args.beta2,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        epochs=args.epochs,
        dropout=not args.no_dropout,
        seed=args.seed,
        preset=args.preset,
    )
    result = train(episodes, spec, config, log_path=out / "train_log.csv")
    save_checkpoint(out / "checkpoint.npz", result.params, spec, config)
    _write_manifest(out, "train", args)
    print(
        f"trained on {len(episodes)} episodes: top1 {result.final_top1:.3f}, "
        f"top15 coverage {result.final_top15:.3f}"
    )
    print(f"checkpoint at {out / 'checkpoint.npz'}")
    return EXIT_OK


def cmd_her_refine(args) -> int:
    out = _out_dir(args)
    videos = simenc.load_corpus(_require(args.corpus))
    records = teacher.load_teacher_dataset(_require(args.dataset))
    params, spec, _ = load_checkpoint(_require(args.checkpoint))
    corpus = {v.video_id: v for v in videos}
    targets_by_video: dict[str, list[float]] = {}
    for rec in records:
        targets_by_video.setdefault(rec.video_id, []).append(rec.target_bitrate_kbps)
    ordered = [v for v in videos if v.video_id in targets_by_video]
    her_records = her_relabel(
        params,
        spec,
        ordered,
        [targets_by_video[v.video_id] for v in ordered],
        seed=args.seed,
    )
    n = teacher.save_teacher_dataset(out / "her.jsonl", her_records)
    _write_manifest(out, "her-refine", args)
    print(f"wrote {n} hindsight-relabeled records to {out / 'her.jsonl'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit-bounds / evaluate
# ---------------------------------------------------------------------------

def cmd_fit_bounds(args) -> int:
    out = _out_dir(args)
    traces = simenc.load_traces(_require(args.traces))
    lo_q, hi_q = _parse_floats(args.quantiles)
    targets = sorted({trace.target_bitrate_kbps for trace in traces})
    if len(targets) != 1:
        raise inference.BoundsFitError(
            f"{args.traces}: the traces must share one target bitrate, found {targets}"
        )
    model = inference.fit_bounds(
        traces, targets[0], coverage=(lo_q, hi_q), min_traces=args.min_traces
    )
    inference.save_bounds(out / "bounds.json", model)
    _write_manifest(out, "fit-bounds", args)
    print(f"wrote envelope bounds to {out / 'bounds.json'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    videos = simenc.load_corpus(_require(args.corpus))
    anchors = _parse_floats(args.anchors)
    if len(anchors) < 2:
        raise ValueError("need at least two anchor multipliers for the reference curve")
    feedback = inference.FeedbackConfig(alpha=args.alpha)
    params = spec = bounds = None
    if args.bounds and not args.checkpoint:
        raise IncompatibleInputError("--bounds controls a policy: it needs --checkpoint")
    if args.checkpoint:
        params, spec, _ = load_checkpoint(_require(args.checkpoint))
    if args.bounds:
        bounds = inference.load_bounds(_require(args.bounds))
        if abs(bounds.target_bitrate_kbps - args.target) > inference.TARGET_TOLERANCE_KBPS:
            raise IncompatibleInputError(
                f"{args.bounds} was fitted at {bounds.target_bitrate_kbps} kbps, "
                f"this run targets {args.target}"
            )

    curves = {}
    policy_traces = []
    for vi, video in enumerate(videos):
        gop = simenc.plan_gop(video)
        anchor_traces = [
            baseline.run_baseline(video, gop, m * args.target) for m in anchors
        ]
        curves[video.video_id] = metrics.rd_curve_from_traces(anchor_traces)
        if params is None:
            policy_traces.append(baseline.run_baseline(video, gop, args.target))
        else:
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence((args.seed, vi)))
            )
            callback, _ = inference.controlled_policy(params, spec, bounds, rng, feedback)
            policy_traces.append(
                simenc.run_episode(video, gop, args.target, callback)
            )
    simenc.save_traces(out / "policy_traces.jsonl", policy_traces)
    report = metrics.summarize_suite(policy_traces, curves, within_pct=args.within_pct)
    metrics.write_suite_csv(report, out / "eval.csv")
    summary = {**report.aggregates(), "n_videos": len(policy_traces)}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    _write_manifest(out, "evaluate", args)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _histogram_rows(values: np.ndarray, n_bins: int = 10) -> list[dict]:
    """Equal-width bins over the finite values; no rows when there are none."""
    values = values[np.isfinite(values)]
    if values.size == 0:
        return []
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=n_bins, range=(lo, hi))
    return [
        {"bin_lo": float(edges[i]), "bin_hi": float(edges[i + 1]), "count": int(c)}
        for i, c in enumerate(counts)
    ]


def _write_histogram(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["bin_lo", "bin_hi", "count"])
        writer.writeheader()
        writer.writerows(rows)


def _fmt(value: float | None, fmt: str) -> str:
    return "n/a" if value is None else format(value, fmt)


def cmd_report(args) -> int:
    out = _out_dir(args)
    labeled: list[tuple[str, metrics.SuiteReport]] = []
    for item in args.inputs.split(","):
        label, _, path = item.partition("=")
        if not path:
            label, path = Path(item).stem, item
        rows = metrics.read_suite_csv(_require(path))
        if not rows:
            raise ValueError(f"{path}: empty evaluation input")
        labeled.append((label, metrics.report_from_rows(rows)))

    primary_label, primary = labeled[0]
    for name, values in (
        ("proj_bitrate_diff_pct", [r.proj_bitrate_diff_pct for r in primary.rows]),
        ("proj_psnr_diff_db", [r.proj_psnr_diff_db for r in primary.rows]),
        ("bitrate_kbps", [r.bitrate_kbps for r in primary.rows]),
    ):
        _write_histogram(out / f"hist_{name}.csv", _histogram_rows(np.array(values)))

    table_rows = [{"variant": label, **report.aggregates()} for label, report in labeled]
    with (out / "ablation_table.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(table_rows[0]))
        writer.writeheader()
        writer.writerows(table_rows)

    median = primary.median_proj_bitrate_diff_pct
    lines = [
        f"evaluation report ({primary_label}, {len(primary.rows)} videos, "
        f"{primary.n_projected} projected inside their reference span)",
        f"median projected bitrate reduction: {_fmt(None if median is None else -median, '.2f')}%"
        f" (full-scale reference: {REFERENCE_FULL_SCALE_MEDIAN_REDUCTION_PCT}%)",
        f"median projected PSNR difference: {_fmt(primary.median_proj_psnr_diff_db, '+.3f')} dB",
    ]
    for row in table_rows:
        lines.append(
            f"  {row['variant']}: proj bitrate "
            f"{_fmt(row['median_proj_bitrate_diff_pct'], '+.2f')}%, "
            f"within +/-{row['within_pct']:g}%: {row['within_target_frac']:.0%}, "
            f"under: {row['under_target_frac']:.0%}, over: {row['over_target_frac']:.0%}"
        )
    text = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(text)
    _write_manifest(out, "report", args)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _load_config_defaults(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise MissingInputError(f"config file not found: {path}")
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[key.replace("-", "_")] = value
    return flat


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="ratelab", description="desk-scale rate-control laboratory"
    )
    parser.add_argument("--config", help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--out", help="output directory (default $RATELAB_OUT or ./runs)")
        registry[name] = p
        return p

    p = add("gen-videos", cmd_gen_videos, help="generate a synthetic video corpus")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames-min", type=int, default=100)
    p.add_argument("--frames-max", type=int, default=150)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--frame-rate", type=float, default=30.0)

    p = add("run-baseline", cmd_run_baseline, help="run the heuristic VBR policy")
    p.add_argument("--corpus", required=True)
    p.add_argument("--targets", default="512", help="comma-separated kbps targets")

    def add_es_args(p):
        p.add_argument("--corpus", required=True)
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--sigma", type=float, default=4.0)
        p.add_argument("--alpha", type=float, default=16.0)
        p.add_argument("--batch", type=int, default=16)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)

    p = add("run-es", cmd_run_es, help="search QP sequences at fixed targets")
    add_es_args(p)
    p.add_argument("--targets", default="512")

    p = add("build-dataset", cmd_build_dataset, help="assemble the teacher dataset")
    add_es_args(p)
    p.add_argument("--per-video", type=int, default=4)
    p.add_argument("--bitrate-range", default="256,768")

    p = add("train", cmd_train, help="train the neural policy by imitation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--preset", choices=["tiny", "paper"], default="tiny")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--learning-rate", type=float, default=3e-3)
    p.add_argument("--beta1", type=float, default=2.0)
    p.add_argument("--beta2", type=float, default=2.0)
    p.add_argument("--no-dropout", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    p = add("her-refine", cmd_her_refine, help="hindsight-relabel policy rollouts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dataset", required=True, help="dataset providing original targets")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("fit-bounds", cmd_fit_bounds, help="fit the cumulative-bits envelope")
    p.add_argument("--traces", required=True)
    p.add_argument("--quantiles", default="0.025,0.975")
    p.add_argument("--min-traces", type=int, default=20)

    p = add("evaluate", cmd_evaluate, help="evaluate a policy against baseline curves")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", help="policy checkpoint; omitted = baseline self-test")
    p.add_argument("--bounds", help="bounds JSON enabling feedback control")
    p.add_argument("--alpha", type=float, default=inference.FeedbackConfig().alpha)
    p.add_argument("--target", type=float, default=512.0)
    p.add_argument("--anchors", default="0.5,0.75,1.0,1.25,1.5")
    p.add_argument("--within-pct", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)

    p = add("report", cmd_report, help="emit histograms and the ablation table")
    p.add_argument(
        "--inputs",
        required=True,
        help="comma-separated label=eval.csv entries; first is the primary",
    )

    return parser, registry


def _apply_config_defaults(
    registry: dict[str, argparse.ArgumentParser], defaults: dict[str, str]
) -> None:
    """Install config-file values as typed defaults on every subcommand."""
    for subparser in registry.values():
        typed = {}
        for action in subparser._actions:
            if action.dest in defaults:
                raw = defaults[action.dest]
                if isinstance(action, argparse._StoreTrueAction):
                    typed[action.dest] = raw.strip().lower() in ("1", "true", "yes", "on")
                elif action.type is not None:
                    typed[action.dest] = action.type(raw)
                else:
                    typed[action.dest] = raw
                action.required = False
        subparser.set_defaults(**typed)


def main(argv: list[str] | None = None) -> int:
    parser, registry = build_parser()
    # Extract --config up front so its values can become defaults before the
    # real parse (which may otherwise fail on required flags the file covers).
    pre_parser = argparse.ArgumentParser(add_help=False)
    pre_parser.add_argument("--config")
    pre, _ = pre_parser.parse_known_args(argv)
    try:
        defaults = _load_config_defaults(pre.config)
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    known = {action.dest for subparser in registry.values() for action in subparser._actions}
    unknown = sorted(set(defaults) - known)
    if unknown:
        # A key for a removed or misspelt setting would otherwise do nothing.
        print(f"error: {pre.config}: no subcommand takes {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    if defaults:
        _apply_config_defaults(registry, defaults)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except Exception as exc:  # noqa: BLE001 - uniform CLI failure surface
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
