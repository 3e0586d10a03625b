"""Command-line pipeline tying the lab together.

Subcommands cover the full experiment flow, each stage reading an earlier
one's artifact: corpus generation (``gen-videos``), teacher dataset assembly
by ES (``build-dataset``), policy training (``train``), envelope fitting on
the heuristic's traces of the training corpus (``fit-bounds``), evaluation
against baseline RD curves (``evaluate``), and report emission (``report``).
Every run writes a manifest (resolved configuration, its hash, seeds,
package version) next to its artifacts so results can be replayed exactly.

Settings that every stage must share are constants, not flags, so the
stages cannot disagree: the GOP plan (``simenc.plan_gop``, an alternate
reference every 16 frames), the reward's overshoot penalty
(``simenc.PENALTY_PER_KBPS``), the latent distributions of generated videos
(``simenc`` module constants), a constant training learning rate, and the
target tolerance that ``evaluate`` and ``report`` share (``metrics.WITHIN_PCT``).
``fit-bounds`` encodes the corpus with the heuristic at its ``--target`` and
fits the envelope on those traces; ``evaluate`` without ``--checkpoint``
writes the same traces of its corpus as ``policy_traces.jsonl``.
``evaluate`` rejects bounds without a checkpoint or fitted at another target
before it encodes anything. Every stage reads and checks its inputs before
it creates ``--out``, so an input it refuses leaves no output directory.

Exit codes: 0 success, 2 invalid flags (argparse) or ``--config`` file (a
malformed one, a section that names no subcommand, a key its subcommand does
not take, or a value its flag cannot parse), 3 missing input file, 4 artifact
schema mismatch, 1 any other failure.
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
    PRESETS,
    TrainConfig,
    episodes_from_records,
    fit_spec_from_records,
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


class ConfigFileError(ValueError):
    """A ``--config`` section that names no subcommand, or a key its subcommand does not take."""


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
    text = json.dumps(doc, indent=2, default=str, allow_nan=False)
    (out / "manifest.json").write_text(text + "\n")


def _floats(count: int, at_least: bool = False):
    """An argparse ``type`` for a comma list of ``count`` numbers, or more if ``at_least``.

    A value it refuses exits 2 before any input is read, on the command line
    and in a ``--config`` file alike.
    """
    plural = "number" if count == 1 else "numbers"
    wanted = f"at least {count} {plural}" if at_least else f"{count} {plural}"

    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(float(x) for x in text.split(",") if x.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of numbers") from None
        if len(values) < count or (len(values) > count and not at_least):
            raise argparse.ArgumentTypeError(f"{text!r}: expected {wanted}")
        return values

    return parse


def _int_at_least(low: int):
    """An argparse ``type`` for an integer >= ``low``.

    A value it refuses exits 2 before any input is read, on the command line
    and in a ``--config`` file alike.
    """

    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"{text!r}: expected an integer >= {low}")
        return value

    return parse


# A seed is an integer >= 0, as numpy's seeding needs.
_seed = _int_at_least(0)


def _require_rates(flag: str, values: tuple[float, ...]) -> None:
    """Refuse a kbps target or multiplier that is not finite and > 0, naming its flag.

    The subcommands call it before they create ``--out`` or read an input.
    """
    if not all(np.isfinite(v) and v > 0 for v in values):
        shown = ",".join(f"{v:g}" for v in values)
        raise ValueError(f"{flag} must be finite and > 0, got {shown}")


# ---------------------------------------------------------------------------
# gen-videos
# ---------------------------------------------------------------------------

def cmd_gen_videos(args) -> int:
    config = simenc.VideoConfig(
        num_frames_min=args.frames_min,
        num_frames_max=args.frames_max,
        width=args.width,
        height=args.height,
        frame_rate=args.frame_rate,
    )
    videos = simenc.generate_corpus(args.count, args.seed, config)
    out = _out_dir(args)
    n = simenc.save_corpus(out / "corpus.jsonl", videos)
    _write_manifest(out, "gen-videos", args)
    print(f"wrote {n} videos to {out / 'corpus.jsonl'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# build-dataset
# ---------------------------------------------------------------------------

def cmd_build_dataset(args) -> int:
    lo, hi = args.bitrate_range
    config = teacher.TeacherConfig(
        bitrates_per_video=args.per_video,
        bitrate_min_kbps=lo,
        bitrate_max_kbps=hi,
        es=teacher.EsConfig(
            sigma=args.sigma,
            batch_size=args.batch,
            learning_rate=args.alpha,
            max_steps=args.steps,
        ),
        seed=args.seed,
    )
    videos = simenc.load_corpus(_require(args.corpus))
    out = _out_dir(args)
    records = teacher.build_teacher_dataset(videos, config, args.workers)
    n = teacher.save_teacher_dataset(out / "teacher.jsonl", records)
    _write_manifest(out, "build-dataset", args)
    print(f"wrote {n} teacher records to {out / 'teacher.jsonl'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    config = TrainConfig(
        beta1_frame_bits=args.beta1,
        beta2_total_bits=args.beta2,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        preset=args.preset,
    )
    videos = simenc.load_corpus(_require(args.corpus))
    records = teacher.load_teacher_dataset(_require(args.dataset))
    out = _out_dir(args)
    corpus = {v.video_id: v for v in videos}
    spec = fit_spec_from_records(records, corpus, seed=args.seed)
    episodes = episodes_from_records(records, corpus, spec)
    result = train(episodes, spec, config, log_path=out / "train_log.csv")
    save_checkpoint(out / "checkpoint.npz", result.params, spec, config)
    _write_manifest(out, "train", args)
    print(
        f"trained on {len(episodes)} episodes: top1 {result.final_top1:.3f}, "
        f"top15 coverage {result.final_top15:.3f}"
    )
    print(f"checkpoint at {out / 'checkpoint.npz'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit-bounds / evaluate
# ---------------------------------------------------------------------------

def cmd_fit_bounds(args) -> int:
    _require_rates("--target", (args.target,))
    lo, hi = args.quantiles
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"--quantiles must satisfy 0 <= lo < hi <= 1, got {lo:g},{hi:g}")
    videos = simenc.load_corpus(_require(args.corpus))
    traces = [
        baseline.run_baseline(video, simenc.plan_gop(video), args.target) for video in videos
    ]
    model = inference.fit_bounds(
        traces, args.target, coverage=args.quantiles, min_traces=args.min_traces
    )
    out = _out_dir(args)
    inference.save_bounds(out / "bounds.json", model)
    _write_manifest(out, "fit-bounds", args)
    print(f"wrote envelope bounds to {out / 'bounds.json'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    feedback = inference.FeedbackConfig(alpha=args.alpha)
    _require_rates("--target", (args.target,))
    _require_rates("--anchors", args.anchors)
    _require_rates("--target * --anchors", tuple(m * args.target for m in args.anchors))
    if args.bounds and not args.checkpoint:
        raise IncompatibleInputError("--bounds controls a policy: it needs --checkpoint")
    videos = simenc.load_corpus(_require(args.corpus))
    params = spec = bounds = None
    if args.checkpoint:
        params, spec, _ = load_checkpoint(_require(args.checkpoint))
    if args.bounds:
        bounds = inference.load_bounds(_require(args.bounds))
        if abs(bounds.target_bitrate_kbps - args.target) > inference.TARGET_TOLERANCE_KBPS:
            raise IncompatibleInputError(
                f"{args.bounds} was fitted at {bounds.target_bitrate_kbps} kbps, "
                f"this run targets {args.target}"
            )
    out = _out_dir(args)

    curves: dict[str, metrics.RDCurve | None] = {}
    policy_traces = []
    for vi, video in enumerate(videos):
        gop = simenc.plan_gop(video)
        anchor_traces = [
            baseline.run_baseline(video, gop, m * args.target) for m in args.anchors
        ]
        try:
            curves[video.video_id] = metrics.rd_curve_from_traces(anchor_traces)
        except metrics.DegenerateCurveError:
            # Anchors that clamp at one QP repeat an RD point, so there is no
            # reference curve: the video is reported, unprojected.
            curves[video.video_id] = None
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
    report = metrics.summarize_suite(policy_traces, curves)
    metrics.write_suite_csv(report, out / "eval.csv")
    summary = json.dumps(
        {**report.aggregates(), "n_videos": len(policy_traces)}, indent=2, allow_nan=False
    )
    (out / "summary.json").write_text(summary + "\n")
    _write_manifest(out, "evaluate", args)
    print(summary)
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
    labeled: list[tuple[str, metrics.SuiteReport]] = []
    for item in args.inputs.split(","):
        label, _, path = item.partition("=")
        if not path:
            label, path = Path(item).stem, item
        rows = metrics.read_suite_csv(_require(path))
        if not rows:
            raise ValueError(f"{path}: empty evaluation input")
        labeled.append((label, metrics.report_from_rows(rows)))
    out = _out_dir(args)

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

def _apply_config_file(path: str, registry: dict[str, argparse.ArgumentParser]) -> None:
    """Install the ``--config`` file's values as typed defaults.

    Each section names a subcommand and sets only that subcommand's flags.
    A section no subcommand has, or a key its subcommand does not take, is a
    ``ConfigFileError``, because it would otherwise do nothing; a value its
    flag's type cannot parse is a ``ValueError`` (or an
    ``argparse.ArgumentTypeError``), and a parsed value outside
    the flag's ``choices`` a ``ConfigFileError``: argparse checks choices
    only on the command line.
    """
    # ``[DEFAULT]`` supplies no defaults to other sections: it names no subcommand.
    parser = configparser.ConfigParser(default_section="")
    if not parser.read(path):
        raise MissingInputError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in registry:
            raise ConfigFileError(f"[{section}] names no subcommand of {sorted(registry)}")
        actions = {action.dest: action for action in registry[section]._actions}
        values = {key.replace("-", "_"): value for key, value in parser.items(section)}
        unknown = sorted(values.keys() - actions.keys())
        if unknown:
            raise ConfigFileError(f"{section} takes no {', '.join(unknown)}")
        typed = {}
        for dest, raw in values.items():
            action = actions[dest]
            if isinstance(action, argparse._StoreTrueAction):
                typed[dest] = raw.strip().lower() in ("1", "true", "yes", "on")
            elif action.type is not None:
                typed[dest] = action.type(raw)
            else:
                typed[dest] = raw
            if action.choices is not None and typed[dest] not in action.choices:
                raise ConfigFileError(
                    f"{section} {dest}: invalid choice {raw!r} (choose from {list(action.choices)})"
                )
            action.required = False
        registry[section].set_defaults(**typed)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="ratelab", description="desk-scale rate-control laboratory"
    )
    parser.add_argument("--config", help="INI file, a section per subcommand; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--out", help="output directory (default $RATELAB_OUT or ./runs)")
        registry[name] = p
        return p

    video = simenc.VideoConfig()
    p = add("gen-videos", cmd_gen_videos, help="generate a synthetic video corpus")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--frames-min", type=int, default=video.num_frames_min)
    p.add_argument("--frames-max", type=int, default=video.num_frames_max)
    p.add_argument("--width", type=int, default=video.width)
    p.add_argument("--height", type=int, default=video.height)
    p.add_argument("--frame-rate", type=float, default=video.frame_rate)

    teacher_config = teacher.TeacherConfig()
    p = add("build-dataset", cmd_build_dataset, help="assemble the teacher dataset")
    p.add_argument("--corpus", required=True)
    p.add_argument("--steps", type=_int_at_least(0), default=teacher_config.es.max_steps)
    p.add_argument("--sigma", type=float, default=teacher_config.es.sigma)
    p.add_argument("--alpha", type=float, default=teacher_config.es.learning_rate)
    p.add_argument("--batch", type=int, default=teacher_config.es.batch_size)
    p.add_argument("--seed", type=_seed, default=teacher_config.seed)
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--per-video", type=int, default=teacher_config.bitrates_per_video)
    bitrates = (teacher_config.bitrate_min_kbps, teacher_config.bitrate_max_kbps)
    p.add_argument("--bitrate-range", type=_floats(2), default=bitrates)

    train_config = TrainConfig()
    p = add("train", cmd_train, help="train the neural policy by imitation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--preset", choices=sorted(PRESETS), default=train_config.preset)
    p.add_argument("--epochs", type=int, default=train_config.epochs)
    p.add_argument("--batch-size", type=int, default=train_config.batch_size)
    p.add_argument("--learning-rate", type=float, default=train_config.learning_rate)
    p.add_argument("--beta1", type=float, default=train_config.beta1_frame_bits)
    p.add_argument("--beta2", type=float, default=train_config.beta2_total_bits)
    p.add_argument("--seed", type=_seed, default=train_config.seed)

    p = add("fit-bounds", cmd_fit_bounds, help="fit the cumulative-bits envelope")
    p.add_argument("--corpus", required=True, help="the training corpus")
    p.add_argument("--target", type=float, default=512.0)
    p.add_argument("--quantiles", type=_floats(2), default=inference.COVERAGE)
    p.add_argument("--min-traces", type=_int_at_least(1), default=inference.MIN_TRACES)

    p = add("evaluate", cmd_evaluate, help="evaluate a policy against baseline curves")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", help="policy checkpoint; omitted = baseline self-test")
    p.add_argument("--bounds", help="bounds JSON enabling feedback control")
    p.add_argument("--alpha", type=float, default=inference.FeedbackConfig().alpha)
    p.add_argument("--target", type=float, default=512.0)
    p.add_argument(
        "--anchors", type=_floats(2, at_least=True), default=(0.5, 0.75, 1.0, 1.25, 1.5)
    )
    p.add_argument("--seed", type=_seed, default=0)

    p = add("report", cmd_report, help="emit histograms and the ablation table")
    p.add_argument(
        "--inputs",
        required=True,
        help="comma-separated label=eval.csv entries; first is the primary",
    )

    return parser, registry


def main(argv: list[str] | None = None) -> int:
    parser, registry = build_parser()
    # Extract --config up front so its values can become defaults before the
    # real parse (which may otherwise fail on required flags the file covers).
    pre_parser = argparse.ArgumentParser(add_help=False)
    pre_parser.add_argument("--config")
    pre, _ = pre_parser.parse_known_args(argv)
    try:
        if pre.config:
            _apply_config_file(pre.config, registry)
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ValueError, argparse.ArgumentTypeError, configparser.Error) as exc:
        # ConfigFileError, a value its flag's type refuses, or a malformed file
        print(f"error: {pre.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
