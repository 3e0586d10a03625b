"""The benchmark's workloads: teacher, imitate and evaluate.

Each workload makes its inputs from the workload seed in ``setup`` and
writes them as the earlier CLI stages would. ``run_round`` is the timed
work: it reads the inputs back and calls ratelab library functions, once
per unit of work (an ES task, a training episode, an evaluated video), so a
unit that raises is counted as failed and the others still run.
``check`` verifies a round's outputs outside the timed region.

Corpus lengths step evenly over their range instead of being drawn at
random, so every seed gives the same amount of work and the same share of
long videos; the seed draws the content.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ratelab import baseline, inference, metrics, simenc, teacher
from ratelab.policy import data
from ratelab.policy.train import TrainConfig

# ``ratelab.policy.train`` the attribute is the function; this is the module.
policy_train = importlib.import_module("ratelab.policy.train")

GOP_INTERVAL = 16
TARGET_KBPS = 512.0
ANCHORS = (0.5, 0.75, 1.0, 1.25, 1.5)
PRESET = "paper"
# Short ES for imitation labels: the labels only need to exist and replay.
LABEL_ES = teacher.EsConfig(max_steps=2, batch_size=8)
# The envelope is fitted on a fixed calibration set, the one
# ``ratelab gen-videos`` and ``run-baseline`` make with their defaults: the
# cost of ``fit_bounds`` depends on its input so strongly (0.5 s to 18 s
# over six seeds of 20 videos) that seeded envelope data would swamp the
# evaluate figures.
CALIBRATION_SEED = 0


@dataclass(frozen=True)
class Size:
    teacher_videos: int
    teacher_targets: int            # ES tasks per teacher video
    teacher_es_steps: int
    imitate_videos: int
    imitate_epochs: int
    eval_videos: int
    calibration_videos: int         # envelope traces; the first few train the policy
    checkpoint_videos: int
    long_frames: tuple[int, int]    # teacher and evaluation corpora
    short_frames: tuple[int, int]   # imitate and calibration corpora (CLI default)


FULL = Size(
    teacher_videos=8,
    teacher_targets=2,
    teacher_es_steps=6,
    imitate_videos=8,
    imitate_epochs=2,
    eval_videos=20,
    calibration_videos=20,
    checkpoint_videos=6,
    long_frames=(100, 300),
    short_frames=(100, 150),
)

TOY = Size(
    teacher_videos=2,
    teacher_targets=1,
    teacher_es_steps=1,
    imitate_videos=2,
    imitate_epochs=1,
    eval_videos=2,
    calibration_videos=4,
    checkpoint_videos=1,
    long_frames=(20, 30),
    short_frames=(20, 30),
)


def corpus(seed: int, count: int, frames: tuple[int, int]) -> list[simenc.SyntheticVideo]:
    """``count`` videos whose lengths step evenly over ``frames``."""
    lo, hi = frames
    children = np.random.SeedSequence(seed).spawn(count)
    videos = []
    for i, child in enumerate(children):
        n = lo + round((hi - lo) * i / max(count - 1, 1))
        video_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        config = simenc.VideoConfig(num_frames_min=n, num_frames_max=n)
        video = simenc.generate_video(video_seed, config)
        videos.append(dataclasses.replace(video, video_id=f"sim{i:05d}-{video_seed:016x}"))
    return videos


def _task_seed(seed: int, vi: int, bi: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(vi, bi)).generate_state(1)[0])


def _label_dataset(videos, seed: int, path: Path) -> None:
    config = teacher.TeacherConfig(bitrates_per_video=1, es=LABEL_ES, seed=seed)
    teacher.save_teacher_dataset(path, teacher.build_teacher_dataset(videos, config))


def _train_policy(out: Path, corpus_path: Path, dataset_path: Path, seed: int, epochs: int,
                  tracer=None):
    """What ``ratelab train`` runs, with the ``paper`` preset."""
    videos = simenc.load_corpus(corpus_path)
    records = teacher.load_teacher_dataset(dataset_path)
    by_id = {v.video_id: v for v in videos}
    spec = data.fit_spec_from_records(records, by_id, GOP_INTERVAL, seed=seed)
    episodes = data.episodes_from_records(records, by_id, spec, GOP_INTERVAL)
    if tracer is not None:
        tracer.episode_units = {id(ep.first_pass_norm): f"episode:{i}" for i, ep in enumerate(episodes)}
    config = TrainConfig(epochs=epochs, preset=PRESET, seed=seed)
    result = policy_train.train(episodes, spec, config, log_path=out / "train_log.csv")
    policy_train.save_checkpoint(out / "checkpoint.npz", result.params, spec, config)
    return episodes, result


@dataclass
class Round:
    units: float                    # completed work, in the workload's throughput unit
    attempted: int
    failures: Counter = field(default_factory=Counter)  # error type name -> units
    quality: dict[str, float] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)         # what ``check`` needs
    seconds: float = 0.0            # process CPU time, less the speed samples
    speed_samples: list[float] = field(default_factory=list)  # see ``speed.measure``


class Teacher:
    """ES teacher labels for 100-300-frame videos, a few targets each."""

    throughput = ("labels_per_s", "labels/s")
    quality_units = {"es_reward_gain": "dB"}
    reproducible = ("teacher.jsonl",)

    def __init__(self, seed: int, size: Size, out: Path):
        self.seed, self.size, self.out = seed, size, out
        self.es = teacher.EsConfig(max_steps=size.teacher_es_steps, batch_size=16)

    def config(self) -> dict:
        return {"es": dataclasses.asdict(self.es), "targets_per_video": self.size.teacher_targets}

    def setup(self) -> None:
        videos = corpus(self.seed, self.size.teacher_videos, self.size.long_frames)
        simenc.save_corpus(self.out / "corpus.jsonl", videos)

    def run_round(self, tracer) -> Round:
        videos = simenc.load_corpus(self.out / "corpus.jsonl")
        records, failures = [], Counter()
        for vi, video in enumerate(videos):
            for bi in range(self.size.teacher_targets):
                tracer.unit = f"es:{vi}:{bi}"
                # One call per ES task, each with its own seed and target.
                config = teacher.TeacherConfig(
                    bitrates_per_video=1, es=self.es, seed=_task_seed(self.seed, vi, bi)
                )
                try:
                    records += teacher.build_teacher_dataset([video], config)
                except Exception as exc:  # noqa: BLE001 - one failed unit
                    failures[type(exc).__name__] += 1
        tracer.unit = None
        teacher.save_teacher_dataset(self.out / "teacher.jsonl", records)
        attempted = len(videos) * self.size.teacher_targets
        return Round(len(records), attempted, failures, outputs={"records": records, "videos": videos})

    def check(self, r: Round) -> list[str]:
        problems = []
        if r.failures["TeacherDataError"]:
            problems.append("record_from_result rejected a teacher record")
        by_id = {v.video_id: v for v in r.outputs["videos"]}
        gains = []
        for rec in r.outputs["records"]:
            video = by_id[rec.video_id]
            gop = simenc.plan_gop(video, GOP_INTERVAL)
            replay = simenc.replay_qp_sequence(video, gop, rec.label_qps, rec.target_bitrate_kbps)
            if (replay.bits, replay.reward) != (rec.label_bits, rec.reward):
                problems.append(f"{rec.video_id}@{rec.target_bitrate_kbps:.1f}: label replay differs")
            base = simenc.replay_qp_sequence(video, gop, rec.baseline_qps, rec.target_bitrate_kbps)
            gains.append(rec.reward - base.reward)
        r.quality["es_reward_gain"] = float(np.mean(gains)) if gains else 0.0
        return problems


class Imitate:
    """``ratelab train`` with the paper preset on short-ES labels."""

    throughput = ("train_frames_per_s", "frames/s")
    quality_units = {"train_top15": "ratio", "train_loss": "loss"}
    reproducible = ("train_log.csv",)

    def __init__(self, seed: int, size: Size, out: Path):
        self.seed, self.size, self.out = seed, size, out

    def config(self) -> dict:
        return {"label_es": dataclasses.asdict(LABEL_ES), "epochs": self.size.imitate_epochs,
                "preset": PRESET}

    def setup(self) -> None:
        videos = corpus(self.seed, self.size.imitate_videos, self.size.short_frames)
        simenc.save_corpus(self.out / "corpus.jsonl", videos)
        _label_dataset(videos, self.seed, self.out / "labels.jsonl")

    def run_round(self, tracer) -> Round:
        # ``train`` fails for every episode at once, so its errors cannot be
        # counted per unit: a diverged loss fails the output check, and any
        # other error ends the run.
        try:
            episodes, result = _train_policy(
                self.out, self.out / "corpus.jsonl", self.out / "labels.jsonl",
                self.seed, self.size.imitate_epochs, tracer,
            )
        except policy_train.TrainingDiverged as exc:
            nan = {k: math.nan for k in self.quality_units}
            return Round(0, self.size.imitate_videos, quality=nan, outputs={"diverged": str(exc)})
        frames = sum(ep.label_qps.size for ep in episodes)
        config = result.config
        per_epoch = math.ceil(len(episodes) / config.batch_size)
        last = result.log_rows[-per_epoch:]
        loss = np.mean([
            row["L_QP"] + config.beta1_frame_bits * row["L_frame_bits"]
            + config.beta2_total_bits * row["L_total_bits"]
            for row in last
        ])
        quality = {"train_top15": result.final_top15, "train_loss": float(loss)}
        return Round(config.epochs * frames, len(episodes), quality=quality,
                     outputs={"result": result})

    def check(self, r: Round) -> list[str]:
        if "diverged" in r.outputs:
            return [f"training diverged: {r.outputs['diverged']}"]
        problems = []
        result = r.outputs["result"]
        params, spec, _ = policy_train.load_checkpoint(self.out / "checkpoint.npz")
        for kind, saved, loaded in (
            ("param", result.params.state_arrays(), params.state_arrays()),
            ("spec", result.spec.to_arrays(), spec.to_arrays()),
        ):
            if saved.keys() != loaded.keys():
                problems.append(f"checkpoint {kind} names differ")
            for name in saved.keys() & loaded.keys():
                a, b = saved[name], loaded[name]
                if a.dtype != b.dtype or not np.array_equal(a, b):
                    problems.append(f"checkpoint {kind}/{name} does not round-trip")
        return problems


class Evaluate:
    """Anchor encodes, envelope fit and controlled rollouts on 100-300-frame videos."""

    throughput = ("eval_videos_per_s", "videos/s")
    quality_units = {"median_proj_bitrate_diff_pct": "%"}
    reproducible = ("policy_traces.jsonl", "eval.csv")

    def __init__(self, seed: int, size: Size, out: Path):
        self.seed, self.size, self.out = seed, size, out

    def config(self) -> dict:
        return {"target_kbps": TARGET_KBPS, "anchors": ANCHORS, "checkpoint_epochs": 1,
                "preset": PRESET, "calibration_seed": CALIBRATION_SEED,
                "feedback": dataclasses.asdict(inference.FeedbackConfig())}

    def setup(self) -> None:
        size, out = self.size, self.out
        lo, hi = size.short_frames
        calibration = simenc.generate_corpus(
            size.calibration_videos, CALIBRATION_SEED,
            simenc.VideoConfig(num_frames_min=lo, num_frames_max=hi),
        )
        simenc.save_corpus(out / "calibration.jsonl", calibration)
        traces = [
            baseline.run_baseline(v, simenc.plan_gop(v, GOP_INTERVAL), TARGET_KBPS)
            for v in calibration
        ]
        simenc.save_traces(out / "calibration_traces.jsonl", traces)
        _label_dataset(calibration[: size.checkpoint_videos], CALIBRATION_SEED, out / "labels.jsonl")
        _train_policy(out, out / "calibration.jsonl", out / "labels.jsonl", CALIBRATION_SEED, 1)
        videos = corpus(self.seed, size.eval_videos, size.long_frames)
        simenc.save_corpus(out / "corpus.jsonl", videos)

    def run_round(self, tracer) -> Round:
        out = self.out
        videos = simenc.load_corpus(out / "corpus.jsonl")
        calibration = simenc.load_traces(out / "calibration_traces.jsonl")
        params, spec, _ = policy_train.load_checkpoint(out / "checkpoint.npz")
        failures = Counter()
        gops = [simenc.plan_gop(v, GOP_INTERVAL) for v in videos]
        anchors = {}
        for vi, (video, gop) in enumerate(zip(videos, gops)):
            tracer.unit = f"video:{vi}"
            try:
                anchors[vi] = [baseline.run_baseline(video, gop, m * TARGET_KBPS) for m in ANCHORS]
            except Exception as exc:  # noqa: BLE001 - one failed unit
                failures[type(exc).__name__] += 1
        tracer.unit = "fit"
        bounds = inference.fit_bounds(calibration, TARGET_KBPS, min_traces=len(calibration))
        inference.save_bounds(out / "bounds.json", bounds)
        traces, completed = [], []
        for vi in anchors:
            tracer.unit = f"video:{vi}"
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, vi))))
            callback, _ = inference.controlled_policy(params, spec, bounds, rng)
            try:
                traces.append(simenc.run_episode(videos[vi], gops[vi], TARGET_KBPS, callback))
                completed.append(vi)
            except Exception as exc:  # noqa: BLE001 - one failed unit
                failures[type(exc).__name__] += 1
        tracer.unit = None
        curves = {videos[vi].video_id: metrics.rd_curve_from_traces(anchors[vi]) for vi in completed}
        simenc.save_traces(out / "policy_traces.jsonl", traces)
        report = metrics.summarize_suite(traces, curves)
        metrics.write_suite_csv(report, out / "eval.csv")
        quality = {"median_proj_bitrate_diff_pct": report.median_proj_bitrate_diff_pct}
        outputs = {"bounds": bounds, "traces": traces, "videos": [videos[vi] for vi in completed],
                   "gops": [gops[vi] for vi in completed]}
        return Round(len(completed), len(videos), failures, quality, outputs)

    def check(self, r: Round) -> list[str]:
        problems = []
        try:
            r.outputs["bounds"].validate()
        except inference.BoundsFitError as exc:
            problems.append(f"fitted bounds invalid: {exc}")
        for video, gop, trace in zip(r.outputs["videos"], r.outputs["gops"], r.outputs["traces"]):
            replay = simenc.replay_qp_sequence(video, gop, trace.qps, TARGET_KBPS)
            if (replay.bits, replay.mse) != (trace.bits, trace.mse):
                problems.append(f"{video.video_id}: controlled trace differs from its replay")
        return problems


WORKLOADS = {"teacher": Teacher, "imitate": Imitate, "evaluate": Evaluate}
