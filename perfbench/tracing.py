"""Per-layer tracing for the benchmark, installed from outside ``ratelab``.

``installed(tracer)`` replaces the public functions of each ratelab module
with wrappers and puts the originals back on exit. A function is replaced
under every ratelab module attribute that refers to it, so names a module
imported directly (``baseline.encode_frame``, ``inference.least_squares``,
``policy.rollout.build_features``, ``policy.train.forward``) are traced
too. ``src/ratelab`` itself carries no tracing code.

Spans are kept in memory. Each records its name, the unit of work it ran
for (an ES task, a training episode or an evaluated video), its parent
span, start, duration and self time (duration minus the time of its child
spans). Functions called about 1e5 times or more per run only count calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

# (name, unit, better, the end-to-end metrics it should move as
# "metric@workload"). End-to-end names are the per-workload names of the
# result record; units_per_s is labels_per_s on teacher,
# train_frames_per_s on imitate and eval_videos_per_s on evaluate.
LAYER_METRICS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("simenc.encode_frame.calls", "count", "lower",
     ("labels_per_s@teacher", "eval_videos_per_s@evaluate")),
    ("simenc.replay.calls", "count", "lower", ("labels_per_s@teacher",)),
    ("simenc.replay.s", "s", "lower", ("labels_per_s@teacher",)),
    ("simenc.run_episode.self_s", "s", "lower",
     ("eval_videos_per_s@evaluate",)),
    ("baseline.run.calls", "count", "lower",
     ("eval_videos_per_s@evaluate", "labels_per_s@teacher")),
    ("baseline.run.s", "s", "lower",
     ("eval_videos_per_s@evaluate", "labels_per_s@teacher")),
    ("baseline.qp_search.calls", "count", "lower",
     ("eval_videos_per_s@evaluate", "labels_per_s@teacher")),
    ("baseline.qp_search.s", "s", "lower",
     ("eval_videos_per_s@evaluate", "labels_per_s@teacher")),
    ("baseline.trials_per_search", "count", "lower",
     ("eval_videos_per_s@evaluate", "labels_per_s@teacher")),
    ("teacher.run_es.p50_s", "s", "lower", ("labels_per_s@teacher",)),
    ("teacher.es_step.calls", "count", "lower", ("labels_per_s@teacher",)),
    ("teacher.es_step.s", "s", "lower", ("labels_per_s@teacher",)),
    ("teacher.es_improve_frac", "ratio", "higher", ("labels_per_s@teacher",)),
    ("teacher.verify.s", "s", "lower", ("labels_per_s@teacher",)),
    ("policy.data.build.s", "s", "lower",
     ("train_frames_per_s@imitate", "eval_videos_per_s@evaluate")),
    ("policy.features.build.calls", "count", "lower",
     ("train_frames_per_s@imitate", "eval_videos_per_s@evaluate")),
    ("policy.features.build.s", "s", "lower",
     ("train_frames_per_s@imitate", "eval_videos_per_s@evaluate")),
    ("policy.network.forward.p50_s", "s", "lower",
     ("train_frames_per_s@imitate",)),
    ("policy.network.transformer.s", "s", "lower",
     ("train_frames_per_s@imitate",)),
    ("policy.network.lstm.s", "s", "lower",
     ("train_frames_per_s@imitate",)),
    ("policy.autodiff.backward.s", "s", "lower",
     ("train_frames_per_s@imitate",)),
    ("policy.autodiff.nodes", "count", "lower",
     ("train_frames_per_s@imitate",)),
    ("policy.train.loss.s", "s", "lower", ("train_frames_per_s@imitate",)),
    ("policy.train.adam.s", "s", "lower", ("train_frames_per_s@imitate",)),
    ("policy.train.coverage.s", "s", "lower", ("train_frames_per_s@imitate",)),
    ("policy.train.checkpoint.s", "s", "lower", ("train_frames_per_s@imitate",)),
    ("policy.rollout.transformer.s", "s", "lower",
     ("eval_videos_per_s@evaluate", "failed_frac@evaluate")),
    ("policy.rollout.step.calls", "count", "lower",
     ("eval_videos_per_s@evaluate", "failed_frac@evaluate")),
    ("policy.rollout.step.p50_us", "us", "lower",
     ("eval_videos_per_s@evaluate", "failed_frac@evaluate")),
    ("policy.rollout.failed", "count", "lower",
     ("eval_videos_per_s@evaluate", "failed_frac@evaluate")),
    ("inference.fit_bounds.s", "s", "lower", ("eval_videos_per_s@evaluate",)),
    ("inference.fit.starts", "count", "lower", ("eval_videos_per_s@evaluate",)),
    ("inference.fit.nfev", "count", "lower", ("eval_videos_per_s@evaluate",)),
    ("inference.fit.converged_frac", "ratio", "higher", ("eval_videos_per_s@evaluate",)),
    ("inference.sample.s", "s", "lower", ("eval_videos_per_s@evaluate",)),
    ("inference.feedback.s", "s", "lower", ("eval_videos_per_s@evaluate",)),
    ("inference.feedback.trigger_frac", "ratio", "lower", ("eval_videos_per_s@evaluate",)),
    ("metrics.rd_curve.s", "s", "lower", ("eval_videos_per_s@evaluate",)),
    ("metrics.summarize.s", "s", "lower", ("eval_videos_per_s@evaluate",)),
    ("io.write.s", "s", "lower",
     ("labels_per_s@teacher", "train_frames_per_s@imitate", "eval_videos_per_s@evaluate")),
    ("io.write.bytes", "bytes", "lower",
     ("labels_per_s@teacher", "train_frames_per_s@imitate", "eval_videos_per_s@evaluate")),
    ("io.read.s", "s", "lower",
     ("labels_per_s@teacher", "train_frames_per_s@imitate", "eval_videos_per_s@evaluate")),
    ("trace.overhead_frac", "ratio", "lower", ()),
)


class Span(NamedTuple):
    name: str
    unit: str | None
    parent: str | None
    start: float
    seconds: float
    self_seconds: float
    error: str | None


class Tracer:
    """In-memory spans, call counts and sampled values of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.unit: str | None = None
        # id(first_pass_norm) -> unit id of a training episode
        self.episode_units: dict[int, str] = {}
        self._stack: list[list] = []  # [name, seconds of child spans]

    def timed(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` may add counts."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                seconds = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += seconds
                spans.append(
                    Span(name, self.unit, parent[0] if parent else None, t0,
                         seconds, seconds - frame[1], error)
                )
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable, inside: str, inside_name: str) -> Callable:
        """Count calls of ``fn``; also count those made directly under span ``inside``."""
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack and stack[-1][0] == inside:
                counts[inside_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def eager(self, name: str, fn: Callable) -> Callable:
        """Span around a generator function, consumed inside the span."""
        timed_list = self.timed(name, lambda *a, **k: list(fn(*a, **k)))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            yield from timed_list(*args, **kwargs)

        return wrapper

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict(), separators=(",", ":")) + "\n")


def _tape_nodes(loss) -> int:
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _wrappers(tracer: Tracer) -> list[tuple[str, str, Callable[[Callable], Callable]]]:
    """(module, attribute, wrap) for every traced function or method."""
    t = tracer

    def timed(name, after=None):
        return lambda fn: t.timed(name, fn, after)

    def es_step_after(args, kwargs, new_state):
        t.counts["teacher.es_step.improved"] += new_state.best_reward > args[0].best_reward

    def least_squares_after(args, kwargs, fit):
        t.counts["inference.fit.starts"] += 1
        t.counts["inference.fit.nfev"] += int(fit.nfev)
        t.counts["inference.fit.converged"] += fit.status > 0

    def feedback_after(args, kwargs, qp):
        controller, obs = args[0], args[1]
        if obs.frame_index > 0:
            t.counts["inference.feedback.events"] += 1
            t.counts["inference.feedback.triggered"] += controller.events[-1].triggered

    def write_after(args, kwargs, n_rows):
        t.counts["io.write.bytes"] += os.path.getsize(args[0])

    def run_episode(fn):
        def with_callback_span(video, gop, target_bitrate_kbps, policy_callback, *args, **kwargs):
            callback = t.timed("simenc.policy_callback", policy_callback)
            return fn(video, gop, target_bitrate_kbps, callback, *args, **kwargs)

        return t.timed("simenc.run_episode", functools.wraps(fn)(with_callback_span))

    def backward(fn):
        timed_fn = t.timed("policy.autodiff.backward", fn)

        @functools.wraps(fn)
        def wrapper(self):
            t.samples["policy.autodiff.nodes"].append(_tape_nodes(self))
            return timed_fn(self)

        return wrapper

    def forward(fn):
        timed_fn = t.timed("policy.network.forward", fn)

        @functools.wraps(fn)
        def wrapper(params, first_pass_norm, *args, **kwargs):
            # Training forwards one episode at a time; the spans that follow
            # (loss, backward) belong to it until the next forward.
            t.unit = t.episode_units.get(id(first_pass_norm), t.unit)
            return timed_fn(params, first_pass_norm, *args, **kwargs)

        return wrapper

    return [
        ("ratelab.simenc", "encode_frame",
         lambda fn: t.counted("simenc.encode_frame", fn,
                              "baseline.qp_for_target_bits", "baseline.trial_encodes")),
        ("ratelab.simenc", "replay_qp_sequence", timed("simenc.replay_qp_sequence")),
        ("ratelab.simenc", "run_episode", run_episode),
        ("ratelab.baseline", "run_baseline", timed("baseline.run_baseline")),
        ("ratelab.baseline", "qp_for_target_bits", timed("baseline.qp_for_target_bits")),
        ("ratelab.teacher", "run_es", timed("teacher.run_es")),
        ("ratelab.teacher", "es_step", timed("teacher.es_step", es_step_after)),
        ("ratelab.teacher", "record_from_result", timed("teacher.record_from_result")),
        ("ratelab.policy.data", "fit_spec_from_records",
         timed("policy.data.fit_spec_from_records")),
        ("ratelab.policy.data", "episodes_from_records",
         timed("policy.data.episodes_from_records")),
        ("ratelab.policy.features", "build_features", timed("policy.features.build_features")),
        ("ratelab.policy.train", "forward", forward),
        ("ratelab.policy.network", "transformer_embed", timed("policy.network.transformer_embed")),
        ("ratelab.policy.network", "lstm_unroll", timed("policy.network.lstm_unroll")),
        ("ratelab.policy.autodiff", "Tensor.backward", backward),
        ("ratelab.policy.train", "episode_loss", timed("policy.train.episode_loss")),
        ("ratelab.policy.train", "Adam.step", timed("policy.train.adam_step")),
        ("ratelab.policy.train", "top_k_coverage", timed("policy.train.top_k_coverage")),
        ("ratelab.policy.train", "save_checkpoint", timed("policy.train.save_checkpoint")),
        ("ratelab.policy.rollout", "eval_transformer", timed("policy.rollout.eval_transformer")),
        ("ratelab.policy.rollout", "PolicyRunner.logits_for", timed("policy.rollout.logits_for")),
        ("ratelab.inference", "fit_bounds", timed("inference.fit_bounds")),
        ("ratelab.inference", "least_squares",
         timed("inference.least_squares", least_squares_after)),
        ("ratelab.inference", "truncated_sample", timed("inference.truncated_sample")),
        ("ratelab.inference", "FeedbackController.__call__",
         timed("inference.feedback", feedback_after)),
        ("ratelab.metrics", "rd_curve_from_traces", timed("metrics.rd_curve_from_traces")),
        ("ratelab.metrics", "summarize_suite", timed("metrics.summarize_suite")),
        ("ratelab.io", "write_jsonl", timed("io.write_jsonl", write_after)),
        ("ratelab.io", "read_jsonl", lambda fn: t.eager("io.read_jsonl", fn)),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Trace every ratelab layer for the duration of the block."""
    wrappers = [
        (importlib.import_module(module_name), attr, wrap)
        for module_name, attr, wrap in _wrappers(tracer)
    ]
    modules = [m for n, m in list(sys.modules.items()) if n == "ratelab" or n.startswith("ratelab.")]
    patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)
    try:
        for owner, attr, wrap in wrappers:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                patches.append((cls, method, original))
                setattr(cls, method, wrap(original))
                continue
            original = getattr(owner, attr)
            wrapped = wrap(original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapped)
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, rounds: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics per traced round, keyed as in ``LAYER_METRICS``."""
    total: Counter[str] = Counter()
    self_total: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    durations: defaultdict[str, list[float]] = defaultdict(list)
    rollout_failed = 0
    for span in tracer.spans:
        total[span.name] += span.seconds
        self_total[span.name] += span.self_seconds
        calls[span.name] += 1
        durations[span.name].append(span.seconds)
        # A rollout that raises does so out of one step's span.
        rollout_failed += span.name == "policy.rollout.logits_for" and span.error is not None
    c = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    per_round = {
        "simenc.encode_frame.calls": c["simenc.encode_frame"],
        "simenc.replay.calls": calls["simenc.replay_qp_sequence"],
        "simenc.replay.s": total["simenc.replay_qp_sequence"],
        "simenc.run_episode.self_s": self_total["simenc.run_episode"],
        "baseline.run.calls": calls["baseline.run_baseline"],
        "baseline.run.s": total["baseline.run_baseline"],
        "baseline.qp_search.calls": calls["baseline.qp_for_target_bits"],
        "baseline.qp_search.s": total["baseline.qp_for_target_bits"],
        "teacher.es_step.calls": calls["teacher.es_step"],
        "teacher.es_step.s": total["teacher.es_step"],
        "teacher.verify.s": total["teacher.record_from_result"],
        "policy.data.build.s": total["policy.data.fit_spec_from_records"]
        + total["policy.data.episodes_from_records"],
        "policy.features.build.calls": calls["policy.features.build_features"],
        "policy.features.build.s": total["policy.features.build_features"],
        "policy.network.transformer.s": total["policy.network.transformer_embed"],
        "policy.network.lstm.s": total["policy.network.lstm_unroll"],
        "policy.autodiff.backward.s": total["policy.autodiff.backward"],
        "policy.train.loss.s": total["policy.train.episode_loss"],
        "policy.train.adam.s": total["policy.train.adam_step"],
        "policy.train.coverage.s": total["policy.train.top_k_coverage"],
        "policy.train.checkpoint.s": total["policy.train.save_checkpoint"],
        "policy.rollout.transformer.s": total["policy.rollout.eval_transformer"],
        "policy.rollout.step.calls": calls["policy.rollout.logits_for"],
        "policy.rollout.failed": rollout_failed,
        "inference.fit_bounds.s": total["inference.fit_bounds"],
        "inference.fit.starts": c["inference.fit.starts"],
        "inference.fit.nfev": c["inference.fit.nfev"],
        "inference.sample.s": total["inference.truncated_sample"],
        "inference.feedback.s": total["inference.feedback"],
        "metrics.rd_curve.s": total["metrics.rd_curve_from_traces"],
        "metrics.summarize.s": total["metrics.summarize_suite"],
        "io.write.s": total["io.write_jsonl"],
        "io.write.bytes": c["io.write.bytes"],
        "io.read.s": total["io.read_jsonl"],
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out.update(
        {
            "baseline.trials_per_search": ratio(
                c["baseline.trial_encodes"], calls["baseline.qp_for_target_bits"]
            ),
            "teacher.run_es.p50_s": _p50(durations["teacher.run_es"]),
            "teacher.es_improve_frac": ratio(
                c["teacher.es_step.improved"], calls["teacher.es_step"]
            ),
            "policy.network.forward.p50_s": _p50(durations["policy.network.forward"]),
            "policy.autodiff.nodes": _p50(tracer.samples["policy.autodiff.nodes"]),
            "policy.rollout.step.p50_us": 1e6 * _p50(durations["policy.rollout.logits_for"]),
            "inference.fit.converged_frac": ratio(
                c["inference.fit.converged"], c["inference.fit.starts"]
            ),
            "inference.feedback.trigger_frac": ratio(
                c["inference.feedback.triggered"], c["inference.feedback.events"]
            ),
            "trace.overhead_frac": overhead_frac,
        }
    )
    return {name: float(out[name]) for name, *_ in LAYER_METRICS}
