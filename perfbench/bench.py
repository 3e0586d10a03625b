"""Benchmark harness: set-up, timed rounds, output checks and the result.

A run sets its workload up several times and reports the median set-up
time, then repeats rounds of the same work for about ``seconds`` (at
least ``MIN_ROUNDS``), checking each round's outputs outside the timed
region. Times are process CPU seconds, with BLAS on one thread, scaled to
a machine of fixed speed (see ``speed``). Untraced runs give the
end-to-end metrics. Traced runs alternate an untraced and a traced round
of the same work and give the per-layer metrics, per traced round, and the
tracing overhead; no traced number feeds an end-to-end metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
# have passed, so that a short set-up still gives a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 20
SETUP_MIN_SECONDS = 2.0
# An untraced run makes at least MIN_ROUNDS rounds, so that the artifacts
# can be compared across rounds. A traced run makes at least
# MIN_TRACED_PAIRS traced/untraced pairs, so that the tracing overhead does
# not rest on one pair.
MIN_ROUNDS = 2
MIN_TRACED_PAIRS = 3

# (name, unit, better); every workload reports each of them. units_per_s is
# the workload's own throughput: labels_per_s, train_frames_per_s or
# eval_videos_per_s.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("units_per_s", "unit/s", "higher"),
)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _timed_round(workload, tracer: tracing.Tracer, sample_inside: bool) -> workloads.Round:
    # Start each round from the same heap: the tape graphs of training are
    # reference cycles that would otherwise be freed at times that depend
    # on earlier rounds.
    gc.collect()
    result, seconds, samples = speed.measure(lambda: workload.run_round(tracer), sample_inside)
    result.seconds, result.speed_samples = seconds, samples
    return result


def _scaled_round_seconds(rounds: list[workloads.Round]) -> float:
    """Mean CPU seconds of a round, scaled to a machine of fixed speed."""
    samples = [x for r in rounds for x in r.speed_samples]
    return speed.scaled(statistics.mean(r.seconds for r in rounds), samples)


def run(name: str, seed: int, seconds: float, trace: bool,
        size: workloads.Size = workloads.FULL, root: Path = ROOT) -> tuple[dict, dict]:
    """Run one workload; returns (result record, result line)."""
    out = root / ".perfbench_runs" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, size, out)

    setup_times: list[float] = []
    setup_scaled: list[float] = []
    while len(setup_times) < SETUP_MAX_REPEATS and (
        len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS
    ):
        _, cpu, samples = speed.measure(workload.setup)
        setup_times.append(cpu)
        setup_scaled.append(speed.scaled(cpu, samples))

    tracer = tracing.Tracer()
    plain: list[workloads.Round] = []
    traced: list[workloads.Round] = []
    problems: list[str] = []
    digests: dict[str, set[str]] = {artifact: set() for artifact in workload.reproducible}
    start = perf_counter()
    while True:
        step_start = perf_counter()
        rounds = []
        order = [False]
        if trace:
            # Alternate which of the pair goes first, so that drift in
            # machine speed does not bias the tracing overhead.
            order = [True, False] if len(plain) % 2 else [False, True]
        for traced_round in order:
            with tracing.installed(tracer) if traced_round else contextlib.nullcontext():
                # A traced run samples the speed only between rounds, so that
                # no sample falls inside a span and both rounds of a pair are
                # scaled alike.
                rounds.append(_timed_round(workload, tracer, sample_inside=not trace))
            (traced if traced_round else plain).append(rounds[-1])
        for r in rounds:
            problems += workload.check(r)
            r.outputs = {}  # so that memory does not grow with the round count
            for artifact in workload.reproducible:
                digests[artifact].add(_sha256(out / artifact))
        # Stop where the measured time ends closest to ``seconds``: one more
        # step of the same length would overshoot by more than stopping
        # falls short.
        step = perf_counter() - step_start
        enough = len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_ROUNDS
        if enough and perf_counter() - start + step / 2 > seconds:
            break
    for artifact, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"{artifact} differs between rounds of the same seed")

    every = plain + traced
    attempted = sum(r.attempted for r in every)
    failures = sum((r.failures for r in every), Counter())
    failed = sum(failures.values())
    setup_s = statistics.median(setup_scaled)
    units_per_s = statistics.mean(r.units for r in plain) / _scaled_round_seconds(plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    throughput_name, throughput_unit = workload.throughput
    named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
        throughput_name: (units_per_s, throughput_unit),
    }
    named.update(
        {k: (plain[-1].quality[k], unit) for k, unit in workload.quality_units.items()}
    )
    if trace:
        overhead = _scaled_round_seconds(traced) / _scaled_round_seconds(plain) - 1.0
        layers = tracing.layer_metrics(tracer, len(traced), overhead)
        metrics = {n: {"value": layers[n], "unit": u} for n, u, *_ in tracing.LAYER_METRICS}
        tracer.write(out / "spans.jsonl")
    else:
        e2e = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "units_per_s": units_per_s}
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _ in END_TO_END}

    record = {
        "schema": "perfbench.record.v1",
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": {"size": dataclasses.asdict(size), **workload.config()},
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_sha": git_sha(root),
        },
        "speed_samples_s": [x for r in plain for x in r.speed_samples],
        "setup_cpu_s": setup_times,
        "round_cpu_s": [r.seconds for r in plain],
        "traced_round_cpu_s": [r.seconds for r in traced],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "failures": dict(failures),
        "problems": problems,
        "artifacts": {
            p.name: _sha256(p) for p in sorted(out.iterdir()) if p.name != "spans.jsonl"
        },
    }
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, line
