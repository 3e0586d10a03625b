"""Times scaled to a machine of fixed speed.

On a shared machine the same code runs up to twice as slow for seconds at a
time, as other load comes and goes on the same cores, and process CPU time
slows with it. So the benchmark samples how fast the machine runs: just
before and after each timed phase, and every ``SAMPLE_EVERY`` seconds of
CPU time while it runs, it times ``reference_work``, a fixed mix of
interpreter work and small numpy operations, like ratelab's own, that uses
no ratelab code. A time is then scaled by ``REFERENCE_SECONDS`` over the
mean of those samples: it reads as the time on a machine where
``reference_work`` takes ``REFERENCE_SECONDS`` of CPU time. A change to
ratelab moves the measured time but not the samples.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import process_time
from typing import Callable, TypeVar

import numpy as np

# CPU seconds of ``reference_work`` on a quiet 2-core Xeon VM, with numpy's
# BLAS on one thread. The constant only sets the scale of the figures.
REFERENCE_SECONDS = 0.006
# A sample every 0.1 s of CPU time costs about 6% more CPU time, which is
# not counted in the measured time.
SAMPLE_EVERY = 0.1

T = TypeVar("T")


def reference_work() -> float:
    rng = np.random.default_rng(0)
    a, m = rng.standard_normal(256), rng.standard_normal((32, 32))
    total = 0.0
    for _ in range(1000):
        total += float((np.exp(-np.abs(a)) * 0.5 + a).sum()) + float((m @ m)[0, 0])
    return total


def _sample(samples: list[float]) -> None:
    c0 = process_time()
    reference_work()
    samples.append(process_time() - c0)


@contextlib.contextmanager
def _sampling(samples: list[float]):
    # SIGPROF fires every SAMPLE_EVERY seconds of process CPU time; Python
    # runs the handler in the main thread between two bytecodes.
    previous = signal.signal(signal.SIGPROF, lambda signum, frame: _sample(samples))
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY, SAMPLE_EVERY)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def measure(fn: Callable[[], T], inside: bool = True) -> tuple[T, float, list[float]]:
    """Run ``fn``; return its value, its process CPU seconds less the
    samples', and the samples (just before and after it and, if
    ``inside``, while it runs)."""
    samples: list[float] = []
    _sample(samples)
    c0 = process_time()
    with _sampling(samples) if inside else contextlib.nullcontext():
        value = fn()
    seconds = process_time() - c0 - sum(samples[1:])
    _sample(samples)
    return value, seconds, samples


def scaled(seconds: float, samples: list[float]) -> float:
    """``seconds`` of CPU time, measured while ``samples`` were taken, scaled."""
    return seconds * REFERENCE_SECONDS / statistics.mean(samples)
