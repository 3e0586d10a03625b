"""Inference-time policy wrappers.

Truncated sampling keeps only the strongest few QP logits before sampling;
the feedback controller compares the cumulative-bits trajectory against an
envelope and, when outside it, shifts the sampled QP along the
sorted top-candidate list proportionally to the violation, steering the
episode back toward the target without leaving the model's preferred
actions.

Both run at every frame of a rollout. The ranking sorts once, stably only
when the k-th logit is tied; the sample inverts the cdf at one uniform
draw; the controller evaluates the envelope once per episode. Each equals
its plain form (``lexsort``, ``rng.choice``, a bound per frame) bit for bit.

The envelope is the per-position quantiles of training trajectories,
stored as points and read by linear interpolation (see ``fit_bounds``).
The bounds file is one ``bounds.v3`` row of the codec every artifact shares,
``io.write_rows``; ``load_bounds`` also refuses a row that ``validate`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .io import SchemaError, read_rows, write_rows
from .simenc import EpisodeTrace, Observation

__all__ = [
    "BOUNDS_SCHEMA",
    "truncated_keep",
    "truncated_sample",
    "BoundsModel",
    "BoundsFitError",
    "fit_bounds",
    "FeedbackConfig",
    "feedback_adjust",
    "FeedbackController",
    "controlled_policy",
    "save_bounds",
    "load_bounds",
]

BOUNDS_SCHEMA = "bounds.v3"

# Truncated sampling draws from the SAMPLE_POOL strongest logits; feedback
# control moves the sampled QP within the CANDIDATE_POOL strongest.
SAMPLE_POOL = 15
CANDIDATE_POOL = 40


# ---------------------------------------------------------------------------
# Truncated sampling
# ---------------------------------------------------------------------------

def truncated_keep(logits: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest logits, ties resolved toward lower QP.

    Returned in ascending QP order.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (256,):
        raise ValueError(f"expected 256 logits, got shape {logits.shape}")
    neg = -logits
    order = neg.argsort()
    # Sorts put -inf first and +inf, then NaN, last: the ends show any
    # non-finite logit.
    if not (math.isfinite(neg[order[0]]) and math.isfinite(neg[order[-1]])):
        raise ValueError("logits must be finite")
    # The k strongest form one set unless the k-th and the next are tied;
    # then a stable sort keeps equal logits in ascending QP order.
    if 0 < k < neg.size and neg[order[k - 1]] == neg[order[k]]:
        order = neg.argsort(kind="stable")
    kept = order[:k]
    kept.sort()
    return kept


def truncated_sample(logits: np.ndarray, rng: np.random.Generator) -> int:
    """Sample a QP from the renormalized softmax over the top ``SAMPLE_POOL`` logits.

    The draw inverts the cumulative distribution at one ``rng.random()``,
    which is what ``rng.choice(kept, p=p)`` does on the same stream, without
    its checks of ``p``.
    """
    kept = truncated_keep(logits, SAMPLE_POOL)
    p = np.asarray(logits, dtype=np.float64)[kept]
    p -= p.max()
    np.exp(p, out=p)
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(kept[cdf.searchsorted(rng.random(), side="right")])


# ---------------------------------------------------------------------------
# Cumulative-bits envelope
# ---------------------------------------------------------------------------

class BoundsFitError(RuntimeError):
    """The traces cannot give an envelope: too few, or one that fails
    ``BoundsModel.validate``."""


# Envelope grid points, its outward margin and end tolerance (fractions of
# the target). Traces, and the runs bounds steer, must match the bounds'
# target to within TARGET_TOLERANCE_KBPS.
ENVELOPE_POINTS = 101
ENVELOPE_GRID = np.linspace(0.0, 1.0, ENVELOPE_POINTS)
ENVELOPE_GRID.setflags(write=False)
MIN_MARGIN_FRAC = 0.005
END_TOLERANCE = 0.05
TARGET_TOLERANCE_KBPS = 1e-6
# Default per-position quantiles the envelope covers, and the fewest traces
# it is taken from.
COVERAGE = (0.025, 0.975)
MIN_TRACES = 20


@dataclass(frozen=True)
class BoundsModel:
    """Lower/upper cumulative-bits envelope in kbps-equivalent units
    (cumulative bits divided by video duration): the value of each bound at
    the episode positions ``ENVELOPE_GRID``, read between them by ``at``."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    target_bitrate_kbps: float
    quantiles: tuple[float, float]

    def at(self, x: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The lower and upper bound at episode positions ``x``, by linear
        interpolation between the stored points."""
        return np.interp(x, ENVELOPE_GRID, self.lower), np.interp(x, ENVELOPE_GRID, self.upper)

    def validate(self) -> None:
        _check_coverage(*self.quantiles)
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.shape != (ENVELOPE_POINTS,) or hi.shape != (ENVELOPE_POINTS,):
            raise BoundsFitError(f"each bound must hold {ENVELOPE_POINTS} points")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise BoundsFitError("bound points must be finite")
        # Both bounds are linear between the same points, so they stay apart
        # everywhere when they are apart at every point.
        if not np.all(lo < hi):
            raise BoundsFitError("lower bound must stay strictly below upper bound")
        gap = float(hi[-1] - lo[-1])
        end_gap_frac = 2.0 * END_TOLERANCE
        if gap > end_gap_frac * self.target_bitrate_kbps + 1e-9:
            raise BoundsFitError(
                f"end gap {gap:.2f} exceeds {end_gap_frac:.0%} of target "
                f"{self.target_bitrate_kbps}"
            )


def _check_coverage(lo_q: float, hi_q: float) -> None:
    if not 0.0 <= lo_q < hi_q <= 1.0:
        raise ValueError("coverage quantiles must satisfy 0 <= lo < hi <= 1")


def _cumulative_kbps(trace: EpisodeTrace, duration: float) -> np.ndarray:
    cum = np.concatenate([[0.0], np.cumsum(trace.bits)])
    return cum / duration / 1000.0


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first call.

    Nothing in the package calls it: the envelope is the raw quantiles, with
    no fit. ``perfbench/tracing.py`` wraps this name to count fit starts, so
    it stays until the next benchmark change (ROADMAP item A) deletes it
    together with the tracer's ``inference.fit.*`` metrics.
    """
    from scipy.optimize import least_squares as fit

    return fit(*args, **kwargs)


def fit_bounds(
    traces: Sequence[EpisodeTrace],
    target_bitrate_kbps: float,
    coverage: tuple[float, float] = COVERAGE,
    min_traces: int = MIN_TRACES,
) -> BoundsModel:
    """The cumulative-bits envelope of training trajectories.

    Per-position quantiles of the trajectories, resampled onto
    ``ENVELOPE_GRID``, form the envelope. Each side is padded outward by
    ``MIN_MARGIN_FRAC`` of the target, so degenerate (zero-width) envelopes
    stay strictly bracketed, and its end is moved into
    ``target * (1 +/- END_TOLERANCE)`` by a correction that grows as x**2:
    the bound's running rate (value / x) moves by a share of the end's move
    that grows linearly from 0 at the start. Nothing is fitted: the paper fits a log curve to each side,
    but that curve's curvature is not identified on these envelopes, and
    the raw points steer held-out runs as well or better.
    """
    need = max(min_traces, 1)  # an envelope needs one trace, whatever min_traces allows
    if len(traces) < need:
        raise BoundsFitError(f"need at least {need} traces, got {len(traces)}")
    lo_q, hi_q = coverage
    _check_coverage(lo_q, hi_q)
    xs = ENVELOPE_GRID
    resampled = []
    for trace in traces:
        if abs(trace.target_bitrate_kbps - target_bitrate_kbps) > TARGET_TOLERANCE_KBPS:
            raise ValueError(
                f"trace targeted {trace.target_bitrate_kbps} kbps, expected "
                f"{target_bitrate_kbps}"
            )
        cum = _cumulative_kbps(trace, _duration_of(trace))
        pos = np.linspace(0.0, 1.0, len(trace.bits) + 1)
        resampled.append(np.interp(xs, pos, cum))
    stack = np.vstack(resampled)
    margin = MIN_MARGIN_FRAC * target_bitrate_kbps
    lower = np.quantile(stack, lo_q, axis=0) - margin
    upper = np.quantile(stack, hi_q, axis=0) + margin
    lo_clamp = target_bitrate_kbps * (1.0 - END_TOLERANCE)
    hi_clamp = target_bitrate_kbps * (1.0 + END_TOLERANCE)
    # A correction linear in x would move the running rate by the whole end
    # move at every position, narrowing the envelope the traces drew long
    # before the end; x**2 leaves the start of the episode nearly untouched.
    ramp = xs**2
    lower += ramp * (min(max(lower[-1], lo_clamp), target_bitrate_kbps) - lower[-1])
    upper += ramp * (max(min(upper[-1], hi_clamp), target_bitrate_kbps) - upper[-1])
    model = BoundsModel(
        lower=tuple(lower.tolist()),
        upper=tuple(upper.tolist()),
        target_bitrate_kbps=target_bitrate_kbps,
        quantiles=(lo_q, hi_q),
    )
    model.validate()
    return model


def _duration_of(trace: EpisodeTrace) -> float:
    # Traces do not persist the video duration; recover it from bitrate
    # accounting, which is exact: bitrate = sum(bits) / duration / 1000.
    total_bits = math.fsum(trace.bits)
    return total_bits / trace.bitrate_kbps / 1000.0


# ---------------------------------------------------------------------------
# Feedback control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedbackConfig:
    """Strength of the QP feedback controller."""

    alpha: float = 0.05            # index offset per kbps of bound violation

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")


def feedback_adjust(i: int, b_t: float, lower: float, upper: float, alpha: float) -> int:
    """Map a sampled candidate index to its feedback-adjusted index.

    ``i`` is 1-based within the QP-ascending candidate list. Undershooting
    the lower bound moves the index down (finer quantizer, more bits);
    overshooting the upper bound moves it up. Inside the bounds the index
    is returned unchanged.
    """
    if not 1 <= i <= CANDIDATE_POOL:
        raise ValueError(f"candidate index {i} outside 1..{CANDIDATE_POOL}")
    if b_t < lower:
        offset = -min(alpha * (lower - b_t), CANDIDATE_POOL)
    elif b_t > upper:
        offset = min(alpha * (b_t - upper), CANDIDATE_POOL)
    else:
        return i
    # No move spans more than CANDIDATE_POOL steps: capping the offset first
    # keeps a large alpha, whose product may be infinite, out of round().
    return max(1, min(CANDIDATE_POOL, i + round(offset)))


@dataclass
class ControlEvent:
    frame_index: int
    b_t: float
    lower: float
    upper: float
    sampled_index: int
    adjusted_index: int

    @property
    def triggered(self) -> bool:
        return self.sampled_index != self.adjusted_index


@dataclass
class FeedbackController:
    """Per-episode adjuster: remaps sampled QPs along the top-candidate list
    whenever the cumulative-bits trajectory leaves the envelope.

    At frame 0, which every episode starts with, it reads both bounds once,
    by ``BoundsModel.at``, at every later frame's episode position t / T.
    """

    bounds: BoundsModel
    config: FeedbackConfig = field(default_factory=FeedbackConfig)
    events: list[ControlEvent] = field(default_factory=list)
    # The lower and upper bound at t / T for t = 1 .. T - 1, set at frame 0.
    _envelope: tuple[list[float], list[float]] = field(
        default=([], []), init=False, repr=False
    )

    def __call__(self, obs: Observation, logits: np.ndarray, sampled_qp: int) -> int:
        t = obs.frame_index
        if t == 0:
            self.events = []
            num_frames = obs.video.num_frames
            lower, upper = self.bounds.at(np.arange(1, num_frames) / num_frames)
            self._envelope = (lower.tolist(), upper.tolist())
            # Nothing has been spent yet; control cannot act on frame 0.
            return sampled_qp
        candidates = truncated_keep(logits, CANDIDATE_POOL)
        pos = int(np.searchsorted(candidates, sampled_qp))
        if pos >= candidates.size or candidates[pos] != sampled_qp:
            raise RuntimeError("sampled QP not among the top candidates")
        i = pos + 1
        b_t = obs.cum_bits / obs.video.duration / 1000.0
        lower = self._envelope[0][t - 1]
        upper = self._envelope[1][t - 1]
        j = feedback_adjust(i, b_t, lower, upper, self.config.alpha)
        self.events.append(
            ControlEvent(
                frame_index=t,
                b_t=b_t,
                lower=lower,
                upper=upper,
                sampled_index=i,
                adjusted_index=j,
            )
        )
        return int(candidates[j - 1])


def controlled_policy(
    params,
    spec,
    bounds: BoundsModel | None,
    rng: np.random.Generator,
    config: FeedbackConfig = FeedbackConfig(),
):
    """Build a ``run_episode`` callback: truncated sampling, plus feedback
    control when ``bounds`` is given.

    Returns (callback, controller); the controller, None without bounds,
    exposes the per-step activation log after the episode.
    """
    from .policy.rollout import PolicyRunner

    controller = None if bounds is None else FeedbackController(bounds=bounds, config=config)
    runner = PolicyRunner(
        params,
        spec,
        sampler=lambda logits: truncated_sample(logits, rng),
        adjuster=controller,
    )
    return runner, controller


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_bounds(path: str | Path, model: BoundsModel) -> None:
    write_rows(path, [model], BOUNDS_SCHEMA)


def load_bounds(path: str | Path) -> BoundsModel:
    """Read a ``bounds.v3`` file; one that ``fit_bounds`` could not have
    written raises ``SchemaError`` before anything steers by it."""
    models = read_rows(path, BoundsModel, BOUNDS_SCHEMA)
    if len(models) != 1:
        raise SchemaError(f"{path}: expected one envelope, found {len(models)}")
    try:
        models[0].validate()
    except (TypeError, ValueError, BoundsFitError) as exc:
        raise SchemaError(f"{path}: not a valid envelope: {exc!r}") from exc
    return models[0]
