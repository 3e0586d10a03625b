"""Inference-time policy wrappers.

Truncated sampling keeps only the strongest few QP logits before sampling;
the feedback controller compares the cumulative-bits trajectory against a
fitted envelope and, when outside it, shifts the sampled QP along the
sorted top-candidate list proportionally to the violation, steering the
episode back toward the target without leaving the model's preferred
actions.

Both run at every frame of a rollout. The ranking sorts once, stably only
when the k-th logit is tied; the sample inverts the cdf at one uniform
draw; the controller evaluates the envelope once per episode. Each equals
its plain form (``lexsort``, ``rng.choice``, a bound per frame) bit for bit.

The envelope fit is the package's one use of scipy, which is imported on
the first fit, so that only processes that fit bounds load it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .io import SchemaError
from .simenc import EpisodeTrace, Observation

__all__ = [
    "BOUNDS_SCHEMA",
    "truncated_keep",
    "truncated_sample",
    "LogBound",
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

BOUNDS_SCHEMA = "bounds.v1"

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
    """Envelope fit failed or produced an invalid bounds model."""


@dataclass(frozen=True)
class LogBound:
    """One bound curve a1*log(a2*x + a3) + a4*x + a5 over x in [0, 1].

    Fitted curves carry a3 = 1, since a1*log(a3) folds into a5; a3 is kept
    so ``bounds.v1`` files with other values still load.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        arg = self.a2 * np.asarray(x, dtype=np.float64) + self.a3
        if np.any(arg <= 0.0):
            raise ValueError("log argument must stay positive over the episode")
        out = self.a1 * np.log(arg) + self.a4 * np.asarray(x) + self.a5
        return float(out) if np.ndim(x) == 0 else out

    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.a1, self.a2, self.a3, self.a4, self.a5)


# Envelope grid points, its outward margin and end tolerance (fractions of
# the target), and the bracket and start grid of the fitted curvature a2/a3.
# Traces, and the runs bounds steer, must match the bounds' target to within
# TARGET_TOLERANCE_KBPS.
ENVELOPE_POINTS = 101
MIN_MARGIN_FRAC = 0.005
END_TOLERANCE = 0.05
CURVATURE_BRACKET = (1e-3, 1e6)
CURVATURE_GRID = 64
TARGET_TOLERANCE_KBPS = 1e-6
# Default per-position quantiles the envelope covers, and the fewest traces
# it is fitted on.
COVERAGE = (0.025, 0.975)
MIN_TRACES = 20


@dataclass(frozen=True)
class BoundsModel:
    """Lower/upper cumulative-bits envelope in kbps-equivalent units
    (cumulative bits divided by video duration), over normalized episode
    position x in [0, 1]."""

    lower: LogBound
    upper: LogBound
    target_bitrate_kbps: float
    quantiles: tuple[float, float]

    def validate(self) -> None:
        xs = np.linspace(0.0, 1.0, 201)
        lo = self.lower(xs)
        hi = self.upper(xs)
        if not np.all(lo < hi):
            raise BoundsFitError("lower bound must stay strictly below upper bound")
        gap = float(hi[-1] - lo[-1])
        end_gap_frac = 2.0 * END_TOLERANCE
        if gap > end_gap_frac * self.target_bitrate_kbps + 1e-9:
            raise BoundsFitError(
                f"end gap {gap:.2f} exceeds {end_gap_frac:.0%} of target "
                f"{self.target_bitrate_kbps}"
            )


def _cumulative_kbps(trace: EpisodeTrace, duration: float) -> np.ndarray:
    cum = np.concatenate([[0.0], np.cumsum(trace.bits)])
    return cum / duration / 1000.0


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first call.

    Only the envelope fit uses scipy, so a process that fits no bounds never
    loads it.
    """
    from scipy.optimize import least_squares as fit

    return fit(*args, **kwargs)


def _fit_log_curve(xs: np.ndarray, ys: np.ndarray) -> LogBound:
    """Least-squares fit of a1*log(c*x + 1) + a4*x + a5 by variable projection.

    For a fixed curvature c the curve is linear in (a1, a4, a5), which one
    3-column solve gives in closed form (Golub & Pereyra 1973). What is left
    is a bounded 1-D search over log c, started from the best point of a
    coarse grid over ``CURVATURE_BRACKET``.
    """

    def project(log_c) -> tuple[np.ndarray, np.ndarray]:
        basis = np.column_stack([np.log(np.exp(log_c) * xs + 1.0), xs, np.ones_like(xs)])
        coef = np.linalg.lstsq(basis, ys, rcond=None)[0]
        return coef, basis @ coef - ys

    lo, hi = np.log(CURVATURE_BRACKET)
    grid = np.linspace(lo, hi, CURVATURE_GRID)
    start = grid[np.argmin([np.sum(project(g)[1] ** 2) for g in grid])]
    # The projected cost is flat near an interior optimum: the default ftol
    # (1e-8) stops about 1e-12 of the cost short of it.
    fit = least_squares(lambda p: project(p[0])[1], [start], bounds=(lo, hi), ftol=1e-12)
    (a1, a4, a5), _ = project(fit.x[0])
    bound = LogBound(float(a1), float(np.exp(fit.x[0])), 1.0, float(a4), float(a5))
    if fit.status <= 0 or not np.all(np.isfinite(bound.coefficients())):
        raise BoundsFitError(f"envelope fit failed (status {fit.status}): {fit.message}")
    return bound


def _shift_constant(bound: LogBound, delta: float) -> LogBound:
    return LogBound(bound.a1, bound.a2, bound.a3, bound.a4, bound.a5 + delta)


def _retarget_endpoint(bound: LogBound, end_value: float) -> LogBound:
    """Adjust the linear slope so the curve passes through (1, end_value).

    Leaves the start of the episode nearly untouched (the correction ramps
    linearly from zero at x=0).
    """
    delta = end_value - bound(1.0)
    return LogBound(bound.a1, bound.a2, bound.a3, bound.a4 + delta, bound.a5)


def fit_bounds(
    traces: Sequence[EpisodeTrace],
    target_bitrate_kbps: float,
    coverage: tuple[float, float] = COVERAGE,
    min_traces: int = MIN_TRACES,
) -> BoundsModel:
    """Fit the cumulative-bits envelope from training trajectories.

    Per-position quantiles of the trajectories (resampled onto a common
    normalized grid) form the raw envelope, padded outward by
    ``MIN_MARGIN_FRAC`` of the target so degenerate (zero-width) envelopes
    stay strictly bracketed; each side is then fitted with the parameterized
    logarithmic form and its endpoint tightened into
    ``target * (1 +/- END_TOLERANCE)``.
    """
    if len(traces) < min_traces:
        raise BoundsFitError(f"need at least {min_traces} traces, got {len(traces)}")
    lo_q, hi_q = coverage
    if not 0.0 <= lo_q < hi_q <= 1.0:
        raise ValueError("coverage quantiles must satisfy 0 <= lo < hi <= 1")
    xs = np.linspace(0.0, 1.0, ENVELOPE_POINTS)
    resampled = []
    for trace in traces:
        if abs(trace.target_bitrate_kbps - target_bitrate_kbps) > TARGET_TOLERANCE_KBPS:
            raise ValueError(
                f"trace targeted {trace.target_bitrate_kbps} kbps, expected "
                f"{target_bitrate_kbps}"
            )
        cum = _cumulative_kbps(trace, _duration_of(trace))
        pos = np.linspace(0.0, 1.0, trace.num_frames + 1)
        resampled.append(np.interp(xs, pos, cum))
    stack = np.vstack(resampled)
    margin = MIN_MARGIN_FRAC * target_bitrate_kbps
    lower_env = np.quantile(stack, lo_q, axis=0) - margin
    upper_env = np.quantile(stack, hi_q, axis=0) + margin

    lower = _fit_log_curve(xs, lower_env)
    upper = _fit_log_curve(xs, upper_env)
    # Shift each fit outward by its worst inward violation so the smooth
    # curves bracket the raw envelope pointwise.
    lower = _shift_constant(lower, -max(0.0, float(np.max(lower(xs) - lower_env))))
    upper = _shift_constant(upper, +max(0.0, float(np.max(upper_env - upper(xs)))))
    lo_clamp = target_bitrate_kbps * (1.0 - END_TOLERANCE)
    hi_clamp = target_bitrate_kbps * (1.0 + END_TOLERANCE)
    lower = _retarget_endpoint(
        lower, min(max(lower(1.0), lo_clamp), target_bitrate_kbps)
    )
    upper = _retarget_endpoint(
        upper, max(min(upper(1.0), hi_clamp), target_bitrate_kbps)
    )
    model = BoundsModel(
        lower=lower,
        upper=upper,
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
        return max(1, min(CANDIDATE_POOL, i - round(alpha * (lower - b_t))))
    if b_t > upper:
        return max(1, min(CANDIDATE_POOL, i + round(alpha * (b_t - upper))))
    return i


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

    At frame 0, which every episode starts with, it evaluates both bounds
    once at every later frame's episode position t / T.
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
            xs = np.arange(1, num_frames) / num_frames
            self._envelope = (self.bounds.lower(xs).tolist(), self.bounds.upper(xs).tolist())
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": BOUNDS_SCHEMA,
        "target_bitrate_kbps": model.target_bitrate_kbps,
        "quantiles": list(model.quantiles),
        "lower": dict(zip("a1 a2 a3 a4 a5".split(), model.lower.coefficients())),
        "upper": dict(zip("a1 a2 a3 a4 a5".split(), model.upper.coefficients())),
    }
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def load_bounds(path: str | Path) -> BoundsModel:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BOUNDS_SCHEMA:
        raise SchemaError(f"{path}: expected schema {BOUNDS_SCHEMA!r}, found {doc.get('schema')!r}")
    return BoundsModel(
        lower=LogBound(**doc["lower"]),
        upper=LogBound(**doc["upper"]),
        target_bitrate_kbps=doc["target_bitrate_kbps"],
        quantiles=tuple(doc["quantiles"]),
    )
