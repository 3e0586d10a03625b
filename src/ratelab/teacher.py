"""Evolution-strategies search over QP sequences and teacher dataset assembly.

Each (video, target bitrate) pair is optimized independently: the search
treats the QP sequence itself as the parameter vector, perturbs it with n/2
mirrored pairs of Gaussian noise (eps and -eps), and follows the
rank-weighted update of Salimans et al. 2017 (arXiv 1703.03864)

    theta <- theta + alpha * (1 / (n * sigma)) * sum_i w_i * eps_i

where w_i is the centered rank, in [-0.5, 0.5], of the reward
F(round(theta + sigma * eps_i)) among the n candidates, tied rewards sharing
their mean rank. The weights do not depend on the reward's scale, and a
pair whose two rewards are equal cancels. The learning rate decays
exponentially. The search is initialized from the heuristic VBR policy's QP
sequence so the solutions stay coherent across videos and remain
predictable from the observations.

The ranks come from a certified order: ``simenc.ranking_rewards`` orders a
batch by vectorized rewards whose gaps exceed their error bound, and scores
exactly only the lead row and the first maximum, the values best-so-far
keeps, and of those only a row that can become the best: one whose reward
is not below the best so far by more than the bound. A batch whose order it
cannot certify is scored exactly throughout. Every rank, best row and
stored reward is the one exact scoring gives.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import baseline as baseline_mod
from . import simenc
from .io import read_rows, write_rows
from .simenc import EpisodeTrace, SyntheticVideo

__all__ = [
    "TEACHER_SCHEMA",
    "EsConfig",
    "EsState",
    "EsResult",
    "TeacherRecord",
    "TeacherDataError",
    "es_step",
    "run_es",
    "TeacherConfig",
    "es_task_seed",
    "sample_targets",
    "build_teacher_dataset",
    "save_teacher_dataset",
    "load_teacher_dataset",
]

TEACHER_SCHEMA = "teacher.v2"

# The learning rate decays by DECAY_RATE every DECAY_EVERY steps. The
# learnability guard rejects labels whose mean |label - baseline| QP
# exceeds DRIFT_BOUND.
DECAY_RATE = 0.5
DECAY_EVERY = 100.0
DRIFT_BOUND = 64.0


class TeacherDataError(RuntimeError):
    """Teacher records failed replay verification or the learnability guard."""


@dataclass(frozen=True)
class EsConfig:
    sigma: float = 4.0              # QP units of Gaussian perturbation
    batch_size: int = 16
    learning_rate: float = 16.0
    max_steps: int = 100

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.batch_size < 2 or self.batch_size % 2:
            raise ValueError("batch_size must be even and >= 2 (mirrored pairs)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")

    def step_learning_rate(self, step: int) -> float:
        return self.learning_rate * DECAY_RATE ** (step / DECAY_EVERY)


@dataclass(frozen=True)
class EsState:
    theta: np.ndarray               # float QP parameters, clamped to [0, 255]
    step: int
    best_reward: float
    best_qps: np.ndarray            # rounded integer sequence of the best candidate
    lead_best: float | None = None  # best_reward after this step's lead row, if it had one


def _round_clamp(theta: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(theta), 0, simenc.QP_MAX).astype(np.int64)


def _centered_ranks(rewards: np.ndarray) -> np.ndarray:
    """Rank weights in [-0.5, 0.5], lowest reward first; ties share their mean rank."""
    ordered = np.sort(rewards)
    ranks = np.searchsorted(ordered, rewards, "left") + np.searchsorted(ordered, rewards, "right")
    return (ranks - 1) / (2 * (len(rewards) - 1)) - 0.5


def es_step(
    state: EsState,
    config: EsConfig,
    reward_fn: Callable[[np.ndarray, float], np.ndarray | float],
    noise_batch: np.ndarray,
    lead: np.ndarray | None = None,
) -> EsState:
    """One ES update from an injected batch of Gaussian perturbations.

    ``noise_batch`` has shape (batch_size, T). Candidates are rounded and
    clamped to valid QPs and scored in one call: ``reward_fn(rows, floor)``
    maps a (rows, T) integer array to one reward per row, and a scalar reward
    is broadcast to every row. ``floor`` is the best reward so far, which a
    row must beat to be kept: a row whose reward does not beat it may be
    given any value that does not either, in its place in the order.
    ``lead``, when given, is one more QP row scored in the same call ahead
    of the candidates; it competes for best-so-far first and takes no part
    in the update, and ``lead_best`` of the result is the best reward right
    after it. Candidates are weighted by centered rank, so the step is
    invariant to any increasing map of the rewards.
    """
    noise = np.asarray(noise_batch, dtype=np.float64)
    if noise.shape != (config.batch_size, state.theta.size):
        raise ValueError(
            f"noise batch shape {noise.shape} != {(config.batch_size, state.theta.size)}"
        )
    rows = _round_clamp(state.theta + config.sigma * noise)
    if lead is not None:
        rows = np.vstack([lead, rows])
    scored = reward_fn(rows, state.best_reward)
    scored = np.broadcast_to(np.asarray(scored, dtype=np.float64), len(rows))
    best_reward, best_qps, lead_best = state.best_reward, state.best_qps, None
    if lead is not None:
        if scored[0] > best_reward:
            best_reward, best_qps = float(scored[0]), rows[0]
        lead_best = best_reward
    # The first maximum, kept only on a strict improvement, as a scan in row
    # order would keep it.
    i = int(np.argmax(scored))
    if scored[i] > best_reward:
        best_reward, best_qps = float(scored[i]), rows[i]
    weights = _centered_ranks(scored if lead is None else scored[1:])
    alpha = config.step_learning_rate(state.step)
    update = alpha / (config.batch_size * config.sigma) * (weights @ noise)
    theta = np.clip(state.theta + update, 0.0, float(simenc.QP_MAX))
    return EsState(
        theta=theta, step=state.step + 1, best_reward=best_reward, best_qps=best_qps,
        lead_best=lead_best,
    )


@dataclass(frozen=True)
class EsResult:
    best_qps: tuple[int, ...]
    best_trace: EpisodeTrace        # canonical replay of the best sequence
    baseline_trace: EpisodeTrace
    best_reward_history: tuple[float, ...]  # best-so-far after each step


def _draw_noise(rng: np.random.Generator, config: EsConfig, length: int) -> np.ndarray:
    """Mirrored pairs: rows i and i + batch_size / 2 are opposite perturbations."""
    half = rng.standard_normal((config.batch_size // 2, length))
    return np.concatenate([half, -half], axis=0)


def run_es(
    video: SyntheticVideo, target_bitrate_kbps: float, config: EsConfig, seed: int
) -> EsResult:
    """Search QP sequences for one (video, target bitrate) pair; ``seed``
    drives the perturbation noise.

    Initializes from the heuristic policy's QP sequence and returns the
    best-reward rounded sequence seen during the whole search (not the final
    parameter vector), replayed frame by frame. Raises ``TeacherDataError``
    when that replay's reward is not the one the batch encoder scored.
    """
    gop = simenc.plan_gop(video)
    base_trace = baseline_mod.run_baseline(video, gop, target_bitrate_kbps)

    def reward_fn(qps: np.ndarray, floor: float) -> np.ndarray:
        return simenc.ranking_rewards(video, gop, qps, target_bitrate_kbps, floor)

    theta0 = np.asarray(base_trace.qps, dtype=np.float64)
    state = EsState(
        theta=theta0,
        step=0,
        best_reward=base_trace.reward,
        best_qps=_round_clamp(theta0),
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    history = []
    # Each step's rounded mean is scored too: it averages out the
    # perturbation noise and yields smoother, easier-to-imitate labels. It
    # rides ahead of the next step's population in the same batch.
    mean_qps = None
    for _ in range(config.max_steps):
        noise = _draw_noise(rng, config, state.theta.size)
        state = es_step(state, config, reward_fn, noise, lead=mean_qps)
        if mean_qps is not None:
            history.append(state.lead_best)
        mean_qps = _round_clamp(state.theta)
    if mean_qps is not None:
        mean_reward = float(reward_fn(mean_qps[None], state.best_reward)[0])
        if mean_reward > state.best_reward:
            state = replace(state, best_reward=mean_reward, best_qps=mean_qps)
        history.append(state.best_reward)

    best_qps = tuple(state.best_qps.tolist())
    best_trace = simenc.replay_qp_sequence(video, gop, best_qps, target_bitrate_kbps)
    if best_trace.reward != state.best_reward:
        raise TeacherDataError(
            f"{video.video_id}: replay scores {best_trace.reward!r}, "
            f"the search scored {state.best_reward!r}"
        )
    return EsResult(
        best_qps=best_qps,
        best_trace=best_trace,
        baseline_trace=base_trace,
        best_reward_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Teacher dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TeacherRecord:
    """One imitation example set for a (video, target bitrate) pair, labelled by ES.

    Labels are replayable: re-encoding ``label_qps`` reproduces
    ``label_bits`` and the final metrics exactly. Observations are not
    stored; they are regenerated deterministically by replaying the labels.
    """

    video_id: str
    target_bitrate_kbps: float
    label_qps: tuple[int, ...]
    label_bits: tuple[float, ...]
    baseline_qps: tuple[int, ...]   # the heuristic's sequence, where ES started
    psnr_db: float
    bitrate_kbps: float
    reward: float


@dataclass(frozen=True)
class TeacherConfig:
    bitrates_per_video: int = 4
    bitrate_min_kbps: float = 256.0
    bitrate_max_kbps: float = 768.0
    es: EsConfig = EsConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bitrates_per_video < 1:
            raise ValueError("bitrates_per_video must be >= 1")
        if not 0 < self.bitrate_min_kbps <= self.bitrate_max_kbps < math.inf:
            raise ValueError("bitrate range must be positive, finite and ordered")


def record_from_result(video: SyntheticVideo, result: EsResult) -> TeacherRecord:
    """One ES teacher record, unless its labels drift past ``DRIFT_BOUND``."""
    trace = result.best_trace
    drift = float(
        np.mean(np.abs(np.asarray(trace.qps) - np.asarray(result.baseline_trace.qps)))
    )
    if drift > DRIFT_BOUND:
        raise TeacherDataError(
            f"{video.video_id}: label drift {drift:.1f} exceeds bound {DRIFT_BOUND}"
        )
    return TeacherRecord(
        video_id=video.video_id,
        target_bitrate_kbps=trace.target_bitrate_kbps,
        label_qps=trace.qps,
        label_bits=trace.bits,
        baseline_qps=result.baseline_trace.qps,
        psnr_db=trace.psnr_db,
        bitrate_kbps=trace.bitrate_kbps,
        reward=trace.reward,
    )


def es_task_seed(master_seed: int, video_index: int, target_index: int) -> int:
    """ES seed of one (video, target) task, derived from the master seed."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(video_index, target_index))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def sample_targets(
    master_seed: int, video_index: int, count: int, lo_kbps: float, hi_kbps: float
) -> list[float]:
    """``count`` target bitrates for one video, uniform in [lo, hi], ascending."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(video_index,))
    rng = np.random.Generator(np.random.PCG64(seq))
    return sorted(float(t) for t in rng.uniform(lo_kbps, hi_kbps, size=count))


def _es_task(video: SyntheticVideo, target: float, es: EsConfig, seed: int) -> TeacherRecord:
    return record_from_result(video, run_es(video, target, es, seed))


def build_teacher_dataset(
    videos: Sequence[SyntheticVideo],
    config: TeacherConfig = TeacherConfig(),
    workers: int = 1,
) -> list[TeacherRecord]:
    """Verified ES records for each video vi at its ``sample_targets``, the
    bi-th searched with seed ``es_task_seed(config.seed, vi, bi)``;
    ``workers > 1`` runs the tasks in a process pool, with the same records."""
    tasks = [
        (video, target, config.es, es_task_seed(config.seed, vi, bi))
        for vi, video in enumerate(videos)
        for bi, target in enumerate(
            sample_targets(
                config.seed, vi, config.bitrates_per_video,
                config.bitrate_min_kbps, config.bitrate_max_kbps,
            )
        )
    ]
    if workers <= 1:
        return [_es_task(*task) for task in tasks]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(_es_task, *zip(*tasks)))


def save_teacher_dataset(path, records: Iterable[TeacherRecord]) -> int:
    return write_rows(path, records, TEACHER_SCHEMA)


def load_teacher_dataset(path) -> list[TeacherRecord]:
    return read_rows(path, TeacherRecord, TEACHER_SCHEMA)
