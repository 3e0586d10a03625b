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
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import baseline as baseline_mod
from . import simenc
from .io import read_jsonl, write_jsonl
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
    "run_es_tasks",
    "build_teacher_dataset",
    "save_teacher_dataset",
    "load_teacher_dataset",
]

TEACHER_SCHEMA = "teacher.v1"

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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.batch_size < 2 or self.batch_size % 2:
            raise ValueError("batch_size must be even and >= 2 (mirrored pairs)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")

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
    reward_fn: Callable[[np.ndarray], np.ndarray | float],
    noise_batch: np.ndarray,
    lead: np.ndarray | None = None,
) -> EsState:
    """One ES update from an injected batch of Gaussian perturbations.

    ``noise_batch`` has shape (batch_size, T). Candidates are rounded and
    clamped to valid QPs and scored in one call: ``reward_fn`` maps a
    (rows, T) integer array to one reward per row, and a scalar reward is
    broadcast to every row. ``lead``, when given, is one more QP row scored
    in the same call ahead of the candidates; it competes for best-so-far
    first and takes no part in the update, and ``lead_best`` of the result
    is the best reward right after it. Candidates are weighted by centered
    rank, so the step is invariant to any increasing map of the rewards.
    """
    noise = np.asarray(noise_batch, dtype=np.float64)
    if noise.shape != (config.batch_size, state.theta.size):
        raise ValueError(
            f"noise batch shape {noise.shape} != {(config.batch_size, state.theta.size)}"
        )
    rows = _round_clamp(state.theta + config.sigma * noise)
    if lead is not None:
        rows = np.vstack([lead, rows])
    scored = np.broadcast_to(np.asarray(reward_fn(rows), dtype=np.float64), len(rows))
    best_reward = state.best_reward
    best_qps = state.best_qps
    lead_best = None
    for i, reward in enumerate(scored):
        if reward > best_reward:
            best_reward = float(reward)
            best_qps = rows[i]
        if i == 0 and lead is not None:
            lead_best = best_reward
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


def run_es(video: SyntheticVideo, target_bitrate_kbps: float, config: EsConfig) -> EsResult:
    """Search QP sequences for one (video, target bitrate) pair.

    Initializes from the heuristic policy's QP sequence and returns the
    best-reward rounded sequence seen during the whole search (not the final
    parameter vector), replayed frame by frame. Raises ``TeacherDataError``
    when that replay's reward is not the one the batch encoder scored.
    """
    gop = simenc.plan_gop(video)
    base_trace = baseline_mod.run_baseline(video, gop, target_bitrate_kbps)

    def reward_fn(qps: np.ndarray) -> np.ndarray:
        bits, mse = simenc.encode_batch(video, gop, qps)
        return simenc.batch_rewards(video, gop, bits, mse, target_bitrate_kbps)

    theta0 = np.asarray(base_trace.qps, dtype=np.float64)
    state = EsState(
        theta=theta0,
        step=0,
        best_reward=base_trace.reward,
        best_qps=_round_clamp(theta0),
    )
    rng = np.random.Generator(np.random.PCG64(config.seed))
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
        mean_reward = float(reward_fn(mean_qps[None])[0])
        if mean_reward > state.best_reward:
            state = replace(state, best_reward=mean_reward, best_qps=mean_qps)
        history.append(state.best_reward)

    best_qps = tuple(int(q) for q in state.best_qps)
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
    """One imitation example set for a (video, target bitrate) pair.

    Labels are replayable: re-encoding ``label_qps`` reproduces
    ``label_bits`` and the final metrics exactly. Observations are not
    stored; they are regenerated deterministically by replaying the labels.
    """

    video_id: str
    target_bitrate_kbps: float
    provenance: str                 # "ES" or "HER"
    label_qps: tuple[int, ...]
    label_bits: tuple[float, ...]
    baseline_qps: tuple[int, ...]   # empty for HER records
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
        if not 0 < self.bitrate_min_kbps <= self.bitrate_max_kbps:
            raise ValueError("bitrate range must be positive and ordered")


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
        provenance="ES",
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


def _es_task(video: SyntheticVideo, target: float, es: EsConfig) -> TeacherRecord:
    return record_from_result(video, run_es(video, target, es))


def run_es_tasks(
    videos: Sequence[SyntheticVideo],
    targets: Sequence[Sequence[float]],
    es: EsConfig,
    seed: int,
    workers: int = 1,
) -> list[TeacherRecord]:
    """Verified ES records for each video vi and target ``targets[vi][bi]``,
    searched with seed ``es_task_seed(seed, vi, bi)``; ``workers > 1`` runs
    the tasks in a process pool, with the same records."""
    tasks = [
        (video, target, replace(es, seed=es_task_seed(seed, vi, bi)))
        for vi, video in enumerate(videos)
        for bi, target in enumerate(targets[vi])
    ]
    if workers <= 1:
        return [_es_task(*task) for task in tasks]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(_es_task, *zip(*tasks)))


def build_teacher_dataset(
    videos: Sequence[SyntheticVideo],
    config: TeacherConfig = TeacherConfig(),
    workers: int = 1,
) -> list[TeacherRecord]:
    """Run ES per (video, sampled target bitrate) and collect verified records."""
    targets = [
        sample_targets(
            config.seed, vi, config.bitrates_per_video,
            config.bitrate_min_kbps, config.bitrate_max_kbps,
        )
        for vi in range(len(videos))
    ]
    return run_es_tasks(videos, targets, config.es, config.seed, workers)


def record_to_dict(rec: TeacherRecord) -> dict:
    return {
        "video_id": rec.video_id,
        "target_bitrate_kbps": rec.target_bitrate_kbps,
        "provenance": rec.provenance,
        "label_qps": list(rec.label_qps),
        "label_bits": list(rec.label_bits),
        "baseline_qps": list(rec.baseline_qps),
        "psnr_db": rec.psnr_db,
        "bitrate_kbps": rec.bitrate_kbps,
        "reward": rec.reward,
    }


def record_from_dict(d: dict) -> TeacherRecord:
    return TeacherRecord(
        video_id=d["video_id"],
        target_bitrate_kbps=d["target_bitrate_kbps"],
        provenance=d["provenance"],
        label_qps=tuple(int(q) for q in d["label_qps"]),
        label_bits=tuple(d["label_bits"]),
        baseline_qps=tuple(int(q) for q in d["baseline_qps"]),
        psnr_db=d["psnr_db"],
        bitrate_kbps=d["bitrate_kbps"],
        reward=d["reward"],
    )


def save_teacher_dataset(path, records: Iterable[TeacherRecord]) -> int:
    return write_jsonl(path, (record_to_dict(r) for r in records), TEACHER_SCHEMA)


def load_teacher_dataset(path) -> list[TeacherRecord]:
    return [record_from_dict(d) for d in read_jsonl(path, TEACHER_SCHEMA)]
