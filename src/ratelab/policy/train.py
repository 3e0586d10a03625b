"""Imitation trainer: cross-entropy on QP labels plus auxiliary bit losses.

Per episode the loss is

    L = L_qp + beta1 * sum_t (b_t - b_t_label)^2 + beta2 * (sum_t b_t - budget)^2

with bits in kilobits. Training is teacher-forced; gradient steps use an
adaptive-moment optimizer. Checkpoints bundle the parameters, the feature
spec and the configuration in one self-describing npz container.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import EpisodeData
from .features import FeatureSpec
from .network import ForwardResult, PolicyParams, arch_from_preset, forward

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "LossBreakdown",
    "episode_loss",
    "Adam",
    "train",
    "TrainResult",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_SCHEMA",
]

CHECKPOINT_SCHEMA = "policy.v3"

# Adam's moment decays and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
TOP_K = 15  # the k of the top-k coverage that training logs and reports


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    beta1_frame_bits: float = 2.0
    beta2_total_bits: float = 2.0
    learning_rate: float = 3e-3
    batch_size: int = 8
    epochs: int = 40
    seed: int = 0
    preset: str = "tiny"

    def __post_init__(self) -> None:
        betas = (self.beta1_frame_bits, self.beta2_total_bits)
        if not all(math.isfinite(beta) and beta >= 0 for beta in betas):
            raise ValueError("loss weights must be finite and >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    qp: float
    frame_bits: float
    total_bits: float


def episode_loss(
    result: ForwardResult,
    label_qps: np.ndarray,
    label_bits_kbit: np.ndarray,
    budget_kbit: float,
    beta1: float,
    beta2: float,
    scale: float = 1.0,
) -> tuple[Tensor, LossBreakdown]:
    """Loss tape for one episode; ``scale`` averages over a batch."""
    T = label_qps.shape[0]
    if result.logits.data.shape[0] != T:
        raise ValueError("labels must cover every step")
    l_qp = ad.softmax_cross_entropy_sum(result.logits, label_qps)
    err = ad.sub(result.bits_pred, Tensor(label_bits_kbit.reshape(-1, 1)))
    l_frame = ad.sum_all(ad.mul(err, err))
    resid = ad.sub(ad.sum_all(result.bits_pred), Tensor(np.asarray(budget_kbit)))
    l_total = ad.mul(resid, resid)
    loss = ad.add(l_qp, ad.add(ad.mul(l_frame, beta1), ad.mul(l_total, beta2)))
    if scale != 1.0:
        loss = ad.mul(loss, scale)
    breakdown = LossBreakdown(
        total=float(loss.data) / scale if scale != 1.0 else float(loss.data),
        qp=float(l_qp.data),
        frame_bits=float(l_frame.data),
        total_bits=float(l_total.data),
    )
    return loss, breakdown


class Adam:
    """Adaptive-moment optimizer over the parameter tensors."""

    def __init__(self, params: PolicyParams, config: TrainConfig):
        self.params = params
        self.lr = config.learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, tensor in self.params.items():
            g = tensor.grad
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            tensor.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class TrainResult:
    params: PolicyParams
    spec: FeatureSpec
    config: TrainConfig
    log_rows: list[dict] = field(default_factory=list)
    final_top1: float = 0.0
    final_top15: float = 0.0


def _top_k_hits(logits: np.ndarray, labels: np.ndarray, k: int) -> tuple[int, int]:
    """(top-1 hits, top-k hits): rows whose label is the largest logit, or among the k largest."""
    top1 = int((logits.argmax(axis=1) == labels).sum())
    top_k = np.argpartition(logits, -k, axis=1)[:, -k:]
    return top1, int((top_k == labels[:, None]).any(axis=1).sum())


def top_k_coverage(
    params: PolicyParams, episodes: Sequence[EpisodeData], k: int = TOP_K
) -> tuple[float, float]:
    """(top-1 accuracy, top-k coverage) over all steps, without a tape."""
    hits1 = hitsk = total = 0
    for ep in episodes:
        with ad.no_grad():
            result = forward(params, ep.first_pass_norm, ep.bundles)
        h1, hk = _top_k_hits(result.logits.data, ep.label_qps, k)
        hits1 += h1
        hitsk += hk
        total += ep.label_qps.size
    return hits1 / total, hitsk / total


def train(
    episodes: Sequence[EpisodeData],
    spec: FeatureSpec,
    config: TrainConfig = TrainConfig(),
    log_path: str | Path | None = None,
) -> TrainResult:
    """Teacher-forced training over preprocessed episodes.

    Deterministic for a fixed (config, episode order): the parameters start
    from the config seed, and the episode shuffle, training's only random
    stream, derives from it too. Non-finite losses abort.
    """
    if not episodes:
        raise ValueError("training dataset is empty")
    arch = arch_from_preset(config.preset, spec.bundle_dim)
    params = PolicyParams(arch, seed=config.seed)
    optimizer = Adam(params, config)
    order_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 0x5E9))))
    log_rows: list[dict] = []
    global_step = 0
    for epoch in range(config.epochs):
        perm = order_rng.permutation(len(episodes))
        for start in range(0, len(perm), config.batch_size):
            batch = [episodes[i] for i in perm[start : start + config.batch_size]]
            params.zero_grads()
            agg = np.zeros(4)
            top1 = top15 = steps = 0
            for ep in batch:
                result = forward(params, ep.first_pass_norm, ep.bundles)
                loss, parts = episode_loss(
                    result,
                    ep.label_qps,
                    ep.label_bits_kbit,
                    ep.budget_kbit,
                    config.beta1_frame_bits,
                    config.beta2_total_bits,
                    scale=1.0 / len(batch),
                )
                if not math.isfinite(parts.total):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch} step {global_step}: {parts}"
                    )
                loss.backward()
                agg += (parts.total, parts.qp, parts.frame_bits, parts.total_bits)
                b_top1, b_top15 = _top_k_hits(result.logits.data, ep.label_qps, TOP_K)
                top1 += b_top1
                top15 += b_top15
                steps += ep.label_qps.size
            optimizer.step()
            global_step += 1
            agg /= len(batch)
            log_rows.append(
                {
                    "step": global_step,
                    "L_QP": agg[1],
                    "L_frame_bits": agg[2],
                    "L_total_bits": agg[3],
                    "top1": top1 / steps,
                    "top15": top15 / steps,
                }
            )
    final_top1, final_top15 = top_k_coverage(params, episodes)
    result = TrainResult(
        params=params,
        spec=spec,
        config=config,
        log_rows=log_rows,
        final_top1=final_top1,
        final_top15=final_top15,
    )
    if log_path is not None:
        write_training_log(log_path, log_rows)
    return result


def write_training_log(path: str | Path, rows: Sequence[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["step", "L_QP", "L_frame_bits", "L_total_bits", "top1", "top15"]
        )
        writer.writeheader()
        writer.writerows(rows)


def save_checkpoint(
    path: str | Path, params: PolicyParams, spec: FeatureSpec, config: TrainConfig
) -> None:
    """Single-file npz container: parameters + feature spec + config.

    Loading rebuilds the architecture from ``config.preset`` and the spec's
    bundle width, as ``train`` does, so params of another one are refused.
    """
    arch = arch_from_preset(config.preset, spec.bundle_dim)
    if params.arch != arch:
        raise ValueError(
            f"params have architecture {params.arch}, but preset {config.preset!r} builds {arch}"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"schema": CHECKPOINT_SCHEMA, "train_config": asdict(config)}
    arrays: dict[str, np.ndarray] = {
        "__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    }
    for name, data in params.state_arrays().items():
        arrays[f"param/{name}"] = data
    for name, data in spec.to_arrays().items():
        arrays[f"spec/{name}"] = data
    with path.open("wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, FeatureSpec, TrainConfig]:
    from ..io import SchemaError

    with np.load(Path(path), allow_pickle=False) as bundle:
        meta = json.loads(bytes(bundle["__meta__"]).decode())
        if meta.get("schema") != CHECKPOINT_SCHEMA:
            raise SchemaError(
                f"{path}: expected schema {CHECKPOINT_SCHEMA!r}, found {meta.get('schema')!r}"
            )
        config = TrainConfig(**meta["train_config"])
        spec = FeatureSpec.from_arrays(
            {k[len("spec/"):]: bundle[k] for k in bundle.files if k.startswith("spec/")}
        )
        params = PolicyParams(arch_from_preset(config.preset, spec.bundle_dim))
        params.load_state_arrays(
            {k[len("param/"):]: bundle[k] for k in bundle.files if k.startswith("param/")}
        )
    return params, spec, config
