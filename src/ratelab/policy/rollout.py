"""Inference-time policy execution as a ``run_episode`` callback.

Rollouts use the training network's own definition: ``transformer_embed``
runs once per episode under ``autodiff.no_grad``, and the recurrent core
advances one ``autodiff.lstm_cell`` step per frame, because each frame's
input bundle depends on the QPs chosen before it; it comes from the feature
code training uses, ``episode_features`` of the observation's video at
frame 0 and one ``build_features`` row per frame, from the observation's
``EncodeState``. Only the two small output heads have a numpy form here,
``eval_head``, which is two to three times faster per frame than a tape
pass.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..simenc import Observation
from .autodiff import lstm_cell, no_grad
from .features import FRAME_TYPE_ORDER, FeatureSpec, build_features, episode_features
from .network import PolicyParams, transformer_embed

__all__ = ["PolicyRunner", "eval_transformer", "eval_head"]


def _np(params: PolicyParams, name: str) -> np.ndarray:
    return params.tensors[name].data


def eval_transformer(params: PolicyParams, fp_norm: np.ndarray) -> np.ndarray:
    """Evaluation-mode per-frame embeddings (T, dh); no dropout, no tape."""
    with no_grad():
        return transformer_embed(params, fp_norm).data


def eval_lstm_step(
    params: PolicyParams, x: np.ndarray, h: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    pre = x @ _np(params, "lstm_wx") + h @ _np(params, "lstm_wh") + _np(params, "lstm_b")
    h_next, c_next, _ = lstm_cell(pre, c)
    return h_next, c_next


def eval_head(params: PolicyParams, prefix: str, h: np.ndarray) -> np.ndarray:
    z = np.maximum(0.0, h @ _np(params, f"{prefix}_w1") + _np(params, f"{prefix}_b1"))
    z = np.maximum(0.0, z @ _np(params, f"{prefix}_w2") + _np(params, f"{prefix}_b2"))
    return z @ _np(params, f"{prefix}_w3") + _np(params, f"{prefix}_b3")


class PolicyRunner:
    """Stateful per-episode callback: forward, sample, optionally adjust.

    ``sampler`` maps the 256 per-frame logits to a QP (the truncation trick
    lives in :mod:`ratelab.inference`); ``adjuster``, when given, may remap
    the sampled QP from the same logits (feedback control). The runner
    resets itself whenever it sees frame 0.
    """

    def __init__(
        self,
        params: PolicyParams,
        spec: FeatureSpec,
        sampler: Callable[[np.ndarray], int],
        adjuster: Callable[[Observation, np.ndarray, int], int] | None = None,
    ):
        self.params = params
        self.spec = spec
        self.sampler = sampler
        self.adjuster = adjuster
        # (T, dh), (T, 9) and the episode's bit budget, set at frame 0
        self._embed = self._episode = self._budget_bits = None
        self._h = self._c = None
        self.bits_predictions: list[float] = []

    def _reset(self, obs: Observation) -> None:
        video = obs.video
        fp_norm = self.spec.normalize_first_pass(video.first_pass)
        self._embed = eval_transformer(self.params, fp_norm)
        self._episode = episode_features(self.spec, video, obs.target_bitrate_kbps)
        self._budget_bits = obs.target_bitrate_kbps * 1000.0 * video.duration
        dr = self.params.arch.dr
        self._h = np.zeros(dr)
        self._c = np.zeros(dr)
        self.bits_predictions = []

    def logits_for(self, obs: Observation) -> np.ndarray:
        """Advance the recurrent state and return this frame's QP logits."""
        if obs.frame_index == 0 or self._embed is None:
            self._reset(obs)
        state = obs.state
        t = state.cursor
        prev_qp, prev_bits, prev_mse = state.last
        bundle = build_features(
            self.spec, self._episode[t], FRAME_TYPE_ORDER.index(obs.gop.frame_types[t]), prev_qp,
            prev_bits, prev_mse, state.cum_bits, self._budget_bits,
        )
        x = np.concatenate([self._embed[t], bundle])
        self._h, self._c = eval_lstm_step(self.params, x, self._h, self._c)
        self.bits_predictions.append(float(eval_head(self.params, "bits", self._h)[0]))
        return eval_head(self.params, "qp", self._h)

    def __call__(self, obs: Observation) -> int:
        logits = self.logits_for(obs)
        qp = self.sampler(logits)
        if self.adjuster is not None:
            qp = self.adjuster(obs, logits, qp)
        return qp
