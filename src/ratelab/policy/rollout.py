"""Inference-time policy execution as a ``run_episode`` callback.

Rollouts use the training network's own definition: ``transformer_embed``
runs once per episode under ``autodiff.no_grad``, and the recurrent core
advances one ``autodiff.lstm_cell`` step per frame, because each frame's
input bundle depends on the QPs chosen before it. The bundle comes from the
feature code training uses, and the core's input projection is split along
it: at frame 0 one product projects every frame's embedding and its
``episode_features`` row, which the episode fixes, and each frame
multiplies only its ``build_features`` row, from the observation's encode
history; the sums differ from training's one product in their last bits.
The runner steps the cell in place on per-episode (T + 1, n) state arrays.
The QP head runs per frame through ``autodiff.mlp_forward``, the forward of
training's ``autodiff.mlp``; the bits head serves only training's losses,
and rollouts never run it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..simenc import Observation
from .autodiff import lstm_cell, mlp_forward, no_grad
from .features import FeatureSpec, build_features, episode_features
from .network import PolicyParams, transformer_embed

__all__ = ["PolicyRunner", "eval_transformer"]


def eval_transformer(params: PolicyParams, fp_norm: np.ndarray) -> np.ndarray:
    """Per-frame embeddings (T, dh) as a plain array: ``transformer_embed`` without a tape."""
    with no_grad():
        return transformer_embed(params, fp_norm).data


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
        wx, self._wh, self._b = (params[name].data for name in ("lstm_wx", "lstm_wh", "lstm_b"))
        # input-projection rows of the episode-fixed inputs, and of the rest
        k = params.arch.dh + spec.fixed_dim
        self._wx_fixed, self._wx_history = wx[:k], wx[k:]
        self._qp_head = [t.data for t in params.mlp("qp")]
        # set at frame 0: the bit budget and the (T, 4 dr) fixed projection
        self._budget_bits = self._fixed = None
        # (T + 1, dr) hidden and cell states, row t + 1 after frame t, and
        # the (4 dr,) gate buffer of the step
        self._hs = self._cs = self._gates = None

    def _reset(self, obs: Observation) -> None:
        video = obs.video
        embed = eval_transformer(self.params, self.spec.normalize_first_pass(video.first_pass))
        fixed = episode_features(self.spec, video, obs.gop, obs.target_bitrate_kbps)
        self._fixed = np.concatenate([embed, fixed], axis=1) @ self._wx_fixed
        self._fixed += self._b
        self._budget_bits = video.budget_bits(obs.target_bitrate_kbps)
        dr = self.params.arch.dr
        self._hs = np.zeros((video.num_frames + 1, dr))
        self._cs = np.zeros((video.num_frames + 1, dr))
        self._gates = np.empty(4 * dr)

    def logits_for(self, obs: Observation) -> np.ndarray:
        """Advance the recurrent state and return this frame's QP logits."""
        if obs.frame_index == 0 or self._fixed is None:
            self._reset(obs)
        t = obs.frame_index
        history = build_features(self.spec, *obs.last, obs.cum_bits, self._budget_bits)
        pre = self._hs[t] @ self._wh
        pre += self._fixed[t]
        pre += history @ self._wx_history
        h, _, _ = lstm_cell(pre, self._cs[t], (self._hs[t + 1], self._cs[t + 1], self._gates))
        return mlp_forward(h, self._qp_head)

    def __call__(self, obs: Observation) -> int:
        logits = self.logits_for(obs)
        qp = self.sampler(logits)
        if self.adjuster is not None:
            qp = self.adjuster(obs, logits, qp)
        return qp
