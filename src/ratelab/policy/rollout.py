"""Inference-time policy execution as a ``run_episode`` callback.

The tape-based forward in :mod:`.network` recomputes the whole episode and
is what training differentiates; rollouts instead run an incremental
numpy-only mirror of the same math (transformer once per episode, one
recurrent step per frame), which a unit test keeps aligned with the tape.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..simenc import Observation
from .autodiff import relative_offsets
from .features import FeatureSpec, build_features
from .network import REL_RADIUS, PolicyParams

__all__ = ["PolicyRunner", "eval_transformer", "eval_head"]


def _np(params: PolicyParams, name: str) -> np.ndarray:
    return params.tensors[name].data


def eval_transformer(params: PolicyParams, fp_norm: np.ndarray) -> np.ndarray:
    """Evaluation-mode per-frame embeddings (T, dh); no dropout."""
    a = params.arch
    gain, bias = _np(params, "ln_gain"), _np(params, "ln_bias")
    mu = fp_norm.mean(axis=1, keepdims=True)
    xc = fp_norm - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    x = xc / np.sqrt(var + 1e-5) * gain + bias
    q = x @ _np(params, "attn_wq") + _np(params, "attn_bq")
    k = x @ _np(params, "attn_wk") + _np(params, "attn_bk")
    v = x @ _np(params, "attn_wv") + _np(params, "attn_bv")
    offsets = relative_offsets(fp_norm.shape[0], REL_RADIUS)
    scale = 1.0 / math.sqrt(a.dk)
    heads = []
    rel = _np(params, "rel_bias")
    for h in range(a.heads):
        j0, j1 = h * a.dk, (h + 1) * a.dk
        scores = (q[:, j0:j1] @ k[:, j0:j1].T) * scale + rel[h][offsets]
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        attn = e / e.sum(axis=1, keepdims=True)
        heads.append(attn @ v[:, j0:j1])
    merged = np.concatenate(heads, axis=1) @ _np(params, "attn_wo") + _np(params, "attn_bo")
    z = np.maximum(0.0, merged @ _np(params, "ffn_w1") + _np(params, "ffn_b1"))
    return merged + z @ _np(params, "ffn_w2") + _np(params, "ffn_b2")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def eval_lstm_step(
    params: PolicyParams, x: np.ndarray, h: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    dr = params.arch.dr
    gates = x @ _np(params, "lstm_wx") + h @ _np(params, "lstm_wh") + _np(params, "lstm_b")
    i = _sigmoid(gates[: dr])
    f = _sigmoid(gates[dr : 2 * dr])
    g = np.tanh(gates[2 * dr : 3 * dr])
    o = _sigmoid(gates[3 * dr :])
    c_next = f * c + i * g
    h_next = o * np.tanh(c_next)
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
        self._embed: np.ndarray | None = None
        self._h = self._c = None
        self.bits_predictions: list[float] = []

    def _reset(self, obs: Observation) -> None:
        fp_norm = self.spec.normalize_first_pass(np.asarray(obs.first_pass, dtype=np.float64))
        self._embed = eval_transformer(self.params, fp_norm)
        dr = self.params.arch.dr
        self._h = np.zeros(dr)
        self._c = np.zeros(dr)
        self.bits_predictions = []

    def logits_for(self, obs: Observation) -> np.ndarray:
        """Advance the recurrent state and return this frame's QP logits."""
        if obs.frame_index == 0 or self._embed is None:
            self._reset(obs)
        bundle = build_features(obs, self.spec, prev_qp=obs.prev_qp, prev_reward=0.0)
        x = np.concatenate([self._embed[obs.frame_index], bundle])
        self._h, self._c = eval_lstm_step(self.params, x, self._h, self._c)
        self.bits_predictions.append(float(eval_head(self.params, "bits", self._h)[0]))
        return eval_head(self.params, "qp", self._h)

    def __call__(self, obs: Observation) -> int:
        logits = self.logits_for(obs)
        qp = self.sampler(logits)
        if self.adjuster is not None:
            qp = self.adjuster(obs, logits, qp)
        return qp
