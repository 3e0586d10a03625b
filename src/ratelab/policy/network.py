"""Policy network: transformer over first-pass statistics, recurrent core,
and two output heads (256 QP logits and a scalar frame-bits prediction).

The transformer runs once per episode over the full (T, 25) first-pass
matrix; the gated recurrent core then consumes, per frame, the frame's
transformer embedding concatenated with the step's input bundle. Frame-bits
predictions are in kilobits to keep the loss terms commensurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = ["ArchConfig", "PRESETS", "PolicyParams", "forward", "ForwardResult"]

N_QP = 256
REL_RADIUS = 256  # offsets farther apart than this share the edge bias entry


@dataclass(frozen=True)
class ArchConfig:
    heads: int = 16
    dk: int = 16          # per-head key/query/value size
    dh: int = 128         # transformer output size
    dr: int = 128         # recurrent hidden size
    bundle_dim: int = 46
    n_features: int = 25
    dropout_rate: float = 0.1
    head_hidden: tuple[int, int] = (32, 16)


PRESETS: dict[str, dict] = {
    "paper": dict(heads=16, dk=16, dh=128, dr=128),
    "tiny": dict(heads=2, dk=4, dh=16, dr=16),
}


def arch_from_preset(preset: str, bundle_dim: int) -> ArchConfig:
    if preset not in PRESETS:
        raise ValueError(f"unknown size preset {preset!r}; choose from {sorted(PRESETS)}")
    return ArchConfig(bundle_dim=bundle_dim, **PRESETS[preset])


class PolicyParams:
    """All learnable tensors, each with a same-shape gradient shadow."""

    def __init__(self, arch: ArchConfig, seed: int = 0):
        self.arch = arch
        self.seed = seed
        rng = np.random.Generator(np.random.PCG64(seed))
        self.tensors: dict[str, Tensor] = {}

        def param(name: str, shape: tuple[int, ...], fan_in: int) -> None:
            bound = math.sqrt(1.0 / fan_in)
            self.tensors[name] = Tensor(
                rng.uniform(-bound, bound, size=shape), requires_grad=True, name=name
            )

        def zeros(name: str, shape: tuple[int, ...]) -> None:
            self.tensors[name] = Tensor(np.zeros(shape), requires_grad=True, name=name)

        a = arch
        attn_dim = a.heads * a.dk
        # Transformer block
        zeros("ln_bias", (a.n_features,))
        self.tensors["ln_gain"] = Tensor(np.ones(a.n_features), requires_grad=True, name="ln_gain")
        param("attn_wq", (a.n_features, attn_dim), a.n_features)
        param("attn_wk", (a.n_features, attn_dim), a.n_features)
        param("attn_wv", (a.n_features, attn_dim), a.n_features)
        # No key bias: it adds q_i . b_k to every score of row i, which
        # softmax cancels.
        zeros("attn_bq", (attn_dim,))
        zeros("attn_bv", (attn_dim,))
        zeros("rel_bias", (a.heads, 2 * REL_RADIUS + 1))
        param("attn_wo", (attn_dim, a.dh), attn_dim)
        zeros("attn_bo", (a.dh,))
        param("ffn_w1", (a.dh, a.dh), a.dh)
        zeros("ffn_b1", (a.dh,))
        param("ffn_w2", (a.dh, a.dh), a.dh)
        zeros("ffn_b2", (a.dh,))
        # Recurrent core (input, forget, cell, output gates)
        in_dim = a.dh + a.bundle_dim
        param("lstm_wx", (in_dim, 4 * a.dr), in_dim)
        param("lstm_wh", (a.dr, 4 * a.dr), a.dr)
        zeros("lstm_b", (4 * a.dr,))
        # Encourage remembering early in training.
        self.tensors["lstm_b"].data[a.dr : 2 * a.dr] = 1.0
        # Output heads
        h1, h2 = a.head_hidden
        for head, out_dim in (("qp", N_QP), ("bits", 1)):
            param(f"{head}_w1", (a.dr, h1), a.dr)
            zeros(f"{head}_b1", (h1,))
            param(f"{head}_w2", (h1, h2), h1)
            zeros(f"{head}_b2", (h2,))
            param(f"{head}_w3", (h2, out_dim), h2)
            zeros(f"{head}_b3", (out_dim,))

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def items(self):
        return self.tensors.items()

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Load every parameter by name; arrays of no parameter are ignored."""
        for name, t in self.tensors.items():
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name}: {src.shape} != {t.data.shape}")
            t.data = src.copy()
            t.grad = np.zeros_like(t.data)


@dataclass
class ForwardResult:
    logits: Tensor       # (T, 256)
    bits_pred: Tensor    # (T, 1), kilobits


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, w), b)


def _dropout_mask(rng: np.random.Generator | None, shape: tuple[int, ...], rate: float) -> np.ndarray:
    if rng is None:
        raise ValueError("train-mode forward needs a dropout rng")
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def transformer_embed(
    params: PolicyParams,
    first_pass_norm: np.ndarray,
    train_mode: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """Per-frame embeddings (T, dh) from the normalized first-pass matrix."""
    a = params.arch
    T = first_pass_norm.shape[0]
    x = ad.layer_norm_rows(Tensor(first_pass_norm), params["ln_gain"], params["ln_bias"])
    q = _linear(x, params["attn_wq"], params["attn_bq"])
    k = ad.matmul(x, params["attn_wk"])
    v = _linear(x, params["attn_wv"], params["attn_bv"])
    mask = None
    if train_mode and a.dropout_rate > 0.0:
        mask = _dropout_mask(dropout_rng, (a.heads, T, T), a.dropout_rate)
    attn = ad.attention(q, k, v, params["rel_bias"], REL_RADIUS, mask)
    merged = _linear(attn, params["attn_wo"], params["attn_bo"])
    z = ad.relu(_linear(merged, params["ffn_w1"], params["ffn_b1"]))
    return ad.add(merged, _linear(z, params["ffn_w2"], params["ffn_b2"]))


def lstm_unroll(params: PolicyParams, inputs: Tensor) -> Tensor:
    """Run the gated recurrent core over (T, dh + bundle) inputs; returns (T, dr)."""
    xw = ad.matmul(inputs, params["lstm_wx"])
    return ad.lstm(xw, params["lstm_wh"], params["lstm_b"])


def _head(params: PolicyParams, prefix: str, x: Tensor) -> Tensor:
    z = ad.relu(_linear(x, params[f"{prefix}_w1"], params[f"{prefix}_b1"]))
    z = ad.relu(_linear(z, params[f"{prefix}_w2"], params[f"{prefix}_b2"]))
    return _linear(z, params[f"{prefix}_w3"], params[f"{prefix}_b3"])


def forward(
    params: PolicyParams,
    first_pass_norm: np.ndarray,
    bundles: np.ndarray,
    train_mode: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> ForwardResult:
    """Full-episode forward pass.

    ``first_pass_norm`` is the normalized (T, 25) matrix, ``bundles`` the
    (T, bundle_dim) per-step inputs. Dropout is active only in train mode
    and is driven by the injected rng, so a fixed rng makes the pass
    deterministic.
    """
    if first_pass_norm.ndim != 2 or bundles.ndim != 2:
        raise ValueError("first_pass_norm and bundles must be 2-D")
    if first_pass_norm.shape[0] != bundles.shape[0]:
        raise ValueError(
            f"frame count mismatch: {first_pass_norm.shape[0]} vs {bundles.shape[0]}"
        )
    if bundles.shape[1] != params.arch.bundle_dim:
        raise ValueError(
            f"bundle dim {bundles.shape[1]} != configured {params.arch.bundle_dim}"
        )
    frame_emb = transformer_embed(params, first_pass_norm, train_mode, dropout_rng)
    core_in = ad.concat_cols([frame_emb, Tensor(bundles)])
    hidden = lstm_unroll(params, core_in)
    logits = _head(params, "qp", hidden)
    bits_pred = _head(params, "bits", hidden)
    return ForwardResult(logits=logits, bits_pred=bits_pred)
