"""Policy network: transformer over first-pass statistics, recurrent core,
and two output heads (256 QP logits and a scalar frame-bits prediction).

The transformer runs once per episode over the full (T, 25) first-pass
matrix; the gated recurrent core then consumes, per frame, the frame's
transformer embedding concatenated with the step's input bundle. Each head,
like the transformer's feed-forward block, is one ``autodiff.mlp``.
Frame-bits predictions are in kilobits to keep the loss terms commensurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..simenc import FIRST_PASS_FEATURES
from . import autodiff as ad
from .autodiff import Tensor

__all__ = ["ArchConfig", "PRESETS", "PolicyParams", "forward", "ForwardResult"]

N_QP = 256
REL_RADIUS = 256  # offsets farther apart than this share the edge bias entry
N_FEATURES = len(FIRST_PASS_FEATURES)
HEAD_HIDDEN = (32, 16)  # hidden sizes of both output heads


@dataclass(frozen=True)
class ArchConfig:
    """The sizes a preset sets, and the width of the input bundle."""

    heads: int
    dk: int               # per-head key/query/value size
    dh: int               # transformer output size
    dr: int               # recurrent hidden size
    bundle_dim: int


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
        rng = np.random.Generator(np.random.PCG64(seed))
        self.tensors: dict[str, Tensor] = {}

        def param(name: str, shape: tuple[int, ...], fan_in: int) -> None:
            bound = math.sqrt(1.0 / fan_in)
            self.tensors[name] = Tensor(
                rng.uniform(-bound, bound, size=shape), requires_grad=True, name=name
            )

        def zeros(name: str, shape: tuple[int, ...]) -> None:
            self.tensors[name] = Tensor(np.zeros(shape), requires_grad=True, name=name)

        def mlp_layers(prefix: str, *sizes: int) -> None:
            for j, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]), start=1):
                param(f"{prefix}_w{j}", (n_in, n_out), n_in)
                zeros(f"{prefix}_b{j}", (n_out,))

        a = arch
        attn_dim = a.heads * a.dk
        # Transformer block
        zeros("ln_bias", (N_FEATURES,))
        self.tensors["ln_gain"] = Tensor(np.ones(N_FEATURES), requires_grad=True, name="ln_gain")
        param("attn_wq", (N_FEATURES, attn_dim), N_FEATURES)
        param("attn_wk", (N_FEATURES, attn_dim), N_FEATURES)
        param("attn_wv", (N_FEATURES, attn_dim), N_FEATURES)
        # No key bias: it adds q_i . b_k to every score of row i, which
        # softmax cancels.
        zeros("attn_bq", (attn_dim,))
        zeros("attn_bv", (attn_dim,))
        zeros("rel_bias", (a.heads, 2 * REL_RADIUS + 1))
        param("attn_wo", (attn_dim, a.dh), attn_dim)
        zeros("attn_bo", (a.dh,))
        mlp_layers("ffn", a.dh, a.dh, a.dh)
        # Recurrent core (input, forget, cell, output gates)
        in_dim = a.dh + a.bundle_dim
        param("lstm_wx", (in_dim, 4 * a.dr), in_dim)
        param("lstm_wh", (a.dr, 4 * a.dr), a.dr)
        zeros("lstm_b", (4 * a.dr,))
        # Encourage remembering early in training.
        self.tensors["lstm_b"].data[a.dr : 2 * a.dr] = 1.0
        # Output heads
        for head, out_dim in (("qp", N_QP), ("bits", 1)):
            mlp_layers(head, a.dr, *HEAD_HIDDEN, out_dim)

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def items(self):
        return self.tensors.items()

    def mlp(self, prefix: str) -> list[Tensor]:
        """(w1, b1, …, wn, bn) of the ``prefix`` MLP, in the order ``ad.mlp`` takes them."""
        return [t for name, t in self.tensors.items() if name.startswith(f"{prefix}_")]

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Load every parameter by name; the names must match exactly."""
        unmatched = arrays.keys() ^ self.tensors.keys()
        if unmatched:
            raise ValueError(f"arrays and parameters differ in {sorted(unmatched)}")
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


def transformer_embed(params: PolicyParams, first_pass_norm: np.ndarray) -> Tensor:
    """Per-frame embeddings (T, dh) from the normalized first-pass matrix.

    Training and rollouts run this same deterministic pass.
    """
    x = ad.layer_norm_rows(Tensor(first_pass_norm), params["ln_gain"], params["ln_bias"])
    q = _linear(x, params["attn_wq"], params["attn_bq"])
    k = ad.matmul(x, params["attn_wk"])
    v = _linear(x, params["attn_wv"], params["attn_bv"])
    attn = ad.attention(q, k, v, params["rel_bias"], REL_RADIUS)
    merged = _linear(attn, params["attn_wo"], params["attn_bo"])
    return ad.add(merged, ad.mlp(merged, *params.mlp("ffn")))


def lstm_unroll(params: PolicyParams, inputs: Tensor) -> Tensor:
    """Run the gated recurrent core over (T, dh + bundle) inputs; returns (T, dr)."""
    xw = ad.matmul(inputs, params["lstm_wx"])
    return ad.lstm(xw, params["lstm_wh"], params["lstm_b"])


def forward(
    params: PolicyParams, first_pass_norm: np.ndarray, bundles: np.ndarray
) -> ForwardResult:
    """Full-episode forward pass.

    ``first_pass_norm`` is the normalized (T, 25) matrix, ``bundles`` the
    (T, bundle_dim) per-step inputs. The pass is deterministic: the same
    inputs give the same outputs, in training and in evaluation alike.
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
    frame_emb = transformer_embed(params, first_pass_norm)
    core_in = ad.concat_cols([frame_emb, Tensor(bundles)])
    hidden = lstm_unroll(params, core_in)
    logits = ad.mlp(hidden, *params.mlp("qp"))
    bits_pred = ad.mlp(hidden, *params.mlp("bits"))
    return ForwardResult(logits=logits, bits_pred=bits_pred)
