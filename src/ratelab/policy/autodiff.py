"""Minimal reverse-mode automatic differentiation on numpy float64 arrays.

A ``Tensor`` wraps an ndarray plus a gradient shadow of identical shape;
ops build a tape that ``backward`` walks in reverse topological order. Only
the operations needed by the policy network are implemented, each with an
explicit backward closure. All math is 64-bit.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "constant"]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor w.r.t. the tape."""
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones(())}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad += g
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if id(parent) in grads:
                        grads[id(parent)] += pg
                    else:
                        grads[id(parent)] = pg.copy() if pg.base is not None else pg


def constant(data) -> Tensor:
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(parents: Sequence[Tensor]) -> tuple[Tensor, ...]:
    return tuple(p for p in parents if p.requires_grad or p._parents)


def add(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data + b.data

    def backward(g):
        return ((a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape)))

    return Tensor(out_data, parents=_tracked((a, b)), backward=backward)


def sub(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data - b.data

    def backward(g):
        return ((a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(-g, b.data.shape)))

    return Tensor(out_data, parents=_tracked((a, b)), backward=backward)


def mul(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data * b.data

    def backward(g):
        return (
            (a, _unbroadcast(g * b.data, a.data.shape)),
            (b, _unbroadcast(g * a.data, b.data.shape)),
        )

    return Tensor(out_data, parents=_tracked((a, b)), backward=backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def backward(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return Tensor(out_data, parents=_tracked((a, b)), backward=backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        return ((a, g.T),)

    return Tensor(a.data.T, parents=_tracked((a,)), backward=backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def backward(g):
        return ((a, g * mask),)

    return Tensor(a.data * mask, parents=_tracked((a,)), backward=backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        return ((a, g * (1.0 - out_data * out_data)),)

    return Tensor(out_data, parents=_tracked((a,)), backward=backward)


def sigmoid(a: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        return ((a, g * out_data * (1.0 - out_data)),)

    return Tensor(out_data, parents=_tracked((a,)), backward=backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        return ((a, np.broadcast_to(g, a.data.shape)),)

    return Tensor(a.data.sum(), parents=_tracked((a,)), backward=backward)


def slice_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    def backward(g):
        full = np.zeros_like(a.data)
        full[..., j0:j1] = g
        return ((a, full),)

    return Tensor(a.data[..., j0:j1], parents=_tracked((a,)), backward=backward)


def slice_rows(a: Tensor, i0: int, i1: int) -> Tensor:
    def backward(g):
        full = np.zeros_like(a.data)
        full[i0:i1] = g
        return ((a, full),)

    return Tensor(a.data[i0:i1], parents=_tracked((a,)), backward=backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    widths = [p.data.shape[-1] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=-1)

    def backward(g):
        grads = []
        j = 0
        for p, w in zip(parts, widths):
            grads.append((p, g[..., j : j + w]))
            j += w
        return tuple(grads)

    return Tensor(out_data, parents=_tracked(parts), backward=backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    heights = [p.data.shape[0] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=0)

    def backward(g):
        grads = []
        i = 0
        for p, h in zip(parts, heights):
            grads.append((p, g[i : i + h]))
            i += h
        return tuple(grads)

    return Tensor(out_data, parents=_tracked(parts), backward=backward)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        return ((a, out_data * (g - dot)),)

    return Tensor(out_data, parents=_tracked((a,)), backward=backward)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization with learned per-column gain and bias."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        n = x.data.shape[-1]
        g_xhat = g * gain.data
        dx = (
            inv
            * (
                g_xhat
                - g_xhat.mean(axis=-1, keepdims=True)
                - xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True)
            )
        )
        g_gain = _unbroadcast(g * xhat, gain.data.shape)
        g_bias = _unbroadcast(g, bias.data.shape)
        return ((x, dx), (gain, g_gain), (bias, g_bias))

    return Tensor(out_data, parents=_tracked((x, gain, bias)), backward=backward)


def relative_offsets(length: int, radius: int) -> np.ndarray:
    """(length, length) indices ``clip(i - j, -radius, radius) + radius``.

    Offsets beyond the radius share the table entry at the radius (Shaw et
    al. 2018), so any sequence length is accepted.
    """
    idx = np.arange(length)
    return np.clip(idx[:, None] - idx[None, :], -radius, radius) + radius


def rel_bias_matrix(table: Tensor, length: int, radius: int) -> Tensor:
    """Build a (length, length) bias with entry [i, j] = table[clip(i - j) + radius]."""
    offsets = relative_offsets(length, radius)
    out_data = table.data[offsets]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, offsets, g)
        return ((table, gt),)

    return Tensor(out_data, parents=_tracked((table,)), backward=backward)


def softmax_cross_entropy_sum(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Summed cross-entropy of row-wise softmax vs integer labels."""
    z = logits.data
    shifted = z - z.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(z.shape[0])
    out_data = -log_probs[rows, labels].sum()

    def backward(g):
        probs = np.exp(log_probs)
        probs[rows, labels] -= 1.0
        return ((logits, g * probs),)

    return Tensor(out_data, parents=_tracked((logits,)), backward=backward)
