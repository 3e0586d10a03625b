"""Minimal reverse-mode automatic differentiation on numpy float64 arrays.

A ``Tensor`` wraps an ndarray plus a gradient shadow of identical shape;
ops build a tape that ``backward`` walks in reverse topological order. Only
the operations needed by the policy network are implemented, each with an
explicit backward closure. All math is 64-bit.

Three ops are fused, one tape node each with a hand-written backward:
``attention`` (multi-head self-attention with a clipped relative-position
bias, added through a read-only strided Toeplitz view of one gather per
call), ``lstm`` (the recurrent core over a sequence, stepping in place the
numpy ``lstm_cell``) and ``mlp`` (linear layers, ReLU between them, by the
numpy ``mlp_forward``); rollouts call those two numpy functions too. Each
gives the values and gradients of its plain formulas bit for bit. Inside
``no_grad()`` ops record nothing, so a forward pass keeps no intermediates
alive.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["Tensor", "no_grad", "attention", "lstm", "lstm_cell", "mlp", "mlp_forward"]

_RECORDING = contextvars.ContextVar("autodiff_recording", default=True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Within the block, op results keep no parents and no backward closure."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


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
        if not _RECORDING.get():
            parents, backward = (), None
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


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        return ((a, np.broadcast_to(g, a.data.shape)),)

    return Tensor(a.data.sum(), parents=_tracked((a,)), backward=backward)


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


def relative_bias(table: np.ndarray, length: int, radius: int) -> np.ndarray:
    """Read-only (H, length, length) view of ``table[h][relative_offsets(length, radius)]``.

    Entry (i, j) depends only on i - j, so each head's matrix is a Toeplitz
    window, with negative row stride, over one gather of the 2*length - 1
    offsets from length - 1 down to 1 - length.
    """
    diagonals = np.clip(np.arange(length - 1, -length, -1), -radius, radius) + radius
    return sliding_window_view(table[:, diagonals], length, axis=1)[:, ::-1]


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    rel_bias: Tensor,
    radius: int,
) -> Tensor:
    """Multi-head self-attention with a learned relative-position bias.

    ``q``, ``k`` and ``v`` are (T, H*dk), head h in columns h*dk to
    (h+1)*dk; ``rel_bias`` is the (H, 2*radius + 1) table, read at
    ``relative_offsets(T, radius)`` through the strided ``relative_bias``
    view. Head h returns ``softmax(q_h k_hᵀ / sqrt(dk) + bias_h) @ v_h``.
    Heads run one at a time: at T = 300 that is faster than one batched
    (H, T, T) softmax.
    """
    heads = rel_bias.data.shape[0]
    T, width = q.data.shape
    dk = width // heads
    scale = 1.0 / math.sqrt(dk)
    bias = relative_bias(rel_bias.data, T, radius)
    cols = [slice(h * dk, (h + 1) * dk) for h in range(heads)]
    out_data = np.empty((T, width))
    # Each head's probabilities are kept for the backward pass only when the
    # tape records; otherwise the next head reuses their freed, cache-warm
    # memory, which makes a no_grad pass at T = 300 about 30% faster.
    probs = []
    record = _RECORDING.get()
    for h, c in enumerate(cols):
        p = q.data[:, c] @ k.data[:, c].T
        p *= scale
        p += bias[h]
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        if record:
            probs.append(p)
        out_data[:, c] = p @ v.data[:, c]

    def backward(g):
        dq, dkey, dv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        dtable = np.empty_like(rel_bias.data)
        offsets = relative_offsets(T, radius)
        for h, c in enumerate(cols):
            p, gh = probs[h], g[:, c]
            dv[:, c] = p.T @ gh
            dp = gh @ v.data[:, c].T
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            dtable[h] = np.bincount(offsets.ravel(), weights=ds.ravel(), minlength=2 * radius + 1)
            ds = ds * scale
            dq[:, c] = ds @ k.data[:, c]
            dkey[:, c] = (q.data[:, c].T @ ds).T
        return ((q, dq), (k, dkey), (v, dv), (rel_bias, dtable))

    return Tensor(out_data, parents=_tracked((q, k, v, rel_bias)), backward=backward)


def lstm_cell(
    pre: np.ndarray, c: np.ndarray, out: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of the recurrent core: writes and returns ``out = (h, c, gates)``.

    ``pre`` holds the (..., 4n) gate pre-activations in the order input,
    forget, cell, output, and ``c`` the previous (..., n) cell state.
    ``gates`` are the activations: sigmoid, except tanh for the cell gate.
    Training and rollouts both step here, each into arrays it allocated
    once.
    """
    n = c.shape[-1]
    h, c_next, gates = out
    np.negative(pre, out=gates)
    np.exp(gates, out=gates)
    gates += 1.0
    np.divide(1.0, gates, out=gates)
    np.tanh(pre[..., 2 * n : 3 * n], out=gates[..., 2 * n : 3 * n])
    i, f, g, o = (gates[..., j * n : (j + 1) * n] for j in range(4))
    np.multiply(f, c, out=c_next)
    np.multiply(i, g, out=h)
    c_next += h
    np.tanh(c_next, out=h)
    h *= o
    return out


def lstm(xw: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """Hidden states (T, n) of the recurrent core over a whole sequence.

    ``xw`` is the input projection ``inputs @ W_x`` (T, 4n), computed once
    for all steps. From zero states, step t is
    ``lstm_cell(xw[t] + h[t-1] @ wh + b, c[t-1])``, written in place into
    preallocated (T + 1, n) state arrays. The backward pass runs through
    time by hand. Its step-independent factors come first, in (T, ·)
    passes, and dpre[t] is then ``((d * p1[t]) * p2[t]) * p3[t]``: d is the
    cell gradient for the input, forget and cell gates and the hidden
    gradient for the output gate. Each element is computed in the order of
    the per-step gate derivatives, dc·g·i·(1−i), dc·c[t−1]·f·(1−f),
    dc·i·(1−g²) and dh·tanh(c)·o·(1−o), and equals them bit for bit.
    ``dwh = H[t-1]ᵀ · dpre`` is one matmul.
    """
    T, n = xw.data.shape[0], wh.data.shape[0]
    hs = np.zeros((T + 1, n))  # hs[t + 1] = h[t]; hs[0] is the zero state
    cs = np.zeros((T + 1, n))
    gates = np.empty_like(xw.data)
    pre = np.empty(4 * n)
    for t in range(T):
        np.matmul(hs[t], wh.data, out=pre)
        pre += xw.data[t]
        pre += b.data
        lstm_cell(pre, cs[t], (hs[t + 1], cs[t + 1], gates[t]))

    def backward(g):
        i, f, gc, o = (gates[:, j * n : (j + 1) * n] for j in range(4))
        tc = np.tanh(cs[1:])
        dtanh = 1.0 - tc * tc
        # The cell gate's two factors take an exact third factor of 1.0.
        p1 = np.concatenate([gc, cs[:-1], i, tc], axis=1)
        p2 = np.concatenate([i, f, 1.0 - gc * gc, o], axis=1)
        p3 = np.concatenate([1.0 - i, 1.0 - f, np.ones((T, n)), 1.0 - o], axis=1)
        p1_cell, p1_out = p1[:, : 3 * n].reshape(T, 3, n), p1[:, 3 * n :]
        dpre = np.empty_like(gates)
        dpre_cell, dpre_out = dpre[:, : 3 * n].reshape(T, 3, n), dpre[:, 3 * n :]
        wh_t = wh.data.T
        dh = np.zeros(n)
        dc = np.zeros(n)
        step = np.empty(n)
        for t in range(T - 1, -1, -1):
            dh += g[t]
            np.multiply(dh, o[t], out=step)
            step *= dtanh[t]
            dc += step
            np.multiply(dc, p1_cell[t], out=dpre_cell[t])
            np.multiply(dh, p1_out[t], out=dpre_out[t])
            dpre[t] *= p2[t]
            dpre[t] *= p3[t]
            dc *= f[t]
            np.matmul(dpre[t], wh_t, out=dh)
        return ((xw, dpre), (wh, hs[:-1].T @ dpre), (b, dpre.sum(axis=0)))

    return Tensor(hs[1:], parents=_tracked((xw, wh, b)), backward=backward)


def mlp_forward(
    x: np.ndarray, weights: Sequence[np.ndarray], inputs: list[np.ndarray] | None = None
) -> np.ndarray:
    """Layers ``x @ w + b`` for ``weights = (w1, b1, …, wn, bn)``, ReLU between
    them, on x (n,) or (T, n); each layer's input is appended to ``inputs``."""
    for j in range(0, len(weights), 2):
        if inputs is not None:
            inputs.append(x)
        x = x @ weights[j]
        x += weights[j + 1]
        if j < len(weights) - 2:
            np.maximum(x, 0.0, out=x)
    return x


def mlp(x: Tensor, *weights: Tensor) -> Tensor:
    """``mlp_forward`` as one tape node. Its backward runs the layers last
    first: the bias gets g summed over rows, the weight inputᵀ @ g, and the
    input g @ wᵀ, masked where that input (a ReLU output) is not positive."""
    inputs = [] if _RECORDING.get() else None
    out_data = mlp_forward(x.data, [w.data for w in weights], inputs)

    def backward(g):
        for j in range(len(weights) - 2, -1, -2):
            w, b, a = weights[j], weights[j + 1], inputs[j // 2]
            yield b, _unbroadcast(g, b.data.shape)
            yield w, np.atleast_2d(a).T @ np.atleast_2d(g)
            g = g @ w.data.T
            if j:
                g = g * (a > 0.0)
        yield x, g

    return Tensor(out_data, parents=_tracked((x, *weights)), backward=backward)


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
