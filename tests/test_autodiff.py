import numpy as np
import pytest

from ratelab.policy import autodiff as ad
from ratelab.policy.autodiff import Tensor


def numeric_directional(loss_fn, tensor, rng, h=1e-6):
    v = rng.normal(size=tensor.data.shape)
    v /= np.linalg.norm(v.ravel())
    orig = tensor.data.copy()
    tensor.data = orig + h * v
    lp = float(loss_fn().data)
    tensor.data = orig - h * v
    lm = float(loss_fn().data)
    tensor.data = orig
    return (lp - lm) / (2 * h), v


def check_grad(build_loss, tensors, rng, tol=1e-6):
    loss = build_loss()
    for t in tensors:
        t.zero_grad()
    loss.backward()
    for t in tensors:
        fd, v = numeric_directional(build_loss, t, rng)
        analytic = float((t.grad * v).sum())
        assert analytic == pytest.approx(fd, rel=tol, abs=1e-7)


def test_add_mul_broadcast_grads(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def loss():
        return ad.sum_all(ad.mul(ad.add(a, b), ad.add(a, b)))

    check_grad(loss, [a, b], rng)


def test_matmul_transpose_grads(rng):
    a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def loss():
        prod = ad.matmul(a, b)
        return ad.sum_all(ad.mul(prod, prod))

    check_grad(loss, [a, b], rng)


def test_nonlinearity_grads(rng):
    x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    shapes = ((2, 5), (5,), (5, 4), (4,), (4, 3), (3,))
    weights = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
    w = Tensor(rng.normal(size=(6, 3)))

    def loss():
        return ad.sum_all(ad.mul(ad.mlp(x, *weights), w))

    check_grad(loss, [x, *weights], rng)


def test_layer_norm_grads(rng):
    x = Tensor(rng.normal(size=(4, 9)), requires_grad=True)
    gain = Tensor(rng.normal(size=(9,)) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(size=(9,)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 9)))

    def loss():
        return ad.sum_all(ad.mul(ad.layer_norm_rows(x, gain, bias), w))

    check_grad(loss, [x, gain, bias], rng)


def reference_attention(q, k, v, table, radius):
    """Multi-head attention written out head by head and entry by entry."""
    T, width = q.shape
    heads = table.shape[0]
    dk = width // heads
    out = np.zeros((T, width))
    for h in range(heads):
        cols = slice(h * dk, (h + 1) * dk)
        bias = np.empty((T, T))
        for i in range(T):
            for j in range(T):
                bias[i, j] = table[h, min(max(i - j, -radius), radius) + radius]
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dk) + bias
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        out[:, cols] = p @ v[:, cols]
    return out


def test_attention_matches_reference_and_grads(rng):
    # T - 1 > radius, so the offsets farthest apart clip to the table's edges.
    T, heads, dk, radius = 8, 2, 3, 3
    q, k, v = (Tensor(rng.normal(size=(T, heads * dk)), requires_grad=True) for _ in range(3))
    table = Tensor(rng.normal(size=(heads, 2 * radius + 1)), requires_grad=True)
    w = Tensor(rng.normal(size=(T, heads * dk)))

    def loss():
        return ad.sum_all(ad.mul(ad.attention(q, k, v, table, radius), w))

    out = ad.attention(q, k, v, table, radius).data
    ref = reference_attention(q.data, k.data, v.data, table.data, radius)
    assert np.allclose(out, ref, rtol=1e-12, atol=1e-14)
    check_grad(loss, [q, k, v, table], rng)


def test_lstm_cell_matches_gate_formulas(rng):
    n = 5
    pre = rng.normal(size=4 * n) * 3
    c = rng.normal(size=n)
    buffers = (np.empty(n), np.empty(n), np.empty(4 * n))
    h_next, c_next, gates = ad.lstm_cell(pre, c, buffers)
    assert all(a is buf for a, buf in zip((h_next, c_next, gates), buffers))

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    i, f, o = (sigmoid(pre[j * n : (j + 1) * n]) for j in (0, 1, 3))
    g = np.tanh(pre[2 * n : 3 * n])
    assert np.allclose(gates, np.concatenate([i, f, g, o]), rtol=1e-14)
    assert np.allclose(c_next, f * c + i * g, rtol=1e-14)
    assert np.allclose(h_next, o * np.tanh(f * c + i * g), rtol=1e-14)


def test_lstm_grads(rng):
    T, n = 6, 3
    xw = Tensor(rng.normal(size=(T, 4 * n)), requires_grad=True)
    wh = Tensor(rng.normal(size=(n, 4 * n)), requires_grad=True)
    b = Tensor(rng.normal(size=(4 * n,)), requires_grad=True)
    w = Tensor(rng.normal(size=(T, n)))

    def loss():
        return ad.sum_all(ad.mul(ad.lstm(xw, wh, b), w))

    check_grad(loss, [xw, wh, b], rng)


def test_cross_entropy_matches_manual(rng):
    logits = Tensor(rng.normal(size=(6, 9)), requires_grad=True)
    labels = rng.integers(0, 9, size=6)

    def loss():
        return ad.softmax_cross_entropy_sum(logits, labels)

    z = logits.data
    log_probs = z - np.log(np.exp(z - z.max(1, keepdims=True)).sum(1, keepdims=True)) - z.max(
        1, keepdims=True
    )
    manual = -log_probs[np.arange(6), labels].sum()
    assert float(loss().data) == pytest.approx(manual, rel=1e-12)
    check_grad(loss, [logits], rng)


def test_backward_requires_scalar(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.add(x, x).backward()


def test_grad_accumulates_across_shared_use(rng):
    x = Tensor(np.array(3.0), requires_grad=True)
    y = ad.mul(x, x)  # d/dx x^2 = 2x
    x.zero_grad()
    y.backward()
    assert x.grad == pytest.approx(6.0)
