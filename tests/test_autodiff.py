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
        return ad.sum_all(ad.mul(prod, ad.transpose(ad.transpose(prod))))

    check_grad(loss, [a, b], rng)


def test_nonlinearity_grads(rng):
    x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)

    def loss():
        return ad.sum_all(ad.mul(ad.relu(x), ad.add(ad.tanh(x), ad.sigmoid(x))))

    check_grad(loss, [x], rng)


def test_softmax_rows_grads(rng):
    x = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 7)))

    def loss():
        return ad.sum_all(ad.mul(ad.softmax_rows(x), w))

    check_grad(loss, [x], rng)


def test_softmax_rows_normalized(rng):
    out = ad.softmax_rows(Tensor(rng.normal(size=(10, 256)) * 5))
    sums = out.data.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-12)


def test_layer_norm_grads(rng):
    x = Tensor(rng.normal(size=(4, 9)), requires_grad=True)
    gain = Tensor(rng.normal(size=(9,)) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(size=(9,)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 9)))

    def loss():
        return ad.sum_all(ad.mul(ad.layer_norm_rows(x, gain, bias), w))

    check_grad(loss, [x, gain, bias], rng)


def test_slice_concat_grads(rng):
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 6)), requires_grad=True)

    def loss():
        top = ad.slice_rows(x, 0, 2)
        left = ad.slice_cols(x, 0, 3)
        stacked = ad.concat_rows([top, y])
        return ad.add(ad.sum_all(ad.mul(stacked, stacked)), ad.sum_all(ad.mul(left, left)))

    check_grad(loss, [x, y], rng)


def test_rel_bias_matrix_gather_scatter(rng):
    table = Tensor(rng.normal(size=(11,)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 5)))

    def loss():
        return ad.sum_all(ad.mul(ad.rel_bias_matrix(table, 5, 5), w))

    out = ad.rel_bias_matrix(table, 5, 5)
    # entry [i, j] must equal table[i - j + 5]
    for i in range(5):
        for j in range(5):
            assert out.data[i, j] == table.data[i - j + 5]
    check_grad(loss, [table], rng)


def test_rel_bias_matrix_clips_beyond_radius(rng):
    table = Tensor(rng.normal(size=(11,)), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8)))

    def loss():
        return ad.sum_all(ad.mul(ad.rel_bias_matrix(table, 8, 5), w))

    out = ad.rel_bias_matrix(table, 8, 5)
    # Offsets beyond the radius share the edge entries of the table.
    for i in range(8):
        for j in range(8):
            assert out.data[i, j] == table.data[min(max(i - j, -5), 5) + 5]
    check_grad(loss, [table], rng)


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
