import numpy as np
import pytest

from ratelab.policy.autodiff import lstm_cell, mlp_forward, no_grad
from ratelab.policy.network import REL_RADIUS, PolicyParams, arch_from_preset, forward
from ratelab.policy.rollout import eval_transformer
from ratelab.policy.train import episode_loss


@pytest.fixture(scope="module")
def tiny_params():
    return PolicyParams(arch_from_preset("tiny", 46), seed=3)


def random_episode(rng, T=10, bundle_dim=46):
    return (
        rng.normal(size=(T, 25)),
        rng.normal(size=(T, bundle_dim)),
        rng.integers(0, 256, size=T),
        rng.uniform(5.0, 20.0, size=T),
    )


def test_output_shapes(tiny_params, rng):
    fp, bundles, _, _ = random_episode(rng, T=3)
    result = forward(tiny_params, fp, bundles)
    assert result.logits.shape == (3, 256)
    assert result.bits_pred.shape == (3, 1)


def test_forward_deterministic(tiny_params, rng):
    fp, bundles, _, _ = random_episode(rng)
    a = forward(tiny_params, fp, bundles)
    b = forward(tiny_params, fp, bundles)
    assert np.array_equal(a.logits.data, b.logits.data)
    assert np.array_equal(a.bits_pred.data, b.bits_pred.data)


def test_position_sensitivity(tiny_params, rng):
    # Permuting first-pass rows must change outputs: the relative position
    # encoding breaks permutation symmetry.
    fp, bundles, _, _ = random_episode(rng)
    perm = rng.permutation(fp.shape[0])
    base = forward(tiny_params, fp, bundles).logits.data
    permuted = forward(tiny_params, fp[perm], bundles).logits.data
    assert not np.allclose(base, permuted)


def test_init_deterministic():
    a = PolicyParams(arch_from_preset("tiny", 46), seed=9)
    b = PolicyParams(arch_from_preset("tiny", 46), seed=9)
    for name, t in a.items():
        assert np.array_equal(t.data, b.tensors[name].data)


def test_every_param_has_grad_shadow(tiny_params):
    for name, t in tiny_params.items():
        assert t.grad is not None and t.grad.shape == t.data.shape


def test_gradcheck_every_block(tiny_params, rng):
    """Analytic gradients vs central differences, three random episodes."""
    from gradcheck import check_block

    for episode in range(3):
        fp, bundles, labels, label_bits = random_episode(rng, T=8)
        budget = label_bits.sum() + rng.normal() * 2

        def loss_value():
            res = forward(tiny_params, fp, bundles)
            loss, _ = episode_loss(res, labels, label_bits, budget, 2.0, 2.0)
            return loss

        loss = loss_value()
        tiny_params.zero_grads()
        loss.backward()
        for name, tensor in tiny_params.items():
            check_block(loss_value, tensor, rng)


def test_teacher_forcing_isolation(tiny_params, rng):
    # Changing inputs at steps >= t must not change predictions before t.
    fp, bundles, _, _ = random_episode(rng, T=10)
    t = 6
    altered = bundles.copy()
    altered[t:] += rng.normal(size=altered[t:].shape)
    base = forward(tiny_params, fp, bundles).logits.data
    changed = forward(tiny_params, fp, altered).logits.data
    assert np.array_equal(base[:t], changed[:t])
    assert not np.allclose(base[t:], changed[t:])


def test_loss_perfect_fit_is_zero(tiny_params, rng):
    from ratelab.policy.autodiff import Tensor
    from ratelab.policy.network import ForwardResult

    T = 6
    labels = rng.integers(0, 256, size=T)
    label_bits = rng.uniform(5, 20, size=T)
    logits = np.full((T, 256), -1000.0)
    logits[np.arange(T), labels] = 1000.0
    result = ForwardResult(logits=Tensor(logits), bits_pred=Tensor(label_bits.reshape(-1, 1)))
    loss, parts = episode_loss(result, labels, label_bits, float(label_bits.sum()), 2.0, 2.0)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)
    assert parts.frame_bits == 0.0 and parts.total_bits == 0.0


def test_loss_reduces_to_cross_entropy(tiny_params, rng):
    fp, bundles, labels, label_bits = random_episode(rng, T=5)
    res = forward(tiny_params, fp, bundles)
    loss, parts = episode_loss(res, labels, label_bits, 100.0, 0.0, 0.0)
    assert float(loss.data) == pytest.approx(parts.qp, rel=1e-12)


def test_loss_requires_full_labels(tiny_params, rng):
    fp, bundles, labels, label_bits = random_episode(rng, T=5)
    res = forward(tiny_params, fp, bundles)
    with pytest.raises(ValueError):
        episode_loss(res, labels[:3], label_bits[:3], 100.0, 2.0, 2.0)


def test_shape_mismatch_rejected(tiny_params, rng):
    fp, bundles, _, _ = random_episode(rng, T=5)
    with pytest.raises(ValueError):
        forward(tiny_params, fp[:4], bundles)
    with pytest.raises(ValueError):
        forward(tiny_params, fp, bundles[:, :-1])


@pytest.mark.parametrize("T", [1, 9, 300])
def test_rollout_mirror_matches_tape(rng, T):
    """Rollout steps agree with the training tape; past ``REL_RADIUS``
    (T = 300) both clip offsets to the same edge entries of the table."""
    assert 300 - 1 > REL_RADIUS
    params = PolicyParams(arch_from_preset("tiny", 46), seed=5)
    # A nonzero, position-dependent bias table, so clipping shows in the output.
    table = params.tensors["rel_bias"].data
    table[...] = rng.normal(size=table.shape)
    fp, bundles, _, _ = random_episode(rng, T=T)
    tape = forward(params, fp, bundles)
    emb = eval_transformer(params, fp)
    wx, wh, b = (params[name].data for name in ("lstm_wx", "lstm_wh", "lstm_b"))
    qp_head, bits_head = ([t.data for t in params.mlp(head)] for head in ("qp", "bits"))
    h = c = np.zeros(params.arch.dr)
    logits = []
    bits = []
    for t in range(T):
        pre = np.concatenate([emb[t], bundles[t]]) @ wx + h @ wh + b
        h, c, _ = lstm_cell(pre, c, (np.empty_like(h), np.empty_like(c), np.empty_like(pre)))
        logits.append(mlp_forward(h, qp_head))
        bits.append(mlp_forward(h, bits_head))
    assert np.allclose(np.vstack(logits), tape.logits.data, atol=1e-10)
    assert np.allclose(np.vstack(bits), tape.bits_pred.data, atol=1e-10)


def test_no_grad_records_no_tape(tiny_params, rng):
    fp, bundles, _, _ = random_episode(rng)
    with no_grad():
        result = forward(tiny_params, fp, bundles)
    for out in (result.logits, result.bits_pred):
        assert out._parents == () and out._backward is None
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("leaves the block")
    recorded = forward(tiny_params, fp, bundles)
    assert recorded.logits._parents and recorded.logits._backward is not None
    assert np.array_equal(recorded.logits.data, result.logits.data)
