"""Property tests: each fast path of the heuristic baseline, of the
controlled rollout and of the recurrent core equals the code it replaced,
which is kept here as the reference. Every comparison is exact, except the
rollout's logits and bits head, whose sums run in another order: the
runner projects the recurrent core's episode-fixed inputs once per
episode, and the bits head runs once over the stacked hidden states. The
rollout's traces and control events stay exact."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ratelab import baseline, inference, simenc
from ratelab.baseline import allocate_frame_targets, run_baseline
from ratelab.inference import (
    CANDIDATE_POOL,
    COVERAGE,
    ENVELOPE_GRID,
    ENVELOPE_POINTS,
    SAMPLE_POOL,
    BoundsModel,
    ControlEvent,
    FeedbackConfig,
    FeedbackController,
    feedback_adjust,
    truncated_keep,
    truncated_sample,
)
from ratelab.policy import autodiff as ad
from ratelab.policy import rollout
from ratelab.policy.autodiff import Tensor, relative_bias, relative_offsets
from ratelab.policy.features import FRAME_TYPE_ORDER, build_features, episode_features
from ratelab.policy.network import REL_RADIUS
from ratelab.policy.rollout import PolicyRunner, eval_transformer

from helpers import FAST_CONFIG, rd_terms, reference_episode, tiny_policy

MSE_CAPS = simenc.QP_MSE_CAP.tolist()

# ---------------------------------------------------------------------------
# References: the replaced code
# ---------------------------------------------------------------------------


def reference_keep(logits, k):
    logits = np.asarray(logits, dtype=np.float64)
    order = np.lexsort((np.arange(256), -logits))
    return np.sort(order[:k])


def reference_sample(logits, rng):
    kept = reference_keep(logits, SAMPLE_POOL)
    z = np.asarray(logits, dtype=np.float64)[kept]
    z = z - z.max()
    p = np.exp(z)
    p /= p.sum()
    return int(rng.choice(kept, p=p))


class ReferenceController:
    def __init__(self, bounds, config):
        self.bounds, self.config, self.events = bounds, config, []

    def __call__(self, obs, logits, sampled_qp):
        if obs.frame_index == 0:
            self.events = []
            return sampled_qp
        candidates = reference_keep(logits, CANDIDATE_POOL)
        i = int(np.searchsorted(candidates, sampled_qp)) + 1
        x = obs.frame_index / obs.video.num_frames
        b_t = obs.cum_bits / obs.video.duration / 1000.0
        lower, upper = map(float, self.bounds.at(x))
        j = feedback_adjust(i, b_t, lower, upper, self.config.alpha)
        self.events.append(ControlEvent(obs.frame_index, b_t, lower, upper, i, j))
        return int(candidates[j - 1])


def reference_cell(pre, c):
    n = c.shape[-1]
    gates = 1.0 / (1.0 + np.exp(-pre))
    gates[..., 2 * n : 3 * n] = np.tanh(pre[..., 2 * n : 3 * n])
    i, f, g, o = (gates[..., j * n : (j + 1) * n] for j in range(4))
    c = f * c + i * g
    return o * np.tanh(c), c, gates


def reference_head(params, prefix, h):
    def w(name):
        return params[f"{prefix}_{name}"].data

    z = np.maximum(0.0, h @ w("w1") + w("b1"))
    z = np.maximum(0.0, z @ w("w2") + w("b2"))
    return z @ w("w3") + w("b3")


class ReferenceRunner:
    """The per-frame rollout: a bits head at every step."""

    def __init__(self, params, spec, sampler, adjuster=None):
        self.params, self.spec, self.sampler, self.adjuster = params, spec, sampler, adjuster
        self.logits, self.bits_predictions = [], []

    def __call__(self, obs):
        params, t = self.params, obs.frame_index
        if t == 0:
            video = obs.video
            self.embed = eval_transformer(params, self.spec.normalize_first_pass(video.first_pass))
            self.episode = episode_features(self.spec, video, obs.target_bitrate_kbps)
            self.budget = obs.target_bitrate_kbps * 1000.0 * video.duration
            self.h = self.c = np.zeros(params.arch.dr)
            self.logits, self.bits_predictions = [], []
        bundle = build_features(
            self.spec, self.episode[t], FRAME_TYPE_ORDER.index(obs.gop.frame_types[t]),
            *obs.last, obs.cum_bits, self.budget,
        )
        x = np.concatenate([self.embed[t], bundle])
        pre = x @ params["lstm_wx"].data + self.h @ params["lstm_wh"].data + params["lstm_b"].data
        self.h, self.c, _ = reference_cell(pre, self.c)
        self.bits_predictions.append(float(reference_head(params, "bits", self.h)[0]))
        logits = reference_head(params, "qp", self.h)
        self.logits.append(logits)
        qp = self.sampler(logits)
        return qp if self.adjuster is None else self.adjuster(obs, logits, qp)


def reference_lstm(xw, wh, b, g):
    """Hidden states and the (xw, wh, b) gradients for upstream ``g``."""
    T, n = xw.shape[0], wh.shape[0]
    hs = np.zeros((T + 1, n))
    cs = np.zeros((T + 1, n))
    gates = np.empty_like(xw)
    for t in range(T):
        pre = xw[t] + hs[t] @ wh + b
        hs[t + 1], cs[t + 1], gates[t] = reference_cell(pre, cs[t])
    dpre = np.empty_like(gates)
    dh = np.zeros(n)
    dc = np.zeros(n)
    for t in range(T - 1, -1, -1):
        i, f, gc, o = (gates[t, j * n : (j + 1) * n] for j in range(4))
        tc = np.tanh(cs[t + 1])
        dh = g[t] + dh
        dc = dh * o * (1.0 - tc * tc) + dc
        dpre[t, :n] = dc * gc * i * (1.0 - i)
        dpre[t, n : 2 * n] = dc * cs[t] * f * (1.0 - f)
        dpre[t, 2 * n : 3 * n] = dc * i * (1.0 - gc * gc)
        dpre[t, 3 * n :] = dh * tc * o * (1.0 - o)
        dc = dc * f
        dh = dpre[t] @ wh.T
    return hs[1:], dpre, hs[:-1].T @ dpre, dpre.sum(axis=0)


def reference_qp_for_target_bits(video, gop, state, target_bits):
    """The search that returned only the QP, from the encoder state."""
    if not target_bits > 0:
        raise ValueError("target_bits must be positive")
    energy, gain, header = rd_terms(video, gop, state)

    def reaches(qp: int) -> bool:
        bits, _ = simenc.rate_distortion(energy, simenc.quantizer_step(qp), gain, header)
        return bits >= target_bits

    # QPs below ``reaching`` reach the target: every QP when the header
    # alone does, else those whose MSE cap is at most E * 2^(-2 (target -
    # header) / gain), where the residual bits meet the rest of the target.
    if target_bits <= header:
        reaching = simenc.QP_MAX + 1
    else:
        reaching = bisect_right(MSE_CAPS, energy * 2.0 ** (-2.0 * (target_bits - header) / gain))
    while reaching > 0 and not reaches(reaching - 1):
        reaching -= 1
    while reaching <= simenc.QP_MAX and reaches(reaching):
        reaching += 1
    return max(0, reaching - 1)


class ReferenceBaselinePolicy:
    """The baseline as a callback of ``reference_episode``, whose stepper
    then re-encodes the QP its search chose."""

    def __init__(self, video, gop, target_bitrate_kbps):
        self._video = video
        self._gop = gop
        self._budget = target_bitrate_kbps * 1000.0 * video.duration
        self._targets = allocate_frame_targets(video, gop, target_bitrate_kbps)
        self._remaining = np.cumsum(self._targets[::-1])[::-1].tolist()  # sums from t to the end

    def __call__(self, obs):
        t = obs.frame_index
        remaining_budget = self._budget - obs.state.cum_bits
        target = max(1.0, self._targets[t] * remaining_budget / self._remaining[t])
        return reference_qp_for_target_bits(self._video, self._gop, obs.state, target)


# ---------------------------------------------------------------------------
# Truncated sampling
# ---------------------------------------------------------------------------


@st.composite
def logit_vectors(draw):
    """256 logits drawn from ``levels`` distinct values: few levels tie often,
    one level ties everywhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    levels = draw(st.sampled_from([1, 2, 3, 17, 256]))
    values = rng.normal(size=levels) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    return values[rng.integers(0, levels, size=256)]


@given(logit_vectors(), st.sampled_from([1, SAMPLE_POOL, CANDIDATE_POOL, 255, 256]))
@example(np.zeros(256), SAMPLE_POOL)
@example(np.r_[np.ones(10), np.zeros(246)], SAMPLE_POOL)
def test_keep_matches_lexsort(logits, k):
    assert np.array_equal(truncated_keep(logits, k), reference_keep(logits, k))


@given(logit_vectors(), st.integers(0, 2**32))
def test_cdf_draw_matches_choice(logits, seed):
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert truncated_sample(logits, fast) == reference_sample(logits, ref)
    assert fast.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# Feedback control: the per-episode envelope, and whole controlled rollouts
# ---------------------------------------------------------------------------


bound_points = st.lists(
    st.floats(-1e6, 1e6), min_size=ENVELOPE_POINTS, max_size=ENVELOPE_POINTS
).map(tuple)
LINE = tuple((480.0 * ENVELOPE_GRID).tolist())


@given(bound_points, bound_points, st.integers(2, 400))
@example(LINE, tuple(x + 1.0 for x in LINE), 2)
def test_envelope_matches_per_frame_bound(lower, upper, num_frames):
    """The controller's one read per episode equals a read at every frame."""
    bounds = BoundsModel(lower, upper, 512.0, COVERAGE)
    controller = FeedbackController(bounds)
    frame_0 = SimpleNamespace(frame_index=0, video=SimpleNamespace(num_frames=num_frames))
    assert controller(frame_0, None, 7) == 7
    per_frame = [tuple(map(float, bounds.at(t / num_frames))) for t in range(1, num_frames)]
    assert controller._envelope == tuple(list(side) for side in zip(*per_frame))


def _bounds(video, gop):
    trace = simenc.run_episode(video, gop, 512.0, lambda obs: 120)
    return inference.fit_bounds([trace] * 3, 512.0, min_traces=3)


@pytest.mark.parametrize("alpha", [0.05, 5.0])
def test_controlled_rollout_matches_reference(alpha):
    videos = simenc.generate_corpus(2, 4, FAST_CONFIG)
    params, spec = tiny_policy(videos)
    config = FeedbackConfig(alpha=alpha)
    triggered = 0
    for vi, video in enumerate(videos):
        gop = simenc.plan_gop(video)
        bounds = _bounds(video, gop)
        fast, controller = inference.controlled_policy(
            params, spec, bounds, np.random.default_rng(vi), config
        )
        ref_rng = np.random.default_rng(vi)
        ref_controller = ReferenceController(bounds, config)
        ref = ReferenceRunner(params, spec, lambda z: reference_sample(z, ref_rng), ref_controller)
        assert simenc.run_episode(video, gop, 512.0, fast) == simenc.run_episode(
            video, gop, 512.0, ref
        )
        assert [asdict(e) for e in controller.events] == [asdict(e) for e in ref_controller.events]
        triggered += sum(e.triggered for e in controller.events)
    assert triggered > 0 or alpha < 1.0


def test_bits_predictions_match_per_frame_head():
    videos = simenc.generate_corpus(2, 5, FAST_CONFIG)
    params, spec = tiny_policy(videos)
    for video in videos:
        gop = simenc.plan_gop(video)
        logits = []
        fast = PolicyRunner(params, spec, lambda z: logits.append(z) or int(np.argmax(z)))
        ref = ReferenceRunner(params, spec, lambda z: int(np.argmax(z)))
        assert simenc.run_episode(video, gop, 400.0, fast) == simenc.run_episode(
            video, gop, 400.0, ref
        )
        np.testing.assert_allclose(np.array(logits), np.array(ref.logits), rtol=0, atol=1e-12)
        assert len(fast.bits_predictions) == video.num_frames
        np.testing.assert_allclose(fast.bits_predictions, ref.bits_predictions, rtol=1e-12)


class ProjectedRows:
    """Stands in for a weight matrix and records each left operand of ``@``."""

    __array_ufunc__ = None  # makes ``ndarray @ self`` call ``__rmatmul__``

    def __init__(self, w):
        self.w, self.rows = w, []

    def __rmatmul__(self, x):
        self.rows.append(x.copy())
        return x @ self.w


@given(st.integers(2, 300), st.integers(0, 2**32))
@example(2, 0)  # frame 0's zero prev-QP row is half of the bundles
def test_split_projection_matches_full_product(frames, seed):
    """The runner projects the episode-fixed inputs once and each frame's
    history columns per frame; the reference projects each frame's whole
    (dh + bundle_dim,) input."""
    video = simenc.generate_video(seed, simenc.VideoConfig(frames, frames))
    gop = simenc.plan_gop(video)
    params, spec = tiny_policy([video])
    bounds = _bounds(video, gop)
    embed = eval_transformer(params, spec.normalize_first_pass(video.first_pass))
    for alpha in (0.05, 5.0):
        config = FeedbackConfig(alpha=alpha)
        fast, controller = inference.controlled_policy(
            params, spec, bounds, np.random.default_rng(seed), config
        )
        projected = fast._wx_fixed = ProjectedRows(fast._wx_fixed)
        logits_for, logits, bundles = fast.logits_for, [], []
        fast.logits_for = lambda obs: logits.append(logits_for(obs)) or logits[-1]

        def spy(*args):
            bundles.append(build_features(*args))
            return bundles[-1]

        with mock.patch.object(rollout, "build_features", spy):
            trace = simenc.run_episode(video, gop, 512.0, fast)
        ref_rng = np.random.default_rng(seed)
        ref_controller = ReferenceController(bounds, config)
        ref = ReferenceRunner(params, spec, lambda z: reference_sample(z, ref_rng), ref_controller)
        assert trace == simenc.run_episode(video, gop, 512.0, ref)
        assert [asdict(e) for e in controller.events] == [asdict(e) for e in ref_controller.events]
        np.testing.assert_allclose(np.array(logits), np.array(ref.logits), rtol=0, atol=1e-12)
        (inputs,) = projected.rows
        fixed = np.array(bundles)[:, : spec.fixed_dim]
        assert np.concatenate([embed, fixed], axis=1).tobytes() == inputs.tobytes()


@pytest.mark.parametrize("offset", [-1, 1])
def test_runner_rejects_gop_of_another_length(offset):
    video = simenc.generate_video(3, FAST_CONFIG)
    other = simenc.generate_video(3, simenc.VideoConfig(*(video.num_frames + offset,) * 2))
    params, spec = tiny_policy([video])
    runner = PolicyRunner(params, spec, lambda z: int(np.argmax(z)))
    with pytest.raises(simenc.ConfigError, match="GOP plans"):
        simenc.run_episode(video, simenc.plan_gop(other), 512.0, runner)


def test_bits_predictions_empty_before_any_frame():
    params, spec = tiny_policy([simenc.generate_video(1, FAST_CONFIG)])
    assert PolicyRunner(params, spec, int).bits_predictions == []


# ---------------------------------------------------------------------------
# Autodiff: the relative-position bias and the recurrent core
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("length", [1, 2, 300, 2 * REL_RADIUS + 9])
def test_strided_bias_matches_gather(rng, length):
    heads = 3
    table = rng.normal(size=(heads, 2 * REL_RADIUS + 1))
    bias = relative_bias(table, length, REL_RADIUS)
    assert bias.shape == (heads, length, length) and not bias.flags.writeable
    offsets = relative_offsets(length, REL_RADIUS)
    for h in range(heads):
        assert np.array_equal(bias[h], table[h][offsets])


@given(st.integers(1, 12), st.integers(0, 7), st.integers(0, 2**32))
def test_strided_bias_matches_gather_at_any_radius(length, radius, seed):
    table = np.random.default_rng(seed).normal(size=(2, 2 * radius + 1))
    bias = relative_bias(table, length, radius)
    for h in range(2):
        assert np.array_equal(bias[h], table[h][relative_offsets(length, radius)])


@given(st.integers(1, 30), st.integers(1, 9), st.integers(0, 2**32), st.sampled_from([0.3, 3.0]))
def test_lstm_values_and_grads_match_step_loop(T, n, seed, scale):
    rng = np.random.default_rng(seed)
    xw = Tensor(rng.normal(size=(T, 4 * n)) * scale, requires_grad=True)
    wh = Tensor(rng.normal(size=(n, 4 * n)) * scale, requires_grad=True)
    b = Tensor(rng.normal(size=4 * n), requires_grad=True)
    upstream = rng.normal(size=(T, n))
    out = ad.lstm(xw, wh, b)
    ad.sum_all(ad.mul(out, upstream)).backward()
    hs, dxw, dwh, db = reference_lstm(xw.data, wh.data, b.data, upstream)
    assert np.array_equal(out.data, hs)
    assert np.array_equal(xw.grad, dxw)
    assert np.array_equal(wh.grad, dwh)
    assert np.array_equal(b.grad, db)


@given(st.integers(1, 9), st.integers(0, 2**32))
def test_lstm_cell_matches_reference(n, seed):
    rng = np.random.default_rng(seed)
    pre = rng.normal(size=4 * n) * 4.0
    c = rng.normal(size=n)
    for got, expected in zip(
        ad.lstm_cell(pre, c, (np.empty(n), np.empty(n), np.empty(4 * n))), reference_cell(pre, c)
    ):
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# Heuristic baseline
# ---------------------------------------------------------------------------


@given(
    frames=st.integers(2, 300),
    width=st.integers(16, 16384),
    height=st.integers(16, 16384),
    frame_rate=st.floats(1e-3, 1e4),
    gop_interval=st.integers(2, 32),
    seed=st.integers(0, 2**32),
    target=st.floats(1e-3, 1e6),
)
# Every frame clamps: at QP 255, where the headers alone overspend, and at
# QP 0, where no quantizer spends the budget.
@example(frames=40, width=16384, height=16384, frame_rate=30.0, gop_interval=16, seed=0,
         target=1e-3)
@example(frames=40, width=16, height=16, frame_rate=30.0, gop_interval=16, seed=0, target=1e6)
def test_baseline_matches_reference_policy(
    frames, width, height, frame_rate, gop_interval, seed, target
):
    config = simenc.VideoConfig(frames, frames, width, height, frame_rate)
    video = simenc.generate_video(seed, config)
    gop = simenc.plan_gop(video, gop_interval)
    policy = ReferenceBaselinePolicy(video, gop, target)
    assert run_baseline(video, gop, target) == reference_episode(video, gop, target, policy)


def test_baseline_and_replay_encode_without_encoder_states(video, gop, monkeypatch):
    """Neither calls ``encode_frame``, which commits only learned-policy
    frames, and each baseline frame makes at most 3 ``rate_distortion``
    calls, all in its QP search, whose winning trial is the frame's encode."""
    monkeypatch.setattr(simenc, "encode_frame", mock.Mock(side_effect=AssertionError))
    spy = mock.Mock(wraps=simenc.rate_distortion)
    monkeypatch.setattr(simenc, "rate_distortion", spy)
    search = baseline.qp_for_target_bits
    per_frame = []

    def counted_search(*args):
        before = spy.call_count
        found = search(*args)
        per_frame.append(spy.call_count - before)
        return found

    monkeypatch.setattr(baseline, "qp_for_target_bits", counted_search)
    for target in (256.0, 512.0, 768.0):
        trace = run_baseline(video, gop, target)
        assert simenc.replay_qp_sequence(video, gop, trace.qps, target) == trace
    assert len(per_frame) == 3 * video.num_frames
    assert max(per_frame) <= 3
    assert spy.call_count == sum(per_frame) + 3 * video.num_frames  # the replays' encodes
