"""Property tests: every fast path of the encoder kernel equals its reference."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ratelab import simenc, teacher
from ratelab.baseline import qp_for_target_bits
from ratelab.simenc import EncodeState, encode_all_qps, encode_batch, encode_frame
from ratelab.teacher import EsConfig, EsState, es_step

from test_baseline import scan_oracle


@st.composite
def episodes(draw, max_frames=40):
    """A short video, a GOP plan for it and a (B, T) batch of QP rows."""
    frames = draw(st.integers(2, max_frames))
    config = simenc.VideoConfig(num_frames_min=frames, num_frames_max=frames)
    video = simenc.generate_video(draw(st.integers(0, 2**32)), config)
    gop = simenc.plan_gop(video, draw(st.integers(2, 20)))
    rows = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32))
    qps = np.random.default_rng(seed).integers(0, 256, size=(rows, frames))
    return video, gop, qps


@st.composite
def reachable_states(draw):
    """A video, its GOP and an encoder state reached by encoding a QP prefix."""
    video, gop, qps = draw(episodes())
    state = EncodeState()
    for qp in qps[0, : draw(st.integers(0, video.num_frames - 1))]:
        _, _, state = encode_frame(video, gop, state, int(qp))
    return video, gop, state


@given(episodes())
def test_batch_rows_equal_replay_and_run_episode(case):
    video, gop, qps = case
    bits, mse = encode_batch(video, gop, qps)
    rewards = simenc.batch_rewards(video, gop, bits, mse, 400.0)
    for i, row in enumerate(qps.tolist()):
        replay = simenc.replay_qp_sequence(video, gop, row, 400.0)
        episode = simenc.run_episode(video, gop, 400.0, lambda obs: row[obs.frame_index])
        assert replay == episode
        assert tuple(bits[i].tolist()) == replay.bits
        assert tuple(mse[i].tolist()) == replay.mse
        assert rewards[i] == replay.reward


@given(reachable_states())
def test_bits_nonincreasing_mse_nondecreasing_in_qp(case):
    video, gop, state = case
    bits, mse = encode_all_qps(video, gop, state)
    assert np.all(np.diff(bits) <= 0.0)
    assert np.all(np.diff(mse) >= 0.0)
    for qp in (0, 77, 128, 255):
        assert (bits[qp], mse[qp]) == encode_frame(video, gop, state, qp)[:2]


@given(reachable_states())
def test_kernel_equals_scalar_closed_form(case):
    """Bitwise equal to ``rate_distortion``, which uses ``math.log2``."""
    video, gop, state = case
    m = simenc.DEFAULT_MODEL
    latent, frame_type = video.frames[state.cursor], gop.frame_types[state.cursor]
    if frame_type is simenc.FrameType.KEY:
        energy = latent.intra_energy + latent.noise_energy
    else:
        d_ref = m.ref_mix_last * state.d_last + m.ref_mix_golden * state.d_golden
        energy = (
            latent.inter_fraction * latent.intra_energy
            + latent.noise_energy
            + m.error_propagation * d_ref
        )
    gain = m.rd_gain * video.n_blocks * latent.rate_multiplier
    header = m.header_bits(frame_type, video.n_blocks)
    bits, mse = encode_all_qps(video, gop, state)
    expected = [
        simenc.rate_distortion(energy, simenc.quantizer_step(qp), gain, header)
        for qp in range(256)
    ]
    assert list(zip(bits.tolist(), mse.tolist())) == expected


@given(reachable_states(), st.floats(0.3, 1.5))
def test_qp_search_matches_scan_oracle(case, scale):
    video, gop, state = case
    bits, _ = encode_all_qps(video, gop, state)
    # Targets span both clamps and every QP in between.
    target = float(scale * bits[0])
    assert qp_for_target_bits(video, gop, state, target) == scan_oracle(
        video, gop, state, target
    )


def reference_es_step(state, config, row_reward, noise, lead=None):
    """The per-candidate ES step: one reward call per row, lead first."""
    best_reward, best_qps, lead_best = state.best_reward, state.best_qps, None
    if lead is not None:
        reward = row_reward(lead)
        if reward > best_reward:
            best_reward, best_qps = reward, lead
        lead_best = best_reward
    rewards = np.empty(config.batch_size)
    for i in range(config.batch_size):
        candidate = teacher._round_clamp(state.theta + config.sigma * noise[i])
        rewards[i] = row_reward(candidate)
        if rewards[i] > best_reward:
            best_reward, best_qps = float(rewards[i]), candidate
    alpha = config.step_learning_rate(state.step)
    if config.fitness_shaping == "centered_rank":
        ranks = np.argsort(np.argsort(rewards))
        weights = ranks / (config.batch_size - 1) - 0.5 if config.batch_size > 1 else ranks * 0.0
    else:
        weights = rewards
    update = alpha / (config.batch_size * config.sigma) * (weights @ noise)
    theta = np.clip(state.theta + update, 0.0, 255.0)
    return theta, best_qps, best_reward, lead_best


@given(
    st.integers(1, 8),
    st.integers(1, 30),
    st.sampled_from(["none", "centered_rank"]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_batched_es_step_matches_per_candidate_loop(batch, frames, shaping, with_lead, seed):
    rng = np.random.default_rng(seed)
    config = EsConfig(sigma=6.0, batch_size=batch, fitness_shaping=shaping)
    theta = rng.uniform(0.0, 255.0, frames)
    state = EsState(theta=theta, step=3, best_reward=-40.0, best_qps=np.zeros(frames, int))
    noise = rng.standard_normal((batch, frames))
    lead = teacher._round_clamp(theta) if with_lead else None
    center = rng.integers(0, 256, frames)

    def row_reward(qps):
        # Coarse integer steps, so ties between rows occur.
        return -float(np.abs(qps - center).sum() // 64)

    def batch_reward(rows):
        return np.array([row_reward(r) for r in rows])

    nxt = es_step(state, config, batch_reward, noise, lead=lead)
    theta_ref, best_qps, best_reward, lead_best = reference_es_step(
        state, config, row_reward, noise, lead
    )
    assert np.array_equal(nxt.theta, theta_ref)
    assert np.array_equal(nxt.best_qps, best_qps)
    assert nxt.best_reward == best_reward
    assert nxt.lead_best == lead_best
