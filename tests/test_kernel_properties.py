"""Property tests: every fast path of the encoder kernel, and the teacher-forced
feature bundles, equal their references."""

from unittest import mock

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from ratelab import simenc, teacher
from ratelab.baseline import qp_for_target_bits
from ratelab.policy import rollout
from ratelab.policy.data import episodes_from_records, fit_spec_from_records
from ratelab.policy.features import EMBED_DIM, FRAME_TYPE_ORDER
from ratelab.policy.network import PolicyParams, arch_from_preset
from ratelab.simenc import EncodeState, encode_all_qps, encode_batch, encode_frame
from ratelab.teacher import EsConfig, EsState, TeacherRecord, es_step

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
    latent, frame_type = video.frames[state.cursor], gop.frame_types[state.cursor]
    if frame_type is simenc.FrameType.KEY:
        energy = latent.intra_energy + latent.noise_energy
    else:
        d_ref = simenc.REF_MIX_LAST * state.d_last + simenc.REF_MIX_GOLDEN * state.d_golden
        energy = (
            latent.inter_fraction * latent.intra_energy
            + latent.noise_energy
            + simenc.ERROR_PROPAGATION * d_ref
        )
    gain = simenc.RD_GAIN * video.n_blocks * latent.rate_multiplier
    header = simenc.HEADER_BITS[frame_type] * video.n_blocks / simenc.REFERENCE_BLOCKS
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
    # Centered ranks: the count of lower rewards plus half the other ties.
    ranks = np.array([(rewards < r).sum() + ((rewards == r).sum() - 1) / 2 for r in rewards])
    weights = ranks / (config.batch_size - 1) - 0.5
    update = alpha / (config.batch_size * config.sigma) * (weights @ noise)
    theta = np.clip(state.theta + update, 0.0, 255.0)
    return theta, best_qps, best_reward, lead_best


@given(
    st.integers(1, 4).map(lambda pairs: 2 * pairs),
    st.integers(1, 30),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_batched_es_step_matches_per_candidate_loop(batch, frames, with_lead, seed):
    rng = np.random.default_rng(seed)
    config = EsConfig(sigma=6.0, batch_size=batch)
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


TINY_PARAMS = PolicyParams(arch_from_preset("tiny", 46), seed=0)


def reference_bundle(obs, spec):
    """One observation's 46 input columns, each written out on its own."""
    static = [
        spec.scalar_transform("width", float(obs.width)),
        spec.scalar_transform("height", float(obs.height)),
        np.log1p(float(obs.num_frames)),
        spec.scalar_transform("duration", obs.duration),
        spec.scalar_transform("frame_rate", obs.frame_rate),
        spec.scalar_transform("target_bitrate_kbps", obs.target_bitrate_kbps),
        float(obs.encode_speed),
    ]
    position = [np.log1p(float(obs.frame_index)), (obs.frame_index + 1) / obs.num_frames]
    type_emb = spec.frame_type_embedding[FRAME_TYPE_ORDER.index(obs.frame_type)]
    qp_emb = np.zeros(EMBED_DIM) if obs.prev_qp < 0 else spec.qp_embedding[obs.prev_qp]
    prev = [np.log1p(obs.prev_bits), spec.scalar_transform("prev_mse", obs.prev_mse), 0.0]
    cumulative = [np.log1p(obs.cum_bits), obs.rel_cum_bits]
    return np.concatenate([static, position, type_emb, qp_emb, prev, cumulative])

QP_OR_EDGE = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))


@given(
    qps=st.lists(QP_OR_EDGE, min_size=2, max_size=40),
    video_seed=st.integers(0, 2**32),
    gop_interval=st.integers(2, 20),
)
@example(qps=[0, 255], video_seed=0, gop_interval=16)
@example(qps=[255] * 20 + [0] * 20, video_seed=1, gop_interval=16)
def test_teacher_forced_bundles_equal_rollout_bundles(qps, video_seed, gop_interval):
    """One open-loop replay and one ``build_features`` call per episode give,
    bit for bit, the bundles a rollout builds frame by frame from the
    observations of ``run_episode`` driven along the same QPs, and those
    the observations give column by column."""
    frames = len(qps)
    config = simenc.VideoConfig(num_frames_min=frames, num_frames_max=frames)
    video = simenc.generate_video(video_seed, config)
    gop = simenc.plan_gop(video, gop_interval)
    trace = simenc.replay_qp_sequence(video, gop, qps, 400.0)
    record = TeacherRecord(
        video.video_id, 400.0, "ES", trace.qps, trace.bits, trace.qps,
        trace.psnr_db, trace.bitrate_kbps, trace.reward,
    )
    corpus = {video.video_id: video}
    spec = fit_spec_from_records([record], corpus, gop_interval, seed=3)
    (episode,) = episodes_from_records([record], corpus, spec, gop_interval)

    rollout_build = rollout.build_features
    built, reference = [], []

    def spy(*args):
        built.append(rollout_build(*args))
        return built[-1]

    def adjuster(obs, logits, qp):
        """Replaces each sampled QP with the label."""
        reference.append(reference_bundle(obs, spec))
        return qps[obs.frame_index]

    runner = rollout.PolicyRunner(TINY_PARAMS, spec, lambda logits: 0, adjuster)
    with mock.patch.object(rollout, "build_features", spy):
        rolled = simenc.run_episode(video, gop, 400.0, runner)
    assert rolled == trace
    assert np.array(built).tobytes() == episode.bundles.tobytes()
    assert np.array(reference).tobytes() == episode.bundles.tobytes()
