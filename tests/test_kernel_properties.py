"""Property tests: every fast path of the encoder kernel, the video
generator, the derived first-pass matrix and the teacher-forced feature
bundles equal their references."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ratelab import baseline, simenc, teacher
from ratelab.policy import rollout
from ratelab.policy.data import episodes_from_records, fit_spec_from_records
from ratelab.policy.features import EMBED_DIM, FRAME_TYPE_ORDER
from ratelab.policy.network import PolicyParams, arch_from_preset
from ratelab.simenc import FrameType
from ratelab.teacher import EsConfig, EsState, TeacherRecord, es_step

from helpers import (
    EncodeState,
    rd_terms,
    reference_episode,
    reference_first_pass,
    reference_generate_video,
    step_frame,
)
from test_baseline import probes_of_search, scan_oracle, search


@st.composite
def episodes(draw, max_frames=40, hidden_alt_ref=False):
    """A short video, a GOP plan for it and a (B, T) batch of QP rows; with
    ``hidden_alt_ref``, the plan has a hidden alternate reference frame."""
    gop_interval = draw(st.integers(2, 20))
    frames = draw(st.integers(gop_interval + 1 if hidden_alt_ref else 2, max_frames))
    config = simenc.VideoConfig(num_frames_min=frames, num_frames_max=frames)
    video = simenc.generate_video(draw(st.integers(0, 2**32)), config)
    gop = simenc.plan_gop(video, gop_interval)
    rows = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32))
    qps = np.random.default_rng(seed).integers(0, 256, size=(rows, frames))
    return video, gop, qps


@st.composite
def reachable_states(draw):
    """A video, its GOP, a QP row and the encoder state reached by encoding
    the row's first ``state.cursor`` QPs."""
    video, gop, qps = draw(episodes())
    row = qps[0]
    state = EncodeState()
    for qp in row[: draw(st.integers(0, video.num_frames - 1))]:
        _, _, state = step_frame(video, gop, state, int(qp))
    return video, gop, row, state


def _latent_column(low, high, positive=False):
    """Floats in [low, high], subnormals included, and -0.0; (low, high]
    alone for a latent that must be positive."""
    if positive:
        return st.floats(low, high, exclude_min=True)
    return st.one_of(st.floats(low, high), st.just(-0.0))


# Each latent over a range far wider than generation draws from, where the
# video accepts it.
LATENT_COLUMNS = {
    "intra_energy": _latent_column(0.0, 1e12, positive=True),
    "inter_fraction": _latent_column(0.0, 1.0, positive=True),
    "noise_energy": _latent_column(0.0, 1e6),
    "rate_multiplier": _latent_column(0.0, 1e3, positive=True),
    "mv_row_mean": _latent_column(-1e6, 1e6),
    "mv_row_abs": _latent_column(0.0, 1e6),
    "mv_col_mean": _latent_column(-1e6, 1e6),
    "mv_col_abs": _latent_column(0.0, 1e6),
    "mv_row_var": _latent_column(0.0, 1e12),
    "mv_col_var": _latent_column(0.0, 1e12),
    "mv_in_out": _latent_column(-1.0, 1.0),
    "scene_id": st.integers(0, 1000),
}


@given(
    frames=st.integers(2, 400).flatmap(
        lambda n: st.fixed_dictionaries(
            {name: hnp.arrays(simenc.LATENT_DTYPE[name], n, elements=column)
             for name, column in LATENT_COLUMNS.items()}
        )
    ),
    frame_rate=st.one_of(
        st.sampled_from([23.976, 24.0, 25.0, 29.97, 30.0, 60.0]), st.floats(1e-3, 1e4)
    ),
)
@example(
    frames={name: np.array([-0.0, 0.5]) for name in LATENT_COLUMNS}
    | {"intra_energy": np.array([5e-324, 1e12]), "inter_fraction": np.array([1.0, 1e-3]),
       "rate_multiplier": np.array([1.0, 1.0]), "scene_id": np.array([0, 0])},
    frame_rate=30.0,
)
def test_first_pass_equals_per_row_reference(frames, frame_rate):
    latents = np.zeros(len(frames["scene_id"]), simenc.LATENT_DTYPE)
    for name, column in frames.items():
        latents[name] = column
    coded = latents["inter_fraction"] * latents["intra_energy"] + latents["noise_energy"]
    assume((coded > 0.0).all())  # the video refuses a coded error of 0
    video = simenc.SyntheticVideo("v", 0, 640, 480, frame_rate, latents)
    # Bytes, so that a signed zero or a NaN would count as a difference.
    assert video.first_pass.tobytes() == reference_first_pass(video).tobytes()
    assert not video.first_pass.flags.writeable


@st.composite
def video_configs(draw):
    """Any ``VideoConfig`` that validates, with lengths in 2..400."""
    low = draw(st.integers(2, 400))
    return simenc.VideoConfig(
        num_frames_min=low,
        num_frames_max=draw(st.integers(low, 400)),
        width=draw(st.integers(16, 2**31)),
        height=draw(st.integers(16, 2**31)),
        frame_rate=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
    )


@settings(max_examples=60)
@given(seed=st.integers(0, 2**64 - 1), config=video_configs())
@example(seed=0, config=simenc.VideoConfig(2, 2))  # one scene of two frames
@example(seed=133, config=simenc.VideoConfig(100, 150))  # its last scene has one frame
def test_generated_latents_equal_per_frame_reference(seed, config):
    video = simenc.generate_video(seed, config)
    reference = reference_generate_video(seed, config)
    assert video.frames.tobytes() == reference.frames.tobytes()
    assert video.video_id == reference.video_id
    assert (video.seed, video.width, video.height, video.frame_rate) == (
        reference.seed, reference.width, reference.height, reference.frame_rate
    )


QP_OR_EDGE = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))


def all_qps(video, gop, state):
    """(bits, mse) of the frame at the state's cursor at each QP 0..255."""
    bits, mse, _ = zip(*(step_frame(video, gop, state, qp) for qp in range(256)))
    return np.array(bits), np.array(mse)


def assert_settled_like_stepper(video, gop, qps, energy, mse):
    """Column i of the settled (energy, mse) is the energy and the MSE of
    each frame that stepping row i frame by frame encodes, bit for bit."""
    for i, row in enumerate(qps.tolist()):
        state = EncodeState()
        for t, qp in enumerate(row):
            frame_energy = rd_terms(video, gop, state)[0]
            _, frame_mse, state = step_frame(video, gop, state, qp)
            assert (energy[t, i], mse[t, i]) == (frame_energy, frame_mse)


# Under 1 kbps every row overshoots, so its reward reads its bits.
TARGETS = (1.0, 400.0)


@given(episodes())
def test_batch_rows_equal_replay_and_run_episode(case):
    video, gop, qps = case
    energy, mse = simenc._settle_batch(video, gop, qps)
    for target in TARGETS:
        rewards = simenc._exact_rewards(video, gop, energy, mse, target)
        for i, row in enumerate(qps.tolist()):
            replay = simenc.replay_qp_sequence(video, gop, row, target)
            episode = simenc.run_episode(video, gop, target, lambda obs: row[obs.frame_index])
            assert replay == episode
            assert tuple(mse[:, i].tolist()) == replay.mse
            assert rewards[i] == replay.reward


@given(episodes(hidden_alt_ref=True))
def test_batch_rows_equal_encode_frame_across_hidden_alt_refs(case):
    """A hidden alternate reference refreshes the golden slot without being
    shown: the settle step carries that slot, and the exact scorer leaves
    the frame out of the PSNR, as a frame-by-frame encode does."""
    video, gop, qps = case
    assert not all(gop.show) and any(gop.refreshes_golden[1:])
    energy, mse = simenc._settle_batch(video, gop, qps)
    assert_settled_like_stepper(video, gop, qps, energy, mse)
    for target in TARGETS:
        rewards = simenc._exact_rewards(video, gop, energy, mse, target)
        for i, row in enumerate(qps.tolist()):
            assert rewards[i] == simenc.replay_qp_sequence(video, gop, row, target).reward


def plain_gop(frames, gop_interval, first, keys):
    """A GOP plan ``plan_gop`` does not make: a hidden alternate reference
    every ``gop_interval`` frames, frame 0 of type ``first`` and KEY frames
    at positions drawn from ``keys``."""
    types = [
        FrameType.ALT_REF_HIDDEN if t % gop_interval == 0 else FrameType.INTER
        for t in range(frames)
    ]
    types[0] = first
    for k in keys:
        types[1 + k % (frames - 1)] = FrameType.KEY
    return simenc.GopPlan(frame_types=tuple(types))


# Rows whose chains of saturated frames run the whole episode.
DENSE_ROWS = {
    "none": lambda frames: np.empty((0, frames), dtype=int),
    "qp255": lambda frames: np.full((1, frames), 255),
    "constant": lambda frames: np.repeat(np.arange(256)[:, None], frames, axis=1),
}


def teacher_batch(frames, gop_interval, first, keys, seed, es_rows, sigma, burst, dense):
    """A video, a plain GOP plan and a batch of QP rows: ``es_rows`` rows of
    the heuristic's QPs plus noise of ``sigma`` QP, as ES draws them (few
    frames saturate); a row of the heuristic's QPs with a ``burst`` (start,
    length) of QP 255; and the ``dense`` rows."""
    config = simenc.VideoConfig(num_frames_min=frames, num_frames_max=frames)
    video = simenc.generate_video(seed, config)
    gop = plain_gop(frames, gop_interval, first, keys)
    heuristic = np.array(baseline.run_baseline(video, gop, 512.0).qps)
    noise = np.random.default_rng(seed).standard_normal((es_rows, frames))
    rows = [np.clip(np.rint(heuristic + sigma * noise), 0, 255).astype(int)]
    if burst is not None:
        start, length = burst[0] % frames, burst[1]
        rows.append(heuristic[None].copy())
        rows[-1][0, start : start + length] = 255
    rows.append(DENSE_ROWS[dense](frames))
    return video, gop, np.concatenate(rows)


# One example per path of ``_settle_batch``: settled by the first pass,
# settled after several passes, and finished by the frame loop after the
# pass limit, after a dense first pass and, past ``SETTLE_MAX_ROWS``, from
# frame 0. ``test_examples_take_their_path`` checks each takes its path.
SETTLE_PATHS = {
    "first pass": dict(
        frames=300, gop_interval=16, first=FrameType.KEY, keys=[], seed=1, es_rows=16,
        sigma=4, burst=None, dense="none",
    ),
    "several passes": dict(
        frames=300, gop_interval=16, first=FrameType.KEY, keys=[100], seed=3, es_rows=16,
        sigma=4, burst=(40, 5), dense="none",
    ),
    "pass limit": dict(
        frames=257, gop_interval=32, first=FrameType.INTER, keys=[], seed=5, es_rows=16,
        sigma=4, burst=None, dense="qp255",
    ),
    "dense first pass": dict(
        frames=300, gop_interval=2, first=FrameType.ALT_REF_HIDDEN, keys=[7, 150], seed=7,
        es_rows=0, sigma=0, burst=None, dense="qp255",
    ),
    "many rows": dict(
        frames=200, gop_interval=16, first=FrameType.KEY, keys=[], seed=9, es_rows=4,
        sigma=4, burst=(10, 3), dense="constant",
    ),
}


def settle_path(video, gop, qps):
    """(whole-episode passes, first frame of the frame loop) of one call."""
    passes, starts = 0, []
    inter_energy, settle = simenc._inter_energy, simenc._settle_by_passes

    def counted(own, d_last, d_golden):
        nonlocal passes
        # A pass hands in (T, 1) columns, the frame loop one frame's float.
        passes += np.ndim(own) == 2
        return inter_energy(own, d_last, d_golden)

    def settled(*args):
        starts.append(settle(*args))
        return starts[-1]

    with mock.patch.object(simenc, "_inter_energy", counted), \
            mock.patch.object(simenc, "_settle_by_passes", settled):
        simenc._settle_batch(video, gop, qps)
    return passes, starts[0] if starts else 0


@pytest.mark.parametrize(
    "path, passes, settled",
    [
        ("first pass", range(1, 2), True),
        ("several passes", range(3, simenc.SETTLE_PASSES), True),
        ("pass limit", range(simenc.SETTLE_PASSES, simenc.SETTLE_PASSES + 1), False),
        ("dense first pass", range(1, 2), False),
        ("many rows", range(0, 1), False),
    ],
)
def test_examples_take_their_path(path, passes, settled):
    video, gop, qps = teacher_batch(**SETTLE_PATHS[path])
    n, start = settle_path(video, gop, qps)
    assert n in passes
    # The loop picks up early, so most of the episode is its work.
    assert start == video.num_frames if settled else start < video.num_frames - 100


@given(
    frames=st.integers(2, 300),
    gop_interval=st.integers(2, 32),
    first=st.sampled_from(FrameType),
    keys=st.lists(st.integers(0, 298), max_size=3),
    seed=st.integers(0, 2**32),
    es_rows=st.integers(0, 16),
    sigma=st.integers(0, 8),
    burst=st.none() | st.tuples(st.integers(0, 299), st.integers(1, 8)),
    dense=st.sampled_from(sorted(DENSE_ROWS)),
)
@settings(max_examples=25)
@example(**SETTLE_PATHS["first pass"])
@example(**SETTLE_PATHS["several passes"])
@example(**SETTLE_PATHS["pass limit"])
@example(**SETTLE_PATHS["dense first pass"])
@example(**SETTLE_PATHS["many rows"])
def test_batch_rows_equal_replay_and_stepper_at_teacher_lengths(**case):
    """At teacher lengths, on plain GOP plans, over ES-like rows and rows
    that saturate densely: each settled column equals the stepper and its
    exact reward equals replay bit for bit, whichever path settled it."""
    video, gop, qps = teacher_batch(**case)
    energy, mse = simenc._settle_batch(video, gop, qps)
    assert_settled_like_stepper(video, gop, qps, energy, mse)
    rewards = simenc._exact_rewards(video, gop, energy, mse, 1.0)
    for i, row in enumerate(qps.tolist()):
        replay = simenc.replay_qp_sequence(video, gop, row, 1.0)
        assert mse[:, i].tobytes() == np.array(replay.mse).tobytes()
        assert rewards[i].tobytes() == np.float64(replay.reward).tobytes()


# Batches whose rows tie, so that ``ranking_rewards`` cannot certify their
# order: a repeated ES row, a repeated row of QP 255, a repeated constant row.
TIED_BATCHES = {
    "duplicate row": dict(
        frames=120, gop_interval=16, first=FrameType.KEY, keys=[], seed=11, es_rows=6,
        sigma=4, burst=None, dense="none", tie=2, target=512.0,
    ),
    "all-255 rows": dict(
        frames=150, gop_interval=16, first=FrameType.KEY, keys=[], seed=12, es_rows=3,
        sigma=4, burst=None, dense="qp255", tie=3, target=512.0,
    ),
    "constant-QP rows": dict(
        frames=100, gop_interval=16, first=FrameType.KEY, keys=[], seed=13, es_rows=0,
        sigma=0, burst=None, dense="constant", tie=100, target=300.0,
    ),
}


@given(
    frames=st.integers(2, 300),
    gop_interval=st.integers(2, 32),
    first=st.sampled_from(FrameType),
    keys=st.lists(st.integers(0, 298), max_size=3),
    seed=st.integers(0, 2**32),
    es_rows=st.integers(0, 16),
    sigma=st.integers(0, 8),
    burst=st.none() | st.tuples(st.integers(0, 299), st.integers(1, 8)),
    dense=st.sampled_from(sorted(DENSE_ROWS)),
    tie=st.none() | st.integers(0, 2**16),
    target=st.floats(1.0, 4000.0),
)
@settings(max_examples=40)
@example(**TIED_BATCHES["duplicate row"])
@example(**TIED_BATCHES["all-255 rows"])
@example(**TIED_BATCHES["constant-QP rows"])
def test_ranking_rewards_keep_exact_ranks_and_best_values(tie, target, **case):
    """``ranking_rewards`` gives the centered ranks and the first maximum of
    the rows' replayed rewards, and their values at row 0 and at that
    maximum. It scores at most those two rows exactly, or, when it cannot
    certify the order (always when a row repeats), every row, and then
    every value is exact."""
    video, gop, qps = teacher_batch(**case)
    assume(len(qps))
    if tie is not None:
        qps = np.vstack([qps, qps[tie % len(qps)]])
    exact = np.array(
        [simenc.replay_qp_sequence(video, gop, row, target).reward for row in qps.tolist()]
    )
    with mock.patch.object(simenc, "_exact_rewards", wraps=simenc._exact_rewards) as scorer:
        ranked = simenc.ranking_rewards(video, gop, qps, target)
    best = int(np.argmax(exact))
    assert int(np.argmax(ranked)) == best
    if len(qps) > 1:  # a single row has no rank
        assert np.array_equal(teacher._centered_ranks(ranked), teacher._centered_ranks(exact))
    assert ranked[0] == exact[0] and ranked[best] == exact[best]
    scorer.assert_called_once()
    scored_rows = scorer.call_args.args[2].shape[1]
    if scored_rows == len(qps):
        assert ranked.tobytes() == exact.tobytes()
    else:
        assert scored_rows <= 2
    if tie is not None:
        assert scored_rows == len(qps)


@given(
    frames=st.integers(2, 300),
    gop_interval=st.integers(2, 32),
    seed=st.integers(0, 2**32),
    weights=st.tuples(*(st.integers(0, 255),) * 5),
)
@example(frames=2, gop_interval=2, seed=0, weights=(0, 0, 0, 0, 0))
@example(frames=300, gop_interval=32, seed=1, weights=(7, 1, 255, 3, 11))
def test_run_episode_equals_reference_stepper(frames, gop_interval, seed, weights):
    """``run_episode`` on ``encode_episode`` and the stepper of frozen
    encoder states give equal traces under a policy that reads the frame
    index, the bits spent and the previous frame, and each observation
    equals the reference state before its frame, bit for bit."""
    config = simenc.VideoConfig(num_frames_min=frames, num_frames_max=frames)
    video = simenc.generate_video(seed, config)
    gop = simenc.plan_gop(video, gop_interval)
    a, b, c, d, e = weights

    def policy(obs):
        qp, bits, mse = obs.last
        return (a + b * obs.frame_index + c * (qp + 1) + d * int(obs.cum_bits / 997.0)
                + int(e * mse) + int(bits) % 13) % 256

    observations, states = [], []
    rolled = simenc.run_episode(
        video, gop, 400.0, lambda obs: observations.append(obs) or policy(obs)
    )
    reference = reference_episode(
        video, gop, 400.0, lambda obs: states.append(obs.state) or policy(obs)
    )
    assert rolled == reference
    assert len(observations) == len(states) == frames
    for obs, state in zip(observations, states):
        assert obs.video is video and obs.gop is gop and obs.target_bitrate_kbps == 400.0
        assert obs.frame_index == state.cursor
        assert obs.cum_bits.hex() == state.cum_bits.hex()
        assert obs.last[0] == state.last[0]
        assert [x.hex() for x in obs.last[1:]] == [x.hex() for x in state.last[1:]]


def test_batch_of_no_rows(video, gop):
    qps = np.empty((0, video.num_frames), dtype=int)
    energy, mse = simenc._settle_batch(video, gop, qps)
    assert energy.shape == mse.shape == (video.num_frames, 0)
    assert simenc.ranking_rewards(video, gop, qps, 400.0).shape == (0,)


@given(reachable_states())
def test_bits_nonincreasing_mse_nondecreasing_in_qp(case):
    """And 256 settled rows that share the state's QP prefix and differ at
    its cursor give there the state's energy and ``step_frame``'s MSE at
    every QP, bit for bit."""
    video, gop, row, state = case
    bits, mse = all_qps(video, gop, state)
    assert np.all(np.diff(bits) <= 0.0)
    assert np.all(np.diff(mse) >= 0.0)
    rows = np.tile(row, (256, 1))
    rows[:, state.cursor] = np.arange(256)
    batch_energy, batch_mse = simenc._settle_batch(video, gop, rows)
    assert set(batch_energy[state.cursor].tolist()) == {rd_terms(video, gop, state)[0]}
    assert batch_mse[state.cursor].tobytes() == mse.tobytes()


@given(reachable_states())
def test_kernel_equals_scalar_closed_form(case):
    """``step_frame`` is ``rate_distortion``, which uses ``math.log2``, at
    an energy, gain and header computed here from the latents."""
    video, gop, _, state = case
    latent = dict(zip(simenc.LATENT_FIELDS, video.frames[state.cursor].tolist()))
    frame_type = gop.frame_types[state.cursor]
    if frame_type is simenc.FrameType.KEY:
        energy = latent["intra_energy"] + latent["noise_energy"]
    else:
        d_ref = simenc.REF_MIX_LAST * state.d_last + simenc.REF_MIX_GOLDEN * state.d_golden
        energy = (
            latent["inter_fraction"] * latent["intra_energy"]
            + latent["noise_energy"]
            + simenc.ERROR_PROPAGATION * d_ref
        )
    gain = simenc.RD_GAIN * video.n_blocks * latent["rate_multiplier"]
    header = simenc.HEADER_BITS[frame_type] * video.n_blocks / simenc.REFERENCE_BLOCKS
    bits, mse = all_qps(video, gop, state)
    expected = [
        simenc.rate_distortion(energy, simenc.quantizer_step(qp), gain, header)
        for qp in range(256)
    ]
    assert list(zip(bits.tolist(), mse.tolist())) == expected


@given(reachable_states(), st.floats(0.3, 1.5))
def test_qp_search_matches_scan_oracle(case, scale):
    video, gop, _, state = case
    finest, _, _ = step_frame(video, gop, state, 0)
    # Targets span both clamps and every QP in between.
    target = float(scale * finest)
    assert search(video, gop, state, target) == scan_oracle(video, gop, state, target)


@given(reachable_states(), QP_OR_EDGE, st.sampled_from([-np.inf, None, np.inf]))
def test_qp_search_at_bit_edges(case, qp, toward):
    """Targets at one QP's bits and one ulp either side, where a search that
    misplaces its boundary is off by one."""
    video, gop, _, state = case
    bits = step_frame(video, gop, state, qp)[0]
    target = bits if toward is None else float(np.nextafter(bits, toward))
    assert search(video, gop, state, target) == scan_oracle(video, gop, state, target)


BIT_EDGE = st.tuples(QP_OR_EDGE, st.sampled_from([-np.inf, None, np.inf]))


@given(reachable_states(), st.one_of(st.floats(0.3, 1.5), BIT_EDGE))
def test_qp_search_trial_encodes_at_most_three_qps_at_any_target(case, where):
    """Over random targets and the bit edges of ``test_qp_search_at_bit_edges``."""
    video, gop, _, state = case
    if isinstance(where, float):
        target = where * step_frame(video, gop, state, 0)[0]
    else:
        qp, toward = where
        bits = step_frame(video, gop, state, qp)[0]
        target = bits if toward is None else float(np.nextafter(bits, toward))
    assert 1 <= probes_of_search(video, gop, state, target) <= 3


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

    def batch_reward(rows, floor):
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
    video, target, t = obs.video, obs.target_bitrate_kbps, obs.frame_index
    prev_qp, prev_bits, prev_mse = obs.last
    static = [
        spec.scalar_transform("width", float(video.width)),
        spec.scalar_transform("height", float(video.height)),
        np.log1p(float(video.num_frames)),
        spec.scalar_transform("duration", video.duration),
        spec.scalar_transform("frame_rate", video.frame_rate),
        spec.scalar_transform("target_bitrate_kbps", target),
        0.0,
    ]
    position = [np.log1p(float(t)), (t + 1) / video.num_frames]
    type_emb = spec.frame_type_embedding[FRAME_TYPE_ORDER.index(obs.gop.frame_types[t])]
    qp_emb = np.zeros(EMBED_DIM) if prev_qp < 0 else spec.qp_embedding[prev_qp]
    prev = [np.log1p(prev_bits), spec.scalar_transform("prev_mse", prev_mse), 0.0]
    cumulative = [
        np.log1p(obs.cum_bits),
        obs.cum_bits / (target * 1000.0 * video.duration),
    ]
    return np.concatenate([static, position, type_emb, qp_emb, prev, cumulative])


@given(
    qps=st.lists(QP_OR_EDGE, min_size=2, max_size=40),
    video_seed=st.integers(0, 2**32),
    gop_interval=st.integers(2, 20),
)
@example(qps=[0, 255], video_seed=0, gop_interval=16)
@example(qps=[255] * 20 + [0] * 20, video_seed=1, gop_interval=16)
def test_teacher_forced_bundles_equal_rollout_bundles(qps, video_seed, gop_interval):
    """One open-loop replay and one ``build_features`` call per episode give,
    bit for bit, the bundles a rollout builds, its frame-0
    ``episode_features`` block beside the history rows it builds frame by
    frame from the observations of ``run_episode`` driven along the same
    QPs, and those the observations give column by column."""
    frames = len(qps)
    config = simenc.VideoConfig(num_frames_min=frames, num_frames_max=frames)
    video = simenc.generate_video(video_seed, config)
    gop = simenc.plan_gop(video, gop_interval)
    trace = simenc.replay_qp_sequence(video, gop, qps, 400.0)
    record = TeacherRecord(
        video.video_id, 400.0, trace.qps, trace.bits, trace.qps,
        trace.psnr_db, trace.bitrate_kbps, trace.reward,
    )
    corpus = {video.video_id: video}
    spec = fit_spec_from_records([record], corpus, gop_interval, seed=3)
    (episode,) = episodes_from_records([record], corpus, spec, gop_interval)

    built = {"episode_features": [], "build_features": []}
    reference = []

    def spy(name):
        """Patches the rollout's ``name`` to record what it returns."""
        original = getattr(rollout, name)

        def recorded(*args):
            built[name].append(original(*args))
            return built[name][-1]

        return mock.patch.object(rollout, name, recorded)

    def adjuster(obs, logits, qp):
        """Replaces each sampled QP with the label."""
        reference.append(reference_bundle(obs, spec))
        return qps[obs.frame_index]

    runner = rollout.PolicyRunner(TINY_PARAMS, spec, lambda logits: 0, adjuster)
    with spy("episode_features"), spy("build_features"):
        rolled = simenc.run_episode(video, gop, 400.0, runner)
    assert rolled == trace
    (fixed,) = built["episode_features"]
    assert np.hstack([fixed, built["build_features"]]).tobytes() == episode.bundles.tobytes()
    assert np.array(reference).tobytes() == episode.bundles.tobytes()
