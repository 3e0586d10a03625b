import numpy as np
import pytest

from ratelab import simenc, teacher
from ratelab.teacher import (
    EsConfig,
    EsState,
    TeacherConfig,
    TeacherDataError,
    build_teacher_dataset,
    es_step,
    load_teacher_dataset,
    run_es,
    save_teacher_dataset,
)

from conftest import FAST_CONFIG


# ---------------------------------------------------------------------------
# es_step update rule
# ---------------------------------------------------------------------------

def _rewards_by_qp(table):
    """A reward function of one-frame candidates, looked up by their QP."""
    return lambda qps: np.array([table[int(q)] for q in qps[:, 0]])


def test_update_rule_direct_evaluation():
    # theta=[128], eps=+-1, sigma=4, alpha=16: the better candidate (132)
    # weighs +0.5 and the worse (124) -0.5, so theta' = 128 + 16/8 * 1 = 130.
    cfg = EsConfig(sigma=4.0, batch_size=2, learning_rate=16.0, seed=0)
    state = EsState(theta=np.array([128.0]), step=0, best_reward=-np.inf, best_qps=np.array([128]))
    nxt = es_step(state, cfg, _rewards_by_qp({132: 10.0, 124: 0.0}), np.array([[1.0], [-1.0]]))
    assert nxt.theta == pytest.approx([130.0])
    assert nxt.step == 1


def test_tied_rewards_share_their_mean_rank():
    # Rewards 3, 1, 3, 0 rank 2.5, 1, 2.5, 0 of 0..3, weights r/3 - 1/2:
    # 1/3, -1/6, 1/3, -1/2. Update 16/(4*4) * (1/3 - 2/6 - 1/3 + 1) = 2/3.
    cfg = EsConfig(sigma=4.0, batch_size=4, learning_rate=16.0)
    state = EsState(theta=np.array([100.0]), step=0, best_reward=-np.inf, best_qps=np.array([100]))
    table = {104: 3.0, 108: 1.0, 96: 3.0, 92: 0.0}
    nxt = es_step(state, cfg, _rewards_by_qp(table), np.array([[1.0], [2.0], [-1.0], [-2.0]]))
    assert nxt.theta == pytest.approx([100.0 + 2.0 / 3.0])


def test_update_invariant_to_increasing_reward_map():
    cfg = EsConfig(sigma=4.0, batch_size=8, learning_rate=16.0)
    rng = np.random.default_rng(3)
    theta = rng.uniform(20.0, 230.0, 5)
    state = EsState(theta=theta, step=0, best_reward=-np.inf, best_qps=theta.astype(int))
    noise = rng.standard_normal((8, 5))
    center = rng.integers(0, 256, 5)

    def reward(qps):
        return -np.abs(qps - center).sum(axis=1).astype(float)

    a = es_step(state, cfg, reward, noise)
    b = es_step(state, cfg, lambda qps: 5.0 * np.exp(reward(qps) / 100.0) + 3.0, noise)
    assert np.array_equal(a.theta, b.theta)


def test_mirrored_equal_rewards_cancel():
    cfg = EsConfig(sigma=4.0, batch_size=2, learning_rate=16.0)
    theta = np.array([100.0, 50.0, 200.0])
    state = EsState(theta=theta.copy(), step=0, best_reward=-np.inf, best_qps=theta.astype(int))
    eps = np.array([[1.0, -2.0, 0.5]])
    noise = np.vstack([eps, -eps])
    nxt = es_step(state, cfg, lambda qps: 7.0, noise)
    assert nxt.theta == pytest.approx(theta)


def test_zero_noise_leaves_theta_unchanged():
    cfg = EsConfig(sigma=4.0, batch_size=4, learning_rate=16.0)
    theta = np.array([10.0, 250.0])
    state = EsState(theta=theta.copy(), step=5, best_reward=-np.inf, best_qps=theta.astype(int))
    nxt = es_step(state, cfg, lambda qps: -np.arange(4.0), np.zeros((4, 2)))
    assert nxt.theta == pytest.approx(theta)


def test_candidates_always_within_qp_range():
    cfg = EsConfig(sigma=50.0, batch_size=8, learning_rate=16.0)
    theta = np.array([2.0, 253.0, 128.0])
    state = EsState(theta=theta, step=0, best_reward=-np.inf, best_qps=theta.astype(int))
    seen = []

    def reward(qps):
        seen.append(np.array(qps))
        return 1.0

    rng = np.random.default_rng(0)
    es_step(state, cfg, reward, rng.normal(size=(8, 3)) * 3)
    for cand in seen:
        assert cand.min() >= 0 and cand.max() <= 255
        assert cand.dtype.kind == "i"


def test_theta_clamped_after_update():
    # A step of 1000 / (2 * 4) = 125 QP toward the better candidate.
    cfg = EsConfig(sigma=4.0, batch_size=2, learning_rate=1000.0)
    mirrored = np.array([[1.0], [-1.0]])
    state = EsState(theta=np.array([250.0]), step=0, best_reward=-np.inf, best_qps=np.array([250]))
    nxt = es_step(state, cfg, lambda qps: qps[:, 0].astype(float), mirrored)
    assert nxt.theta[0] == 255.0
    down = es_step(
        EsState(theta=np.array([5.0]), step=0, best_reward=-np.inf, best_qps=np.array([5])),
        cfg,
        lambda qps: -qps[:, 0].astype(float),
        mirrored,
    )
    assert down.theta[0] == 0.0


def test_learning_rate_decay_schedule():
    cfg = EsConfig(learning_rate=16.0)
    assert cfg.step_learning_rate(0) == 16.0
    assert cfg.step_learning_rate(100) == pytest.approx(8.0)
    assert cfg.step_learning_rate(200) == pytest.approx(4.0)


def test_noise_shape_validation():
    cfg = EsConfig(batch_size=2)
    state = EsState(theta=np.zeros(3), step=0, best_reward=0.0, best_qps=np.zeros(3, int))
    with pytest.raises(ValueError):
        es_step(state, cfg, lambda q: 0.0, np.zeros((3, 3)))


def test_config_validation():
    with pytest.raises(ValueError):
        EsConfig(sigma=0.0)
    for odd_or_too_small in (0, 1, 3):
        with pytest.raises(ValueError):
            EsConfig(batch_size=odd_or_too_small)


# ---------------------------------------------------------------------------
# run_es
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def es_video():
    return simenc.generate_video(42, FAST_CONFIG)


def test_noise_comes_in_mirrored_pairs():
    noise = teacher._draw_noise(np.random.default_rng(0), EsConfig(batch_size=6), 5)
    assert noise.shape == (6, 5)
    assert np.array_equal(noise[:3], -noise[3:])
    assert np.all(noise[:3] != 0.0)


def test_zero_steps_returns_baseline(es_video):
    cfg = EsConfig(max_steps=0, seed=1)
    res = run_es(es_video, 512.0, cfg)
    assert res.best_qps == res.baseline_trace.qps
    assert res.best_trace.reward == pytest.approx(res.baseline_trace.reward)


def test_run_es_deterministic(es_video):
    cfg = EsConfig(max_steps=10, seed=5)
    a = run_es(es_video, 512.0, cfg)
    b = run_es(es_video, 512.0, cfg)
    assert a.best_qps == b.best_qps
    assert a.best_reward_history == b.best_reward_history


def test_best_reward_monotone(es_video):
    cfg = EsConfig(max_steps=30, seed=5)
    res = run_es(es_video, 512.0, cfg)
    hist = (res.baseline_trace.reward,) + res.best_reward_history
    assert all(b >= a for a, b in zip(hist, hist[1:]))


def test_run_es_scores_with_the_overshoot_penalty(es_video):
    # At 1 kbps even QP 255 overshoots, so every reward carries the penalty.
    res = run_es(es_video, 1.0, EsConfig(max_steps=2, batch_size=4))
    for trace in (res.baseline_trace, res.best_trace):
        assert trace.bitrate_kbps > 1.0
        overshoot = trace.bitrate_kbps - 1.0
        assert trace.reward == trace.psnr_db - simenc.PENALTY_PER_KBPS * overshoot
        assert trace.reward == simenc.episode_reward(trace)
    assert res.best_reward_history[-1] == res.best_trace.reward


def test_run_es_rejects_a_best_row_its_replay_scores_differently(es_video, monkeypatch):
    # The batch scorer credits every row 1 dB that a frame-by-frame replay
    # does not give, so the first candidate beats the heuristic on paper.
    batch_rewards = simenc.batch_rewards
    monkeypatch.setattr(simenc, "batch_rewards", lambda *args: batch_rewards(*args) + 1.0)
    with pytest.raises(TeacherDataError, match="replay scores"):
        run_es(es_video, 512.0, EsConfig(max_steps=1, batch_size=4))


def test_run_es_improves_reward(es_video):
    cfg = EsConfig(max_steps=60, seed=5)
    res = run_es(es_video, 512.0, cfg)
    assert res.best_trace.reward > res.baseline_trace.reward


# ---------------------------------------------------------------------------
# Teacher dataset
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_dataset():
    videos = simenc.generate_corpus(2, master_seed=11, config=FAST_CONFIG)
    cfg = TeacherConfig(
        bitrates_per_video=3,
        es=EsConfig(max_steps=5),
        seed=3,
    )
    return videos, build_teacher_dataset(videos, cfg)


def test_dataset_cardinality(tiny_dataset):
    videos, records = tiny_dataset
    assert len(records) == 6
    assert {r.video_id for r in records} == {v.video_id for v in videos}


def test_dataset_bitrates_in_range(tiny_dataset):
    _, records = tiny_dataset
    for r in records:
        assert 256.0 <= r.target_bitrate_kbps <= 768.0


def test_dataset_labels_replayable(tiny_dataset):
    videos, records = tiny_dataset
    by_id = {v.video_id: v for v in videos}
    for r in records:
        video = by_id[r.video_id]
        gop = simenc.plan_gop(video)
        replay = simenc.replay_qp_sequence(video, gop, r.label_qps, r.target_bitrate_kbps)
        assert replay.bits == r.label_bits
        assert replay.psnr_db == r.psnr_db
        assert replay.bitrate_kbps == r.bitrate_kbps


def test_dataset_drift_guard(tiny_dataset):
    _, records = tiny_dataset
    for r in records:
        drift = np.mean(np.abs(np.asarray(r.label_qps) - np.asarray(r.baseline_qps)))
        assert drift < 64.0


def test_drift_guard_rejects_distant_labels(es_video, monkeypatch):
    res = run_es(es_video, 512.0, EsConfig(max_steps=0))
    teacher.record_from_result(es_video, res)
    monkeypatch.setattr(teacher, "DRIFT_BOUND", -1.0)
    with pytest.raises(TeacherDataError):
        teacher.record_from_result(es_video, res)


def test_dataset_roundtrip(tmp_path, tiny_dataset):
    _, records = tiny_dataset
    path = tmp_path / "teacher.jsonl"
    save_teacher_dataset(path, records)
    assert load_teacher_dataset(path) == records


def test_dataset_build_deterministic(tiny_dataset):
    videos, records = tiny_dataset
    cfg = TeacherConfig(
        bitrates_per_video=3,
        es=EsConfig(max_steps=5),
        seed=3,
    )
    again = build_teacher_dataset(videos, cfg)
    assert again == records
