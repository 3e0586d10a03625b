import math
from bisect import bisect_right
from unittest import mock

import pytest

from ratelab import baseline, simenc
from ratelab.baseline import (
    allocate_frame_targets,
    qp_for_target_bits,
    run_baseline,
)
from ratelab.simenc import FrameType, plan_gop

from helpers import (
    FAST_CONFIG,
    EncodeState,
    all_inter_gop,
    constant_video,
    rd_terms,
    step_frame,
)


def scan_oracle(video, gop, state, target_bits):
    """Independent linear scan: largest QP whose bits still reach the target,
    0 when no QP reaches it; with that QP's (bits, mse) from ``step_frame``."""
    best = None
    for qp in range(256):
        bits, _, _ = step_frame(video, gop, state, qp)
        if bits >= target_bits:
            best = qp
    qp = 0 if best is None else best
    return (qp, *step_frame(video, gop, state, qp)[:2])


def search(video, gop, state, target_bits):
    """``qp_for_target_bits`` on the RD terms of the frame at the state's cursor."""
    return qp_for_target_bits(*rd_terms(video, gop, state), target_bits)


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------

def test_uniform_all_inter_split():
    v = constant_video(num_frames=4, frame_rate=30.0)
    gop = all_inter_gop(4)
    budget_kbps = 4000.0 / 1000.0 / v.duration  # total budget of 4000 bits
    targets = allocate_frame_targets(v, gop, budget_kbps)
    assert targets == pytest.approx([1000.0] * 4, rel=1e-9)


def test_key_boost_proportionality():
    v = constant_video(num_frames=4)
    types = (FrameType.KEY,) + (FrameType.INTER,) * 3
    gop = simenc.GopPlan(frame_types=types)
    budget_kbps = 7000.0 / 1000.0 / v.duration
    targets = allocate_frame_targets(v, gop, budget_kbps)
    assert targets[0] == pytest.approx(4000.0, rel=1e-9)
    assert targets[1:] == pytest.approx([1000.0] * 3, rel=1e-9)


def test_targets_sum_to_budget(video, gop):
    targets = allocate_frame_targets(video, gop, 512.0)
    budget = 512.0 * 1000.0 * video.duration
    assert math.fsum(targets) == pytest.approx(budget, rel=1e-6)
    assert all(t > 0 for t in targets)


def test_zero_weight_rejected():
    # coded_error = 0.5 * 5e-324 + 0.0 rounds to 0 on every frame: such a
    # video, whose frames would all weigh 0 in the split, is refused.
    with pytest.raises(simenc.ConfigError, match="coded error"):
        constant_video(num_frames=3, intra_energy=5e-324, inter_fraction=0.5, noise_energy=0.0)


# ---------------------------------------------------------------------------
# QP search vs linear-scan oracle
# ---------------------------------------------------------------------------

def test_qp_search_clamps(video, gop):
    state = EncodeState()
    huge, _, _ = step_frame(video, gop, state, 0)
    tiny, _, _ = step_frame(video, gop, state, 255)
    for target, qp in ((huge * 2, 0), (tiny * 0.5, 255)):
        assert search(video, gop, state, target) == (qp, *step_frame(video, gop, state, qp)[:2])


def test_qp_search_matches_scan_oracle(video, gop, rng):
    state = EncodeState()
    # Walk a few frames to vary reference state, probing random targets.
    for step in range(12):
        lo, _, _ = step_frame(video, gop, state, 255)
        hi, _, _ = step_frame(video, gop, state, 0)
        for _ in range(8):
            target = float(rng.uniform(lo * 0.5, hi * 1.2))
            assert search(video, gop, state, target) == scan_oracle(video, gop, state, target)
        _, _, state = step_frame(video, gop, state, int(rng.integers(80, 200)))


def probes_of_search(video, gop, state, target):
    """``simenc.rate_distortion`` calls one ``qp_for_target_bits`` makes."""
    terms = rd_terms(video, gop, state)
    with mock.patch.object(simenc, "rate_distortion", wraps=simenc.rate_distortion) as spy:
        qp_for_target_bits(*terms, target)
    return spy.call_count


def test_qp_search_trial_encodes_at_most_three_qps(video, gop, rng):
    """The closed-form start is at most one QP off, so settling it takes at
    most 3 probes: both sides of the edge, and one more when it moved."""
    state = EncodeState()
    for _ in range(12):
        hi, _, _ = step_frame(video, gop, state, 0)
        for target in (hi * 2, hi * 1e-3, float(rng.uniform(0.0, hi))):
            assert 1 <= probes_of_search(video, gop, state, target) <= 3
        _, _, state = step_frame(video, gop, state, int(rng.integers(80, 200)))


@pytest.mark.parametrize("shift", [-3, -1, 1, 3])
def test_qp_search_settles_any_misplaced_start(video, gop, rng, monkeypatch, shift):
    """Rounding alone never puts the inverse's start more than one QP past
    the edge, so shifting it exercises the walk in each direction."""
    monkeypatch.setattr(
        baseline, "bisect_right", lambda caps, x: min(max(bisect_right(caps, x) + shift, 0), 256)
    )
    state = EncodeState()
    for _ in range(12):
        lo, _, _ = step_frame(video, gop, state, 255)
        hi, _, _ = step_frame(video, gop, state, 0)
        edge, _, _ = step_frame(video, gop, state, int(rng.integers(0, 256)))
        for target in (lo * 0.5, float(rng.uniform(lo, hi)), hi * 1.2, edge):
            assert search(video, gop, state, target) == scan_oracle(video, gop, state, target)
        _, _, state = step_frame(video, gop, state, int(rng.integers(80, 200)))


def test_qp_search_exact_hit_prefers_highest_qp(video, gop):
    state = EncodeState()
    bits_at_100, _, _ = step_frame(video, gop, state, 100)
    qp, found, mse = search(video, gop, state, bits_at_100)
    assert (qp, found, mse) == scan_oracle(video, gop, state, bits_at_100)
    assert found >= bits_at_100


def test_qp_search_rejects_nonpositive_target(video, gop):
    with pytest.raises(ValueError):
        search(video, gop, EncodeState(), 0.0)


def test_qp_search_rejects_nan_target(video, gop):
    """As it rejects a nonpositive one; a NaN target reaches no QP."""
    with pytest.raises(ValueError, match="target_bits must be positive"):
        search(video, gop, EncodeState(), math.nan)


# ---------------------------------------------------------------------------
# Full baseline policy
# ---------------------------------------------------------------------------

def test_baseline_deterministic(video, gop):
    a = run_baseline(video, gop, 512.0)
    b = run_baseline(video, gop, 512.0)
    assert a.qps == b.qps
    assert a == b


def test_baseline_budget_closure(video, gop):
    """Closed-loop rescaling leaves at most one frame's bit granularity."""
    trace = run_baseline(video, gop, 512.0)
    budget = 512.0 * 1000.0 * video.duration
    state = EncodeState()
    granularity = 0.0
    for qp in trace.qps:
        here, _, _ = step_frame(video, gop, state, qp)
        below, _, _ = step_frame(video, gop, state, min(qp + 1, 255))
        granularity = max(granularity, here - below)
        _, _, state = step_frame(video, gop, state, qp)
    assert abs(math.fsum(trace.bits) - budget) <= granularity + 1e-6


@pytest.mark.slow
def test_baseline_suite_statistics():
    videos = simenc.generate_corpus(50, master_seed=7, config=FAST_CONFIG)
    within = 0
    key_below = 0
    for v in videos:
        gop = plan_gop(v)
        trace = run_baseline(v, gop, 512.0)
        if abs(trace.bitrate_kbps - 512.0) <= 0.10 * 512.0:
            within += 1
        inter_qps = sorted(
            qp for qp, ft in zip(trace.qps, gop.frame_types) if ft is FrameType.INTER
        )
        if trace.qps[0] < inter_qps[len(inter_qps) // 2]:
            key_below += 1
    assert within >= 45  # >= 90% of 50 videos within +/-10% of target
    assert key_below >= 45
