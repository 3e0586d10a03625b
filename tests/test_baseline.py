import math

import numpy as np
import pytest

from ratelab import baseline, simenc
from ratelab.baseline import (
    AllocationError,
    allocate_frame_targets,
    qp_for_target_bits,
    run_baseline,
)
from ratelab.simenc import EncodeState, FrameType, encode_frame, plan_gop

from conftest import FAST_CONFIG, all_inter_gop, constant_video


def scan_oracle(video, gop, state, target_bits):
    """Independent linear scan: largest QP whose bits still reach the target;
    0 when no QP reaches it."""
    best = None
    for qp in range(256):
        bits, _, _ = encode_frame(video, gop, state, qp)
        if bits >= target_bits:
            best = qp
    return 0 if best is None else best


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
    gop = simenc.GopPlan(
        frame_types=types,
        show=(True,) * 4,
        references=((),) + (("LAST", "GOLDEN"),) * 3,
    )
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
    v = constant_video(num_frames=3)
    zeroed = simenc.SyntheticVideo(
        video_id=v.video_id,
        seed=v.seed,
        width=v.width,
        height=v.height,
        frame_rate=v.frame_rate,
        frames=v.frames,
        first_pass=tuple(
            simenc.FirstPassFeatures(**{**fp.__dict__, "coded_error": 0.0})
            for fp in v.first_pass
        ),
    )
    with pytest.raises(AllocationError):
        allocate_frame_targets(zeroed, all_inter_gop(3), 512.0)


# ---------------------------------------------------------------------------
# Binary search vs linear-scan oracle
# ---------------------------------------------------------------------------

def test_qp_search_clamps(video, gop):
    state = EncodeState()
    huge, _, _ = encode_frame(video, gop, state, 0)
    tiny, _, _ = encode_frame(video, gop, state, 255)
    assert qp_for_target_bits(video, gop, state, huge * 2) == 0
    assert qp_for_target_bits(video, gop, state, tiny * 0.5) == 255


def test_qp_search_matches_scan_oracle(video, gop, rng):
    state = EncodeState()
    # Walk a few frames to vary reference state, probing random targets.
    for step in range(12):
        lo, _, _ = encode_frame(video, gop, state, 255)
        hi, _, _ = encode_frame(video, gop, state, 0)
        for _ in range(8):
            target = float(rng.uniform(lo * 0.5, hi * 1.2))
            assert qp_for_target_bits(video, gop, state, target) == scan_oracle(
                video, gop, state, target
            )
        _, _, state = encode_frame(video, gop, state, int(rng.integers(80, 200)))


def test_qp_search_exact_hit_prefers_highest_qp(video, gop):
    state = EncodeState()
    bits_at_100, _, _ = encode_frame(video, gop, state, 100)
    qp = qp_for_target_bits(video, gop, state, bits_at_100)
    assert qp == scan_oracle(video, gop, state, bits_at_100)
    found, _, _ = encode_frame(video, gop, state, qp)
    assert found >= bits_at_100


def test_qp_search_rejects_nonpositive_target(video, gop):
    with pytest.raises(ValueError):
        qp_for_target_bits(video, gop, EncodeState(), 0.0)


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
        here, _, _ = encode_frame(video, gop, state, qp)
        below, _, _ = encode_frame(video, gop, state, min(qp + 1, 255))
        granularity = max(granularity, here - below)
        _, _, state = encode_frame(video, gop, state, qp)
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
