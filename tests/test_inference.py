import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from ratelab import inference, simenc
from ratelab.inference import (
    CANDIDATE_POOL,
    BoundsFitError,
    BoundsModel,
    FeedbackConfig,
    FeedbackController,
    controlled_policy,
    feedback_adjust,
    fit_bounds,
    load_bounds,
    save_bounds,
    truncated_keep,
    truncated_sample,
)
from ratelab.policy.rollout import PolicyRunner

from helpers import FAST_CONFIG, tiny_policy


# ---------------------------------------------------------------------------
# Truncated sampling
# ---------------------------------------------------------------------------

def test_keep_set_ties_toward_lower_qp(rng):
    logits = np.zeros(256)
    kept = truncated_keep(logits, 15)
    assert list(kept) == list(range(15))


def test_dominant_logit_always_sampled(rng):
    logits = np.zeros(256)
    logits[77] = 100.0
    samples = {truncated_sample(logits, rng) for _ in range(200)}
    assert samples == {77}


def test_samples_stay_in_keep_set(rng):
    logits = rng.normal(size=256)
    kept = set(truncated_keep(logits, 15))
    for _ in range(2000):
        assert truncated_sample(logits, rng) in kept


def test_kept_probabilities_match_renormalized_softmax(rng):
    logits = rng.normal(size=256) * 2.0
    kept = truncated_keep(logits, 15)
    z = logits[kept] - logits[kept].max()
    expected = np.exp(z) / np.exp(z).sum()
    n = 100_000
    counts = np.zeros(15)
    lookup = {int(q): i for i, q in enumerate(kept)}
    for _ in range(n):
        counts[lookup[truncated_sample(logits, rng)]] += 1
    chi2 = stats.chisquare(counts, expected * n)
    assert chi2.pvalue > 0.01


def test_non_finite_logits_rejected(rng):
    logits = np.zeros(256)
    logits[3] = np.inf
    with pytest.raises(ValueError):
        truncated_sample(logits, rng)
    with pytest.raises(ValueError):
        truncated_keep(np.zeros(100), 15)


# ---------------------------------------------------------------------------
# Envelope fitting
# ---------------------------------------------------------------------------

def test_fit_bounds_brackets_trajectories(envelope_traces):
    model = fit_bounds(envelope_traces, 512.0)
    xs = np.linspace(0.0, 1.0, 101)
    lower, upper = model.at(xs)
    assert np.all(lower < upper)
    # Per-position coverage should hold at roughly the envelope quantiles
    # away from the tightened end.
    mid = xs <= 0.9
    per_step = []
    for trace in envelope_traces:
        cum = np.concatenate([[0.0], np.cumsum(trace.bits)])
        duration = math.fsum(trace.bits) / trace.bitrate_kbps / 1000.0
        cum_kbps = np.interp(xs, np.linspace(0, 1, len(trace.bits) + 1), cum / duration / 1000.0)
        per_step.append((cum_kbps >= lower - 1e-9) & (cum_kbps <= upper + 1e-9))
    coverage = np.mean(np.vstack(per_step), axis=0)
    assert np.all(coverage[mid] >= 0.8)


def test_fit_bounds_end_gap(envelope_traces):
    model = fit_bounds(envelope_traces, 512.0)
    lower, upper = model.at(1.0)
    gap = upper - lower
    assert gap <= 0.10 * 512.0 + 1e-9
    assert lower <= 512.0 + 1e-6
    assert upper >= 512.0 - 1e-6


def test_fit_bounds_degenerate_straight_line():
    # All traces identical, heading straight to the target.
    v = simenc.generate_corpus(1, master_seed=5, config=FAST_CONFIG)[0]
    gop = simenc.plan_gop(v)
    base = simenc.replay_qp_sequence(v, gop, [150] * v.num_frames, 512.0)
    target = base.bitrate_kbps
    traces = [simenc.replay_qp_sequence(v, gop, [150] * v.num_frames, target)] * 30
    model = fit_bounds(traces, target)
    xs = np.linspace(0, 1, 50)
    duration = math.fsum(base.bits) / base.bitrate_kbps / 1000.0
    cum = np.interp(xs, np.linspace(0, 1, v.num_frames + 1), np.concatenate([[0], np.cumsum(base.bits)]) / duration / 1000.0)
    lower, upper = model.at(xs)
    assert np.all(lower <= cum + 1e-6)
    assert np.all(upper >= cum - 1e-6)
    assert abs(upper[-1] - lower[-1]) <= 0.10 * target + 1e-9


def test_fit_bounds_needs_enough_traces(envelope_traces):
    with pytest.raises(BoundsFitError):
        fit_bounds(envelope_traces[:5], 512.0)


@pytest.mark.parametrize("min_traces", [0, -3])
def test_fit_bounds_needs_a_trace_whatever_min_traces_allows(min_traces):
    with pytest.raises(BoundsFitError, match="need at least 1 traces, got 0"):
        fit_bounds([], 512.0, min_traces=min_traces)


def test_fit_bounds_rejects_mixed_targets(envelope_traces):
    with pytest.raises(ValueError):
        fit_bounds(envelope_traces, 480.0)


def test_bounds_serialization_roundtrip(tmp_path, envelope_traces):
    model = fit_bounds(envelope_traces, 512.0)
    path = tmp_path / "bounds.json"
    save_bounds(path, model)
    loaded = load_bounds(path)
    assert loaded == model


def test_saved_bounds_do_not_depend_on_the_date(tmp_path, monkeypatch, envelope_traces):
    import datetime

    model = fit_bounds(envelope_traces, 512.0)
    written = []
    for day in (datetime.date(2026, 1, 2), datetime.date(2027, 6, 30)):

        class Day(datetime.date):
            @classmethod
            def today(cls):
                return day

        class Now(datetime.datetime):
            @classmethod
            def now(cls, tz=None):
                return datetime.datetime.combine(day, datetime.time(), tz)

        monkeypatch.setattr(datetime, "date", Day)
        monkeypatch.setattr(datetime, "datetime", Now)
        path = tmp_path / f"{day}.json"
        save_bounds(path, model)
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert load_bounds(tmp_path / "2026-01-02.json") == model


def test_bounds_schema_guard(tmp_path):
    from ratelab.io import SchemaError

    path = tmp_path / "bounds.json"
    path.write_text('{"schema": "bounds.v9"}')
    with pytest.raises(SchemaError):
        load_bounds(path)


@pytest.mark.parametrize(
    "edit",
    [
        {"lower": [0.0, 512.0]},
        {"upper": [math.nan] * inference.ENVELOPE_POINTS},
        {"lower": {"a1": 0.0, "a2": 1.0, "a3": 1.0, "a4": 480.0, "a5": 0.0}},
        {"target_bitrate_kbps": "512"},
        {"quantiles": None},
    ],
    ids=["two-points", "nan", "curve", "text-target", "no-quantiles"],
)
def test_load_bounds_refuses_what_fit_bounds_cannot_write(tmp_path, envelope_traces, edit):
    from ratelab.io import SchemaError

    path = tmp_path / "bounds.json"
    save_bounds(path, fit_bounds(envelope_traces, 512.0))
    doc = json.loads(path.read_text())
    doc.update(edit)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_bounds(path)


# ---------------------------------------------------------------------------
# Feedback adjustment
# ---------------------------------------------------------------------------

def test_adjust_identity_inside_bounds():
    for i in (1, 10, 40):
        assert feedback_adjust(i, 500.0, 400.0, 600.0, alpha=0.5) == i


def test_adjust_overshoot_direct():
    # i=10, alpha=0.01/kbps, 500 kbps over -> j = 15.
    assert feedback_adjust(10, 1100.0, 0.0, 600.0, alpha=0.01) == 15


def test_adjust_undershoot_clamps_low():
    # i=3, alpha=0.01, 1000 kbps under -> clamp at 1.
    assert feedback_adjust(3, 0.0, 1000.0, 2000.0, alpha=0.01) == 1


def test_adjust_zero_alpha_inert():
    assert feedback_adjust(10, 10_000.0, 0.0, 600.0, alpha=0.0) == 10
    assert feedback_adjust(10, 0.0, 500.0, 600.0, alpha=0.0) == 10


def test_adjust_monotone_in_violation():
    prev = None
    for overshoot in np.linspace(0, 3000, 40):
        j = feedback_adjust(20, 600.0 + overshoot, 0.0, 600.0, alpha=0.02)
        if prev is not None:
            assert j >= prev
        prev = j
    prev = None
    for undershoot in np.linspace(0, 3000, 40):
        j = feedback_adjust(20, 400.0 - undershoot, 400.0, 600.0, alpha=0.02)
        if prev is not None:
            assert j <= prev
        prev = j


@given(
    i=st.integers(1, CANDIDATE_POOL),
    violation=st.floats(1e-3, 1e4),
    alpha=st.floats(0.0, sys.float_info.max),
    over=st.booleans(),
)
@example(i=20, violation=1000.0, alpha=sys.float_info.max, over=True)
@example(i=20, violation=1000.0, alpha=1e307, over=False)
def test_adjust_takes_any_alpha_the_config_accepts(i, violation, alpha, over):
    """An offset that reaches past the candidate list moves to its end, even
    where alpha times the violation overflows; a shorter one is rounded."""
    FeedbackConfig(alpha=alpha)
    b_t = 600.0 + violation if over else 400.0 - violation
    j = feedback_adjust(i, b_t, 400.0, 600.0, alpha)
    offset = alpha * (b_t - 600.0 if over else 400.0 - b_t)
    if offset >= CANDIDATE_POOL:
        assert j == (CANDIDATE_POOL if over else 1)
    else:
        assert j == max(1, min(CANDIDATE_POOL, i + round(offset) if over else i - round(offset)))


def test_adjust_index_validation():
    with pytest.raises(ValueError):
        feedback_adjust(0, 500.0, 400.0, 600.0, alpha=0.1)
    with pytest.raises(ValueError):
        feedback_adjust(41, 500.0, 400.0, 600.0, alpha=0.1)


def test_feedback_config_validation():
    with pytest.raises(ValueError):
        FeedbackConfig(alpha=-1.0)


# ---------------------------------------------------------------------------
# Controller wiring
# ---------------------------------------------------------------------------

def _wide_bounds(target=512.0):
    return BoundsModel(
        lower=(-1e12,) * inference.ENVELOPE_POINTS,
        upper=(1e12,) * inference.ENVELOPE_POINTS,
        target_bitrate_kbps=target,
        quantiles=(0.025, 0.975),
    )


def test_controller_never_leaves_candidate_set(rng, video, gop):
    xs = inference.ENVELOPE_GRID
    tight = BoundsModel(
        lower=tuple((480.0 * xs).tolist()),
        upper=tuple((482.0 * xs + 1.0).tolist()),
        target_bitrate_kbps=512.0,
        quantiles=(0.025, 0.975),
    )
    controller = FeedbackController(bounds=tight, config=FeedbackConfig(alpha=0.1))
    logit_rng = np.random.default_rng(8)

    def policy(obs):
        logits = logit_rng.normal(size=256)
        qp = truncated_sample(logits, rng)
        adjusted = controller(obs, logits, qp)
        assert adjusted in set(truncated_keep(logits, 40))
        return adjusted

    simenc.run_episode(video, gop, 512.0, policy)
    assert any(e.triggered for e in controller.events)
    # The envelope is read at the episode position t / T of each frame.
    T = video.num_frames
    assert [e.lower for e in controller.events] == pytest.approx(
        [480.0 * t / T for t in range(1, T)], rel=1e-12
    )


def test_infinite_bounds_noop(rng, video, gop):
    controller = FeedbackController(bounds=_wide_bounds(), config=FeedbackConfig(alpha=0.5))
    logit_rng = np.random.default_rng(8)
    picked = []

    def policy(obs):
        logits = logit_rng.normal(size=256)
        qp = truncated_sample(logits, rng)
        picked.append(qp)
        return controller(obs, logits, qp)

    trace = simenc.run_episode(video, gop, 512.0, policy)
    assert list(trace.qps) == picked
    assert not any(e.triggered for e in controller.events)
    # One event per frame after the first, at the kbps spent before it.
    assert [e.frame_index for e in controller.events] == list(range(1, video.num_frames))
    spent_kbps = np.cumsum(trace.bits)[:-1] / video.duration / 1000.0
    assert [e.b_t for e in controller.events] == pytest.approx(spent_kbps.tolist(), rel=1e-12)


def test_controlled_policy_without_bounds_is_plain_truncated_sampling(video, gop):
    params, spec = tiny_policy([video])
    runner, controller = controlled_policy(params, spec, None, np.random.default_rng(5))
    assert controller is None and runner.adjuster is None
    plain_rng = np.random.default_rng(5)
    plain = PolicyRunner(params, spec, sampler=lambda logits: truncated_sample(logits, plain_rng))
    trace = simenc.run_episode(video, gop, 512.0, runner)
    assert trace == simenc.run_episode(video, gop, 512.0, plain)
    assert len(set(trace.qps)) > 1
