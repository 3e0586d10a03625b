import math

import numpy as np
import pytest

from ratelab import metrics
from ratelab.metrics import (
    DegenerateCurveError,
    NoOverlapError,
    RDCurve,
    RDPoint,
    SpanError,
    UnmatchedVideoError,
    bd_rate,
    projected_bitrate_diff,
    projected_psnr_diff,
    summarize_suite,
)


def curve(*pairs):
    return RDCurve([RDPoint(r, p) for r, p in pairs])


REF = curve((400.0, 34.0), (600.0, 36.0))


def random_curve(rng, n_points=4):
    rates = np.sort(rng.uniform(100.0, 2000.0, size=n_points))
    while np.min(np.diff(rates)) < 10.0:
        rates = np.sort(rng.uniform(100.0, 2000.0, size=n_points))
    psnrs = np.sort(rng.uniform(28.0, 44.0, size=n_points))
    while np.min(np.diff(psnrs)) < 0.2:
        psnrs = np.sort(rng.uniform(28.0, 44.0, size=n_points))
    return curve(*zip(rates, psnrs))


def bd_rate_grid_oracle(curve_a, curve_b, n=20001):
    """Independent numerical integration on a fine grid including all knots."""
    lo = max(curve_a.psnr_min, curve_b.psnr_min)
    hi = min(curve_a.psnr_max, curve_b.psnr_max)
    grid = np.unique(
        np.concatenate(
            [
                np.linspace(lo, hi, n),
                [p.psnr_db for p in curve_a.points if lo <= p.psnr_db <= hi],
                [p.psnr_db for p in curve_b.points if lo <= p.psnr_db <= hi],
            ]
        )
    )
    diffs = np.array(
        [curve_b.log_rate_at_psnr(p) - curve_a.log_rate_at_psnr(p) for p in grid]
    )
    integral = np.trapezoid(diffs, grid)
    return (math.exp(integral / (hi - lo)) - 1.0) * 100.0


# ---------------------------------------------------------------------------
# Curve validation
# ---------------------------------------------------------------------------

def test_curve_needs_two_points():
    with pytest.raises(DegenerateCurveError):
        RDCurve([RDPoint(400.0, 34.0)])


def test_curve_must_be_strictly_monotone():
    with pytest.raises(DegenerateCurveError):
        curve((400.0, 34.0), (500.0, 34.0))
    with pytest.raises(DegenerateCurveError):
        curve((400.0, 34.0), (400.0, 35.0))


def test_point_needs_positive_bitrate():
    with pytest.raises(ValueError):
        RDPoint(0.0, 30.0)


# ---------------------------------------------------------------------------
# Projected differences
# ---------------------------------------------------------------------------

def test_projected_bitrate_midpoint_is_geometric_mean():
    # Log-linear interpolation at the PSNR midpoint lands on sqrt(400*600).
    mid = math.sqrt(400.0 * 600.0)
    diff, pct = projected_bitrate_diff(RDPoint(mid, 35.0), REF)
    assert diff == pytest.approx(0.0, abs=1e-9)
    assert pct == pytest.approx(0.0, abs=1e-9)


def test_projected_bitrate_known_point():
    mid = math.sqrt(400.0 * 600.0)
    diff, pct = projected_bitrate_diff(RDPoint(440.0, 35.0), REF)
    assert diff == pytest.approx(440.0 - mid, abs=1e-9)
    assert pct == pytest.approx(100.0 * (440.0 - mid) / mid, abs=1e-9)


def test_projected_diff_zero_on_vertices():
    for p in REF.points:
        diff, pct = projected_bitrate_diff(RDPoint(p.bitrate_kbps, p.psnr_db), REF)
        assert diff == pytest.approx(0.0, abs=1e-9)
        assert projected_psnr_diff(RDPoint(p.bitrate_kbps, p.psnr_db), REF) == pytest.approx(
            0.0, abs=1e-12
        )


def test_projected_psnr_known_point():
    mid = math.sqrt(400.0 * 600.0)
    assert projected_psnr_diff(RDPoint(mid, 36.0), REF) == pytest.approx(1.0, abs=1e-9)


def test_projected_diff_antisymmetry(rng):
    a = random_curve(rng)
    b = random_curve(rng)
    # Evaluate both directions at a shared anchor inside both spans.
    lo = max(a.psnr_min, b.psnr_min)
    hi = min(a.psnr_max, b.psnr_max)
    if hi <= lo:
        pytest.skip("sampled curves do not overlap")
    psnr = 0.5 * (lo + hi)
    pa = RDPoint(math.exp(a.log_rate_at_psnr(psnr)), psnr)
    pb = RDPoint(math.exp(b.log_rate_at_psnr(psnr)), psnr)
    d_ab, _ = projected_bitrate_diff(pa, b)
    d_ba, _ = projected_bitrate_diff(pb, a)
    assert d_ab == pytest.approx(-d_ba, abs=1e-9)


def test_projected_diff_out_of_span():
    with pytest.raises(SpanError):
        projected_bitrate_diff(RDPoint(500.0, 33.0), REF)
    with pytest.raises(SpanError):
        projected_psnr_diff(RDPoint(399.0, 35.0), REF)


# ---------------------------------------------------------------------------
# BD-rate
# ---------------------------------------------------------------------------

def test_bd_rate_identity():
    c = curve((400.0, 34.0), (520.0, 35.1), (610.0, 36.0), (800.0, 37.5))
    assert bd_rate(c, c) == pytest.approx(0.0, abs=1e-12)


def test_bd_rate_scaled_curve_exact():
    c = curve((400.0, 34.0), (520.0, 35.1), (610.0, 36.0), (800.0, 37.5))
    scaled = curve(*((p.bitrate_kbps * 0.9, p.psnr_db) for p in c.points))
    assert bd_rate(c, scaled) == pytest.approx(-10.0, abs=1e-12)


def test_bd_rate_matches_grid_oracle(rng):
    for _ in range(50):
        a = random_curve(rng)
        b = random_curve(rng)
        lo = max(a.psnr_min, b.psnr_min)
        hi = min(a.psnr_max, b.psnr_max)
        if hi - lo <= 0.5:
            continue
        assert bd_rate(a, b) == pytest.approx(bd_rate_grid_oracle(a, b), abs=1e-9)


def test_bd_rate_common_scale_invariance(rng):
    a = random_curve(rng)
    b = random_curve(rng)
    lo = max(a.psnr_min, b.psnr_min)
    hi = min(a.psnr_max, b.psnr_max)
    if hi <= lo:
        pytest.skip("sampled curves do not overlap")
    scale = 3.7
    a2 = curve(*((p.bitrate_kbps * scale, p.psnr_db) for p in a.points))
    b2 = curve(*((p.bitrate_kbps * scale, p.psnr_db) for p in b.points))
    assert bd_rate(a2, b2) == pytest.approx(bd_rate(a, b), abs=1e-9)


def test_bd_rate_asymmetry_bound():
    # For a scaled pair the log-mean definition gives
    # bd(a,b) + bd(b,a) = 100 (s-1)^2 / s, bounded by bd(a,b)^2.
    c = curve((400.0, 34.0), (600.0, 36.0))
    scaled = curve(*((p.bitrate_kbps * 0.9, p.psnr_db) for p in c.points))
    forward = bd_rate(c, scaled)
    backward = bd_rate(scaled, c)
    assert abs(forward + backward) <= forward**2


def test_bd_rate_requires_overlap():
    a = curve((400.0, 30.0), (600.0, 32.0))
    b = curve((400.0, 40.0), (600.0, 42.0))
    with pytest.raises(NoOverlapError):
        bd_rate(a, b)


# ---------------------------------------------------------------------------
# Suite summaries
# ---------------------------------------------------------------------------

def _trace(video_id, bitrate, psnr, target=512.0):
    from ratelab.simenc import EpisodeTrace

    return EpisodeTrace(
        video_id=video_id,
        num_frames=3,
        target_bitrate_kbps=target,
        qps=(1, 2, 3),
        bits=(100.0, 100.0, 100.0),
        mse=(1.0, 1.0, 1.0),
        show=(True, True, True),
        psnr_db=psnr,
        bitrate_kbps=bitrate,
        reward=psnr,
    )


def test_summarize_identical_policy_zero_diffs():
    curves = {"v0": REF, "v1": REF}
    traces = [_trace("v0", 400.0, 34.0), _trace("v1", 600.0, 36.0)]
    report = summarize_suite(traces, curves)
    assert report.median_proj_bitrate_diff_pct == pytest.approx(0.0, abs=1e-9)
    assert report.median_proj_psnr_diff_db == pytest.approx(0.0, abs=1e-9)


def test_summarize_unmatched_video():
    with pytest.raises(UnmatchedVideoError):
        summarize_suite([_trace("missing", 500.0, 35.0)], {"v0": REF})


def test_summarize_buckets():
    curves = {f"v{i}": REF for i in range(3)}
    traces = [
        _trace("v0", 512.0, 35.0),          # within
        _trace("v1", 400.0, 34.0),          # under by > 5%
        _trace("v2", 600.0, 36.0),          # over by > 5%
    ]
    report = summarize_suite(traces, curves)
    assert report.within_target_frac == pytest.approx(1 / 3)
    assert report.under_target_frac == pytest.approx(1 / 3)
    assert report.over_target_frac == pytest.approx(1 / 3)


def test_summarize_with_no_projected_trace_reports_none():
    """Traces outside the reference span in both PSNR and bitrate leave no
    projected aggregate: each is None with a count of 0, not NaN."""
    traces = [_trace("v0", 900.0, 40.0), _trace("v1", 200.0, 30.0)]
    report = summarize_suite(traces, {"v0": REF, "v1": REF})
    assert report.n_projected == 0
    assert report.median_proj_bitrate_diff_pct is None
    assert report.p25_proj_bitrate_diff_pct is None
    assert report.p75_proj_bitrate_diff_pct is None
    assert report.median_proj_psnr_diff_db is None
    assert report.over_target_frac == report.under_target_frac == 0.5


def test_summarize_counts_projected_traces():
    traces = [_trace("v0", 512.0, 35.0), _trace("v1", 900.0, 40.0)]
    report = summarize_suite(traces, {"v0": REF, "v1": REF})
    assert report.n_projected == 1
    assert report.median_proj_bitrate_diff_pct == report.rows[0].proj_bitrate_diff_pct


def test_suite_csv_roundtrip(tmp_path):
    curves = {"v0": REF}
    report = summarize_suite([_trace("v0", 489.0, 35.0)], curves)
    path = tmp_path / "suite.csv"
    metrics.write_suite_csv(report, path)
    rows = metrics.read_suite_csv(path)
    assert rows == list(report.rows)


def test_suite_csv_missing_column(tmp_path):
    from ratelab.io import SchemaError

    path = tmp_path / "bad.csv"
    path.write_text("video_id,target_kbps\nv0,512\n")
    with pytest.raises(SchemaError):
        metrics.read_suite_csv(path)
