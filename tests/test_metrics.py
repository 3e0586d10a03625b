import math

import numpy as np
import pytest

from ratelab import metrics
from ratelab.metrics import (
    DegenerateCurveError,
    RDCurve,
    RDPoint,
    SpanError,
    UnmatchedVideoError,
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
# Suite summaries
# ---------------------------------------------------------------------------

def _trace(video_id, bitrate, psnr, target=512.0):
    from ratelab.simenc import EpisodeTrace

    return EpisodeTrace(
        video_id=video_id,
        target_bitrate_kbps=target,
        qps=(1, 2, 3),
        bits=(100.0, 100.0, 100.0),
        mse=(1.0, 1.0, 1.0),
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


@pytest.mark.parametrize(
    "row, message",
    [
        ("v0,512.0,489.0,35.0,abc,0.0,0.0", r"bad.csv:3: could not convert string to float: 'abc'"),
        ("v0,512.0,489.0", r"bad.csv:3: float\(\) argument must be"),
    ],
    ids=["not-a-number", "missing-cells"],
)
def test_suite_csv_malformed_row(tmp_path, row, message):
    """A cell that is not a number, or a row short of cells, raises
    ``SchemaError`` naming the file and line."""
    from ratelab.io import SchemaError

    path = tmp_path / "bad.csv"
    header = ",".join(metrics.SUITE_CSV_COLUMNS)
    path.write_text(f"{header}\nv1,512.0,489.0,35.0,0.0,0.0,0.0\n{row}\n")
    with pytest.raises(SchemaError, match=message):
        metrics.read_suite_csv(path)
