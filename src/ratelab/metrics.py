"""Rate-distortion comparison metrics.

Curves are interpolated piecewise-linearly in (PSNR, log-bitrate); no
extrapolation is performed outside a curve's span.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .simenc import EpisodeTrace

__all__ = [
    "RDPoint",
    "RDCurve",
    "DegenerateCurveError",
    "SpanError",
    "UnmatchedVideoError",
    "projected_bitrate_diff",
    "projected_psnr_diff",
    "rd_curve_from_traces",
    "SuiteRow",
    "SuiteReport",
    "report_from_rows",
    "summarize_suite",
    "write_suite_csv",
    "SUITE_CSV_COLUMNS",
    "WITHIN_PCT",
]


class DegenerateCurveError(ValueError):
    """An RD curve with < 2 points or non-monotone coordinates."""


class SpanError(ValueError):
    """Query point lies outside the reference curve's span."""


class UnmatchedVideoError(KeyError):
    """A policy trace has no matching baseline curve."""


@dataclass(frozen=True)
class RDPoint:
    bitrate_kbps: float
    psnr_db: float

    def __post_init__(self) -> None:
        if not self.bitrate_kbps > 0.0:
            raise ValueError(f"bitrate must be positive, got {self.bitrate_kbps}")


class RDCurve:
    """Ordered RD points, strictly increasing in both bitrate and PSNR."""

    def __init__(self, points: Sequence[RDPoint]):
        if len(points) < 2:
            raise DegenerateCurveError("an RD curve needs at least 2 points")
        pts = sorted(points, key=lambda p: p.bitrate_kbps)
        for a, b in zip(pts, pts[1:]):
            if not (b.bitrate_kbps > a.bitrate_kbps and b.psnr_db > a.psnr_db):
                raise DegenerateCurveError(
                    "curve must be strictly increasing in bitrate and PSNR: "
                    f"({a.bitrate_kbps}, {a.psnr_db}) -> ({b.bitrate_kbps}, {b.psnr_db})"
                )
        self.points = tuple(pts)
        self._psnr = np.array([p.psnr_db for p in pts])
        self._log_rate = np.array([math.log(p.bitrate_kbps) for p in pts])

    @property
    def psnr_min(self) -> float:
        return float(self._psnr[0])

    @property
    def psnr_max(self) -> float:
        return float(self._psnr[-1])

    def log_rate_at_psnr(self, psnr: float) -> float:
        """Interpolated log-bitrate at a PSNR inside the curve's span."""
        if not self.psnr_min <= psnr <= self.psnr_max:
            raise SpanError(
                f"psnr {psnr} outside curve span [{self.psnr_min}, {self.psnr_max}]"
            )
        return float(np.interp(psnr, self._psnr, self._log_rate))

    def psnr_at_bitrate(self, bitrate_kbps: float) -> float:
        """Interpolated PSNR at a bitrate inside the curve's span (linear in log-rate)."""
        log_r = math.log(bitrate_kbps)
        if not self._log_rate[0] <= log_r <= self._log_rate[-1]:
            raise SpanError(
                f"bitrate {bitrate_kbps} outside curve span "
                f"[{math.exp(self._log_rate[0]):.3f}, {math.exp(self._log_rate[-1]):.3f}]"
            )
        return float(np.interp(log_r, self._log_rate, self._psnr))


def projected_bitrate_diff(point: RDPoint, reference: RDCurve) -> tuple[float, float]:
    """Bitrate gap to the reference curve at equal PSNR.

    Returns (diff_kbps, diff_pct): the point's bitrate minus the reference
    bitrate interpolated at the point's PSNR, and that difference as a
    percentage of the interpolated bitrate. Negative means the point spends
    fewer bits than the reference at the same quality.
    """
    ref_rate = math.exp(reference.log_rate_at_psnr(point.psnr_db))
    diff = point.bitrate_kbps - ref_rate
    return diff, 100.0 * diff / ref_rate


def projected_psnr_diff(point: RDPoint, reference: RDCurve) -> float:
    """PSNR gap to the reference curve at equal bitrate (dB, positive = better)."""
    return point.psnr_db - reference.psnr_at_bitrate(point.bitrate_kbps)


def rd_curve_from_traces(traces: Sequence[EpisodeTrace]) -> RDCurve:
    """Build a per-video RD curve from encodes of the same video at several bitrates."""
    return RDCurve([RDPoint(t.bitrate_kbps, t.psnr_db) for t in traces])


# ---------------------------------------------------------------------------
# Suite summaries
# ---------------------------------------------------------------------------

# Tolerance, in percent of the target, of the within/under/over-target
# shares. ``eval.csv`` does not record it, so ``report`` recomputes the
# shares from the rows with this same constant.
WITHIN_PCT = 5.0


@dataclass(frozen=True)
class SuiteRow:
    """One ``eval.csv`` row; the columns are the fields, the id then floats."""

    video_id: str
    target_kbps: float
    bitrate_kbps: float
    psnr_db: float
    proj_bitrate_diff_kbps: float  # NaN when outside the reference span
    proj_bitrate_diff_pct: float
    proj_psnr_diff_db: float


SUITE_CSV_COLUMNS = tuple(f.name for f in fields(SuiteRow))


@dataclass(frozen=True)
class SuiteReport:
    """Aggregates of suite rows. The projected ones cover the ``n_projected``
    rows projected inside their reference span: None if none, never NaN."""

    rows: tuple[SuiteRow, ...]
    median_proj_bitrate_diff_pct: float | None
    p25_proj_bitrate_diff_pct: float | None
    p75_proj_bitrate_diff_pct: float | None
    median_proj_psnr_diff_db: float | None
    n_projected: int
    within_target_frac: float   # |bitrate - target| <= within_pct of target
    under_target_frac: float    # bitrate < (1 - within_pct) * target
    over_target_frac: float     # bitrate > (1 + within_pct) * target
    within_pct: float

    def aggregates(self) -> dict:
        """Every field but the rows."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}


def _projected(values: Sequence[float]) -> np.ndarray:
    """The values that are not NaN: those of rows projected inside the span."""
    return np.asarray(values)[~np.isnan(values)]


def report_from_rows(rows: Sequence[SuiteRow]) -> SuiteReport:
    """Aggregate suite rows: projected medians and quartiles, and the share
    of rows within, under and over ``WITHIN_PCT`` percent of their target."""
    if not rows:
        raise ValueError("no suite rows to aggregate")
    rate = _projected([r.proj_bitrate_diff_pct for r in rows])
    psnr = _projected([r.proj_psnr_diff_db for r in rows])
    rel = np.array([(r.bitrate_kbps - r.target_kbps) / r.target_kbps * 100.0 for r in rows])
    return SuiteReport(
        rows=tuple(rows),
        median_proj_bitrate_diff_pct=float(np.median(rate)) if rate.size else None,
        p25_proj_bitrate_diff_pct=float(np.percentile(rate, 25)) if rate.size else None,
        p75_proj_bitrate_diff_pct=float(np.percentile(rate, 75)) if rate.size else None,
        median_proj_psnr_diff_db=float(np.median(psnr)) if psnr.size else None,
        n_projected=int(rate.size),
        within_target_frac=float(np.mean(np.abs(rel) <= WITHIN_PCT)),
        under_target_frac=float(np.mean(rel < -WITHIN_PCT)),
        over_target_frac=float(np.mean(rel > WITHIN_PCT)),
        within_pct=WITHIN_PCT,
    )


def summarize_suite(
    policy_traces: Sequence[EpisodeTrace],
    baseline_curves: Mapping[str, RDCurve | None],
) -> SuiteReport:
    """Project each policy trace onto its video's baseline RD curve.

    Every trace must have a matching entry: a curve built from the baseline
    encoded at >= 2 bitrates, or ``None`` when those encodes collapsed to
    one RD point. Traces with no curve, or whose PSNR or bitrate falls
    outside the reference span, get NaN projected diffs and are left out of
    the projected aggregates (see ``report_from_rows``).
    """
    rows = []
    for trace in policy_traces:
        if trace.video_id not in baseline_curves:
            raise UnmatchedVideoError(trace.video_id)
        curve = baseline_curves[trace.video_id]
        point = RDPoint(trace.bitrate_kbps, trace.psnr_db)
        diff_kbps = diff_pct = psnr_diff = float("nan")
        if curve is not None:
            with contextlib.suppress(SpanError):
                diff_kbps, diff_pct = projected_bitrate_diff(point, curve)
            with contextlib.suppress(SpanError):
                psnr_diff = projected_psnr_diff(point, curve)
        rows.append(
            SuiteRow(
                video_id=trace.video_id,
                target_kbps=trace.target_bitrate_kbps,
                bitrate_kbps=trace.bitrate_kbps,
                psnr_db=trace.psnr_db,
                proj_bitrate_diff_kbps=diff_kbps,
                proj_bitrate_diff_pct=diff_pct,
                proj_psnr_diff_db=psnr_diff,
            )
        )
    return report_from_rows(rows)


def write_suite_csv(report: SuiteReport, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUITE_CSV_COLUMNS)
        for r in report.rows:
            writer.writerow([r.video_id, *(repr(getattr(r, c)) for c in SUITE_CSV_COLUMNS[1:])])


def read_suite_csv(path: str | Path) -> list[SuiteRow]:
    from .io import SchemaError

    with Path(path).open() as fh:
        reader = csv.DictReader(fh)
        missing = set(SUITE_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise SchemaError(f"{path}: missing columns {sorted(missing)}")
        return [
            SuiteRow(row["video_id"], *(float(row[c]) for c in SUITE_CSV_COLUMNS[1:]))
            for row in reader
        ]
