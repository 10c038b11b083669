"""Behavioral measures over decoded matches, given as (n, T+1, 2) cell
arrays: zone codes with dwell filtering and change rates, intra-team
distance series, moving averages and cross-match aggregation by tier /
outcome / phase.

Zone changes and team distance are array passes per row. One kept-runs
pass states the dwell rule; ``stats_from_codes`` counts changes from it
and ``dwell_filter`` lists the surviving visits from it.

All functions are pure; matches can be processed concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import DEFAULT_MIN_DWELL_S, Phase, SkillTier, Team, phase_window
from .zonemap import _LABEL_INDEX, _LABELS, ZoneLabel, ZoneMap


@dataclass(frozen=True)
class ZoneVisit:
    """A maximal stay in one zone that survived the dwell filter."""

    zone: ZoneLabel
    start_s: int
    dwell_s: int


@dataclass(frozen=True)
class ZoneChangeStats:
    player_id: int
    changes: int
    duration_s: int
    rate_per_min: float


@dataclass(frozen=True)
class DistanceSeries:
    """Per-second average pairwise intra-team distance, grid-cell units."""

    match_id: int
    team: Team
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("distance series must be a non-empty 1-D array")
        if not np.isfinite(v).all() or (v < 0).any():
            raise ValueError("distances must be finite and non-negative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class LabeledSeries:
    """A distance series tagged with the labels aggregation facets on."""

    series: DistanceSeries
    tier: SkillTier
    won: bool


def zone_codes(cells: np.ndarray, zmap: ZoneMap) -> np.ndarray:
    """Zone label codes for an (..., 2) array of cell coordinates."""
    cells = np.asarray(cells)
    return zmap.codes[cells[..., 0], cells[..., 1]]


def _kept_runs(codes: np.ndarray, min_dwell_s: int) -> tuple[np.ndarray, np.ndarray]:
    """The dwell rule for a non-empty code row: where each run of one code
    starts, and which runs last at least ``min_dwell_s`` seconds."""
    if min_dwell_s < 1:
        raise ValueError("min_dwell_s must be at least 1")
    edge = np.empty(codes.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(codes[1:], codes[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    starts = bounds[:-1]
    return starts, bounds[1:] - starts >= min_dwell_s


def dwell_filter(
    zones: Sequence[ZoneLabel], min_dwell_s: int = DEFAULT_MIN_DWELL_S
) -> list[ZoneVisit]:
    """Run-length encode a zone sequence and drop runs shorter than
    ``min_dwell_s`` seconds.

    A dropped run's time is discarded, not reassigned; surviving adjacent
    runs of the same zone merge into one visit (so a momentary border
    crossing neither counts as a change nor splits the stay).
    """
    if len(zones) == 0:
        raise ValueError("empty zone sequence")
    codes = np.fromiter((_LABEL_INDEX[z] for z in zones), dtype=np.int64, count=len(zones))
    starts, keep = _kept_runs(codes, min_dwell_s)
    lengths = np.diff(starts, append=codes.size)[keep]
    starts = starts[keep]
    values = codes[starts]
    # a visit starts at each kept run whose zone differs from the kept run before; -1 is no zone
    heads = np.flatnonzero(np.diff(values, prepend=-1))
    dwells = np.add.reduceat(lengths, heads)
    return [
        ZoneVisit(_LABELS[v], start, dwell)
        for v, start, dwell in zip(values[heads].tolist(), starts[heads].tolist(), dwells.tolist())
    ]


def change_count(visits: Sequence[ZoneVisit]) -> int:
    return max(0, len(visits) - 1)


def stats_from_codes(
    player_id: int, codes: np.ndarray, min_dwell_s: int = DEFAULT_MIN_DWELL_S
) -> ZoneChangeStats:
    """Dwell-filtered zone changes for one player's per-second zone codes,
    normalized per minute.

    One array pass with ``dwell_filter``'s rule: runs shorter than
    ``min_dwell_s`` drop out, and a change is a pair of adjacent surviving
    runs in different zones. The rate denominator is the observed time:
    one second per 1 Hz sample.
    """
    duration_s = codes.size
    if duration_s == 0:
        raise ValueError("zero-duration match")
    starts, keep = _kept_runs(codes, min_dwell_s)
    kept = codes[starts[keep]]
    changes = int(np.count_nonzero(kept[1:] != kept[:-1]))
    return ZoneChangeStats(player_id, changes, duration_s, changes * 60.0 / duration_s)


def team_distance(positions) -> float:
    """Average Euclidean distance over all pairs of teammate positions.

    ``positions`` is an (n, 2) coordinate array, n >= 2: one second of
    ``distance_values``.
    """
    pts = np.asarray(positions, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"positions must be an (n, 2) array, got shape {pts.shape}")
    return float(distance_values(pts[:, None, :])[0])


def distance_values(cells: np.ndarray) -> np.ndarray:
    """Per-second team distance for an (n, T, 2) cell array: Eq. (1), the
    mean over teammate pairs of their Euclidean distance.

    Each player i is differenced against the players after it in one
    (n - 1 - i, T) array pass. The pair rows are added to the total one at
    a time in (i, j) order, so each second rounds as a pair-by-pair loop
    does (numpy's axis-0 sum would go pairwise when T is 1).
    """
    pts = cells.astype(np.float64)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("team distance needs at least 2 positions")
    total = np.zeros(pts.shape[1])
    for i in range(n - 1):
        d = pts[i + 1:] - pts[i]
        d *= d
        root = d[..., 0] + d[..., 1]
        for row in np.sqrt(root, out=root):
            total += row
    return total / (n * (n - 1) / 2)


def moving_average(series, window_s: int = 1) -> np.ndarray:
    """Trailing mean over the last ``window_s`` samples (fewer at the
    start). Window 1 is the identity at 1 Hz."""
    if window_s < 1:
        raise ValueError("window must be at least 1 second")
    v = np.asarray(series, dtype=np.float64)
    if window_s == 1:
        return v.copy()
    window_s = min(window_s, v.size)  # any longer window averages from the start
    c = np.concatenate(([0.0], np.cumsum(v)))
    t = np.arange(v.size)
    lo = np.maximum(t - window_s + 1, 0)
    return (c[t + 1] - c[lo]) / (t - lo + 1)


def aggregate_by_category(
    labeled: Sequence[LabeledSeries], tier: SkillTier, won: bool, phase: Phase
) -> list[tuple[int, float, int]]:
    """Per-second mean distance for one (tier, outcome) category within a
    phase window.

    Returns (t, mean_d, n_matches) rows; at each second only the series
    still running contribute, so short matches drop out of the tail. A
    category with no series gives no rows.
    """
    sel = [ls.series.values for ls in labeled if ls.tier is tier and ls.won == won]
    start, end = phase_window(phase)
    end = min(end, max((len(v) for v in sel), default=0))
    if end <= start:
        return []
    width = end - start
    stack = np.full((len(sel), width), np.nan)
    for i, v in enumerate(sel):
        chunk = v[start:end]
        stack[i, : len(chunk)] = chunk
    counts = (~np.isnan(stack)).sum(axis=0)
    sums = np.nansum(stack, axis=0)
    # the longest series covers every second of [start, end), so no count is 0
    return list(zip(range(start, end), (sums / counts).tolist(), counts.tolist()))
