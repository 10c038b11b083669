"""Reference copy of the per-run dwell filter loop, kept as a test oracle.

It run-length encodes a zone sequence and walks the runs one at a time,
dropping those shorter than the dwell threshold and merging surviving
adjacent runs of one zone. The library states the same rule as one array
pass over run boundaries that both ``measures.stats_from_codes`` and
``measures.dwell_filter`` read; ``TestStatsFromCodesOracle`` in
``test_measures.py`` requires equal results, so every function here must
stay exactly as written. It also takes a code array directly.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from teamtrace.core import DEFAULT_MIN_DWELL_S
from teamtrace.measures import ZoneVisit
from teamtrace.zonemap import _LABEL_INDEX, _LABELS, ZoneLabel


def _runs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run-length encode: (values, starts, lengths)."""
    breaks = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate(([0], breaks))
    lengths = np.diff(np.concatenate((starts, [codes.size])))
    return codes[starts], starts, lengths


def dwell_filter(
    zones: Sequence[ZoneLabel] | np.ndarray, min_dwell_s: int = DEFAULT_MIN_DWELL_S
) -> list[ZoneVisit]:
    """Run-length encode a zone sequence and drop runs shorter than
    ``min_dwell_s`` seconds.

    A dropped run's time is discarded, not reassigned; surviving adjacent
    runs of the same zone merge into one visit (so a momentary border
    crossing neither counts as a change nor splits the stay).
    """
    if len(zones) == 0:
        raise ValueError("empty zone sequence")
    if min_dwell_s < 1:
        raise ValueError("min_dwell_s must be at least 1")
    if isinstance(zones, np.ndarray):
        codes = zones.astype(np.int64, copy=False)
    else:
        codes = np.fromiter(
            (_LABEL_INDEX[z] for z in zones), dtype=np.int64, count=len(zones)
        )
    labels = _LABELS

    values, starts, lengths = _runs(codes)
    visits: list[ZoneVisit] = []
    for val, start, length in zip(values.tolist(), starts.tolist(), lengths.tolist()):
        if length < min_dwell_s:
            continue
        if visits and visits[-1].zone is labels[val]:
            prev = visits[-1]
            visits[-1] = ZoneVisit(prev.zone, prev.start_s, prev.dwell_s + length)
        else:
            visits.append(ZoneVisit(labels[val], start, length))
    return visits
