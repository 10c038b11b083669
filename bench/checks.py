"""Output checks for the teamtrace benchmark.

The reference values come straight from the DTL2 bytes, decoded here with
numpy and without any trajectory CSV, so the program's own CSV path and
GridCell objects are checked rather than reused.
"""
from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

TEAM_NAMES = ("Radiant", "Dire")
TIER_ORDER = ("Professional", "High", "Normal")  # planted: tight and busy -> loose and calm
MIN_DWELL_S = 5

_HEADER = struct.Struct("<4sHQHB")
_SLOT = struct.Struct("<BBI")
_FRAME_HEAD = struct.Struct("<IH")
_UPDATE = np.dtype([("entity", "u1"), ("x", "u1"), ("y", "u1"), ("vx", "<f4"), ("vy", "<f4")])


def decode_cells(data: bytes, duration_s: int):
    """(match_id, teams, player_ids, cells) of one stream; ``cells`` is the
    (10, duration_s + 1, 2) carry-forward position of each slot at 1 Hz."""
    magic, _, match_id, interval, count = _HEADER.unpack_from(data, 0)
    if magic != b"DTL2" or count != 10:
        raise ValueError("not a DTL2 stream")
    off = _HEADER.size
    slots = []
    for _ in range(count):
        slots.append(_SLOT.unpack_from(data, off))
        off += _SLOT.size
    blocks, ticks = [], []
    while off < len(data):
        tick, n = _FRAME_HEAD.unpack_from(data, off)
        off += _FRAME_HEAD.size
        blocks.append(np.frombuffer(data, dtype=_UPDATE, count=n, offset=off))
        ticks.append(np.full(n, tick, dtype=np.int64))
        off += n * _UPDATE.itemsize
    upd = np.concatenate(blocks)
    secs = (np.concatenate(ticks) * interval + 500) // 1000
    cells = np.empty((count, duration_s + 1, 2), dtype=np.int64)
    for i, (entity, _, _) in enumerate(slots):
        mine = upd["entity"] == entity
        at = np.searchsorted(secs[mine], np.arange(duration_s + 1), side="right") - 1
        if at[0] < 0:
            raise ValueError(f"entity {entity} has no tick-0 position")
        cells[i, :, 0] = upd["x"][mine][at]
        cells[i, :, 1] = upd["y"][mine][at]
    teams = np.array([team for _, team, _ in slots])
    player_ids = [pid for _, _, pid in slots]
    return match_id, teams, player_ids, cells


def team_distance(cells: np.ndarray) -> np.ndarray:
    """Mean pairwise Euclidean distance per second of an (n, T, 2) array."""
    pts = cells.astype(np.float64)
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    diff = pts[iu] - pts[ju]
    return np.sqrt((diff * diff).sum(axis=-1)).mean(axis=0)


def dwell_changes(codes: np.ndarray, min_dwell_s: int = MIN_DWELL_S) -> int:
    """Zone changes after dropping stays shorter than ``min_dwell_s`` and
    merging the surviving neighbours that share a zone."""
    starts = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate(([0], starts))
    lengths = np.diff(np.concatenate((starts, [codes.size])))
    kept = codes[starts][lengths >= min_dwell_s]
    if kept.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(kept)))


class Expected:
    """Reference results for one batch of streams.

    ``meta`` maps match id to (tier name, winner name, duration_s).
    """

    def __init__(self, streams: dict[int, bytes], meta: dict[int, tuple], zone_codes: np.ndarray):
        self.meta = meta
        self.distance: dict[tuple[int, str], np.ndarray] = {}
        self.changes: dict[tuple[int, int], int] = {}
        self.player_seconds = 0
        for key, data in streams.items():
            duration = meta[key][2]
            match_id, teams, player_ids, cells = decode_cells(data, duration)
            if match_id != key:
                raise ValueError(f"stream for match {key} carries id {match_id}")
            for team, name in enumerate(TEAM_NAMES):
                self.distance[(match_id, name)] = team_distance(cells[teams == team])
            codes = zone_codes[cells[..., 0], cells[..., 1]]
            for pid, row in zip(player_ids, codes):
                self.changes[(match_id, pid)] = dwell_changes(row)
            self.player_seconds += cells.shape[0] * cells.shape[1]

    def tier_means(self, values: dict) -> dict[str, float]:
        """Mean of ``values`` (keyed by (match_id, ...)) per planted tier."""
        groups: dict[str, list[float]] = {}
        for key, v in values.items():
            groups.setdefault(self.meta[key[0]][0], []).append(v)
        return {tier: float(np.mean(vs)) for tier, vs in groups.items()}


def tier_ordering(distance_means: dict[tuple, float], rates: dict[tuple, float], expected: Expected):
    """The planted ordering: Professional < High < Normal in distance and
    Professional > High > Normal in zone-change rate."""
    d = expected.tier_means(distance_means)
    r = expected.tier_means(rates)
    dist_ok = [d[t] for t in TIER_ORDER] == sorted(d[t] for t in TIER_ORDER)
    rate_ok = [r[t] for t in TIER_ORDER] == sorted((r[t] for t in TIER_ORDER), reverse=True)
    return dist_ok and rate_ok, f"distance {d}, rate {r}"


def compare_distance(got: dict[tuple[int, str], np.ndarray], expected: Expected):
    if got.keys() != expected.distance.keys():
        return False, f"{len(got)} series, expected {len(expected.distance)}"
    worst = max(
        float(np.max(np.abs(got[k] - v))) if got[k].shape == v.shape else np.inf
        for k, v in expected.distance.items()
    )
    return worst <= 1e-9, f"max abs error {worst:.3g}"


def compare_changes(got: dict[tuple[int, int], int], expected: Expected):
    if got.keys() != expected.changes.keys():
        return False, f"{len(got)} players, expected {len(expected.changes)}"
    bad = [k for k, v in expected.changes.items() if got[k] != v]
    return not bad, f"{len(bad)} players differ" + (f", first {bad[0]}" if bad else "")


def memberships_ok(ids, memberships, n_series: int):
    rows = np.asarray(memberships, dtype=np.float64)
    if len(ids) != n_series or rows.shape[0] != n_series:
        return False, f"{len(ids)} ids, {rows.shape[0]} rows, expected {n_series}"
    worst = float(np.max(np.abs(rows.sum(axis=1) - 1.0)))
    return worst <= 1e-9, f"max row-sum error {worst:.3g}"


# ── CLI output files ──────────────────────────────────────────────────────


def read_meta(path: Path) -> dict[int, tuple]:
    with open(path) as f:
        rows = list(csv.DictReader(f))
    return {int(r["match_id"]): (r["tier"], r["winner"], int(r["duration_s"])) for r in rows}


def read_distance_csv(path: Path) -> dict[tuple[int, str], np.ndarray]:
    series: dict[tuple[int, str], list[float]] = {}
    with open(path) as f:
        reader = csv.reader(f)
        if next(reader) != ["match_id", "team", "t", "d"]:
            raise ValueError("bad distance_series.csv header")
        for mid, team, t, d in reader:
            got = series.setdefault((int(mid), team), [])
            if int(t) != len(got):
                raise ValueError(f"non-contiguous t in match {mid} {team}")
            got.append(float(d))
    return {k: np.array(v) for k, v in series.items()}


def read_zone_changes(path: Path):
    changes, rates = {}, {}
    with open(path) as f:
        for r in csv.DictReader(f):
            key = (int(r["match_id"]), int(r["player_id"]))
            changes[key] = int(r["changes"])
            rates[key] = float(r["rate_per_min"])
    return changes, rates


def heatmap_total(path: Path) -> int:
    grid = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    return int(grid.sum())


def check_cli_outputs(root: Path, expected: Expected) -> list[tuple[str, bool, str]]:
    """All output checks of one CLI pass under ``root``; each is one
    attempted operation. A check that cannot even read its file fails."""
    out = root / "out"
    results = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            ok, detail = False, f"{type(e).__name__}: {e}"
        results.append((name, bool(ok), detail))

    def distance():
        return compare_distance(read_distance_csv(out / "distance_series.csv"), expected)

    def changes():
        return compare_changes(read_zone_changes(out / "zone_changes.csv")[0], expected)

    def heatmap():
        total = heatmap_total(out / "heatmap.csv")
        return total == expected.player_seconds, f"{total} of {expected.player_seconds}"

    def clusters():
        doc = json.loads((out / "clusters.json").read_text())
        return memberships_ok(doc["ids"], doc["memberships"], len(expected.distance))

    def ordering():
        dist = read_distance_csv(out / "distance_series.csv")
        rates = read_zone_changes(out / "zone_changes.csv")[1]
        return tier_ordering({k: float(v.mean()) for k, v in dist.items()}, rates, expected)

    run("distance_series", distance)
    run("zone_changes", changes)
    run("heatmap_total", heatmap)
    run("clusters", clusters)
    run("tier_ordering", ordering)
    return results
