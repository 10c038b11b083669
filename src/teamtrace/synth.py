"""Seeded synthetic match generator.

Plants known behavior so the whole pipeline can be verified end to end:
each team follows one waypoint regime, re-anchoring all five players in a
fresh zone at Poisson-like switch times (a 5 s dwell floor keeps every
planted stay countable), with player anchors dispersed around the team's
reference point by ``spread_sigma`` cells. Measured team distance scales
with the dispersion and the measured zone-change rate tracks the switch
rate, so regimes emulating skill tiers can be ordered and tested. No
fidelity to real play is claimed.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MIN_DWELL_S, GRID_SIZE, PLAYER_COUNT, TEAM_SIZE, SkillTier, Team
from .tickstream import (
    MatchMeta,
    PlayerSlot,
    StreamHeader,
    UPDATE_DTYPE,
    _pack_frames,
    tick_for_second,
)
from .zonemap import _LABEL_INDEX, ZoneLabel, ZoneMap

_TARGET_ZONES = (
    ZoneLabel.TOP_LANE,
    ZoneLabel.MIDDLE_LANE,
    ZoneLabel.BOTTOM_LANE,
    ZoneLabel.JUNGLE,
)

# Widest planted dispersion, in cells: past a few grid widths the zone cells
# nearest each proposal stop changing, and far wider sigmas overflow the scores.
MAX_SPREAD_SIGMA = 4.0 * GRID_SIZE


@dataclass(frozen=True)
class RegimeParams:
    """One team's planted movement regime."""

    spread_sigma: float  # target dispersion around the team anchor, cells
    switch_rate: float   # expected zone changes per player per minute
    match_len_s: int

    def __post_init__(self):
        if not 0 <= self.spread_sigma < float("inf"):
            raise ValueError("spread_sigma must be finite and non-negative")
        if self.spread_sigma > MAX_SPREAD_SIGMA:
            raise ValueError(f"spread_sigma must be at most {MAX_SPREAD_SIGMA:g} cells")
        if not 0 < self.switch_rate < 60.0 / DEFAULT_MIN_DWELL_S:
            raise ValueError(
                f"switch_rate must be in (0, {60.0 / DEFAULT_MIN_DWELL_S}) per minute"
            )
        if self.match_len_s < 1:
            raise ValueError("match_len_s must be positive")


# Anchor candidates per zone are capped so the per-event nearest-cell
# projection stays cheap; the stride keeps them spread over the zone.
_MAX_POOL = 256
# Events projected at once: bounds the (events, TEAM_SIZE, pool) score array of a
# long match to about 0.6 MB.
_EVENT_BLOCK = 64


@functools.lru_cache(maxsize=4)
def _zone_interiors(code_bytes: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior cells of every zone of a map, given its codes' bytes, stacked
    by label index: (labels, width, 2) cells, their squared norms (+inf past
    each zone's pool) and the pool sizes. An interior cell's full (2r+1)^2
    neighborhood shares its label, so small jitter cannot escape."""
    radius = 2
    codes = np.frombuffer(code_bytes, dtype=np.uint8).reshape(GRID_SIZE, GRID_SIZE)
    padded = np.pad(codes, radius, constant_values=255)
    same = np.ones_like(codes, dtype=bool)
    size = codes.shape[0]
    for dx in range(2 * radius + 1):
        for dy in range(2 * radius + 1):
            same &= padded[dx : dx + size, dy : dy + size] == codes
    pools = []
    for label in ZoneLabel:
        mask = same & (codes == np.uint8(_LABEL_INDEX[label]))
        xs, ys = np.nonzero(mask)
        pool = np.column_stack((xs, ys)).astype(np.float64)
        if len(pool) > _MAX_POOL:
            stride = -(-len(pool) // _MAX_POOL)
            pool = pool[::stride]
        pools.append(pool)
    sizes = np.array([len(pool) for pool in pools])
    cells = np.zeros((len(pools), sizes.max(), 2))
    norms = np.full((len(pools), sizes.max()), np.inf)
    for i, pool in enumerate(pools):
        cells[i, : len(pool)] = pool
        norms[i, : len(pool)] = (pool * pool).sum(axis=1)
    return cells, norms, sizes


def _switch_times(rng: np.random.Generator, rate_per_min: float, match_len_s: int) -> list[int]:
    """Seconds at which the team re-anchors; gaps are the dwell floor plus
    an exponential tail so the long-run rate matches rate_per_min. The
    floor is the measures' default dwell threshold: a shorter stay would
    be dropped by the dwell filter."""
    mean_gap = 60.0 / rate_per_min
    t = 0.0
    out = []
    while True:
        t += DEFAULT_MIN_DWELL_S + rng.exponential(mean_gap - DEFAULT_MIN_DWELL_S)
        if t > match_len_s:
            return out
        out.append(int(np.ceil(t)))


def _team_positions(
    rng: np.random.Generator,
    params: RegimeParams,
    interiors: tuple[np.ndarray, np.ndarray, np.ndarray],
    base: ZoneLabel,
) -> tuple[np.ndarray, np.ndarray]:
    """(5, T+1, 2) integer cells and float32 sub-cell offsets for one team."""
    n = TEAM_SIZE
    length = params.match_len_s + 1
    pool_cells, pool_norms, pool_sizes = interiors
    for label in (base,) + _TARGET_ZONES:
        if pool_sizes[_LABEL_INDEX[label]] == 0:
            raise ValueError(f"zone map has no interior cells for {label}")

    event_secs = [0] + _switch_times(rng, params.switch_rate, params.match_len_s)
    n_events = len(event_secs)

    # zone per event: spawn in the base, then always move somewhere new;
    # each draw picks among the targets other than the one just left
    zones = [_LABEL_INDEX[base]]
    if n_events > 1:
        k = len(_TARGET_ZONES)
        prev = -1
        for pick in rng.integers(0, [k] + [k - 1] * (n_events - 2)).tolist():
            prev = pick + (0 <= prev <= pick)
            zones.append(_LABEL_INDEX[_TARGET_ZONES[prev]])
    zones = np.array(zones)
    refs = pool_cells[zones, rng.integers(0, pool_sizes[zones])]

    # each player anchors to the interior cell nearest a Gaussian
    # displacement of the event's reference cell: the argmin of squared
    # distance, whose |proposal|^2 term is constant per row
    proposals = refs[:, None, :] + rng.normal(0.0, params.spread_sigma, (n_events, n, 2))
    anchors = np.empty((n_events, n, 2))
    for lo in range(0, n_events, _EVENT_BLOCK):
        block = slice(lo, lo + _EVENT_BLOCK)
        pools = pool_cells[zones[block]]
        scores = proposals[block] @ pools.transpose(0, 2, 1)
        scores *= -2.0  # -(2 p.c) + |c|^2 is exactly |c|^2 - 2 p.c, without temporaries
        scores += pool_norms[zones[block]][:, None, :]
        anchors[block] = pools[np.arange(len(pools))[:, None], scores.argmin(axis=2)]

    spans = np.diff(np.asarray(event_secs + [length]))
    timeline = np.repeat(anchors, spans, axis=0).transpose(1, 0, 2)

    # redrawn every other second: halves the update traffic without
    # changing dispersion (a zero sigma draws zeros)
    jitter = rng.normal(0.0, min(0.7, params.spread_sigma / 3.0), size=(n, (length + 1) // 2, 2))
    continuous = timeline + np.repeat(jitter, 2, axis=1)[:, :length, :]

    cells = np.clip(np.rint(continuous), 0, GRID_SIZE - 1)
    offsets = (continuous - cells).astype(np.float32)
    return cells.astype(np.uint8), offsets


def generate_match(
    params_radiant: RegimeParams,
    params_dire: RegimeParams,
    zone_map: ZoneMap,
    seed: int,
    match_id: int | None = None,
    tier: SkillTier = SkillTier.NORMAL,
) -> tuple[bytes, MatchMeta]:
    """Produce one DTL2 stream plus its metadata.

    Fully deterministic: the same (seed, params) always yields identical
    bytes. The stream uses the format's default tick interval, and the
    winner, like the match id when none is given, is drawn from the seed.
    The seed must be non-negative and both teams must share the match length.
    """
    if params_radiant.match_len_s != params_dire.match_len_s:
        raise ValueError("both teams must use the same match length")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    duration = params_radiant.match_len_s

    # the entropy stays (seed, 0, 0): on numpy 2.4.6 that seeds as seed alone
    # only below 2**64, and synth --seed has no upper bound
    root = np.random.SeedSequence(entropy=(int(seed), 0, 0))
    meta_ss, radiant_ss, dire_ss = root.spawn(3)
    meta_rng = np.random.default_rng(meta_ss)
    if match_id is None:
        match_id = int(meta_rng.integers(1, 1 << 48))
    winner = Team.RADIANT if meta_rng.integers(2) == 0 else Team.DIRE

    interiors = _zone_interiors(zone_map.codes.tobytes())
    teams = [
        _team_positions(np.random.default_rng(ss), params, interiors, base)
        for ss, params, base in ((radiant_ss, params_radiant, ZoneLabel.BASE_RADIANT),
                                 (dire_ss, params_dire, ZoneLabel.BASE_DIRE))
    ]
    cells, offs = (np.concatenate(arrays) for arrays in zip(*teams))

    header = StreamHeader(
        match_id=match_id,
        players=tuple(
            PlayerSlot(i, Team.RADIANT if i < TEAM_SIZE else Team.DIRE, 100 + i)
            for i in range(PLAYER_COUNT)
        ),
    )

    # sparse frames: an entity appears only in the seconds its cell moved
    moved = (cells[:, 1:] != cells[:, :-1]).any(axis=-1)
    mask = np.concatenate((np.ones((PLAYER_COUNT, 1), dtype=bool), moved), axis=1)
    secs_u, ents_u = np.nonzero(mask.T)  # second-major, entity-sorted

    updates = np.empty(secs_u.size, dtype=UPDATE_DTYPE)
    updates["entity"] = ents_u
    updates["x"] = cells[ents_u, secs_u, 0]
    updates["y"] = cells[ents_u, secs_u, 1]
    updates["vx"] = offs[ents_u, secs_u, 0]
    updates["vy"] = offs[ents_u, secs_u, 1]

    per_sec = np.bincount(secs_u, minlength=duration + 1)
    frame_secs = np.flatnonzero(per_sec)
    counts = per_sec[frame_secs]
    ticks = tick_for_second(frame_secs.astype(np.int64))

    stream = _pack_frames(header, ticks, counts, updates)
    return stream, MatchMeta(match_id, tier, winner, duration)
