"""Reference copies of the per-frame DTL2 codec and synth paths, kept as
test oracles.

These are the frame-by-frame ``_scan`` walk (errors raised as they are
met), the per-frame update copy with an ``np.unique`` duplicate check, the
per-slot ``searchsorted`` resampler, the ``struct.pack``-per-frame
serializer and the synthetic generator with scalar zone and reference
draws and a per-zone projection. The library computes the same bytes and
raises the same errors with array passes; the tests in
``test_tickstream_oracle.py`` require equality, so every function here
must stay exactly as written. Two deliberate changes were made to ``_scan``
since the oracles were taken: the keyframe rule (the first frame is at
tick 0 and carries all ten entities), and the header checks in byte order
(the tick interval at byte 14 before the player count at byte 16).
"""
from __future__ import annotations

import struct

import numpy as np

from teamtrace.core import GRID_SIZE, SkillTier, Team
from teamtrace.synth import (
    MatchMeta,
    RegimeParams,
    _TARGET_ZONES,
    _MAX_POOL,
    _switch_times,
)
from teamtrace.tickstream import (
    FORMAT_VERSION,
    MAGIC,
    PLAYER_COUNT,
    UPDATE_DTYPE,
    Frame,
    FrameUpdate,
    HEADER_SIZE,
    PlayerSlot,
    StreamFormatError,
    StreamHeader,
    _pack_header,
    tick_for_second,
    tick_to_second,
)
from teamtrace.zonemap import _LABEL_INDEX, ZoneLabel, ZoneMap

_HEADER = struct.Struct("<4sHQHB")
_SLOT = struct.Struct("<BBI")
_FRAME_HEAD = struct.Struct("<IH")
_UPDATE = struct.Struct("<BBBff")
assert HEADER_SIZE == _HEADER.size + PLAYER_COUNT * _SLOT.size


# ── tickstream ─────────────────────────────────────────────────────────────

def _pack_frames(
    header: StreamHeader,
    ticks: np.ndarray,
    counts: np.ndarray,
    updates: np.ndarray,
) -> bytes:
    """Array-based serializer for trusted producers (no per-update checks).

    ``updates`` is an UPDATE_DTYPE array holding every frame's updates
    back to back; ``counts[i]`` updates belong to the frame at ``ticks[i]``.
    Produces bytes identical to :func:`encode` on equivalent input.
    """
    chunks = [_pack_header(header)]
    raw = updates.tobytes()
    pos = 0
    pack = _FRAME_HEAD.pack
    unit = UPDATE_DTYPE.itemsize
    for tick, cnt in zip(ticks.tolist(), counts.tolist()):
        chunks.append(pack(tick, cnt))
        end = pos + cnt * unit
        chunks.append(raw[pos:end])
        pos = end
    return b"".join(chunks)


def _scan(data: bytes):
    """Parse and validate stream structure.

    Returns (header, frame_ticks, frame_counts, update_offsets) where
    ``update_offsets[i]`` is the byte offset of frame i's update block.
    """
    if len(data) < _HEADER.size:
        raise StreamFormatError("truncated header", offset=len(data))
    magic, version, match_id, interval, player_count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}", offset=0)
    if version != FORMAT_VERSION:
        raise StreamFormatError(f"unsupported version {version}", offset=4)
    if interval < 1:
        raise StreamFormatError("tick_interval_ms must be positive", offset=14)
    if player_count != PLAYER_COUNT:
        raise StreamFormatError(f"player_count {player_count} != {PLAYER_COUNT}", offset=16)
    if len(data) < HEADER_SIZE:
        raise StreamFormatError("truncated player table", offset=len(data))

    slots = []
    seen = set()
    off = _HEADER.size
    for _ in range(player_count):
        entity_id, team_byte, player_id = _SLOT.unpack_from(data, off)
        if team_byte not in (0, 1):
            raise StreamFormatError(f"invalid team byte {team_byte}", offset=off + 1)
        if entity_id in seen:
            raise StreamFormatError(f"duplicate entity_id {entity_id}", offset=off)
        seen.add(entity_id)
        slots.append(PlayerSlot(entity_id, Team(team_byte), player_id))
        off += _SLOT.size
    header = StreamHeader(match_id, tuple(slots), interval)

    ticks: list[int] = []
    counts: list[int] = []
    offsets: list[int] = []
    prev_tick = -1
    n = len(data)
    while off < n:
        if n - off < _FRAME_HEAD.size:
            raise StreamFormatError("truncated frame header", offset=off)
        tick, count = _FRAME_HEAD.unpack_from(data, off)
        if tick <= prev_tick:
            raise StreamFormatError(
                f"tick {tick} not greater than previous {prev_tick}", offset=off
            )
        if not ticks and (tick != 0 or count != PLAYER_COUNT):
            # the keyframe rule, added on purpose: ten updates, each declared
            # and unique (checked below), cover all ten entities
            raise StreamFormatError(
                f"first frame must be a tick-0 keyframe covering all {PLAYER_COUNT} entities",
                offset=off,
            )
        prev_tick = tick
        off += _FRAME_HEAD.size
        need = count * _UPDATE.size
        if n - off < need:
            raise StreamFormatError("truncated mid-update", offset=off)
        ticks.append(tick)
        counts.append(count)
        offsets.append(off)
        off += need
    if not ticks:
        raise StreamFormatError("stream contains no frames", offset=off)
    return header, ticks, counts, offsets


def _update_arrays(data, header, ticks, counts, offsets):
    """Concatenate every frame's update block and validate contents."""
    unit = UPDATE_DTYPE.itemsize
    total = sum(counts)
    buf = bytearray(total * unit)
    pos = 0
    for cnt, off in zip(counts, offsets):
        nbytes = cnt * unit
        buf[pos : pos + nbytes] = data[off : off + nbytes]
        pos += nbytes
    upd = np.frombuffer(bytes(buf), dtype=UPDATE_DTYPE)
    counts_arr = np.asarray(counts, dtype=np.int64)
    ticks_arr = np.asarray(ticks, dtype=np.int64)
    upd_ticks = np.repeat(ticks_arr[counts_arr > 0], counts_arr[counts_arr > 0])
    upd_frame = np.repeat(
        np.arange(len(counts), dtype=np.int64)[counts_arr > 0],
        counts_arr[counts_arr > 0],
    )

    known = np.zeros(256, dtype=bool)
    known[[p.entity_id for p in header.players]] = True
    ent = upd["entity"]
    bad = ~known[ent]
    if bad.any():
        i = int(np.argmax(bad))
        raise StreamFormatError(
            f"unknown entity_id {int(ent[i])}",
            offset=offsets[int(upd_frame[i])],
        )
    over = (upd["x"] >= GRID_SIZE) | (upd["y"] >= GRID_SIZE)
    if over.any():
        i = int(np.argmax(over))
        raise StreamFormatError(
            f"cell ({int(upd['x'][i])},{int(upd['y'][i])}) out of range",
            offset=offsets[int(upd_frame[i])],
        )
    if upd.size and not (np.isfinite(upd["vx"]).all() and np.isfinite(upd["vy"]).all()):
        raise StreamFormatError("non-finite sub-cell offset")
    # entity unique within frame: (frame, entity) pairs must not repeat
    key = upd_frame << 8 | ent.astype(np.int64)
    if np.unique(key).size != key.size:
        raise StreamFormatError("duplicate entity within a frame")
    return upd, upd_ticks


def stream_summary(data: bytes) -> tuple[StreamHeader, int]:
    """Validate structure and return (header, last standardized second)."""
    header, ticks, _, _ = _scan(data)
    return header, tick_to_second(ticks[-1], header.tick_interval_ms)


def decode(data: bytes) -> tuple[StreamHeader, tuple[Frame, ...]]:
    """Parse DTL2 bytes back into header and frames (inverse of encode)."""
    header, ticks, counts, offsets = _scan(data)
    _update_arrays(data, header, ticks, counts, offsets)  # content validation

    frames = []
    for tick, cnt, off in zip(ticks, counts, offsets):
        block = np.frombuffer(data, dtype=UPDATE_DTYPE, count=cnt, offset=off)
        updates = tuple(map(FrameUpdate._make, block.tolist()))
        frames.append(Frame(tick, updates))
    return header, tuple(frames)


def tracks_from_stream(data: bytes, duration_s: int):
    """Fused decode + resample for batch ingestion.

    Runs the same validation as :func:`decode` but skips building Frame
    objects; returns (header, tracks) with tracks as (10, duration_s+1, 2)
    uint8 cell coordinates in header slot order.
    """
    header, ticks, counts, offsets = _scan(data)
    upd, upd_ticks = _update_arrays(data, header, ticks, counts, offsets)
    secs = (upd_ticks * header.tick_interval_ms + 500) // 1000

    wanted = np.arange(duration_s + 1)
    out = np.empty((PLAYER_COUNT, duration_s + 1, 2), dtype=np.uint8)
    ent = upd["entity"]
    for i, slot in enumerate(header.players):
        mask = ent == slot.entity_id
        esecs = secs[mask]
        if esecs.size == 0 or esecs[0] != 0:
            raise StreamFormatError(
                f"player {slot.player_id} (entity {slot.entity_id}) has no tick-0 position"
            )
        idx = np.searchsorted(esecs, wanted, side="right") - 1
        out[i, :, 0] = upd["x"][mask][idx]
        out[i, :, 1] = upd["y"][mask][idx]
    return header, out


# ── synth ──────────────────────────────────────────────────────────────────

def _zone_interiors(zmap: ZoneMap, radius: int = 2) -> dict[ZoneLabel, np.ndarray]:
    """(n, 2) interior cells per zone (uncached copy)."""
    codes = zmap.codes
    padded = np.pad(codes, radius, constant_values=255)
    same = np.ones_like(codes, dtype=bool)
    size = codes.shape[0]
    for dx in range(2 * radius + 1):
        for dy in range(2 * radius + 1):
            same &= padded[dx : dx + size, dy : dy + size] == codes
    interiors = {}
    for label in ZoneLabel:
        mask = same & (codes == np.uint8(_LABEL_INDEX[label]))
        xs, ys = np.nonzero(mask)
        pool = np.column_stack((xs, ys)).astype(np.float64)
        if len(pool) > _MAX_POOL:
            stride = -(-len(pool) // _MAX_POOL)
            pool = pool[::stride]
        interiors[label] = pool
    return interiors


def _team_positions(
    rng: np.random.Generator,
    params: RegimeParams,
    interiors: dict[ZoneLabel, np.ndarray],
    base: ZoneLabel,
) -> tuple[np.ndarray, np.ndarray]:
    """(5, T+1, 2) integer cells and float32 sub-cell offsets for one team."""
    n = 5
    length = params.match_len_s + 1
    for label in (base,) + _TARGET_ZONES:
        if len(interiors[label]) == 0:
            raise ValueError(f"zone map has no interior cells for {label}")

    event_secs = [0] + _switch_times(rng, params.switch_rate, params.match_len_s)
    n_events = len(event_secs)

    # zone per event: spawn in the base, then always move somewhere new
    zones = [base]
    for _ in range(1, n_events):
        choices = [z for z in _TARGET_ZONES if z is not zones[-1]]
        zones.append(choices[rng.integers(len(choices))])

    refs = np.empty((n_events, 2))
    for i, zone in enumerate(zones):
        pool = interiors[zone]
        refs[i] = pool[rng.integers(len(pool))]

    # each player anchors to the interior cell nearest a Gaussian
    # displacement of the event's reference cell; batched per zone
    proposals = refs[:, None, :] + rng.normal(0.0, params.spread_sigma, (n_events, n, 2))
    anchors = np.empty((n_events, n, 2))
    for zone in set(zones):
        pool = interiors[zone]
        idx = [i for i, z in enumerate(zones) if z is zone]
        flat = proposals[idx].reshape(-1, 2)
        # argmin of squared distance; the |proposal|^2 term is constant per row
        scores = (pool * pool).sum(axis=1)[None, :] - 2.0 * (flat @ pool.T)
        nearest = scores.argmin(axis=1).reshape(len(idx), n)
        anchors[idx] = pool[nearest]

    spans = np.diff(np.asarray(event_secs + [length]))
    timeline = np.repeat(anchors, spans, axis=0).transpose(1, 0, 2)

    jitter_sigma = min(0.7, params.spread_sigma / 3.0)
    if jitter_sigma > 0:
        # redrawn every other second: halves the update traffic without
        # changing dispersion
        half = (length + 1) // 2
        jitter = rng.normal(0.0, jitter_sigma, size=(n, half, 2))
        jitter = np.repeat(jitter, 2, axis=1)[:, :length, :]
        continuous = timeline + jitter
    else:
        continuous = timeline.astype(np.float64)

    cells = np.clip(np.rint(continuous), 0, 127)
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
    """Produce one DTL2 stream plus its metadata (non-negative seeds)."""
    if params_radiant.match_len_s != params_dire.match_len_s:
        raise ValueError("both teams must use the same match length")
    duration = params_radiant.match_len_s

    root = np.random.SeedSequence(entropy=(abs(int(seed)), 0, 0))
    meta_ss, radiant_ss, dire_ss = root.spawn(3)
    meta_rng = np.random.default_rng(meta_ss)
    if match_id is None:
        match_id = int(meta_rng.integers(1, 1 << 48))
    winner = Team.RADIANT if meta_rng.integers(2) == 0 else Team.DIRE

    interiors = _zone_interiors(zone_map)
    rad_cells, rad_offs = _team_positions(
        np.random.default_rng(radiant_ss), params_radiant, interiors, ZoneLabel.BASE_RADIANT
    )
    dire_cells, dire_offs = _team_positions(
        np.random.default_rng(dire_ss), params_dire, interiors, ZoneLabel.BASE_DIRE
    )
    cells = np.concatenate((rad_cells, dire_cells), axis=0)
    offs = np.concatenate((rad_offs, dire_offs), axis=0)

    header = StreamHeader(
        match_id=match_id,
        players=tuple(
            PlayerSlot(i, Team.RADIANT if i < 5 else Team.DIRE, 100 + i)
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

    frame_secs = np.unique(secs_u)
    counts = np.bincount(secs_u, minlength=duration + 1)[frame_secs]
    ticks = tick_for_second(frame_secs.astype(np.int64))

    stream = _pack_frames(header, ticks, counts, updates)
    return stream, MatchMeta(match_id, tier, winner, duration)
