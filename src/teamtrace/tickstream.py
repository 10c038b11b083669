"""DTL2 binary tick-stream codec, time standardization and 1 Hz resampling.

Wire format (all integers little-endian, floats IEEE 754 binary32)
------------------------------------------------------------------
Header:
    4 bytes   magic = "DTL2"
    uint16    version (= 1)
    uint64    match_id
    uint16    tick_interval_ms (33 unless stated otherwise)
    uint8     player_count (= 10)
    10 x player slot:
        uint8     entity_id (unique)
        uint8     team (0 = Radiant, 1 = Dire)
        uint32    player_id

Frames, repeated until end of stream:
    uint32    tick (strictly increasing across frames)
    uint16    update_count
    update_count x update:
        uint8     entity_id (declared in the header, unique within the frame)
        uint8     cell_x (0..127)
        uint8     cell_y (0..127)
        float32   vx  (sub-cell offset, cell units)
        float32   vy

Updates are sparse: a frame carries only the entities whose position
changed. The first frame must be a keyframe at tick 0 listing all ten
entities, so every later position is reachable by carry-forward. The byte
parser holds the only statement of this rule and the others above, header
rules included: decode and the ingest path run it on the bytes they read,
and encode runs it on the bytes it writes. One tick spans
``tick_interval_ms`` of wall time; analysis runs on a 1 Hz grid, so ticks
are standardized to the nearest second (half-up) and, within one second,
the latest tick wins.

Sub-cell offsets are stored as binary32 and are rounded to that grid on
write; on the format's value domain decode(encode(x)) == x and re-encoding
a decoded stream reproduces the input bytes exactly.

Decoding and resampling are array passes over the whole stream: the walk
from one frame head to the next is the only per-frame loop.

The two CSV tables the analysis commands read live here too: the
per-match trajectory table and the match metadata table
(``MatchMeta``, ``read_metadata_csv``), so reading ``--meta`` loads no
generator code.
"""
from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from math import isfinite
from numbers import Integral
from typing import Iterable, Mapping, NamedTuple, TextIO

import numpy as np

from .core import GRID_SIZE, MAX_DURATION_S, PLAYER_COUNT, SkillTier, Team

MAGIC = b"DTL2"
FORMAT_VERSION = 1
DEFAULT_TICK_INTERVAL_MS = 33

_HEADER = struct.Struct("<4sHQHB")
_SLOT = struct.Struct("<BBI")
_FRAME_HEAD = struct.Struct("<IH")
# numpy view of one frame head; matches _FRAME_HEAD byte for byte
_HEAD_DTYPE = np.dtype([("tick", "<u4"), ("count", "<u2")])
# the binary32 rounding boundary: doubles at or above it round to infinity
_F32_LIMIT = 2.0**128 - 2.0**103

HEADER_SIZE = _HEADER.size + PLAYER_COUNT * _SLOT.size

# numpy view of one update (format table above)
UPDATE_DTYPE = np.dtype(
    [("entity", "u1"), ("x", "u1"), ("y", "u1"), ("vx", "<f4"), ("vy", "<f4")]
)

TRAJECTORY_COLUMNS = ("match_id", "team", "player_id", "t", "x", "y")
METADATA_COLUMNS = ("match_id", "tier", "winner", "duration_s")
# team names are read as bytes and parsed once per run of equal spellings;
# loadtxt cuts a longer field short, so one that fills the width is rejected
_TEAM_BYTES = 16
# cells stay int64 until range-checked so out-of-grid values cannot wrap
_TRAJECTORY_ROW = np.dtype(
    [("match_id", "<u8"), ("team", f"S{_TEAM_BYTES}"), ("player_id", "<i8"),
     ("t", "<i8"), ("x", "<i8"), ("y", "<i8")]
)


class StreamFormatError(ValueError):
    """Raised for any malformed or unencodable stream. ``offset`` is the
    byte position of the problem when it is known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class PlayerSlot(NamedTuple):
    entity_id: int
    team: Team
    player_id: int


@dataclass(frozen=True)
class MatchMeta:
    match_id: int
    tier: SkillTier
    winner: Team
    duration_s: int


@dataclass(frozen=True)
class StreamHeader:
    match_id: int
    players: tuple[PlayerSlot, ...]
    tick_interval_ms: int = DEFAULT_TICK_INTERVAL_MS


class FrameUpdate(NamedTuple):
    entity_id: int
    cell_x: int
    cell_y: int
    vx: float
    vy: float


@dataclass(frozen=True)
class Frame:
    tick: int
    updates: tuple[FrameUpdate, ...]


def tick_to_second(tick, tick_interval_ms: int = DEFAULT_TICK_INTERVAL_MS):
    """Standardize a tick to the nearest second, rounding halves up.
    Accepts scalars or integer arrays."""
    if np.any(np.asarray(tick) < 0):
        raise ValueError("tick must be non-negative")
    return (tick * tick_interval_ms + 500) // 1000


def tick_for_second(second, tick_interval_ms: int = DEFAULT_TICK_INTERVAL_MS):
    """Tick closest to a whole second; tick_to_second maps it back for any
    interval up to 999 ms. Accepts scalars or integer arrays."""
    return (1000 * second + tick_interval_ms // 2) // tick_interval_ms


def _pack_header(header: StreamHeader) -> bytes:
    """The header's bytes, held to the checks :func:`decode` reads them with."""
    if not all(isinstance(slot.team, Team) for slot in header.players):
        raise StreamFormatError("player slot team must be a Team")
    try:
        data = _HEADER.pack(MAGIC, FORMAT_VERSION, header.match_id, header.tick_interval_ms,
                            len(header.players)) + b"".join(
            _SLOT.pack(p.entity_id, p.team.value, p.player_id) for p in header.players)
    except struct.error as e:  # a value its field's bytes cannot hold
        raise StreamFormatError(f"unencodable header: {e}") from None
    _parse_header(data)
    return data


def _fits(value, bits: int) -> bool:
    """Whether ``value`` is an integer that an unsigned ``bits``-bit field holds."""
    return isinstance(value, Integral) and 0 <= value < 1 << bits


def encode(header: StreamHeader, frames: Iterable[Frame]) -> bytes:
    """Serialize a header and frame sequence to DTL2 bytes.

    Each value must first fit its field, as bytes always do: ticks in
    uint32, under 2**16 updates a frame, integer entities and cells in
    0..255, offsets in the binary32 range. The bytes written are then held
    to :func:`decode`'s own checks, so ``encode`` rejects exactly what
    ``decode`` would, with the same message and byte offset.
    """
    # only to raise header errors before frame errors, as in stream order;
    # the bytes are dropped and _pack_frames packs the header again
    _pack_header(header)
    frames = list(frames)
    for fits, problem in (
        (lambda f: _fits(f.tick, 32), "tick out of uint32 range"),
        (lambda f: _fits(len(f.updates), 16), "too many updates"),
        (lambda f: all(_fits(v, 8) for u in f.updates for v in u[:3]),
         "entity or cell out of range, want integers in 0..255"),
        (lambda f: not any(isfinite(v) and abs(v) >= _F32_LIMIT for u in f.updates for v in u[3:]),
         "sub-cell offset outside the binary32 range"),
    ):
        if bad := [i for i, frame in enumerate(frames) if not fits(frame)]:
            raise StreamFormatError(f"frame {bad[0]}: {problem}")

    ticks = np.array([f.tick for f in frames], dtype=np.int64)
    counts = np.array([len(f.updates) for f in frames], dtype=np.int64)
    updates = np.array([u for f in frames for u in f.updates], dtype=UPDATE_DTYPE)
    data = _pack_frames(header, ticks, counts, updates)
    _update_arrays(data, *_scan(data))
    return data


def _head_bytes(heads: np.ndarray) -> np.ndarray:
    """(frames, 6) byte positions of the frame heads starting at ``heads``."""
    return heads[:, None] + np.arange(_FRAME_HEAD.size)


def _frame_heads(counts: np.ndarray) -> np.ndarray:
    """Byte offset of each frame's head in a stream of frames holding ``counts`` updates."""
    return (HEADER_SIZE + _FRAME_HEAD.size * np.arange(counts.size)
            + UPDATE_DTYPE.itemsize * (np.cumsum(counts) - counts))


def _update_mask(size: int, heads: np.ndarray) -> np.ndarray:
    """True on every byte of a ``size``-byte stream but its header and frame heads."""
    mask = np.ones(size, dtype=bool)
    mask[:HEADER_SIZE] = False
    mask[_head_bytes(heads)] = False
    return mask


def _pack_frames(header: StreamHeader, ticks: np.ndarray, counts: np.ndarray,
                 updates: np.ndarray) -> bytes:
    """Array serializer behind :func:`encode` and the synthetic generator.

    ``updates`` is an UPDATE_DTYPE array holding every frame's updates
    back to back; ``counts[i]`` updates belong to the frame at ``ticks[i]``.
    Only the header is checked, so the arrays must already be valid.
    """
    heads = _frame_heads(counts)
    head = np.empty(counts.size, dtype=_HEAD_DTYPE)
    head["tick"] = ticks
    head["count"] = counts
    buf = np.empty(HEADER_SIZE + head.nbytes + updates.nbytes, dtype=np.uint8)
    buf[:HEADER_SIZE] = np.frombuffer(_pack_header(header), dtype=np.uint8)
    buf[_head_bytes(heads)] = head.view(np.uint8).reshape(-1, _FRAME_HEAD.size)
    buf[_update_mask(buf.size, heads)] = np.ascontiguousarray(updates).view(np.uint8)
    return buf.tobytes()


def _parse_header(data: bytes) -> StreamHeader:
    """Parse and check the header and player table that open ``data``."""
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
    off = _HEADER.size
    for _ in range(player_count):
        entity_id, team_byte, player_id = _SLOT.unpack_from(data, off)
        if team_byte not in (0, 1):
            raise StreamFormatError(f"invalid team byte {team_byte}", offset=off + 1)
        if any(slot.entity_id == entity_id for slot in slots):
            raise StreamFormatError(f"duplicate entity_id {entity_id}", offset=off)
        slots.append(PlayerSlot(entity_id, Team(team_byte), player_id))
        off += _SLOT.size
    return StreamHeader(match_id, tuple(slots), interval)


def _scan(data: bytes):
    """Parse the header and validate the frame structure.

    Returns (header, heads, ticks, counts) as int64 arrays, ``heads[i]``
    being the byte offset of frame i's 6-byte head.
    """
    header = _parse_header(data)

    # the only per-frame loop: step from head to head by each update count
    off, n = HEADER_SIZE, len(data)
    heads = []
    append, unpack = heads.append, _FRAME_HEAD.unpack_from
    head_size, unit = _FRAME_HEAD.size, UPDATE_DTYPE.itemsize
    while off + head_size <= n:
        append(off)
        off += head_size + unit * unpack(data, off)[1]
    heads = np.array(heads, dtype=np.int64)
    head = np.frombuffer(data, dtype=np.uint8)[_head_bytes(heads)].view(_HEAD_DTYPE)[:, 0]
    ticks = head["tick"].astype(np.int64)
    counts = head["count"].astype(np.int64)

    # the first error in stream order wins: every head comes before a cut in
    # or after the last frame (a cut inside the first head leaves no frames)
    if heads.size or off == n:
        _check_heads(heads, ticks, counts)
    if off > n:
        raise StreamFormatError("truncated mid-update", offset=int(heads[-1]) + _FRAME_HEAD.size)
    if off < n:
        raise StreamFormatError("truncated frame header", offset=off)
    return header, heads, ticks, counts


# The frame rules, stated once and run on bytes only: decode and
# tracks_from_stream on the bytes they read, encode on the bytes it writes.

def _check_heads(heads: np.ndarray, ticks: np.ndarray, counts: np.ndarray) -> None:
    """A stream has frames, the first is a tick-0 keyframe and ticks strictly
    increase; the first break in stream order is raised. Entities are
    declared and unique per frame (:func:`_update_arrays`), so a keyframe of
    ten updates covers all ten entities."""
    if not heads.size:
        raise StreamFormatError("stream contains no frames", offset=HEADER_SIZE)
    if ticks[0] != 0 or counts[0] != PLAYER_COUNT:
        raise StreamFormatError(
            f"first frame must be a tick-0 keyframe covering all {PLAYER_COUNT} entities",
            offset=int(heads[0]),
        )
    back = np.flatnonzero(ticks[1:] <= ticks[:-1])
    if back.size:
        i = int(back[0]) + 1
        raise StreamFormatError(
            f"tick {ticks[i]} not greater than previous {ticks[i - 1]}", offset=int(heads[i])
        )


def _update_arrays(data, header, heads, ticks, counts):
    """Every update of a scanned stream as one UPDATE_DTYPE array, with its
    tick and header slot. Every entity is declared in the header and unique
    within its frame, every cell is on the grid and every offset finite; an
    error names the first update byte of the first frame that breaks the
    rule."""
    upd = np.frombuffer(data, dtype=np.uint8)[_update_mask(len(data), heads)].view(UPDATE_DTYPE)
    frame = np.repeat(np.arange(heads.size), counts)

    def at(f) -> int:
        return int(heads[f]) + _FRAME_HEAD.size

    slot_of = np.full(256, -1, dtype=np.int64)
    slot_of[[p.entity_id for p in header.players]] = np.arange(PLAYER_COUNT)
    ent = upd["entity"]
    slot = slot_of[ent]
    bad = slot < 0
    if bad.any():
        i = int(np.argmax(bad))
        raise StreamFormatError(f"unknown entity_id {int(ent[i])}", offset=at(frame[i]))
    over = (upd["x"] >= GRID_SIZE) | (upd["y"] >= GRID_SIZE)
    if over.any():
        i = int(np.argmax(over))
        raise StreamFormatError(
            f"cell ({int(upd['x'][i])},{int(upd['y'][i])}) out of range", offset=at(frame[i])
        )
    finite = np.isfinite(upd["vx"]) & np.isfinite(upd["vy"])
    if not finite.all():
        raise StreamFormatError("non-finite sub-cell offset", offset=at(frame[np.argmin(finite)]))
    # entity unique within frame: no (frame, slot) pair may repeat
    repeated = np.bincount(frame * PLAYER_COUNT + slot) > 1
    if repeated.any():
        raise StreamFormatError(
            "duplicate entity within a frame", offset=at(np.argmax(repeated) // PLAYER_COUNT)
        )
    return upd, ticks[frame], slot


def stream_summary(data: bytes) -> tuple[StreamHeader, int]:
    """Check the structure and return (header, last standardized second)."""
    header, _, ticks, _ = _scan(data)
    return header, tick_to_second(int(ticks[-1]), header.tick_interval_ms)


def decode(data: bytes) -> tuple[StreamHeader, tuple[Frame, ...]]:
    """Parse DTL2 bytes back into header and frames (inverse of encode).

    Rejects bad magic, unsupported versions, a player count other than ten,
    a zero tick interval, bad team bytes, duplicate header entities,
    truncation, a first frame that is not the tick-0 keyframe of all ten
    entities, non-increasing ticks, unknown entities, duplicate entities
    within a frame, out-of-range cells, non-finite offsets and trailing
    garbage, naming the offending byte offset where it is meaningful.
    :func:`encode` runs these same checks on the bytes it writes.
    """
    header, heads, ticks, counts = _scan(data)
    upd, _, _ = _update_arrays(data, header, heads, ticks, counts)
    rows = list(map(FrameUpdate._make, upd.tolist()))
    ends = np.cumsum(counts).tolist()
    frames = (
        Frame(tick, tuple(rows[end - cnt : end]))
        for tick, cnt, end in zip(ticks.tolist(), counts.tolist(), ends)
    )
    return header, tuple(frames)


def tracks_from_stream(data: bytes, duration_s: int | Mapping[int, int]):
    """Fused decode + resample for batch ingestion, in one scan of the bytes.

    Runs the same checks as :func:`decode` but builds no Frame objects;
    returns (header, tracks) with tracks as (10, T+1, 2) uint8 cell
    coordinates in header slot order. T is ``duration_s``, or, given a
    mapping from match id to duration, the match's entry there, else its
    last standardized second. A T above ``MAX_DURATION_S`` is rejected
    before the tracks are allocated. Updates after second T are dropped.
    """
    return _resample(data, duration_s)[:2]


def _resample(data: bytes, duration_s: int | Mapping[int, int]):
    """:func:`tracks_from_stream`'s (header, tracks), plus the seconds of the
    updates it dropped past T, in stream order."""
    header, heads, ticks, counts = _scan(data)
    if isinstance(duration_s, Mapping):
        last = tick_to_second(int(ticks[-1]), header.tick_interval_ms)
        duration_s = duration_s.get(header.match_id, last)
    if duration_s > MAX_DURATION_S:
        raise StreamFormatError(f"duration {duration_s} s exceeds the {MAX_DURATION_S} s limit")
    upd, upd_ticks, slot = _update_arrays(data, header, heads, ticks, counts)
    secs = tick_to_second(upd_ticks, header.tick_interval_ms)
    # the keyframe puts every slot at second 0; update indices grow with the
    # tick, so the latest update per (slot, second) is a maximum and carrying
    # it forward is a running maximum; int32 keeps the index grid at twice
    # the size of the uint8 output
    latest = np.full((PLAYER_COUNT, duration_s + 1), -1, dtype=np.int32)
    due = secs <= duration_s
    key = slot * (duration_s + 1) + secs
    np.maximum.at(latest.reshape(-1), key[due], np.flatnonzero(due).astype(np.int32))
    np.maximum.accumulate(latest, axis=1, out=latest)
    return header, np.stack((upd["x"], upd["y"]), axis=-1).take(latest, axis=0), secs[~due]


def write_trajectory_csv(header: StreamHeader, cells: np.ndarray, out: TextIO) -> None:
    """Write the per-match trajectory table match_id,team,player_id,t,x,y:
    one block of rows t = 0..T per header slot, from (10, T+1, 2) cells."""
    out.write(",".join(TRAJECTORY_COLUMNS) + "\n")
    for slot, track in zip(header.players, cells):
        prefix = f"{header.match_id},{slot.team},{slot.player_id},"
        out.write("".join(f"{prefix}{t},{x},{y}\n" for t, (x, y) in enumerate(track.tolist())))


def _team_value(name: bytes) -> int:
    if len(name) == _TEAM_BYTES:
        raise ValueError(f"team name {name.decode('latin-1')!r}... longer than "
                         f"{_TEAM_BYTES - 1} bytes")
    return Team.parse(name.decode("latin-1")).value


def read_trajectory_csv(inp: TextIO) -> tuple[int, tuple[tuple[Team, int], ...], np.ndarray]:
    """Parse a trajectory CSV (inverse of the writer).

    Returns (match_id, players, cells): ``players`` is the (team,
    player_id) slot table in order of first appearance and ``cells`` the
    (n, T+1, 2) uint8 array in that order. The file must hold one match
    id, and every player exactly the rows t = 0..T, in file order, with
    cells on the grid. A team name may take any case and surrounding
    whitespace, in at most 15 bytes; it is parsed once per run of rows
    of one player and spelling.
    """
    head = inp.readline().rstrip("\r\n").split(",")
    if tuple(head) != TRAJECTORY_COLUMNS:
        raise ValueError(f"bad trajectory header: {head}")
    with warnings.catch_warnings():  # a header-only file is reported below
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(inp, dtype=_TRAJECTORY_ROW, delimiter=",", comments=None, ndmin=1)
    if rows.size == 0:
        raise ValueError("empty trajectory file")
    names, pids = rows["team"], rows["player_id"]
    # a run head is a row whose team spelling or player differs from the row before
    heads = np.flatnonzero(np.r_[True, (names[1:] != names[:-1]) | (pids[1:] != pids[:-1])])
    teams = [_team_value(name) for name in names[heads].tolist()]
    mids = rows["match_id"]
    mixed = np.flatnonzero(mids != mids[0])
    if mixed.size:
        raise ValueError(f"mixed match ids {mids[0]} and {mids[mixed[0]]}")
    xy = np.stack((rows["x"], rows["y"]), axis=-1)
    off_grid = ((xy < 0) | (xy >= GRID_SIZE)).any(axis=1)
    if off_grid.any():
        x, y = xy[np.argmax(off_grid)]
        raise ValueError(f"cell ({x},{y}) outside [0,{GRID_SIZE - 1}]")

    # slots in order of first appearance; heads of one (team, player_id) join one slot
    slot_of: dict[tuple[int, int], int] = {}
    player = np.repeat([slot_of.setdefault(key, len(slot_of))
                        for key in zip(teams, pids[heads].tolist())],
                       np.diff(np.r_[heads, rows.size]))
    by_player = np.argsort(player, kind="stable")
    counts = np.bincount(player)
    # each player's rows, in file order, must carry t = 0, 1, 2, ...
    want_t = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    gap = rows["t"][by_player] != want_t
    if gap.any():
        pid = pids[by_player[np.argmax(gap)]]
        raise ValueError(f"non-contiguous timestamps for player {pid}")
    if (counts != counts[0]).any():
        raise ValueError(
            f"players have different track lengths ({counts.min()} to {counts.max()} rows)"
        )
    cells = xy[by_player].astype(np.uint8).reshape(counts.size, counts[0], 2)
    players = tuple((Team(team), pid) for team, pid in slot_of)
    return int(mids[0]), players, cells


def write_metadata_csv(out: TextIO, metas: Iterable[MatchMeta]) -> None:
    # every field is an integer or an enum name, so none needs CSV quoting
    out.write(",".join(METADATA_COLUMNS) + "\n")
    out.write("".join([f"{m.match_id},{m.tier!s},{m.winner!s},{m.duration_s}\n" for m in metas]))


def read_metadata_csv(inp: TextIO) -> dict[int, MatchMeta]:
    import csv  # only the commands that take --meta pay for it
    reader = csv.reader(inp)
    head = next(reader, None)
    if head is None or tuple(head) != METADATA_COLUMNS:
        raise ValueError(f"bad metadata header: {head}")
    out: dict[int, MatchMeta] = {}
    line_of: dict[int, int] = {}
    for row in reader:
        line = reader.line_num
        if len(row) != len(METADATA_COLUMNS):
            raise ValueError(f"line {line}: expected {len(METADATA_COLUMNS)} fields, got {len(row)}")
        mid, tier, winner, dur = row
        try:
            meta = MatchMeta(int(mid), SkillTier.parse(tier), Team.parse(winner), int(dur))
        except ValueError as e:
            raise ValueError(f"line {line}: {e}") from None
        if meta.duration_s < 0:
            raise ValueError(f"line {line}: negative duration_s {meta.duration_s}")
        first = line_of.setdefault(meta.match_id, line)
        if first != line:
            raise ValueError(f"duplicate match id {meta.match_id} on lines {first} and {line}")
        out[meta.match_id] = meta
    return out
