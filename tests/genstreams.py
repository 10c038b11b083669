"""Shared builders for randomized valid DTL2 streams and guaranteed-invalid
mutations of them, plus a Frame-object resampler used as the reference for
the fused ``tracks_from_stream`` path."""
from __future__ import annotations

import io
import struct

import numpy as np

from teamtrace.core import Team
from teamtrace.tickstream import (
    Frame,
    FrameUpdate,
    HEADER_SIZE,
    PlayerSlot,
    StreamFormatError,
    StreamHeader,
    encode,
    read_trajectory_csv,
    tick_to_second,
)


def make_header(match_id: int = 7, interval: int = 33) -> StreamHeader:
    slots = tuple(
        PlayerSlot(i, Team.RADIANT if i < 5 else Team.DIRE, 100 + i) for i in range(10)
    )
    return StreamHeader(match_id, slots, interval)


def f32(rng: np.random.Generator) -> float:
    return float(np.float32(rng.uniform(-0.5, 0.5)))


def random_stream(rng: np.random.Generator):
    """A random valid (header, frames, bytes, frame_spans) quadruple.

    frame_spans[i] = (start, end) byte offsets of frame i within bytes.
    """
    header = make_header(match_id=int(rng.integers(1, 1 << 40)))
    frames = []
    keyframe = Frame(
        0,
        tuple(
            FrameUpdate(i, int(rng.integers(128)), int(rng.integers(128)), f32(rng), f32(rng))
            for i in range(10)
        ),
    )
    frames.append(keyframe)
    tick = 0
    for _ in range(int(rng.integers(0, 8))):
        tick += int(rng.integers(1, 200))
        entities = rng.permutation(10)[: rng.integers(0, 11)]
        updates = tuple(
            FrameUpdate(int(e), int(rng.integers(128)), int(rng.integers(128)), f32(rng), f32(rng))
            for e in sorted(entities.tolist())
        )
        frames.append(Frame(tick, updates))
    data = encode(header, frames)

    spans = []
    pos = HEADER_SIZE
    for fr in frames:
        end = pos + 6 + 11 * len(fr.updates)
        spans.append((pos, end))
        pos = end
    return header, frames, data, spans


def pack_by_hand(header: StreamHeader, frames) -> bytes:
    """DTL2 bytes assembled with ``struct`` from the format table, whatever
    the frames hold: no rule is checked."""
    raw = [struct.pack("<4sHQHB", b"DTL2", 1, header.match_id, header.tick_interval_ms,
                       len(header.players))]
    raw += [struct.pack("<BBI", p.entity_id, p.team.value, p.player_id) for p in header.players]
    for frame in frames:
        raw.append(struct.pack("<IH", frame.tick, len(frame.updates)))
        raw += [struct.pack("<BBBff", *u) for u in frame.updates]
    return b"".join(raw)


def mutate_stream(rng: np.random.Generator, data: bytes, spans) -> tuple[str, bytes]:
    """Corrupt a valid stream so that decode must reject it."""
    kind = int(rng.integers(10))
    buf = bytearray(data)
    if kind == 0:  # bad magic
        buf[0] = ord("X")
        return "bad magic", bytes(buf)
    if kind == 1:  # unsupported version
        struct.pack_into("<H", buf, 4, 2)
        return "bad version", bytes(buf)
    if kind == 2:  # wrong player count
        buf[16] = 9
        return "bad player count", bytes(buf)
    if kind == 3:  # duplicate entity in header
        buf[17 + 6] = buf[17]
        return "duplicate header entity", bytes(buf)
    if kind == 4:  # truncation inside the header table
        return "truncated header", bytes(buf[: rng.integers(1, HEADER_SIZE)])
    if kind == 5:  # truncation inside a frame
        start, end = spans[rng.integers(len(spans))]
        return "truncated frame", bytes(buf[: rng.integers(start + 1, end)])
    if kind == 6:  # unknown entity in keyframe update
        buf[spans[0][0] + 6] = 77
        return "unknown entity", bytes(buf)
    if kind == 7:  # out-of-range cell
        buf[spans[0][0] + 6 + 1] = 200
        return "cell out of range", bytes(buf)
    if kind == 8:  # duplicate entity within the keyframe
        first = spans[0][0] + 6
        buf[first + 11] = buf[first]
        return "duplicate entity in frame", bytes(buf)
    # non-increasing tick via trailing zero frame header
    return "trailing non-increasing frame", bytes(buf + b"\x00" * 6)


def resample_to_tracks(header: StreamHeader, frames, duration_s: int) -> np.ndarray:
    """Reference 1 Hz resampler over decoded Frame objects: the (10,
    duration_s+1, 2) uint8 cells, in header slot order.

    A player's position at second s is their most recent update whose
    standardized second is <= s; ties within one second go to the later
    tick. Every player needs a tick-0 position (the keyframe).
    """
    per = {p.entity_id: ([], []) for p in header.players}
    for frame in frames:
        sec = tick_to_second(frame.tick, header.tick_interval_ms)
        for u in frame.updates:
            if u.entity_id not in per:
                raise StreamFormatError(f"entity {u.entity_id} not declared in header")
            secs, cells = per[u.entity_id]
            secs.append(sec)
            cells.append((u.cell_x, u.cell_y))

    out = np.empty((len(header.players), duration_s + 1, 2), dtype=np.uint8)
    for i, slot in enumerate(header.players):
        secs, cells = per[slot.entity_id]
        if not secs or secs[0] != 0:
            raise StreamFormatError(
                f"player {slot.player_id} (entity {slot.entity_id}) has no tick-0 position"
            )
        k = 0
        for s in range(duration_s + 1):
            while k + 1 < len(secs) and secs[k + 1] <= s:
                k += 1
            out[i, s] = cells[k]
    return out


def read_rows(*rows: str):
    """read_trajectory_csv over a header line plus the given data rows."""
    text = "match_id,team,player_id,t,x,y\n" + "".join(r + "\n" for r in rows)
    return read_trajectory_csv(io.StringIO(text))
