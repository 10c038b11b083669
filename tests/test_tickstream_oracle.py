"""The DTL2 codec and the synthetic generator must reproduce the per-frame
reference in ``tickstream_oracle``: equal headers and arrays for valid
streams, an equal (class, message, offset) for rejected ones, and equal
``generate_match`` bytes. Two content errors the oracle leaves without an
offset are placed here from the oracle's own frame walk."""
import struct

import numpy as np
import pytest

import tickstream_oracle as oracle
from genstreams import mutate_stream, random_stream
from teamtrace import tickstream
from teamtrace.core import Team
from teamtrace.synth import RegimeParams, generate_match
from teamtrace.tickstream import HEADER_SIZE, UPDATE_DTYPE, StreamFormatError
from teamtrace.zonemap import _LABEL_INDEX, ZoneLabel, ZoneMap


def outcome(fn, *args):
    """('ok', result) or ('error', class, message, offset)."""
    try:
        return ("ok", fn(*args))
    except StreamFormatError as e:
        return ("error", type(e), str(e), e.offset)


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
        return
    header, body = got[1]
    want_header, want_body = want[1]
    assert header == want_header
    if isinstance(body, np.ndarray):
        assert body.dtype == want_body.dtype
        assert body.tobytes() == want_body.tobytes()
    else:
        assert body == want_body


# The oracle raises these two content errors without a byte offset; the
# library names the first update byte of the first frame breaking the rule.
UNPLACED = {
    "non-finite sub-cell offset":
        lambda block: not (np.isfinite(block["vx"]) & np.isfinite(block["vy"])).all(),
    "duplicate entity within a frame":
        lambda block: np.unique(block["entity"]).size < block.size,
}


def oracle_outcome(fn, data: bytes, *args):
    """``outcome`` of an oracle function, with the offset of an unplaced
    error found by walking the oracle's frames in stream order."""
    got = outcome(fn, data, *args)
    if got[0] == "error" and got[2] in UNPLACED:
        _, _, counts, offsets = oracle._scan(data)
        off = next(
            off for cnt, off in zip(counts, offsets)
            if UNPLACED[got[2]](np.frombuffer(data, dtype=UPDATE_DTYPE, count=cnt, offset=off))
        )
        got = ("error", got[1], f"{got[2]} (at byte {off})", off)
    return got


def check_stream(data: bytes, durations=(0, 1)):
    assert_same(outcome(tickstream.stream_summary, data), oracle_outcome(oracle.stream_summary, data))
    assert_same(outcome(tickstream.decode, data), oracle_outcome(oracle.decode, data))
    last = outcome(oracle.stream_summary, data)
    # a mutated tick can put the last second far out; keep tracks small
    extra = [last[1][1], last[1][1] + 3] if last[0] == "ok" and last[1][1] < 5000 else []
    for duration in (*durations, *extra):
        assert_same(
            outcome(tickstream.tracks_from_stream, data, duration),
            oracle_outcome(oracle.tracks_from_stream, data, duration),
        )


def targeted_mutations(rng, data, spans):
    """Mutations aimed at the order of the structural and content checks."""
    heads = [start for start, _ in spans]
    out = []
    buf = bytearray(data)
    if len(heads) >= 2:
        # a non-increasing tick followed by a truncated tail: the tick wins
        k = int(rng.integers(1, len(heads)))
        bad = bytearray(buf)
        prev = struct.unpack_from("<I", bad, heads[k - 1])[0]
        struct.pack_into("<I", bad, heads[k], prev - int(rng.integers(0, min(prev, 3) + 1)))
        start, end = spans[int(rng.integers(k, len(spans)))]
        out.append(bytes(bad[: int(rng.integers(start + 1, end + 1))]))
        out.append(bytes(bad))
    # a cut inside a frame head
    start = heads[int(rng.integers(len(heads)))]
    out.append(bytes(buf[: start + int(rng.integers(1, 6))]))
    # trailing bytes: a partial head, or a head with a random tick and count
    out.append(data + rng.integers(0, 256, size=int(rng.integers(1, 6))).astype(np.uint8).tobytes())
    out.append(data + struct.pack("<IH", int(rng.integers(0, 1 << 32)), int(rng.integers(0, 4)))
               + rng.integers(0, 256, size=int(rng.integers(0, 40))).astype(np.uint8).tobytes())
    # a header-only stream
    out.append(data[:HEADER_SIZE])
    # the keyframe moved off second 0 (tick 16 at 33 ms is 528 ms, second 1)
    if len(heads) == 1 or struct.unpack_from("<I", buf, heads[1])[0] > 16:
        late = bytearray(buf)
        struct.pack_into("<I", late, heads[0], 16)
        out.append(bytes(late))
    # content errors on a random update of a random frame
    updates = [(s + 6 + 11 * j) for s, e in spans for j in range((e - s - 6) // 11)]
    for kind in range(5):
        u = updates[int(rng.integers(len(updates)))]
        bad = bytearray(buf)
        if kind == 0:
            bad[u] = int(rng.integers(10, 256))  # unknown entity
        elif kind == 1:
            bad[u + 1 + int(rng.integers(2))] = int(rng.integers(128, 256))  # off grid
        elif kind == 2:
            struct.pack_into("<f", bad, u + 3 + 4 * int(rng.integers(2)),
                             [np.nan, np.inf, -np.inf][int(rng.integers(3))])
        elif kind == 3:  # duplicate: copy a neighbour's entity within the frame
            frame = next(s for s, e in spans if s < u < e)
            first = frame + 6
            if u != first:
                bad[u] = bad[first]
        else:  # two content errors in different frames: the earlier wins
            v = updates[int(rng.integers(len(updates)))]
            bad[u] = 200
            bad[v + 1] = 250
        out.append(bytes(bad))
    return out


def test_valid_streams_match_oracle():
    rng = np.random.default_rng(11)
    for _ in range(150):
        _, _, data, _ = random_stream(rng)
        check_stream(data)


def test_mutated_streams_match_oracle():
    rng = np.random.default_rng(12)
    rejected = 0
    for _ in range(120):
        _, _, data, spans = random_stream(rng)
        blobs = [mutate_stream(rng, data, spans)[1]] + targeted_mutations(rng, data, spans)
        for _ in range(3):  # random byte flips and cuts
            buf = bytearray(data)
            for _ in range(int(rng.integers(1, 6))):
                buf[int(rng.integers(len(buf)))] = int(rng.integers(256))
            blobs.append(bytes(buf[: int(rng.integers(1, len(buf) + 1))]))
        for blob in blobs:
            check_stream(blob)
            rejected += outcome(oracle.stream_summary, blob)[0] == "error"
    assert rejected > 300


def test_short_and_empty_inputs_match_oracle():
    _, _, data, _ = random_stream(np.random.default_rng(13))
    for cut in range(0, HEADER_SIZE + 8):
        check_stream(data[:cut])


def test_pack_frames_matches_oracle():
    rng = np.random.default_rng(14)
    header = oracle.StreamHeader(9, random_stream(rng)[0].players, 17)
    for n_frames in (1, 2, 7, 40):
        counts = rng.integers(0, 11, size=n_frames)
        counts[0] = 10
        ticks = np.cumsum(rng.integers(1, 1000, size=n_frames)) - 1
        updates = np.zeros(int(counts.sum()), dtype=UPDATE_DTYPE)
        raw = updates.view(np.uint8).reshape(-1, UPDATE_DTYPE.itemsize)
        raw[:] = rng.integers(0, 256, size=raw.shape)
        assert (tickstream._pack_frames(header, ticks, counts, updates)
                == oracle._pack_frames(header, ticks, counts, updates))


def test_encode_matches_oracle_serializer():
    rng = np.random.default_rng(15)
    for _ in range(40):
        header, frames, data, _ = random_stream(rng)
        ticks = np.array([f.tick for f in frames], dtype=np.int64)
        counts = np.array([len(f.updates) for f in frames], dtype=np.int64)
        updates = np.array([u for f in frames for u in f.updates], dtype=UPDATE_DTYPE)
        assert tickstream.encode(header, frames) == oracle._pack_frames(header, ticks, counts, updates)


# ── synth ──────────────────────────────────────────────────────────────────

def block_map(zmap):
    """Small, unequal interior pools: a single top-lane cell, two
    middle-lane cells, and a jungle pool large enough to be strided."""
    codes = np.full((128, 128), _LABEL_INDEX[ZoneLabel.JUNGLE], dtype=np.uint8)
    for label, x, y, w, h in (
        (ZoneLabel.BASE_RADIANT, 0, 0, 9, 9),
        (ZoneLabel.BASE_DIRE, 119, 119, 9, 9),
        (ZoneLabel.TOP_LANE, 20, 100, 5, 5),
        (ZoneLabel.MIDDLE_LANE, 60, 60, 6, 5),
        (ZoneLabel.BOTTOM_LANE, 100, 20, 12, 7),
    ):
        codes[x : x + w, y : y + h] = _LABEL_INDEX[label]
    return ZoneMap(codes, dict(zmap.legend))


def same_match(zmap, sigma, rate, duration, seed, **kw):
    p = RegimeParams(sigma, rate, duration)
    q = RegimeParams(sigma * 0.5, min(rate * 1.5, 11.0), duration, seed=3)
    for a, b in ((p, p), (p, q)):
        got = generate_match(a, b, zmap, seed=seed, **kw)
        want = oracle.generate_match(a, b, zmap, seed=seed, **kw)
        assert got[0] == want[0]
        assert got[1] == want[1]


@pytest.mark.parametrize("duration", [1, 5, 300, 12, 900])  # 12 s: mostly one switch; 900 s: over 64 events
def test_generate_match_durations(zmap, duration):
    for seed in range(4):
        same_match(zmap, 8.0, 6.0, duration, seed)


@pytest.mark.parametrize("interval", [1, 33, 999])
def test_generate_match_tick_intervals(zmap, interval):
    for seed in range(3):
        same_match(zmap, 10.0, 4.0, 120, seed, tick_interval_ms=interval)


def test_generate_match_zero_sigma_and_single_event(zmap):
    for seed in range(3):
        same_match(zmap, 0.0, 2.0, 200, seed)
        same_match(zmap, 6.0, 0.1, 4, seed)  # no switch fits in 4 s: one event
        same_match(zmap, 0.0, 0.1, 3, seed, winner=Team.DIRE, match_id=5)


def test_generate_match_unequal_pools(zmap):
    small = block_map(zmap)
    for seed in range(4):
        same_match(small, 9.0, 11.0, 300, seed)
        same_match(small, 40.0, 8.0, 120, seed + 10)
