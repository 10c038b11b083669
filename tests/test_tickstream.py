import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genstreams import make_header, pack_by_hand, random_stream, read_rows, resample_to_tracks
from teamtrace.core import MAX_DURATION_S, Team
from teamtrace.tickstream import (
    Frame,
    FrameUpdate,
    HEADER_SIZE,
    StreamFormatError,
    UPDATE_DTYPE,
    _pack_frames,
    decode,
    encode,
    read_trajectory_csv,
    stream_summary,
    tick_for_second,
    tick_to_second,
    tracks_from_stream,
    write_trajectory_csv,
)


def updates(entities, cell=(1, 1)):
    return tuple(FrameUpdate(e, *cell, 0.0, 0.0) for e in entities)


def keyframe(cell=(1, 2)):
    return Frame(0, updates(range(10), cell))


class TestTickToSecond:
    def test_zero(self):
        assert tick_to_second(0) == 0

    def test_thirty_ticks_round_up(self):
        # 30 * 33 = 990 ms -> 1 s
        assert tick_to_second(30, 33) == 1

    def test_forty_five_ticks(self):
        # 45 * 33 = 1485 ms -> 1 s
        assert tick_to_second(45, 33) == 1

    def test_half_rounds_up(self):
        # 5 * 100 = 500 ms, exactly half
        assert tick_to_second(5, 100) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tick_to_second(-1)

    @pytest.mark.parametrize("interval", [1, 33, 100, 999])
    def test_array_matches_scalar(self, interval):
        ticks = np.arange(0, 5000, 3, dtype=np.int64)
        got = tick_to_second(ticks, interval)
        assert got.tolist() == [tick_to_second(t, interval) for t in ticks.tolist()]
        with pytest.raises(ValueError, match="non-negative"):
            tick_to_second(np.array([0, 5, -1, 7]), interval)

    @pytest.mark.parametrize("interval", [1, 33, 64, 100, 999])
    def test_tick_for_second_inverts(self, interval):
        for s in range(0, 4000, 7):
            assert tick_to_second(tick_for_second(s, interval), interval) == s


class TestEncode:
    def test_header_plus_keyframe_size(self):
        data = encode(make_header(), [keyframe()])
        assert len(data) == HEADER_SIZE + 6 + 10 * 11

    def test_cell_out_of_range_rejected(self):
        frame = Frame(0, tuple(FrameUpdate(i, 200 if i == 0 else 1, 1, 0.0, 0.0) for i in range(10)))
        with pytest.raises(StreamFormatError, match="out of range"):
            encode(make_header(), [frame])

    def test_missing_keyframe_rejected(self):
        partial = Frame(0, tuple(FrameUpdate(i, 1, 1, 0.0, 0.0) for i in range(9)))
        with pytest.raises(StreamFormatError, match="keyframe"):
            encode(make_header(), [partial])
        late = Frame(3, tuple(FrameUpdate(i, 1, 1, 0.0, 0.0) for i in range(10)))
        with pytest.raises(StreamFormatError, match="keyframe"):
            encode(make_header(), [late])

    def test_empty_frame_list_rejected(self):
        with pytest.raises(StreamFormatError):
            encode(make_header(), [])

    def test_duplicate_entity_in_frame_rejected(self):
        frames = [keyframe(), Frame(50, (FrameUpdate(2, 1, 1, 0.0, 0.0), FrameUpdate(2, 3, 3, 0.0, 0.0)))]
        with pytest.raises(StreamFormatError, match="duplicate"):
            encode(make_header(), frames)

    def test_non_increasing_ticks_rejected(self):
        frames = [keyframe(), Frame(10, ()), Frame(10, ())]
        with pytest.raises(StreamFormatError, match="tick"):
            encode(make_header(), frames)

    @pytest.mark.parametrize("vx", [1e39, -1e39, 2.0**128 - 2.0**103])
    def test_offset_beyond_binary32_rejected(self, vx):
        # finite doubles that round to infinity as binary32 are a format
        # error, not an OverflowError from the packer
        frame = Frame(0, tuple(FrameUpdate(i, 1, 1, vx if i == 4 else 0.0, 0.0) for i in range(10)))
        with pytest.raises(StreamFormatError, match="frame 0: sub-cell offset outside the binary32 range"):
            encode(make_header(), [frame])

    def test_largest_binary32_offset_round_trips(self):
        big = float(np.finfo(np.float32).max)
        frame = Frame(0, tuple(FrameUpdate(i, 1, 1, -big if i == 4 else 0.0, big) for i in range(10)))
        data = encode(make_header(), [frame])
        assert decode(data)[1] == (frame,)

    def test_non_integer_cell_rejected(self):
        frame = Frame(0, tuple(FrameUpdate(i, 1.5 if i == 2 else 1, 1, 0.0, 0.0) for i in range(10)))
        with pytest.raises(StreamFormatError, match="out of range"):
            encode(make_header(), [frame])


class TestDecode:
    def test_bad_magic(self):
        data = bytearray(encode(make_header(), [keyframe()]))
        data[0:4] = b"XTL2"
        with pytest.raises(StreamFormatError, match="magic"):
            decode(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(encode(make_header(), [keyframe()]))
        struct.pack_into("<H", data, 4, 9)
        with pytest.raises(StreamFormatError, match="version"):
            decode(bytes(data))

    def test_truncation_names_byte_offset(self):
        data = encode(make_header(), [keyframe()])
        cut = len(data) - 5  # mid-update
        with pytest.raises(StreamFormatError, match="at byte") as exc:
            decode(data[:cut])
        assert exc.value.offset is not None

    @pytest.mark.parametrize("update, message", [
        (FrameUpdate(77, 1, 1, 0.0, 0.0), "unknown entity_id 77"),
        (FrameUpdate(3, 200, 1, 0.0, 0.0), r"cell \(200,1\) out of range"),
        (FrameUpdate(3, 1, 1, float("nan"), 0.0), "non-finite sub-cell offset"),
        (FrameUpdate(3, 1, 1, 0.0, float("-inf")), "non-finite sub-cell offset"),
        (FrameUpdate(3, 1, 1, 0.0, 0.0), "duplicate entity within a frame"),
    ], ids=["unknown-entity", "off-grid", "nan-vx", "inf-vy", "duplicate-entity"])
    def test_content_error_names_its_frame(self, update, message):
        # the broken update sits in the frame at tick 40, next to entity 3;
        # the offset is that frame's first update byte
        frames = [keyframe(), Frame(40, (FrameUpdate(3, 5, 5, 0.0, 0.0), update))]
        frame_updates = HEADER_SIZE + 6 + 10 * UPDATE_DTYPE.itemsize + 6
        data = pack_by_hand(make_header(), frames)
        for fn, args in ((decode, ()), (tracks_from_stream, (2,))):
            with pytest.raises(StreamFormatError, match=message) as exc:
                fn(data, *args)
            assert exc.value.offset == frame_updates
            assert str(exc.value).endswith(f"(at byte {frame_updates})")

    def test_trailing_garbage_rejected(self):
        data = encode(make_header(), [keyframe()])
        with pytest.raises(StreamFormatError):
            decode(data + b"\x01\x02\x03")

    def test_fuzzed_input_never_crashes(self):
        # random blobs and bit-flipped valid streams must either decode or
        # raise the format error, never anything else
        rng = np.random.default_rng(1)
        for i in range(2000):
            if i % 2 == 0:
                blob = rng.integers(0, 256, size=rng.integers(0, 400)).astype(np.uint8).tobytes()
            else:
                _, _, data, _ = random_stream(rng)
                buf = bytearray(data)
                for _ in range(rng.integers(1, 6)):
                    buf[rng.integers(len(buf))] = rng.integers(256)
                blob = bytes(buf[: rng.integers(1, len(buf) + 1)])
            try:
                decode(blob)
            except StreamFormatError:
                pass

    def test_hand_assembled_two_frame_stream(self):
        # assemble the byte fixture directly from the format table
        raw = bytearray()
        raw += b"DTL2"
        raw += struct.pack("<H", 1)       # version
        raw += struct.pack("<Q", 5)       # match_id
        raw += struct.pack("<H", 33)      # tick interval
        raw += struct.pack("<B", 10)      # player count
        for i in range(10):
            raw += struct.pack("<BBI", i, 0 if i < 5 else 1, 100 + i)
        raw += struct.pack("<IH", 0, 10)  # keyframe
        for i in range(10):
            raw += struct.pack("<BBBff", i, i, 2 * i, 0.5, -0.25)
        raw += struct.pack("<IH", 40, 1)  # one sparse update
        raw += struct.pack("<BBBff", 3, 7, 9, 0.125, 0.0)

        header, frames = decode(bytes(raw))
        assert header.match_id == 5
        assert header.tick_interval_ms == 33
        assert [p.player_id for p in header.players] == list(range(100, 110))
        assert len(frames) == 2
        assert frames[0].tick == 0
        assert frames[0].updates[4] == FrameUpdate(4, 4, 8, 0.5, -0.25)
        assert frames[1] == Frame(40, (FrameUpdate(3, 7, 9, 0.125, 0.0),))
        assert encode(header, frames) == bytes(raw)

    def test_roundtrip_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            header, frames, data, _ = random_stream(rng)
            got_header, got_frames = decode(data)
            assert got_header == header
            assert got_frames == tuple(frames)
            assert encode(got_header, got_frames) == data

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, seed):
        header, frames, data, _ = random_stream(np.random.default_rng(seed))
        assert decode(data) == (header, tuple(frames))

    def test_array_serializer_matches_encode(self):
        # the trusted-producer fast path must emit encode()'s exact bytes
        rng = np.random.default_rng(321)
        for _ in range(20):
            header, frames, data, _ = random_stream(rng)
            ticks = np.array([f.tick for f in frames], dtype=np.int64)
            counts = np.array([len(f.updates) for f in frames], dtype=np.int64)
            flat = [u for f in frames for u in f.updates]
            updates = np.array(flat, dtype=UPDATE_DTYPE)
            assert _pack_frames(header, ticks, counts, updates) == data


def rejects(fn, *args):
    try:
        fn(*args)
    except StreamFormatError:
        return True
    return False


class TestKeyframeRule:
    """The first frame is at tick 0 and carries all ten declared entities:
    encode, decode and the ingest path all hold a stream to it."""

    @pytest.mark.parametrize("frames", [
        [Frame(5, updates(range(3)))],
        [Frame(5, updates(range(10)))],
        [Frame(0, updates(range(6))), Frame(3, updates(range(6, 10)))],
    ], ids=["lone-frame-at-tick-5", "full-frame-at-tick-5", "split-over-ticks-0-and-3"])
    def test_stream_without_keyframe_rejected(self, frames):
        data = pack_by_hand(make_header(), frames)
        with pytest.raises(StreamFormatError, match="tick-0 keyframe") as exc:
            decode(data)
        assert exc.value.offset == HEADER_SIZE  # the first frame's head
        with pytest.raises(StreamFormatError, match="tick-0 keyframe"):
            tracks_from_stream(data, 1)
        with pytest.raises(StreamFormatError, match="tick-0 keyframe"):
            encode(make_header(), frames)


def break_one_rule(rng, frames, kind):
    """A copy of a valid frame list that breaks exactly one format rule."""
    frames = list(frames)
    last = frames[-1].tick
    bad_update = [
        FrameUpdate(int(rng.integers(10, 256)), 1, 1, 0.0, 0.0),  # undeclared entity
        FrameUpdate(3, int(rng.integers(128, 256)), 1, 0.0, 0.0),  # off the grid
        FrameUpdate(3, 1, 1, float(rng.choice([np.nan, np.inf, -np.inf])), 0.0),
    ]
    if kind == 0:  # keyframe late: every tick moves up, so the order holds
        shift = int(rng.integers(1, 40))
        return [Frame(f.tick + shift, f.updates) for f in frames]
    if kind == 1:  # keyframe missing one entity
        drop = int(rng.integers(10))
        return [Frame(0, frames[0].updates[:drop] + frames[0].updates[drop + 1:]), *frames[1:]]
    if kind == 2:  # a tick that does not increase
        return frames + [Frame(last - int(rng.integers(0, min(last, 5) + 1)), ())]
    if kind == 3:  # an entity twice in one frame
        return frames + [Frame(last + 1, updates((4, 2, 4)))]
    if kind == 4:
        return []
    return frames + [Frame(last + int(rng.integers(1, 50)), (bad_update[kind - 5],))]


def test_encode_rejects_exactly_what_decode_rejects():
    """Hand-packed bytes of seeded frame lists: encode raises if and only if
    decode and the ingest path raise, and every broken list is refused."""
    rng = np.random.default_rng(2024)
    for i in range(240):
        header, frames, _, _ = random_stream(rng)
        kind = i % 9
        if kind < 8:
            frames = break_one_rule(rng, frames, kind)
        data = pack_by_hand(header, frames)
        verdicts = {
            "encode": rejects(encode, header, frames),
            "decode": rejects(decode, data),
            "tracks_from_stream": rejects(tracks_from_stream, data, 2),
        }
        assert set(verdicts.values()) == {kind < 8}, (kind, verdicts)
        if kind == 8:
            assert encode(header, frames) == data


class TestResample:
    def test_carry_forward_single_keyframe(self):
        _, cells = tracks_from_stream(encode(make_header(), [keyframe((9, 9))]), 3)
        assert cells.shape == (10, 4, 2)
        assert (cells == 9).all()

    def test_gap_holds_previous_position(self):
        frames = [
            keyframe((1, 1)),
            Frame(tick_for_second(2), (FrameUpdate(0, 5, 5, 0.0, 0.0),)),
        ]
        _, cells = tracks_from_stream(encode(make_header(), frames), 3)
        assert cells[0, :, 0].tolist() == [1, 1, 5, 5]
        assert cells[1, :, 0].tolist() == [1, 1, 1, 1]

    def test_same_second_later_tick_wins(self):
        # two updates standardizing to second 1; brute-force replay says the
        # later tick (35 -> 1155 ms) must override the earlier (32 -> 1056 ms)
        frames = [
            keyframe((1, 1)),
            Frame(32, (FrameUpdate(0, 50, 50, 0.0, 0.0),)),
            Frame(35, (FrameUpdate(0, 60, 60, 0.0, 0.0),)),
        ]
        assert tick_to_second(32) == 1 and tick_to_second(35) == 1
        _, cells = tracks_from_stream(encode(make_header(), frames), 2)
        assert cells[0, :, 0].tolist() == [1, 60, 60]

    def test_missing_initial_position_rejected(self):
        # the keyframe rule makes such a stream unencodable, so build one
        # whose tick-0 frame lacks entity 9 and whose first update for it
        # comes a second later
        frames = [
            Frame(0, tuple(FrameUpdate(i, 1, 1, 0.0, 0.0) for i in range(9))),
            Frame(tick_for_second(1), (FrameUpdate(9, 1, 1, 0.0, 0.0),)),
        ]
        data = pack_by_hand(make_header(), frames)
        with pytest.raises(StreamFormatError, match="tick-0"):
            tracks_from_stream(data, 2)
        with pytest.raises(StreamFormatError, match="tick-0"):
            resample_to_tracks(make_header(), frames, 2)

    def test_track_length_is_duration_plus_one(self):
        data = encode(make_header(), [keyframe()])
        for duration in (0, 1, 7):
            _, cells = tracks_from_stream(data, duration)
            assert cells.shape == (10, duration + 1, 2)

    def test_duration_past_limit_rejected(self):
        # a valid stream of 199 bytes whose last tick standardizes to
        # 281470681678 s: a resample that long would need about 11 TB
        data = encode(make_header(interval=65535), [keyframe(), Frame(2**32 - 1, ())])
        _, last = stream_summary(data)
        for duration in (MAX_DURATION_S + 1, last):
            with pytest.raises(StreamFormatError, match=f"exceeds the {MAX_DURATION_S} s limit"):
                tracks_from_stream(data, duration)
        _, cells = tracks_from_stream(data, MAX_DURATION_S)
        assert cells.shape == (10, MAX_DURATION_S + 1, 2)

    def test_fused_path_matches_object_path(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            header, frames, data, _ = random_stream(rng)
            duration = tick_to_second(frames[-1].tick, header.tick_interval_ms) + int(rng.integers(0, 3))
            want = resample_to_tracks(header, frames, duration)
            got_header, cells = tracks_from_stream(data, duration)
            assert got_header == header
            assert cells.dtype == np.uint8
            assert np.array_equal(cells, want)

    def test_stream_summary(self):
        frames = [keyframe(), Frame(tick_for_second(9), (FrameUpdate(1, 2, 3, 0.0, 0.0),))]
        header, last = stream_summary(encode(make_header(), frames))
        assert last == 9


class TestTrajectoryCsv:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        header, frames, data, _ = random_stream(rng)
        duration = tick_to_second(frames[-1].tick, header.tick_interval_ms)
        _, cells = tracks_from_stream(data, duration)
        buf = io.StringIO()
        write_trajectory_csv(header, cells, buf)
        buf.seek(0)
        match_id, players, got = read_trajectory_csv(buf)
        assert match_id == header.match_id
        assert players == tuple((p.team, p.player_id) for p in header.players)
        assert got.dtype == np.uint8
        assert np.array_equal(got, cells)

    def test_header_line(self):
        buf = io.StringIO()
        _, cells = tracks_from_stream(encode(make_header(1), [keyframe()]), 0)
        write_trajectory_csv(make_header(1), cells, buf)
        assert buf.getvalue().splitlines()[0] == "match_id,team,player_id,t,x,y"
        assert buf.getvalue().splitlines()[1] == "1,Radiant,100,0,1,2"

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_trajectory_csv(io.StringIO("a,b,c\n"))

    def test_interleaved_rows_keep_first_appearance_order(self):
        match_id, players, cells = read_rows(
            "4,dire,7,0,1,2", " 4, Radiant ,3,0,5,6", "4,Dire,7,1,3,4", "4,RADIANT,3,1,7,8",
        )
        assert match_id == 4
        assert players == ((Team.DIRE, 7), (Team.RADIANT, 3))
        assert cells.tolist() == [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
        # split blocks: A t=0..2, B t=0..2, A t=3..5, B t=3..5
        a = [f"4,Dire,7,{t},{t},{t + 1}" for t in range(6)]
        b = [f"4,Radiant,3,{t},{t + 2},{2 * t}" for t in range(6)]
        _, split_players, split_cells = read_rows(*a[:3], *b[:3], *a[3:], *b[3:])
        _, block_players, block_cells = read_rows(*a, *b)
        assert split_players == block_players == ((Team.DIRE, 7), (Team.RADIANT, 3))
        assert np.array_equal(split_cells, block_cells)
        assert split_cells.shape == (2, 6, 2)

    @pytest.mark.parametrize("rows,message", [
        ((), "empty"),
        (("1,Radiant,100,0,5,5", "2,Radiant,101,0,5,5"), "mixed match ids 1 and 2"),
        (("1,Radiant,100,1,5,5",), "non-contiguous"),
        (("1,Radiant,100,0,5,5", "1,Radiant,100,0,5,5"), "non-contiguous"),
        (("1,Radiant,100,0,5,5", "1,Radiant,100,1,5,5", "1,Dire,101,0,5,5"), "different track lengths"),
        (("1,Neutral,100,0,5,5",), "Neutral"),
        (("1,Radiant,100,0,5",), "columns"),
        (("1,Radiant,100,0,5,5,5",), "columns"),
        (("1,Radiant,100,0,5.0,5",), "5.0"),
        (("1,Radiant,100,0,128,5",), r"cell \(128,5\) outside"),
        (("1,Radiant,100,0,5,-1",), r"cell \(5,-1\) outside"),
        (("1,Radiant,100,0,256,5",), "outside"),  # would wrap to 0 as uint8
        (("1,Radiant,100,0,5,-256",), "outside"),
        (("1,Radiant,100,0,5,5", "1,Radiant,100,1,5,5", "1,Radiant,100,2,5,5",
          "1,Dire,101,0,5,5", "1,Dire,101,1,5,5", "1,Dire,101,2,5,5",
          "1,Radiant,100,4,5,5", "1,Radiant,100,5,5,5"),
         "non-contiguous timestamps for player 100"),
    ])
    def test_malformed_rows_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            read_rows(*rows)
