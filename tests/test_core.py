import pytest
from hypothesis import given, strategies as st

from genstreams import make_header, read_rows
from teamtrace.core import (
    Phase,
    SkillTier,
    Team,
    check_lineup,
    phase_window,
)
from teamtrace.tickstream import (
    Frame,
    FrameUpdate,
    HEADER_SIZE,
    StreamFormatError,
    decode,
    encode,
)


def phases_at(t):
    """Every phase whose window holds match second ``t``."""
    return [p for p in Phase if phase_window(p)[0] <= t < phase_window(p)[1]]


class TestPhaseOf:
    """The phase of a match second is the one half-open window holding it."""

    def test_match_start_is_early(self):
        assert phases_at(0) == [Phase.EARLY]

    def test_boundary_belongs_to_later_interval(self):
        assert phases_at(899) == [Phase.EARLY]
        assert phases_at(900) == [Phase.MID]
        assert phases_at(1799) == [Phase.MID]
        assert phases_at(1800) == [Phase.LATE]

    def test_forty_minutes_is_late(self):
        assert phases_at(2400) == [Phase.LATE]

    @given(st.floats(min_value=0, max_value=1e7, allow_nan=False))
    def test_partitions_time(self, t):
        # exactly one phase window contains t
        assert len(phases_at(t)) == 1


class TestDomainTypes:
    """Cells, offsets and tracks are plain arrays; their rules are enforced
    where data enters: the trajectory CSV reader and the DTL2 codec."""

    def test_grid_cell_bounds(self):
        _, _, cells = read_rows("1,Radiant,1,0,0,0", "1,Radiant,1,1,127,127")
        assert cells.tolist() == [[[0, 0], [127, 127]]]
        for x, y in [(-1, 0), (0, -1), (128, 0), (0, 128)]:
            with pytest.raises(ValueError, match="outside"):
                read_rows(f"1,Radiant,1,0,{x},{y}")

    def test_subcell_offset_must_be_finite(self):
        keyframe = [FrameUpdate(i, 1, 1, 0.25, -0.75) for i in range(10)]
        data = encode(make_header(), [Frame(0, tuple(keyframe))])
        for bad in (float("nan"), float("inf")):
            frame = Frame(0, tuple([FrameUpdate(0, 1, 1, bad, 0.0)] + keyframe[1:]))
            with pytest.raises(StreamFormatError, match="non-finite"):
                encode(make_header(), [frame])
        # first update's vx field: after the frame head and entity/x/y bytes
        vx = HEADER_SIZE + 6 + 3
        corrupt = bytearray(data)
        corrupt[vx : vx + 4] = b"\x00\x00\xc0\x7f"  # binary32 NaN
        with pytest.raises(StreamFormatError, match="non-finite"):
            decode(bytes(corrupt))

    def test_track_needs_samples(self):
        with pytest.raises(ValueError, match="empty"):
            read_rows()

    def test_track_samples_are_one_hertz(self):
        _, _, cells = read_rows("1,Dire,1,0,1,1", "1,Dire,1,1,2,2")
        assert cells.shape == (1, 2, 2)  # one player, seconds 0 and 1
        assert cells[0].tolist() == [[1, 1], [2, 2]]
        with pytest.raises(ValueError, match="non-contiguous"):
            read_rows("1,Dire,1,0,1,1", "1,Dire,1,2,2,2")

    def test_team_parse(self):
        assert Team.parse("Radiant") is Team.RADIANT
        assert Team.parse("dire") is Team.DIRE
        with pytest.raises(ValueError):
            Team.parse("neutral")

    def test_tier_parse(self):
        assert SkillTier.parse(" veryhigh ") is SkillTier.VERY_HIGH
        with pytest.raises(ValueError, match="^unknown skill tier: 'Legend'$"):
            SkillTier.parse("Legend")


def _lineup(radiant=5, dire=5):
    return [Team.RADIANT] * radiant + [Team.DIRE] * dire


class TestMatchRecord:
    """A match is ten equally long tracks, five per team."""

    def test_valid(self):
        check_lineup(_lineup())
        check_lineup(list(reversed(_lineup())))

    def test_track_count_enforced(self):
        with pytest.raises(ValueError, match="10 players"):
            check_lineup(_lineup(dire=4))

    def test_team_balance_enforced(self):
        with pytest.raises(ValueError, match="5 players"):
            check_lineup(_lineup(radiant=10, dire=0))

    def test_track_lengths_must_match_duration(self):
        with pytest.raises(ValueError, match="different track lengths"):
            read_rows("1,Radiant,1,0,3,4", "1,Radiant,1,1,3,4", "1,Dire,2,0,3,4")
