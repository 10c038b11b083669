import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import measures_oracle as oracle
from teamtrace.core import Phase, SkillTier, Team
from teamtrace.measures import (
    DistanceSeries,
    LabeledSeries,
    ZoneChangeStats,
    ZoneVisit,
    aggregate_by_category,
    change_count,
    distance_values,
    dwell_filter,
    moving_average,
    stats_from_codes,
    team_distance,
    zone_codes,
)
from teamtrace.zonemap import ZoneLabel

A, B, C = ZoneLabel.TOP_LANE, ZoneLabel.JUNGLE, ZoneLabel.RIVER
LABELS = list(ZoneLabel)


def seq(*spans):
    out = []
    for zone, n in spans:
        out.extend([zone] * n)
    return out


class TestDwellFilter:
    def test_short_blip_is_dropped_and_stay_merges(self):
        visits = dwell_filter(seq((A, 6), (B, 3), (A, 5)))
        assert visits == [ZoneVisit(A, 0, 11)]
        assert change_count(visits) == 0

    def test_three_long_stays_give_two_changes(self):
        visits = dwell_filter(seq((A, 10), (B, 6), (C, 10)))
        assert [v.zone for v in visits] == [A, B, C]
        assert [v.start_s for v in visits] == [0, 10, 16]
        assert [v.dwell_s for v in visits] == [10, 6, 10]
        assert change_count(visits) == 2

    def test_nothing_survives(self):
        visits = dwell_filter(seq((A, 2), (B, 3), (C, 4), (A, 1)))
        assert visits == []
        assert change_count(visits) == 0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            dwell_filter([])

    @given(
        st.lists(st.sampled_from([A, B, C]), min_size=1, max_size=120),
        st.integers(min_value=1, max_value=10),
    )
    def test_no_visit_shorter_than_threshold(self, zones, min_dwell):
        visits = dwell_filter(zones, min_dwell)
        assert all(v.dwell_s >= min_dwell for v in visits)
        assert all(u.zone is not v.zone for u, v in zip(visits, visits[1:]))

    @given(st.lists(st.sampled_from([A, B, C]), min_size=1, max_size=120))
    def test_monotone_in_threshold(self, zones):
        counts = [change_count(dwell_filter(zones, d)) for d in range(1, 9)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @given(st.lists(st.sampled_from([A, B]), min_size=6, max_size=60))
    def test_trailing_seconds_in_final_visited_zone_change_nothing(self, zones):
        visits = dwell_filter(zones)
        if not visits:
            return
        extended = zones + [visits[-1].zone] * 7
        assert change_count(dwell_filter(extended)) == change_count(visits)


def _spot(zmap, label):
    """A cell carrying ``label`` on the map."""
    xs, ys = np.nonzero(zmap.codes == list(ZoneLabel).index(label))
    return (int(xs[len(xs) // 2]), int(ys[len(xs) // 2]))


def _track(*spans):
    """(T, 2) uint8 cells: each (cell, seconds) span in turn."""
    return np.array([cell for cell, n in spans for _ in range(n)], dtype=np.uint8)


class TestZoneChangeStats:
    def _stats(self, zmap, cells):
        return stats_from_codes(9, zone_codes(cells, zmap))

    def test_stationary_player(self, zmap):
        st_ = self._stats(zmap, _track(((64, 64), 30)))
        assert st_.player_id == 9
        assert st_.changes == 0
        assert st_.rate_per_min == 0.0

    def test_two_changes_over_26_seconds(self, zmap):
        # stay in three different zones for 10, 6 and 10 seconds
        cells = _track((_spot(zmap, A), 10), (_spot(zmap, B), 6), (_spot(zmap, C), 10))
        st_ = self._stats(zmap, cells)
        assert st_.changes == 2
        assert st_.duration_s == 26
        assert st_.rate_per_min == pytest.approx(2 * 60 / 26)

    def test_blip_has_rate_zero(self, zmap):
        a, b = _spot(zmap, A), _spot(zmap, B)
        st_ = self._stats(zmap, _track((a, 6), (b, 3), (a, 5)))
        assert st_.changes == 0
        assert st_.rate_per_min == 0.0


class TestStatsFromCodesOracle:
    """``stats_from_codes`` and ``dwell_filter`` against the per-run loop in
    ``measures_oracle``."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @settings(max_examples=150, deadline=None)
    @given(
        labels=st.lists(st.integers(0, len(ZoneLabel) - 1), min_size=1, max_size=4, unique=True),
        duration=st.integers(1, 400),
        min_dwell=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_dwell_filter_counts(self, dtype, labels, duration, min_dwell, seed):
        # geometric run lengths (mean 3 s) make stays shorter than the
        # dwell threshold common
        rng = np.random.default_rng(seed)
        runs = rng.geometric(1 / 3, size=duration)
        row = np.repeat(rng.choice(labels, size=duration), runs)[:duration].astype(dtype)
        visits = oracle.dwell_filter(row, min_dwell)
        zones = [LABELS[c] for c in row.tolist()]
        assert dwell_filter(zones, min_dwell) == visits
        changes = change_count(visits)
        want = ZoneChangeStats(4, changes, duration, changes * 60.0 / duration)
        got = stats_from_codes(4, row, min_dwell)
        assert got == want
        assert type(got.changes) is int and type(got.rate_per_min) is float
        with pytest.raises(ValueError, match="^zero-duration match$"):
            stats_from_codes(4, row[:0], min_dwell)
        with pytest.raises(ValueError, match="^min_dwell_s must be at least 1$"):
            stats_from_codes(4, row, 0)
        with pytest.raises(ValueError, match="^empty zone sequence$"):
            dwell_filter([], 0)
        with pytest.raises(ValueError, match="^min_dwell_s must be at least 1$"):
            dwell_filter(zones, 0)


class TestZoneSequence:
    def test_one_label_per_second(self, zmap):
        cells = np.full((3, 2, 2), 64, dtype=np.uint8)  # 3 players x 2 seconds
        assert zone_codes(cells, zmap).shape == (3, 2)

    def test_single_sample(self, zmap):
        assert zone_codes(_track(((0, 0), 1)), zmap).shape == (1,)

    def test_crossing_changes_label_at_the_right_index(self, zmap):
        lane = (12, 60)   # west top-lane column
        jungle = (40, 80)
        assert list(ZoneLabel)[zmap.codes[lane]] is ZoneLabel.TOP_LANE
        assert list(ZoneLabel)[zmap.codes[jungle]] is ZoneLabel.JUNGLE
        labels = [list(ZoneLabel)[c] for c in zone_codes(_track((lane, 7), (jungle, 3)), zmap)]
        assert labels[6] is ZoneLabel.TOP_LANE
        assert labels[7] is ZoneLabel.JUNGLE


def naive_team_distance(points):
    total, pairs = 0.0, 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            total += math.dist(points[i], points[j])
            pairs += 1
    return total / pairs


class TestTeamDistance:
    def test_cohabiting_team_has_zero_distance(self):
        assert team_distance(np.full((5, 2), 4, dtype=np.uint8)) == 0.0

    def test_three_four_five_triangle(self):
        assert team_distance(np.array([[0, 0], [3, 4]], dtype=np.uint8)) == 5.0

    def test_three_points_against_naive_oracle(self):
        pts = [(0, 0), (3, 4), (3, 4)]
        want = naive_team_distance(pts)  # (5 + 5 + 0) / 3
        assert want == pytest.approx(10 / 3)
        assert team_distance(np.array(pts)) == pytest.approx(want, abs=1e-12)

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ValueError):
            team_distance(np.array([[1, 1]]))

    def test_positions_must_be_pairs(self):
        with pytest.raises(ValueError,
                           match=r"^positions must be an \(n, 2\) array, got shape \(2, 3\)$"):
            team_distance(np.zeros((2, 3)))

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_matches_oracle_and_invariances(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 127, size=(5, 2))
        d = team_distance(pts)
        assert d == pytest.approx(naive_team_distance(pts.tolist()), abs=1e-9)
        perm = pts[rng.permutation(5)]
        assert team_distance(perm) == pytest.approx(d, abs=1e-9)
        assert team_distance(pts + np.array([11.0, -3.0])) == pytest.approx(d, abs=1e-9)
        assert team_distance(pts * 2.5) == pytest.approx(2.5 * d, abs=1e-9)


def pair_loop_distance_values(cells):
    """The pair-by-pair ``distance_values``: reference for the array pass
    over each player's later teammates."""
    pts = cells.astype(np.float64)
    n = pts.shape[0]
    total = np.zeros(pts.shape[1])
    for i in range(n - 1):
        for j in range(i + 1, n):
            d = pts[i] - pts[j]
            total += np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    return total / (n * (n - 1) / 2)


class TestDistanceValuesOracle:
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 10),
        duration=st.integers(1, 3000),
        span=st.sampled_from([1, 4, 128]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_pair_loop(self, dtype, n, duration, span, seed):
        rng = np.random.default_rng(seed)
        if dtype is np.uint8:
            cells = rng.integers(0, span, size=(n, duration, 2)).astype(np.uint8)
        else:
            cells = (rng.uniform(0, span, size=(n, duration, 2))).astype(dtype)
        got, want = distance_values(cells), pair_loop_distance_values(cells)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _match(cells_fn, duration=5):
    """(10, duration+1, 2) uint8 cells: Radiant rows 0-4, Dire rows 5-9."""
    return np.array(
        [[cells_fn(i, t) for t in range(duration + 1)] for i in range(10)], dtype=np.uint8
    )


def _series(cells, team):
    rows = slice(0, 5) if team is Team.RADIANT else slice(5, 10)
    return DistanceSeries(1, team, distance_values(cells[rows]))


class TestDistanceSeries:
    def test_frozen_players_give_constant_zero(self):
        s = _series(_match(lambda i, t: (7, 7)), Team.RADIANT)
        assert np.array_equal(s.values, np.zeros(6))

    def test_static_spread_gives_constant_series(self):
        spots = [(10 + 4 * i, 20) for i in range(5)]
        s = _series(_match(lambda i, t: spots[i % 5]), Team.DIRE)
        static = team_distance(np.array(spots))
        assert np.allclose(s.values, static)

    def test_walk_matches_per_second_oracle(self):
        rng = np.random.default_rng(42)
        walk = rng.integers(0, 128, size=(10, 40, 2)).astype(np.uint8)
        s = _series(walk, Team.RADIANT)
        for t in range(40):
            pts = [(int(walk[i, t, 0]), int(walk[i, t, 1])) for i in range(5)]
            assert abs(s.values[t] - naive_team_distance(pts)) <= 1e-9

    def test_length_is_duration_plus_one(self):
        s = _series(_match(lambda i, t: (1, 1), duration=9), Team.RADIANT)
        assert s.values.size == 10

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DistanceSeries(1, Team.RADIANT, np.array([1.0, float("nan")]))
        with pytest.raises(ValueError):
            DistanceSeries(1, Team.RADIANT, np.array([-0.5, 1.0]))

    @pytest.mark.parametrize("values", [np.array([]), np.zeros((2, 2))], ids=["empty", "2d"])
    def test_shape_rejected(self, values):
        with pytest.raises(ValueError, match="^distance series must be a non-empty 1-D array$"):
            DistanceSeries(1, Team.RADIANT, values)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        v = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert np.array_equal(moving_average(v, 1), np.asarray(v))
        # a difference of running sums rounds most random floats
        u = np.random.default_rng(0).uniform(size=2701)
        assert np.array_equal(moving_average(u, 1), u)

    def test_trailing_window_two(self):
        assert moving_average([0, 10, 20], 2).tolist() == [0.0, 5.0, 15.0]

    def test_constant_series_unchanged(self):
        assert np.allclose(moving_average([4.0] * 9, 5), 4.0)

    def test_window_below_one_rejected(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)

    def test_window_past_the_series_is_the_series_length(self):
        v = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert np.array_equal(moving_average(v, 2**70), moving_average(v, len(v)))


def _ls(values, tier=SkillTier.NORMAL, won=True, match_id=1, team=Team.RADIANT):
    return LabeledSeries(DistanceSeries(match_id, team, np.asarray(values, float)), tier, won)


class TestAggregate:
    def test_single_match_equals_its_series(self):
        ls = _ls([1.0, 2.0, 3.0])
        rows = aggregate_by_category([ls], SkillTier.NORMAL, True, Phase.EARLY)
        assert rows == [(0, 1.0, 1), (1, 2.0, 1), (2, 3.0, 1)]

    def test_two_constant_series_average(self):
        rows = aggregate_by_category(
            [_ls([4.0] * 4), _ls([6.0] * 4, match_id=2)], SkillTier.NORMAL, True, Phase.EARLY
        )
        assert [r[1] for r in rows] == [5.0, 5.0, 5.0, 5.0]
        assert all(r[2] == 2 for r in rows)

    def test_short_match_drops_out_at_crossover(self):
        rows = aggregate_by_category(
            [_ls([2.0] * 3), _ls([8.0] * 5, match_id=2)], SkillTier.NORMAL, True, Phase.EARLY
        )
        # both run through t=2, only the longer one remains after
        assert rows[:3] == [(0, 5.0, 2), (1, 5.0, 2), (2, 5.0, 2)]
        assert rows[3:] == [(3, 8.0, 1), (4, 8.0, 1)]

    @pytest.mark.parametrize("phase", list(Phase))
    def test_empty_category_yields_no_rows(self, phase):
        assert aggregate_by_category([_ls([1.0] * 3000)], SkillTier.PROFESSIONAL, True, phase) == []
        assert aggregate_by_category([], SkillTier.NORMAL, False, phase) == []

    def test_phase_windows_partition_the_series(self):
        long = _ls([1.0] * 2000)
        seen = []
        for phase in Phase:
            seen.extend(t for t, _, _ in aggregate_by_category([long], SkillTier.NORMAL, True, phase))
        assert seen == list(range(2000))
