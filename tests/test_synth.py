import io
import warnings

import numpy as np
import pytest

from genstreams import resample_to_tracks
from teamtrace import measures, tickstream
from teamtrace.core import SkillTier, Team
from teamtrace.defaultmap import DEFAULT_LEGEND
from teamtrace.synth import MAX_SPREAD_SIGMA, MatchMeta, RegimeParams, generate_match
from teamtrace.tickstream import read_metadata_csv, write_metadata_csv
from teamtrace.zonemap import ZoneLabel, ZoneMap


def pipeline_stats(stream, meta, zmap):
    _, cells = tickstream.tracks_from_stream(stream, meta.duration_s)
    codes = measures.zone_codes(cells, zmap)
    rates = [measures.stats_from_codes(i, codes[i]).rate_per_min for i in range(10)]
    dist = np.concatenate(
        (measures.distance_values(cells[:5]), measures.distance_values(cells[5:]))
    )
    return float(np.mean(rates)), float(dist.mean())


class TestRegimeParams:
    def test_validation(self):
        RegimeParams(0.0, 1.0, 60)  # zero dispersion is the degenerate limit
        with pytest.raises(ValueError):
            RegimeParams(-1.0, 2.0, 60)
        with pytest.raises(ValueError):
            RegimeParams(5.0, 0.0, 60)
        with pytest.raises(ValueError):
            RegimeParams(5.0, 12.0, 60)  # dwell floor caps the rate
        with pytest.raises(ValueError):
            RegimeParams(5.0, 2.0, 0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="spread_sigma must be finite"):
            RegimeParams(sigma, 2.0, 60)

    def test_sigma_bounded_a_few_grid_widths_out(self, zmap):
        # the widest sigma allowed still plants a match without a warning
        params = RegimeParams(MAX_SPREAD_SIGMA, 2.0, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert generate_match(params, params, zmap, seed=1)[1].duration_s == 30
        with pytest.raises(ValueError, match="spread_sigma must be at most 512 cells"):
            RegimeParams(np.nextafter(MAX_SPREAD_SIGMA, np.inf), 2.0, 60)


class TestGenerateMatch:
    def test_same_seed_is_byte_identical(self, zmap):
        p = RegimeParams(8.0, 4.0, 120)
        s1, m1 = generate_match(p, p, zmap, seed=5)
        s2, m2 = generate_match(p, p, zmap, seed=5)
        assert s1 == s2
        assert m1 == m2

    def test_negative_seed_rejected(self, zmap):
        # a negative seed used to generate the match of its absolute value
        p = RegimeParams(8.0, 4.0, 30)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            generate_match(p, p, zmap, seed=-4)

    def test_different_seeds_differ(self, zmap):
        p = RegimeParams(8.0, 4.0, 120)
        s1, _ = generate_match(p, p, zmap, seed=5)
        s2, _ = generate_match(p, p, zmap, seed=6)
        assert s1 != s2

    def test_streams_decode_and_satisfy_invariants(self, zmap):
        p = RegimeParams(10.0, 5.0, 90)
        for seed in range(5):
            stream, meta = generate_match(p, p, zmap, seed=seed)
            header, frames = tickstream.decode(stream)
            assert frames[0].tick == 0
            assert len(frames[0].updates) == 10
            ticks = [f.tick for f in frames]
            assert ticks == sorted(set(ticks))
            assert tickstream.encode(header, frames) == stream
            cells = resample_to_tracks(header, frames, meta.duration_s)
            assert cells.shape == (10, meta.duration_s + 1, 2)

    def test_zero_dispersion_gives_zero_distance(self, zmap):
        p = RegimeParams(0.0, 3.0, 300)
        stream, meta = generate_match(p, p, zmap, seed=3)
        _, cells = tickstream.tracks_from_stream(stream, meta.duration_s)
        assert np.array_equal(measures.distance_values(cells[:5]), np.zeros(301))
        assert np.array_equal(measures.distance_values(cells[5:]), np.zeros(301))

    def test_match_record_roundtrip(self, zmap):
        p = RegimeParams(6.0, 4.0, 60)
        stream, meta = generate_match(p, p, zmap, seed=1, match_id=77, tier=SkillTier.HIGH)
        assert (meta.match_id, meta.tier, meta.duration_s) == (77, SkillTier.HIGH, 60)
        header, cells = tickstream.tracks_from_stream(stream, meta.duration_s)
        assert header.match_id == 77
        assert header.tick_interval_ms == tickstream.DEFAULT_TICK_INTERVAL_MS
        assert [p.team for p in header.players] == [Team.RADIANT] * 5 + [Team.DIRE] * 5
        assert cells.shape == (10, 61, 2)

    def test_players_spawn_in_their_base(self, zmap):
        p = RegimeParams(4.0, 3.0, 60)
        stream, meta = generate_match(p, p, zmap, seed=8)
        header, cells = tickstream.tracks_from_stream(stream, meta.duration_s)
        spawn = measures.zone_codes(cells[:, 0], zmap)
        for slot, code in zip(header.players, spawn.tolist()):
            base = ZoneLabel.BASE_RADIANT if slot.team is Team.RADIANT else ZoneLabel.BASE_DIRE
            assert list(ZoneLabel)[code] is base

    def test_map_without_base_interior_rejected(self):
        void = ZoneMap(np.full((128, 128), list(ZoneLabel).index(ZoneLabel.VOID), dtype=np.uint8),
                       DEFAULT_LEGEND)
        p = RegimeParams(5.0, 3.0, 60)
        with pytest.raises(ValueError, match="^zone map has no interior cells for base_Radiant$"):
            generate_match(p, p, void, seed=0)

    def test_mismatched_lengths_rejected(self, zmap):
        with pytest.raises(ValueError):
            generate_match(
                RegimeParams(5, 3, 60), RegimeParams(5, 3, 90), zmap, seed=0
            )


class TestPlantedBehavior:
    def test_switch_rate_calibration(self, zmap):
        # 6 changes per minute planted over 600 s; measured through the
        # full dwell-filter pipeline across 100 seeds
        p = RegimeParams(8.0, 6.0, 600)
        rates = []
        for seed in range(100):
            stream, meta = generate_match(p, p, zmap, seed=seed)
            rate, _ = pipeline_stats(stream, meta, zmap)
            rates.append(rate)
        mean_rate = float(np.mean(rates))
        assert 6.0 * 0.75 <= mean_rate <= 6.0 * 1.25

    def test_distance_monotone_in_dispersion(self, zmap):
        sigmas = (6.0, 10.0, 14.0)
        means = []
        for sigma in sigmas:
            p = RegimeParams(sigma, 4.0, 240)
            dists = []
            for seed in range(100):
                stream, meta = generate_match(p, p, zmap, seed=1000 + seed)
                _, d = pipeline_stats(stream, meta, zmap)
                dists.append(d)
            means.append(float(np.mean(dists)))
        assert means[0] < means[1] < means[2]


class TestMetadataCsv:
    def test_roundtrip(self):
        metas = [
            MatchMeta(1, SkillTier.PROFESSIONAL, Team.RADIANT, 900),
            MatchMeta(2, SkillTier.NORMAL, Team.DIRE, 1200),
        ]
        buf = io.StringIO()
        write_metadata_csv(buf, metas)
        buf.seek(0)
        back = read_metadata_csv(buf)
        assert back == {1: metas[0], 2: metas[1]}

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            read_metadata_csv(io.StringIO("a,b\n"))
