import csv
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teamtrace
from teamtrace import tickstream
from teamtrace.cli import EXIT_DATA, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from teamtrace.core import Team
from genstreams import make_header
from pdclust_oracle import read_matrix_csv
from legend_text import DEFAULT_LEGEND_TEXT
from teamtrace.defaultmap import DEFAULT_LEGEND, default_zone_map
from teamtrace.measures import distance_values
from teamtrace.pdclust import distance_matrix
from teamtrace.tickstream import read_metadata_csv
from teamtrace.zonemap import load_zone_map, render_zone_map


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic batch: streams + ingested trajectory CSVs."""
    root = tmp_path_factory.mktemp("cli")
    streams = root / "streams"
    traj = root / "traj"
    assert main([
        "synth", "--matches", "2", "--duration", "150", "--seed", "11",
        "-o", str(streams),
    ]) == EXIT_OK
    files = sorted(str(p) for p in streams.glob("*.dtl2"))
    assert len(files) == 6
    assert main([
        "ingest", *files, "--meta", str(streams / "matches.csv"), "-o", str(traj),
    ]) == EXIT_OK
    return root


def _copied_batch(tmp_path, copies, *synth_flags):
    """One synth match per regime, ingested and written ``copies`` times
    under new match ids 1, 2, ...; a copy keeps its source's tier and winner.
    Returns the trajectory directory and its metadata file."""
    streams, traj, batch = tmp_path / "streams", tmp_path / "traj", tmp_path / "batch"
    assert main(["synth", "--matches", "1", "--seed", "5", *synth_flags,
                 "-o", str(streams)]) == EXIT_OK
    assert main(["ingest", *sorted(map(str, streams.glob("*.dtl2"))),
                 "-o", str(traj)]) == EXIT_OK
    header, *metas = (streams / "matches.csv").read_text().splitlines()
    meta_lines = [header]
    batch.mkdir()
    for copy_id in range(1, copies * len(metas) + 1):
        match_id, rest = metas[(copy_id - 1) % len(metas)].split(",", 1)
        head, *rows = (traj / f"{match_id}.csv").read_text().splitlines()
        meta_lines.append(f"{copy_id},{rest}")
        (batch / f"{copy_id}.csv").write_text("".join(
            [f"{head}\n", *(f"{copy_id},{row.split(',', 1)[1]}\n" for row in rows)]))
    meta = tmp_path / "matches.csv"
    meta.write_text("\n".join(meta_lines) + "\n")
    return batch, meta


def _sixty_second_batch(tmp_path, recorded_s):
    """Three 60 s synth streams and their metadata rewritten to record
    ``recorded_s`` seconds per match."""
    streams = tmp_path / "streams"
    assert main(["synth", "--matches", "1", "--duration", "60", "--seed", "4",
                 "-o", str(streams)]) == EXIT_OK
    meta = streams / "matches.csv"
    meta.write_text(meta.read_text().replace(",60\n", f",{recorded_s}\n"))
    return sorted(str(p) for p in streams.glob("*.dtl2")), meta


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(teamtrace.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


class TestSynthAndIngest:
    def test_metadata_written(self, workspace):
        with open(workspace / "streams" / "matches.csv") as f:
            meta = read_metadata_csv(f)
        assert len(meta) == 6
        tiers = {str(m.tier) for m in meta.values()}
        assert tiers == {"Professional", "High", "Normal"}

    def test_trajectory_row_count(self, workspace):
        with open(workspace / "traj" / "1.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 10 * 151

    def test_csvs_reparse_into_identical_match_records(self, workspace):
        with open(workspace / "streams" / "matches.csv") as f:
            meta = read_metadata_csv(f)
        for stream_path in (workspace / "streams").glob("*.dtl2"):
            data = stream_path.read_bytes()
            header, cells = tickstream.tracks_from_stream(
                data, meta[int(stream_path.stem)].duration_s
            )
            with open(workspace / "traj" / f"{header.match_id}.csv") as f:
                match_id, players, got = tickstream.read_trajectory_csv(f)
            assert match_id == header.match_id
            assert players == tuple((p.team, p.player_id) for p in header.players)
            assert got.shape == (10, meta[match_id].duration_s + 1, 2)
            assert np.array_equal(got, cells)

    def test_partial_batch_failure(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.dtl2"
        bad.write_bytes(b"XXXX not a stream")
        good = sorted(str(p) for p in (workspace / "streams").glob("*.dtl2"))[:2]
        out = tmp_path / "out"
        code = main(["ingest", str(bad), *good, "-o", str(out)])
        assert code == EXIT_PARTIAL
        assert "bad.dtl2" in capsys.readouterr().err
        assert len(list(out.glob("*.csv"))) == 2

    def test_duplicate_match_id_is_partial_failure(self, workspace, tmp_path, capsys):
        first = workspace / "streams" / "1.dtl2"
        again = tmp_path / "copy_of_1.dtl2"
        again.write_bytes(first.read_bytes())
        out = tmp_path / "out"
        assert main(["ingest", str(first), str(again), "-o", str(out)]) == EXIT_PARTIAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert str(again) in err[0] and str(first) in err[0]
        assert [p.name for p in out.iterdir()] == ["1.csv"]

    def test_stream_without_five_per_side_is_partial_failure(self, tmp_path, capsys):
        # the header rules of decode accept this lineup; no analysis command does
        keyframe = tickstream.Frame(
            0, tuple(tickstream.FrameUpdate(i, 1, 2, 0.0, 0.0) for i in range(10)))
        good, lopsided = tmp_path / "8.dtl2", tmp_path / "9.dtl2"
        good.write_bytes(tickstream.encode(make_header(match_id=8), [keyframe]))
        slots = make_header().players
        six_four = tickstream.StreamHeader(
            9, (*slots[:5], slots[5]._replace(team=Team.RADIANT), *slots[6:]))
        lopsided.write_bytes(tickstream.encode(six_four, [keyframe]))
        out = tmp_path / "out"
        assert main(["ingest", str(good), str(lopsided), "-o", str(out)]) == EXIT_PARTIAL
        assert capsys.readouterr().err == (
            f"error: {lopsided}: expected 5 players for Radiant, got 6\n")
        assert [p.name for p in out.iterdir()] == ["8.csv"]

    def test_duration_past_limit_is_one_line_data_error(self, workspace, tmp_path, capsys):
        # a keyframe, then an empty frame at the last tick: 2**32 - 1 ticks
        # of 65535 ms standardize to 281470681678 s
        keyframe = tickstream.Frame(
            0, tuple(tickstream.FrameUpdate(i, 1, 2, 0.0, 0.0) for i in range(10)))
        huge = tmp_path / "huge.dtl2"
        huge.write_bytes(tickstream.encode(make_header(interval=65535),
                                           [keyframe, tickstream.Frame(2**32 - 1, ())]))
        good = workspace / "streams" / "1.dtl2"
        meta = tmp_path / "meta.csv"
        meta.write_text("match_id,tier,winner,duration_s\n1,Normal,Dire,1000000000000\n")
        limit = "s exceeds the 86400 s limit"
        huge_err, long_err = (f"duration {s} {limit}" for s in (281470681678, 1000000000000))
        for argv, code, err in [
            ([huge], EXIT_DATA,
             f"teamtrace: error: no stream ingested (1 failed); first: {huge}: {huge_err}\n"),
            ([huge, good], EXIT_PARTIAL, f"error: {huge}: {huge_err}\n"),
            ([good, "--meta", meta], EXIT_DATA,
             f"teamtrace: error: no stream ingested (1 failed); first: {good}: {long_err}\n"),
        ]:
            out = tmp_path / "out"
            assert main(["ingest", *map(str, argv), "-o", str(out)]) == code
            assert capsys.readouterr().err == err
        assert [p.name for p in out.iterdir()] == ["1.csv"]

    @pytest.mark.parametrize("duration", [86_401, 10**12])
    def test_synth_duration_past_limit_is_one_line_usage_error(self, tmp_path, capsys, duration):
        out = tmp_path / "o"
        assert main(["synth", "--duration", str(duration), "-o", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"teamtrace synth: error: argument --duration: must be at most 86400, got {duration}\n"
        )
        assert not out.exists()

    def test_ingest_scans_each_stream_once(self, workspace, tmp_path, monkeypatch):
        files = sorted(str(p) for p in (workspace / "streams").glob("*.dtl2"))
        scan, calls = tickstream._scan, []
        monkeypatch.setattr(tickstream, "_scan", lambda data: calls.append(data) or scan(data))
        for meta in ([], ["--meta", str(workspace / "streams" / "matches.csv")]):
            calls.clear()
            assert main(["ingest", *files, *meta, "-o", str(tmp_path / "o")]) == EXIT_OK
            assert len(calls) == len(files)

    def test_updates_past_recorded_duration_are_named(self, tmp_path, capsys):
        files, meta = _sixty_second_batch(tmp_path, recorded_s=20)
        out = tmp_path / "out"
        assert main(["ingest", *files, "--meta", str(meta), "-o", str(out)]) == EXIT_OK
        lines = []
        for path in files:
            data = Path(path).read_bytes()
            header, heads, ticks, counts = tickstream._scan(data)
            _, upd_ticks, _ = tickstream._update_arrays(data, header, heads, ticks, counts)
            secs = tickstream.tick_to_second(upd_ticks, header.tick_interval_ms)
            late = secs[secs > 20]
            assert late.size
            lines.append(f"{path}: dropped {late.size} updates past the recorded 20 s, "
                         f"the first at second {late.min()}\n")
        assert capsys.readouterr().err == "".join(lines)
        assert [len(p.read_text().splitlines()) for p in sorted(out.iterdir())] == [211] * 3

    def test_recorded_duration_past_last_update_prints_nothing(self, tmp_path, capsys):
        # the last positions are carried forward to the recorded second 90
        files, meta = _sixty_second_batch(tmp_path, recorded_s=90)
        out = tmp_path / "out"
        assert main(["ingest", *files, "--meta", str(meta), "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert [len(p.read_text().splitlines()) for p in sorted(out.iterdir())] == [911] * 3

    def test_stream_failing_lineup_prints_no_drop_line(self, tmp_path, capsys):
        keyframe = tickstream.Frame(
            0, tuple(tickstream.FrameUpdate(i, 1, 2, 0.0, 0.0) for i in range(10)))
        later = tickstream.Frame(
            int(tickstream.tick_for_second(5)), (tickstream.FrameUpdate(0, 3, 4, 0.0, 0.0),))
        good, lopsided = tmp_path / "8.dtl2", tmp_path / "9.dtl2"
        good.write_bytes(tickstream.encode(make_header(match_id=8), [keyframe]))
        slots = make_header().players
        six_four = tickstream.StreamHeader(
            9, (*slots[:5], slots[5]._replace(team=Team.RADIANT), *slots[6:]))
        lopsided.write_bytes(tickstream.encode(six_four, [keyframe, later]))
        meta = tmp_path / "meta.csv"
        meta.write_text("match_id,tier,winner,duration_s\n9,Normal,Dire,2\n")
        out = tmp_path / "out"
        assert main(["ingest", str(good), str(lopsided), "--meta", str(meta),
                     "-o", str(out)]) == EXIT_PARTIAL
        assert capsys.readouterr().err == (
            f"error: {lopsided}: expected 5 players for Radiant, got 6\n")

    def test_all_failures(self, tmp_path, capsys):
        junk, short_a, short_b = (tmp_path / f"{name}.dtl2" for name in ("junk", "a", "b"))
        junk.write_bytes(b"\x00" * 40)
        short_a.write_bytes(b"DTL2")
        short_b.write_bytes(b"DTL2")
        # exit 2 is one line however many streams fail: the count and the first failure
        for streams in ([junk], [short_b, short_a]):
            assert main(["ingest", *map(str, streams), "-o", str(tmp_path / "o")]) == EXIT_DATA
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith(f"teamtrace: error: no stream ingested ({len(streams)} failed);"
                                  f" first: {min(streams)}: ")

    def test_synth_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([
                "synth", "--matches", "1", "--duration", "80", "--seed", "3", "-o", str(out),
            ]) == EXIT_OK
        for name in ("1.dtl2", "2.dtl2", "3.dtl2", "matches.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-4"], "argument --seed: must be at least 0, got -4"),
        (["--regime", "Professional:nan:2"],
         "argument --regime: 'Professional:nan:2': spread_sigma must be finite and non-negative"),
        (["--matches", "0"], "argument --matches: must be at least 1, got 0"),
        (["--duration", "0"], "argument --duration: must be at least 1, got 0"),
        (["--first-id", "-1"], "argument --first-id: must be at least 0, got -1"),
        (["--regime", "Normal:1e308:1"],
         "argument --regime: 'Normal:1e308:1': spread_sigma must be at most 512 cells"),
        # rejected as argparse reads it, before any work list is built
        (["--matches", "100000000"], "argument --matches: must be at most 10000, got 100000000"),
        (["--regime", "Professional:6"],
         "argument --regime: 'Professional:6', want TIER:SIGMA:RATE"),
    ], ids=["negative-seed", "nan-sigma", "zero-matches", "zero-duration", "negative-first-id",
            "huge-sigma", "huge-matches", "regime-two-fields"])
    def test_bad_synth_flag_is_one_line_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        code = main(["synth", "--matches", "1", "--duration", "10", *flags, "-o", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"teamtrace synth: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("first_id", [2**64 - 1, 2**64 - 3, 2**64])
    def test_match_ids_past_uint64_are_one_line_usage_error(self, tmp_path, capsys, first_id):
        out = tmp_path / "o"
        code = main(["synth", "--matches", "2", "--duration", "5", "--first-id", str(first_id),
                     "-o", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"teamtrace: error: --first-id {first_id} puts the last match id past 2**64 - 1\n"
        )
        assert not out.exists()

    def test_match_missing_from_metadata_is_data_error(self, workspace, tmp_path, capsys):
        short_meta = tmp_path / "meta.csv"
        lines = (workspace / "streams" / "matches.csv").read_text().splitlines()
        short_meta.write_text("\n".join(lines[:2]) + "\n")  # header + one match
        assert main([
            "zones", "--trajectories", str(workspace / "traj"),
            "--meta", str(short_meta), "-o", str(tmp_path / "o"),
        ]) == EXIT_DATA
        assert "missing from metadata" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,message", [
        ("1,Normal,Dire,150", "duplicate match id 1 on lines 2 and 8"),
        ("7,Normal,Dire", "line 8: expected 4 fields, got 3"),
        ("7,Normal,Dire,-1", "line 8: negative duration_s -1"),
        ("7,Normal,Dire,-3", "line 8: negative duration_s -3"),
        ("1,Normal,Radiant,x", "line 8: invalid literal for int() with base 10: 'x'"),
        ("7,Legend,Dire,9", "line 8: unknown skill tier: 'Legend'"),
        ("7,Normal,Nobody,9", "line 8: unknown team name: 'Nobody'"),
    ])
    @pytest.mark.parametrize("command", ["zones", "ingest"])
    def test_bad_metadata_row_is_one_line_data_error(
        self, workspace, tmp_path, capsys, command, extra, message
    ):
        meta = tmp_path / "meta.csv"
        meta.write_text((workspace / "streams" / "matches.csv").read_text() + extra + "\n")
        if command == "ingest":
            args = [str(workspace / "streams" / "1.dtl2")]
        else:
            args = ["--trajectories", str(workspace / "traj")]
        code = main([command, *args, "--meta", str(meta), "-o", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"teamtrace: error: {meta}: {message}\n"

    def test_corrupt_trajectory_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("match_id,team,player_id,t,x,y\n1,Radiant,100,0,5,5\n1,Radiant,100,7,5,5\n")
        assert main(["distance", "--trajectories", str(bad), "-o", str(tmp_path)]) == EXIT_DATA
        assert "non-contiguous" in capsys.readouterr().err

    # a team field is read as 16 bytes: a longer one must not be cut to a valid name
    @pytest.mark.parametrize("team", ["Radiant" + " " * 9 + "x", "Radi\u20acnt"])
    def test_bad_team_name_is_one_line_data_error(self, tmp_path, capsys, team):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"match_id,team,player_id,t,x,y\n1,{team},100,0,5,5\n", encoding="utf-8")
        assert main(["distance", "--trajectories", str(bad), "-o", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"teamtrace: error: {bad}: ") and err.count("\n") == 1


class TestAnalysisCommands:
    def test_zones(self, workspace):
        out = workspace / "zones_out"
        assert main([
            "zones", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"), "-o", str(out),
        ]) == EXIT_OK
        with open(out / "zone_changes.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 60
        assert {r["tier"] for r in rows} == {"Professional", "High", "Normal"}
        assert all(float(r["rate_per_min"]) >= 0 for r in rows)

    def test_distance(self, workspace):
        out = workspace / "dist_out"
        assert main([
            "distance", "--trajectories", str(workspace / "traj"), "-o", str(out),
        ]) == EXIT_OK
        with open(out / "distance_series.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6 * 2 * 151
        assert {r["team"] for r in rows} == {"Radiant", "Dire"}

    def test_phases(self, workspace):
        out = workspace / "phases_out"
        assert main([
            "phases", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"), "-o", str(out),
        ]) == EXIT_OK
        with open(out / "phase_aggregates.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows
        assert all(r["phase"] == "Early" for r in rows)  # matches are 150 s long
        assert all(int(r["n_matches"]) >= 1 for r in rows)

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_phases_window_below_one_is_usage_error(self, workspace, tmp_path, capsys, window):
        out = tmp_path / "o"
        assert main([
            "phases", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
            "--window", window, "-o", str(out),
        ]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"teamtrace phases: error: argument --window: must be at least 1, got {window}\n"
        )
        assert not out.exists()

    def test_phases_window_past_the_match_is_whole_match_mean(self, workspace, tmp_path):
        # a window wider than int64 still averages from each series' start
        args = ["phases", "--trajectories", str(workspace / "traj"),
                "--meta", str(workspace / "streams" / "matches.csv")]
        for window in ("100000000000000000000", "151"):  # the matches span 151 seconds
            assert main([*args, "--window", window, "-o", str(tmp_path / window)]) == EXIT_OK
        assert ((tmp_path / "151" / "phase_aggregates.csv").read_bytes()
                == (tmp_path / "100000000000000000000" / "phase_aggregates.csv").read_bytes())

    def test_phases_covers_all_three_game_phases(self, tmp_path):
        streams, traj, out = tmp_path / "st", tmp_path / "tr", tmp_path / "out"
        assert main(["synth", "--matches", "1", "--duration", "1900", "--seed", "6",
                     "--regime", "High:8:4", "-o", str(streams)]) == EXIT_OK
        files = sorted(str(p) for p in streams.glob("*.dtl2"))
        assert main(["ingest", *files, "--meta", str(streams / "matches.csv"),
                     "-o", str(traj)]) == EXIT_OK
        assert main(["phases", "--trajectories", str(traj),
                     "--meta", str(streams / "matches.csv"), "-o", str(out)]) == EXIT_OK
        with open(out / "phase_aggregates.csv") as f:
            rows = list(csv.DictReader(f))
        assert {r["phase"] for r in rows} == {"Early", "Mid", "Late"}
        # one match: the winning and losing team each fill one category
        for outcome in ("win", "loss"):
            ts = sorted(int(r["t"]) for r in rows if r["outcome"] == outcome)
            assert ts == list(range(1901))

    def test_anova(self, workspace):
        out = workspace / "anova_out"
        assert main([
            "anova", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"), "-o", str(out),
        ]) == EXIT_OK
        with open(out / "anova.csv") as f:
            rows = list(csv.DictReader(f))
        assert {(r["measure"], r["factor"]) for r in rows} == {
            ("zone_change_rate", "tier"),
            ("zone_change_rate", "outcome"),
            ("team_distance", "tier"),
            ("team_distance", "outcome"),
        }
        doc = json.loads((out / "anova.json").read_text())
        assert len(doc) == 4
        by_key = {(d["measure"], d["factor"]): d for d in doc}
        for r in rows:
            d = by_key[(r["measure"], r["factor"])]
            assert d["df1"] == int(r["df1"]) and d["df2"] == int(r["df2"])
            assert d["p_display"] == r["p"]

    def test_anova_p_value_below_the_floor_is_written_unquoted(self, tmp_path):
        # two copies of each of two matches from far-apart regimes, one tier
        # per source match: the tier F of zone-change rates puts p below 2.2e-16
        batch, meta = _copied_batch(tmp_path, 2, "--duration", "300",
                                    "--regime", "Professional:6:6", "--regime", "Normal:14:2")
        out = tmp_path / "out"
        assert main(["anova", "--trajectories", str(batch), "--meta", str(meta),
                     "-o", str(out)]) == EXIT_OK
        head, *lines = (out / "anova.csv").read_text().splitlines()
        doc = json.loads((out / "anova.json").read_text())
        (d,) = [d for d in doc if (d["measure"], d["factor"]) == ("zone_change_rate", "tier")]
        assert head == "measure,factor,F,df1,df2,p"
        assert d["p"] < 2.2e-16 and d["p_display"] == "< 2.2e-16"
        assert f"zone_change_rate,tier,{d['F']!r},{d['df1']},{d['df2']},< 2.2e-16" in lines

    def test_cluster_and_determinism(self, workspace):
        out1, out2 = workspace / "cl1", workspace / "cl2"
        for out in (out1, out2):
            assert main([
                "cluster", "--trajectories", str(workspace / "traj"),
                "--meta", str(workspace / "streams" / "matches.csv"),
                "--k", "3", "--seed", "7", "-o", str(out),
            ]) == EXIT_OK
        assert (out1 / "clusters.json").read_bytes() == (out2 / "clusters.json").read_bytes()
        assert (out1 / "dissimilarity.csv").read_bytes() == (out2 / "dissimilarity.csv").read_bytes()
        doc = json.loads((out1 / "clusters.json").read_text())
        assert doc["config"] == {
            "k": 3, "r": 1.15, "m": 5, "delay": 1, "seed": 7,
        }
        assert len(doc["ids"]) == 12
        assert len(doc["memberships"]) == 12
        assert all(abs(sum(row) - 1) < 1e-9 for row in doc["memberships"])
        assert -1.0 <= doc["silhouette"]["fuzzy_average"] <= 1.0
        assert sum(c["size"] for c in doc["clusters"]) == 12

    def test_cluster_matrix_csv_holds_the_ids_and_divergences(self, workspace, tmp_path):
        out = tmp_path / "cl"
        assert main([
            "cluster", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"), "-o", str(out),
        ]) == EXIT_OK
        with open(out / "dissimilarity.csv") as f:
            back = read_matrix_csv(f)
        doc = json.loads((out / "clusters.json").read_text())
        ids, series = [], []
        for path in sorted((workspace / "traj").glob("*.csv"), key=lambda p: int(p.stem)):
            with open(path) as f:
                match_id, players, cells = tickstream.read_trajectory_csv(f)
            teams = np.array([team.value for team, _ in players])
            for team in Team:
                ids.append(f"{match_id}:{team}")
                series.append(distance_values(cells[teams == team.value]))
        assert back.ids == tuple(doc["ids"]) == tuple(ids)
        assert np.array_equal(back.values, distance_matrix(series, m=doc["config"]["m"]).values)

    def test_cluster_with_auto_embedding_dimension(self, workspace):
        out = workspace / "cl_auto"
        assert main([
            "cluster", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
            "--m", "auto", "-o", str(out),
        ]) == EXIT_OK
        doc = json.loads((out / "clusters.json").read_text())
        assert 2 <= doc["config"]["m"] <= 7

    def test_cluster_of_players_who_never_move_is_one_cluster(self, tmp_path, capsys):
        # every team distance series is constant, so every pair of series is
        # at divergence 0 and FANNY puts every crisp label in one cluster
        streams, traj, out = tmp_path / "streams", tmp_path / "traj", tmp_path / "out"
        meta = str(streams / "matches.csv")
        assert main(["synth", "--matches", "1", "--duration", "60", "--seed", "3",
                     "-o", str(streams)]) == EXIT_OK
        files = sorted(str(p) for p in streams.glob("*.dtl2"))
        assert main(["ingest", *files, "--meta", meta, "-o", str(traj)]) == EXIT_OK
        for path in traj.glob("*.csv"):
            header, *rows = path.read_text().splitlines()
            first = {}
            for i, row in enumerate(rows):
                fields = row.split(",")
                fields[4:] = first.setdefault(fields[2], fields[4:])
                rows[i] = ",".join(fields)
            path.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert main([
            "cluster", "--trajectories", str(traj), "--meta", meta, "-o", str(out),
        ]) == EXIT_OK
        assert capsys.readouterr().err == ""
        doc = json.loads((out / "clusters.json").read_text())
        assert len(doc["crisp"]) == 6 and len(set(doc["crisp"])) == 1
        sil = doc["silhouette"]
        assert sil["fuzzy_average"] == 0.0 and sil["pam_average"] == 0.0
        assert sil["fuzzy_widths"] == [0.0] * 6
        assert [c["size"] for c in doc["clusters"]] == [6]

    def test_zones_min_dwell_flag_changes_counts(self, workspace, tmp_path):
        strict, loose = tmp_path / "strict", tmp_path / "loose"
        for out, dwell in ((strict, "30"), (loose, "1")):
            assert main([
                "zones", "--trajectories", str(workspace / "traj"),
                "--meta", str(workspace / "streams" / "matches.csv"),
                "--min-dwell", dwell, "-o", str(out),
            ]) == EXIT_OK

        def total(path):
            with open(path / "zone_changes.csv") as f:
                return sum(int(r["changes"]) for r in csv.DictReader(f))

        assert total(loose) >= total(strict)

    @pytest.mark.parametrize("flags", [[], ["--k", "2"]], ids=["default-k", "k-2"])
    def test_cluster_of_one_match_names_the_series_count(self, workspace, tmp_path, capsys,
                                                         flags):
        one = sorted((workspace / "traj").glob("*.csv"))[0]
        out = tmp_path / "o"
        assert main([
            "cluster", "--trajectories", str(one),
            "--meta", str(workspace / "streams" / "matches.csv"), *flags, "-o", str(out),
        ]) == EXIT_DATA
        assert capsys.readouterr().err == (
            "teamtrace: error: fanny needs at least 3 series to cluster, got 2\n")
        assert not out.exists()

    def test_cluster_k_one_is_usage_error(self, workspace):
        assert main([
            "cluster", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
            "--k", "1", "-o", str(workspace / "clbad"),
        ]) == EXIT_USAGE

    @pytest.mark.parametrize("flags,message", [
        (["--r", "nan"],
         "teamtrace cluster: error: argument --r: must be finite and above 1, got nan"),
        (["--r", "inf"],
         "teamtrace cluster: error: argument --r: must be finite and above 1, got inf"),
        (["--delay", "0"],
         "teamtrace cluster: error: argument --delay: must be at least 1, got 0"),
        (["--m", "1"], "teamtrace cluster: error: argument --m: must be at least 2, got 1"),
        (["--m", "8"], "teamtrace cluster: error: argument --m: must be at most 7, got 8"),
        # clustering reads no dwell time, so the top-level parser refuses the flag
        (["--min-dwell", "0"], "teamtrace: error: unrecognized arguments: --min-dwell 0"),
        (["--seed", "-1"],
         "teamtrace cluster: error: argument --seed: must be at least 0, got -1"),
    ], ids=["nan-r", "inf-r", "zero-delay", "m-one", "m-eight", "zero-min-dwell",
            "negative-seed"])
    def test_bad_cluster_flag_is_one_line_usage_error(self, workspace, tmp_path, capsys,
                                                       flags, message):
        out = tmp_path / "o"
        assert main([
            "cluster", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"), *flags, "-o", str(out),
        ]) == EXIT_USAGE
        assert capsys.readouterr().err == f"{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["zones", "--min-dwell", "0"], "argument --min-dwell: must be at least 1, got 0"),
        (["anova", "--min-dwell", "0"], "argument --min-dwell: must be at least 1, got 0"),
        (["zonemap-draft", "--provisional", "nowhere"],
         "argument --provisional: unknown zone name: 'nowhere'"),
        (["zonemap-draft", "--provisional", "void"],
         "argument --provisional: provisional zone must be non-void"),
        (["heatmap", "--start", "-5"], "argument --start: must be at least 0, got -5"),
        (["heatmap", "--end", "-1"], "argument --end: must be at least 0, got -1"),
    ], ids=["zones-zero-min-dwell", "anova-zero-min-dwell", "unknown-provisional",
            "void-provisional", "heatmap-negative-start", "heatmap-negative-end"])
    def test_bad_zone_flag_is_one_line_usage_error(self, workspace, tmp_path, capsys,
                                                   argv, message):
        command, *flags = argv
        meta = ["--meta", str(workspace / "streams" / "matches.csv")]
        if command in ("zonemap-draft", "heatmap"):
            meta = []
        out = tmp_path / "o"
        assert main([
            command, "--trajectories", str(workspace / "traj"), *meta, *flags, "-o", str(out),
        ]) == EXIT_USAGE
        assert capsys.readouterr().err == f"teamtrace {command}: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--m", "7"], "series of length 6 too short for m=7, delay=1 (needs >= 7)"),
        (["--r", "1e308"], "membership exponent r=1e+308 too large: all cluster mass underflows"),
    ], ids=["7-series-too-short", "r-1e308-underflows"])
    def test_cluster_embedding_too_large_is_one_line_data_error(
        self, tmp_path, capsys, flags, message
    ):
        streams, traj = tmp_path / "streams", tmp_path / "traj"
        meta = str(streams / "matches.csv")
        assert main([
            "synth", "--matches", "1", "--duration", "5", "--seed", "3", "-o", str(streams),
        ]) == EXIT_OK
        files = sorted(str(p) for p in streams.glob("*.dtl2"))
        assert main(["ingest", *files, "--meta", meta, "-o", str(traj)]) == EXIT_OK
        capsys.readouterr()
        assert main([
            "cluster", "--trajectories", str(traj), "--meta", meta,
            *flags, "-o", str(tmp_path / "cl"),
        ]) == EXIT_DATA
        assert capsys.readouterr().err == f"teamtrace: error: {message}\n"

    def test_heatmap_conservation(self, workspace):
        out = workspace / "heat_out"
        assert main([
            "heatmap", "--trajectories", str(workspace / "traj"), "-o", str(out),
        ]) == EXIT_OK
        grid = np.loadtxt(out / "heatmap.csv", delimiter=",", dtype=np.int64)
        assert grid.shape == (128, 128)
        assert grid.sum() == 6 * 10 * 151
        ppm = (out / "heatmap.ppm").read_bytes()
        assert ppm.startswith(b"P6\n128 128\n255\n")
        assert len(ppm) == 15 + 128 * 128 * 3

    def test_heatmap_time_bounds(self, workspace, tmp_path):
        out = tmp_path / "heat_window"
        assert main([
            "heatmap", "--trajectories", str(workspace / "traj"),
            "--start", "10", "--end", "19", "-o", str(out),
        ]) == EXIT_OK
        grid = np.loadtxt(out / "heatmap.csv", delimiter=",", dtype=np.int64)
        assert grid.sum() == 6 * 10 * 10  # matches x players x window seconds

    @pytest.mark.parametrize("window", [
        ["--start", "-5"], ["--start", "-10", "--end", "-5"], ["--start", "10", "--end", "5"],
    ])
    def test_heatmap_negative_window_is_usage_error(self, workspace, tmp_path, capsys, window):
        assert main([
            "heatmap", "--trajectories", str(workspace / "traj"), *window, "-o", str(tmp_path),
        ]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error: " in err

    @pytest.mark.parametrize("command", ["distance", "heatmap", "zonemap-draft"])
    @pytest.mark.parametrize("x", ["128", "-1"])
    def test_cell_off_the_grid_is_data_error(self, tmp_path, capsys, command, x):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"match_id,team,player_id,t,x,y\n1,Radiant,100,0,{x},5\n")
        assert main([command, "--trajectories", str(bad), "-o", str(tmp_path)]) == EXIT_DATA
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["heatmap", "zonemap-draft"])
    def test_ragged_trajectory_is_data_error(self, workspace, tmp_path, capsys, command):
        lines = (workspace / "traj" / "1.csv").read_text().splitlines(keepends=True)
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("".join(lines[:-1]))  # last player loses its final second
        assert main([command, "--trajectories", str(ragged), "-o", str(tmp_path)]) == EXIT_DATA
        assert "different track lengths" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["zones", "distance", "heatmap", "zonemap-draft"])
    def test_lineup_short_of_ten_is_data_error(self, workspace, tmp_path, capsys, command):
        lines = (workspace / "traj" / "1.csv").read_text().splitlines(keepends=True)
        nine = tmp_path / "nine.csv"
        nine.write_text("".join(lines[: 1 + 9 * 151]))
        meta = ["--meta", str(workspace / "streams" / "matches.csv")] if command == "zones" else []
        assert main([
            command, "--trajectories", str(nine), *meta, "-o", str(tmp_path),
        ]) == EXIT_DATA
        assert "10 players" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "zones", "distance", "phases", "anova", "cluster", "heatmap", "zonemap-draft",
    ])
    def test_match_in_two_files_is_one_line_data_error(self, workspace, tmp_path, capsys,
                                                       command):
        traj = tmp_path / "traj"
        shutil.copytree(workspace / "traj", traj)
        (traj / "1_copy.csv").write_bytes((traj / "1.csv").read_bytes())
        meta = [] if command in ("distance", "heatmap", "zonemap-draft") else [
            "--meta", str(workspace / "streams" / "matches.csv")]
        out = tmp_path / "out"
        assert main([command, "--trajectories", str(traj), *meta, "-o", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(traj / "1.csv") in err and str(traj / "1_copy.csv") in err
        assert not out.exists()

    def test_heatmap_empty_input_is_data_error(self, workspace, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["heatmap", "--trajectories", str(empty), "-o", str(tmp_path)]) == EXIT_DATA
        capsys.readouterr()
        # a window that starts after every match (150 s) ends holds no position
        assert main([
            "heatmap", "--trajectories", str(workspace / "traj"), "--start", "1000",
            "-o", str(tmp_path),
        ]) == EXIT_DATA
        assert capsys.readouterr().err == "teamtrace: error: no positions to map\n"

    def test_zonemap_draft(self, workspace):
        out = workspace / "draft_out"
        assert main([
            "zonemap-draft", "--trajectories", str(workspace / "traj"), "-o", str(out),
        ]) == EXIT_OK
        zm = load_zone_map((out / "draft_map.ppm").read_bytes(), DEFAULT_LEGEND)
        codes = set(np.unique(zm.codes).tolist())
        assert len(codes) == 2  # provisional zone + void


# Runs one command in a fresh interpreter, as the console script does, and
# writes the names of the modules it loaded to the file named first.
_LOADED_MODULES = (
    "import sys\n"
    "from teamtrace.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "open(sys.argv[1], 'w').write('\\n'.join(sys.modules))\n"
    "sys.exit(code)\n"
)
_CLUSTERING_AND_STATS = {"teamtrace.pdclust", "teamtrace.stats"}
_NOT_FOR_GRID_COMMANDS = _CLUSTERING_AND_STATS | {"teamtrace.synth", "concurrent.futures.process"}
# a plain np.unique imports numpy.ma (about 12 ms on numpy 2.4)
_NOT_FOR_CLUSTER = {"teamtrace.synth", "numpy.ma"}


class TestStartup:
    @pytest.mark.parametrize("argv,loaded,absent", [
        ("--help", "teamtrace.cli", _NOT_FOR_GRID_COMMANDS),
        ("heatmap --trajectories {traj} -o {out}", "teamtrace.tickstream", _NOT_FOR_GRID_COMMANDS),
        ("zones --trajectories {traj} --meta {meta} -o {out}", "teamtrace.measures",
         _NOT_FOR_GRID_COMMANDS),
        ("cluster --trajectories {traj} --meta {meta} -o {out}", "teamtrace.pdclust",
         _NOT_FOR_CLUSTER),
    ])
    def test_command_imports_only_the_layers_it_runs(
        self, workspace, tmp_path, argv, loaded, absent
    ):
        paths = {"traj": workspace / "traj", "meta": workspace / "streams" / "matches.csv",
                 "out": tmp_path / "out"}
        argv = [arg.format(**paths) for arg in argv.split()]
        listing = tmp_path / "modules.txt"
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_MODULES, str(listing), *argv],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        modules = set(listing.read_text().splitlines())
        assert loaded in modules
        assert sorted(modules & absent) == []

    def test_reader_parses_each_run_of_team_spellings_once(self, workspace, tmp_path,
                                                           monkeypatch):
        lines = (workspace / "traj" / "1.csv").read_text().splitlines(keepends=True)
        blocks = [lines[1 + 151 * i : 1 + 151 * (i + 1)] for i in range(10)]
        alternating = tmp_path / "alternating.csv"  # one block per player, sides alternating
        alternating.write_text("".join(lines[:1] + [row for i in (0, 5, 1, 6, 2, 7, 3, 8, 4, 9)
                                                    for row in blocks[i]]))
        parse, calls = Team.parse, []
        monkeypatch.setattr(Team, "parse", lambda text: calls.append(text) or parse(text))
        with open(alternating) as f:
            _, players, _ = tickstream.read_trajectory_csv(f)
        assert calls == ["Radiant", "Dire"] * 5
        assert [team for team, _ in players] == [Team.RADIANT, Team.DIRE] * 5


_PEAK_AFTER_CLUSTER_IMPORTS = (
    "import teamtrace.cli, teamtrace.measures, teamtrace.pdclust, teamtrace.tickstream\n"
    "print([l.split()[1] for l in open('/proc/self/status') if l.startswith('VmPeak:')][0])\n"
)
_RUN_CLI = "import sys\nfrom teamtrace.cli import main\nsys.exit(main())\n"


class TestOutOfMemory:
    def test_cluster_allocation_failure_is_one_line_data_error(self, tmp_path):
        # 420 series of 21 s: loading them fits in 8 MiB over the imports, the
        # 420 x 7! root frequencies (17 MB) do not
        batch, meta = _copied_batch(tmp_path, 70, "--duration", "20")
        env = _src_env()
        probe = subprocess.run([sys.executable, "-c", _PEAK_AFTER_CLUSTER_IMPORTS], env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        cap = (int(probe.stdout) << 10) + (8 << 20)
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_CLI, "cluster", "--trajectories", str(batch),
             "--meta", str(meta), "--m", "7", "-o", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert (proc.returncode, proc.stderr) == (
            EXIT_DATA, "teamtrace: error: cluster ran out of memory\n")


class TestConfigFile:
    def test_config_supplies_defaults(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=4\nseed=9\n# comment\n")
        out = tmp_path / "out"
        assert main([
            "cluster", "--config", str(cfg),
            "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"), "-o", str(out),
        ]) == EXIT_OK
        doc = json.loads((out / "clusters.json").read_text())
        assert doc["config"]["k"] == 4
        assert doc["config"]["seed"] == 9

    def test_explicit_flag_beats_config(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=4\n")
        out = tmp_path / "out"
        assert main([
            "cluster", "--config", str(cfg), "--k", "2",
            "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"), "-o", str(out),
        ]) == EXIT_OK
        doc = json.loads((out / "clusters.json").read_text())
        assert doc["config"]["k"] == 2

    def test_config_values_are_type_converted(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("start=10\nend=19\n")
        out = tmp_path / "out"
        assert main([
            "heatmap", "--config", str(cfg), "--trajectories", str(workspace / "traj"),
            "-o", str(out),
        ]) == EXIT_OK
        grid = np.loadtxt(out / "heatmap.csv", delimiter=",", dtype=np.int64)
        assert grid.sum() == 6 * 10 * 10

    def test_bad_config_value_is_usage_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=abc\n")
        assert main([
            "cluster", "--config", str(cfg), "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"), "-o", str(tmp_path),
        ]) == EXIT_USAGE
        assert "abc" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window=30\n")  # a phases option, not a distance one
        assert main([
            "distance", "--config", str(cfg), "--trajectories", str(workspace / "traj"),
            "-o", str(tmp_path),
        ]) == EXIT_USAGE
        assert "window" in capsys.readouterr().err

    def test_config_not_utf8_is_one_line_usage_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k=4\n\xff\n")
        assert main([
            "distance", "--config", str(cfg), "--trajectories", str(workspace / "traj"),
            "-o", str(tmp_path),
        ]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"teamtrace: error: cannot read config file {cfg}: 'utf-8' codec")
        assert err.count("\n") == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["zones"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_config_file(self, workspace, capsys):
        assert main([
            "cluster", "--config", "/nonexistent.cfg",
            "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
        ]) == EXIT_USAGE
        capsys.readouterr()
        traj = str(workspace / "traj")
        assert main(["heatmap", "--trajectories", traj, "--config"]) == EXIT_USAGE
        assert capsys.readouterr().err == "teamtrace: error: --config needs a file argument\n"


class TestCustomMap:
    def test_zones_with_explicit_map_files(self, workspace, tmp_path):
        from teamtrace.defaultmap import default_zone_map
        from teamtrace.zonemap import render_zone_map

        ppm = tmp_path / "map.ppm"
        legend = tmp_path / "legend.txt"
        ppm.write_bytes(render_zone_map(default_zone_map()))
        legend.write_text(DEFAULT_LEGEND_TEXT)
        out = tmp_path / "out"
        assert main([
            "zones", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
            "--map", str(ppm), "--legend", str(legend), "-o", str(out),
        ]) == EXIT_OK
        reference = workspace / "zones_out" / "zone_changes.csv"
        if reference.exists():
            assert (out / "zone_changes.csv").read_bytes() == reference.read_bytes()

    def test_missing_map_file_is_one_line_data_error(self, workspace, tmp_path, capsys):
        legend = tmp_path / "legend.txt"
        legend.write_text(DEFAULT_LEGEND_TEXT)
        missing = tmp_path / "missing.ppm"
        assert main([
            "zones", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
            "--map", str(missing), "--legend", str(legend), "-o", str(tmp_path / "out"),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("teamtrace: error: ") and err.count("\n") == 1
        assert str(missing) in err

    @pytest.mark.parametrize("text, message", [
        (DEFAULT_LEGEND_TEXT.encode() + b"9 9 9 fountain\n",
         "legend line 12: unknown zone name: 'fountain'"),
        (b"\xff\n" + DEFAULT_LEGEND_TEXT.encode(),
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["unknown-zone", "not-utf8"])
    @pytest.mark.parametrize("command", ["zones", "zonemap-draft"])
    def test_legend_error_names_file_and_line(self, workspace, tmp_path, capsys, command, text,
                                              message):
        legend = tmp_path / "legend.txt"
        legend.write_bytes(text)
        argv = [command, "--trajectories", str(workspace / "traj"), "--legend", str(legend)]
        if command == "zones":
            ppm = tmp_path / "map.ppm"
            ppm.write_bytes(render_zone_map(default_zone_map()))
            argv += ["--meta", str(workspace / "streams" / "matches.csv"), "--map", str(ppm)]
        assert main(argv + ["-o", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == f"teamtrace: error: {legend}: {message}\n"

    def test_pixmap_error_names_the_map_file(self, tmp_path, capsys):
        legend = tmp_path / "legend.txt"
        legend.write_text(DEFAULT_LEGEND_TEXT)
        ppm = tmp_path / "map.ppm"
        ppm.write_bytes(b"P5\n1 1\n255\n\x00")
        assert main([
            "synth", "--map", str(ppm), "--legend", str(legend), "-o", str(tmp_path / "out"),
        ]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"teamtrace: error: {ppm}: not a P3/P6 pixmap (magic b'P5')\n")

    def test_map_without_legend_is_usage_error(self, workspace, tmp_path):
        assert main([
            "zones", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
            "--map", str(tmp_path / "x.ppm"), "-o", str(tmp_path),
        ]) == EXIT_USAGE
