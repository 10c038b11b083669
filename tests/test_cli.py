import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teamtrace
from teamtrace import tickstream
from teamtrace.cli import EXIT_DATA, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, _pool_map, main
from genstreams import make_header
from teamtrace.defaultmap import DEFAULT_LEGEND_TEXT
from teamtrace.synth import read_metadata_csv
from teamtrace.zonemap import load_zone_map


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
        for argv, code, err in [
            ([huge], EXIT_DATA, f"error: {huge}: duration 281470681678 {limit}\n"),
            ([huge, good], EXIT_PARTIAL, f"error: {huge}: duration 281470681678 {limit}\n"),
            ([good, "--meta", meta], EXIT_DATA, f"error: {good}: duration 1000000000000 {limit}\n"),
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
            f"teamtrace: error: --duration {duration} exceeds the 86400 s limit\n"
        )
        assert not out.exists()

    def test_ingest_scans_each_stream_once(self, workspace, tmp_path, monkeypatch):
        files = sorted(str(p) for p in (workspace / "streams").glob("*.dtl2"))
        scan, calls = tickstream._scan, []
        monkeypatch.setattr(tickstream, "_scan", lambda data: calls.append(data) or scan(data))
        monkeypatch.setenv("TEAMTRACE_WORKERS", "1")
        for meta in ([], ["--meta", str(workspace / "streams" / "matches.csv")]):
            calls.clear()
            assert main(["ingest", *files, *meta, "-o", str(tmp_path / "o")]) == EXIT_OK
            assert len(calls) == len(files)

    def test_all_failures(self, tmp_path):
        bad = tmp_path / "junk.dtl2"
        bad.write_bytes(b"\x00" * 40)
        assert main(["ingest", str(bad), "-o", str(tmp_path / "o")]) == EXIT_DATA

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
    ], ids=["negative-seed", "nan-sigma", "zero-matches", "zero-duration", "negative-first-id",
            "huge-sigma", "huge-matches"])
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

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["synth", "--matches", "2", "--duration", "60", "--seed", "4",
                     "-o", str(serial)]) == EXIT_OK
        monkeypatch.setenv("TEAMTRACE_WORKERS", "2")
        assert main(["synth", "--matches", "2", "--duration", "60", "--seed", "4",
                     "-o", str(parallel)]) == EXIT_OK
        for p in sorted(serial.iterdir()):
            assert p.read_bytes() == (parallel / p.name).read_bytes()

        streams = sorted(str(p) for p in serial.glob("*.dtl2"))
        t_serial, t_parallel = tmp_path / "ts", tmp_path / "tp"
        monkeypatch.delenv("TEAMTRACE_WORKERS")
        assert main(["ingest", *streams, "--meta", str(serial / "matches.csv"),
                     "-o", str(t_serial)]) == EXIT_OK
        monkeypatch.setenv("TEAMTRACE_WORKERS", "3")
        assert main(["ingest", *streams, "--meta", str(serial / "matches.csv"),
                     "-o", str(t_parallel)]) == EXIT_OK
        for p in sorted(t_serial.iterdir()):
            assert p.read_bytes() == (t_parallel / p.name).read_bytes()

    @pytest.mark.parametrize("workers, items, started", [(64, 2, 2), (3, 10, 3), (2, 2, 2)])
    def test_pool_never_starts_more_workers_than_items(self, monkeypatch, workers, items,
                                                      started):
        import concurrent.futures

        asked = []

        class RecordingPool:  # stands in for the pool and starts no process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert _pool_map(abs, list(range(-items, 0)), workers) == list(range(items, 0, -1))
        assert asked == [started]

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
            "k": 3, "r": 1.15, "m": 5, "delay": 1, "seed": 7, "min_dwell_s": 5,
        }
        assert len(doc["ids"]) == 12
        assert len(doc["memberships"]) == 12
        assert all(abs(sum(row) - 1) < 1e-9 for row in doc["memberships"])
        assert -1.0 <= doc["silhouette"]["fuzzy_average"] <= 1.0
        assert sum(c["size"] for c in doc["clusters"]) == 12

    def test_cluster_with_auto_embedding_dimension(self, workspace):
        out = workspace / "cl_auto"
        assert main([
            "cluster", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
            "--m", "auto", "-o", str(out),
        ]) == EXIT_OK
        doc = json.loads((out / "clusters.json").read_text())
        assert 2 <= doc["config"]["m"] <= 7

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

    def test_cluster_k_one_is_usage_error(self, workspace):
        assert main([
            "cluster", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
            "--k", "1", "-o", str(workspace / "clbad"),
        ]) == EXIT_USAGE

    @pytest.mark.parametrize("flags,message", [
        (["--r", "nan"], "argument --r: must be finite and above 1, got nan"),
        (["--r", "inf"], "argument --r: must be finite and above 1, got inf"),
        (["--delay", "0"], "argument --delay: must be at least 1, got 0"),
        (["--m", "1"], "argument --m: must be at least 2, got 1"),
        (["--min-dwell", "0"], "argument --min-dwell: must be at least 1, got 0"),
        (["--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    ], ids=["nan-r", "inf-r", "zero-delay", "m-one", "zero-min-dwell", "negative-seed"])
    def test_bad_cluster_flag_is_one_line_usage_error(self, workspace, tmp_path, capsys,
                                                       flags, message):
        out = tmp_path / "o"
        assert main([
            "cluster", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"), *flags, "-o", str(out),
        ]) == EXIT_USAGE
        assert capsys.readouterr().err == f"teamtrace cluster: error: {message}\n"
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
        (["--m", "8"], "embedding dimension m must be in [2,7]"),
        (["--r", "1e308"], "membership exponent r=1e+308 too large: all cluster mass underflows"),
    ], ids=["7-series-too-short", "8-embedding-dimension-out-of-range", "r-1e308-underflows"])
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

    @pytest.mark.parametrize("window", [["--start", "-5"], ["--start", "-10", "--end", "-5"]])
    def test_heatmap_negative_window_is_usage_error(self, workspace, tmp_path, window):
        assert main([
            "heatmap", "--trajectories", str(workspace / "traj"), *window, "-o", str(tmp_path),
        ]) == EXIT_USAGE

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

    def test_lineup_short_of_ten_is_data_error(self, workspace, tmp_path, capsys):
        lines = (workspace / "traj" / "1.csv").read_text().splitlines(keepends=True)
        nine = tmp_path / "nine.csv"
        nine.write_text("".join(lines[: 1 + 9 * 151]))
        assert main([
            "zones", "--trajectories", str(nine),
            "--meta", str(workspace / "streams" / "matches.csv"), "-o", str(tmp_path),
        ]) == EXIT_DATA
        assert "10 players" in capsys.readouterr().err

    def test_heatmap_empty_input_is_data_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["heatmap", "--trajectories", str(empty), "-o", str(tmp_path)]) == EXIT_DATA

    def test_zonemap_draft(self, workspace):
        out = workspace / "draft_out"
        assert main([
            "zonemap-draft", "--trajectories", str(workspace / "traj"), "-o", str(out),
        ]) == EXIT_OK
        zm = load_zone_map((out / "draft_map.ppm").read_bytes(), DEFAULT_LEGEND_TEXT)
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


class TestStartup:
    @pytest.mark.parametrize("argv,loaded,absent", [
        ("--help", "teamtrace.cli", _NOT_FOR_GRID_COMMANDS),
        ("heatmap --trajectories {traj} -o {out}", "teamtrace.tickstream", _NOT_FOR_GRID_COMMANDS),
        ("zones --trajectories {traj} --meta {meta} -o {out}", "teamtrace.measures",
         _CLUSTERING_AND_STATS),
    ])
    def test_command_imports_only_the_layers_it_runs(
        self, workspace, tmp_path, argv, loaded, absent
    ):
        paths = {"traj": workspace / "traj", "meta": workspace / "streams" / "matches.csv",
                 "out": tmp_path / "out"}
        argv = [arg.format(**paths) for arg in argv.split()]
        src = str(Path(teamtrace.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        listing = tmp_path / "modules.txt"
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_MODULES, str(listing), *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        modules = set(listing.read_text().splitlines())
        assert loaded in modules
        assert sorted(modules & absent) == []


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

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["zones"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_config_file(self, workspace):
        assert main([
            "cluster", "--config", "/nonexistent.cfg",
            "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
        ]) == EXIT_USAGE


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

    def test_map_without_legend_is_usage_error(self, workspace, tmp_path):
        assert main([
            "zones", "--trajectories", str(workspace / "traj"),
            "--meta", str(workspace / "streams" / "matches.csv"),
            "--map", str(tmp_path / "x.ppm"), "-o", str(tmp_path),
        ]) == EXIT_USAGE
