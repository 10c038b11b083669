"""Every subcommand, fed random flags, config files and truncated or mutated
inputs, ends in a documented exit code (0 ok, 1 usage, 2 data, 3 partial)
with no traceback and no warning, and a usage or data error is one line."""
import contextlib
import io
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from teamtrace import tickstream
from teamtrace.cli import main
from teamtrace.defaultmap import DEFAULT_LEGEND_TEXT, default_zone_map
from teamtrace.zonemap import render_zone_map

INTS = st.sampled_from(["-1", "0", "1", "2", "3", "5", "12", "x", "1.5", ""])
VALUES = {
    "min-dwell": INTS,
    "window": INTS,
    "k": INTS,
    "r": st.sampled_from(["1", "1.0001", "1.15", "2", "1e308", "nan", "-inf", "y"]),
    "m": st.sampled_from(["auto", "1", "2", "3", "7", "8", "z"]),
    "delay": INTS,
    "seed": INTS,
    "start": INTS,
    "end": INTS,
    "matches": st.sampled_from(["-1", "0", "1", "2", "x"]),
    "duration": st.sampled_from(["-3", "0", "1", "4", "20", "1e3", "abc"]),
    "first-id": st.sampled_from(["-1", "0", "7", str(2**64 - 2), str(2**64), "id"]),
    "regime": st.sampled_from(["High:5:3", "Normal:0:1", "High:-1:3", "Pro:1:1", "High:1:99",
                               "Normal:1e9:1", "a:b", "High:nan:2"]),
    "provisional": st.sampled_from(["jungle", "river", "void", "nowhere", ""]),
}
FLAGS = {
    "ingest": [],
    "zones": ["min-dwell"],
    "distance": [],
    "phases": ["window"],
    "anova": ["min-dwell"],
    "cluster": ["k", "r", "m", "delay", "seed", "min-dwell"],
    "heatmap": ["start", "end"],
    "synth": ["matches", "duration", "seed", "first-id", "regime"],
    "zonemap-draft": ["provisional"],
}
# the files each command reads; "streams" is ingest's positional argument
INPUTS = {
    "ingest": ["streams", "meta"],
    "zones": ["trajectories", "meta", "map"],
    "distance": ["trajectories"],
    "phases": ["trajectories", "meta"],
    "anova": ["trajectories", "meta", "map"],
    "cluster": ["trajectories", "meta"],
    "heatmap": ["trajectories"],
    "synth": ["map"],
    "zonemap-draft": ["trajectories", "legend"],
}


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """Three 12 s matches: streams, metadata, trajectories, a map and legend."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--matches", "1", "--duration", "12", "--seed", "4",
                 "-o", str(root / "streams")]) == 0
    streams = sorted((root / "streams").glob("*.dtl2"))
    assert main(["ingest", *map(str, streams), "--meta", str(root / "streams" / "matches.csv"),
                 "-o", str(root / "traj")]) == 0
    (root / "map.ppm").write_bytes(render_zone_map(default_zone_map()))
    (root / "legend.txt").write_text(DEFAULT_LEGEND_TEXT)
    return root


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` as is, cut short, with bytes overwritten, or with a tail added."""
    kind = draw(st.sampled_from(["same", "cut", "flip", "tail"]))
    if kind == "cut":
        return data[: draw(st.integers(0, len(data)))]
    if kind == "tail":
        return data + draw(st.binary(min_size=1, max_size=12))
    buf = bytearray(data)
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 255))
    return bytes(buf)


@st.composite
def pixmaps(draw, valid: bytes) -> bytes:
    """Mutations of a valid map, or a short pixmap whose header numbers
    may be signed (the P6 "-1 -3" header with 9 bytes among them)."""
    if draw(st.booleans()):
        return draw(mutated(valid))
    magic = draw(st.sampled_from(["P6", "P3", "P5"]))
    w, h = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    maxval = draw(st.sampled_from(["255", "+255", "254"]))
    samples = draw(st.integers(0, 60))
    body = bytes(samples) if magic != "P3" else b"0 " * samples
    return f"{magic}\n{w} {h}\n{maxval}\n".encode() + body


@st.composite
def legends(draw, valid: str) -> str:
    lines = valid.splitlines()
    kind = draw(st.sampled_from(["same", "drop", "edit", "bytes"]))
    if kind == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif kind == "edit":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(["-5 0 0 void", "300 0 0 void", "x y z void", "1 2 3",
                                         "9 9 9 fountain", "0 0 0 river", lines[0]]))
    elif kind == "bytes":
        return draw(mutated(valid.encode())).decode("latin-1")
    return "\n".join(lines) + "\n"


@st.composite
def configs(draw, command: str) -> str:
    keys = FLAGS[command] + ["bogus"]
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(keys))
        value = draw(VALUES[key]) if key in VALUES else "1"
        lines.append(draw(st.sampled_from([f"{key}={value}", f"{key} = {value}  # note",
                                           key, "# comment", ""])))
    return "\n".join(lines) + "\n"


def invocation(batch: Path, root: Path, data):
    """argv for one random command, its input files written under ``root``."""
    command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
    inputs = INPUTS[command]
    argv = [command]
    if "streams" in inputs:
        good = sorted((batch / "streams").glob("*.dtl2"))
        stream = data.draw(mutated(good[0].read_bytes()), label="stream")
        try:  # a flipped tick can stretch the match to a day of seconds
            assume(tickstream.stream_summary(stream)[1] <= 60)
        except ValueError:
            pass
        (root / "s.dtl2").write_bytes(stream)
        argv += [str(root / "s.dtl2")] + [str(p) for p in good[1:data.draw(st.integers(1, 3))]]
    if "trajectories" in inputs:
        traj = root / "traj"
        shutil.copytree(batch / "traj", traj)
        victim = data.draw(st.sampled_from(sorted(traj.glob("*.csv"))), label="trajectory")
        victim.write_bytes(data.draw(mutated(victim.read_bytes()), label="csv"))
        argv += ["--trajectories", str(traj)]
    if "meta" in inputs and (command != "ingest" or data.draw(st.booleans())):
        meta = (batch / "streams" / "matches.csv").read_bytes()
        (root / "matches.csv").write_bytes(data.draw(mutated(meta), label="meta"))
        argv += ["--meta", str(root / "matches.csv")]
    if "map" in inputs and data.draw(st.booleans(), label="custom map"):
        pixmap = data.draw(pixmaps((batch / "map.ppm").read_bytes()), label="pixmap")
        (root / "map.ppm").write_bytes(pixmap)
        argv += ["--map", str(root / "map.ppm")]
        inputs = inputs + ["legend"]
    if "legend" in inputs and data.draw(st.booleans(), label="legend given"):
        legend = data.draw(legends(DEFAULT_LEGEND_TEXT), label="legend")
        (root / "legend.txt").write_text(legend, encoding="latin-1")
        argv += ["--legend", str(root / "legend.txt")]
    for flag in data.draw(st.lists(st.sampled_from(FLAGS[command]), max_size=3) if FLAGS[command]
                          else st.just([]), label="flags"):
        argv += [f"--{flag}", data.draw(VALUES[flag], label=flag)]
    if data.draw(st.booleans(), label="config"):
        (root / "run.cfg").write_text(data.draw(configs(command), label="config text"))
        argv += ["--config", str(root / "run.cfg")]
    return argv + ["-o", str(root / "out")]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_input_ends_in_a_documented_exit(batch, data):
    with tempfile.TemporaryDirectory(dir=batch) as tmp:
        argv = invocation(batch, Path(tmp), data)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv)
    err = err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code in (1, 2):
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
