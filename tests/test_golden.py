"""Golden digests: every file the CLI writes on a small fixed batch must
match the committed sha256 manifest byte for byte.

Two stage lists share the manifest: the long batch runs each command with
its default settings, and the wide batch sets every option the parser
accepts, through a P6 and a P3 copy of one zone map, a custom legend and a
config file.

A change that alters an output on purpose regenerates the manifest with
``PYTHONPATH=src python tests/test_golden.py > tests/golden.sha256`` and
says why.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from teamtrace.cli import EXIT_OK, build_parser, main
from teamtrace.defaultmap import DEFAULT_LEGEND, default_zone_map
from teamtrace.zonemap import ZoneMap, render_zone_map

MANIFEST = Path(__file__).with_name("golden.sha256")


def _stages(root: Path):
    streams, traj = root / "streams", root / "traj"
    meta = str(streams / "matches.csv")
    # three matches (one per planted tier), long enough for all three phases
    yield "streams", ["synth", "--matches", "1", "--duration", "1850", "--seed", "7"]
    yield "traj", ["ingest", *sorted(map(str, streams.glob("*.dtl2"))), "--meta", meta]
    labeled = ["--trajectories", str(traj), "--meta", meta]
    yield "zones", ["zones", *labeled]
    yield "distance", ["distance", "--trajectories", str(traj)]
    yield "phases", ["phases", *labeled, "--window", "30"]
    yield "anova", ["anova", *labeled]
    yield "cluster", ["cluster", *labeled]
    yield "heatmap", ["heatmap", "--trajectories", str(traj), "--start", "100", "--end", "1000"]
    yield "zonemap_draft", ["zonemap-draft", "--trajectories", str(traj)]


def _write_inputs(inputs: Path) -> None:
    """The default zones under other colors: a legend listed bottom-up with
    each color's channels rotated, the map as P6 and as commented P3, and a
    cluster config file."""
    inputs.mkdir(parents=True, exist_ok=True)
    legend = {label: (b, r, g) for label, (r, g, b) in DEFAULT_LEGEND.items()}
    (inputs / "legend.txt").write_text("# rotated default colors\n" + "".join(
        f"{r} {g} {b} {label}  # zone\n" for label, (r, g, b) in reversed(legend.items())))
    p6 = render_zone_map(ZoneMap(default_zone_map().codes, legend))
    (inputs / "map_p6.ppm").write_bytes(p6)
    pixels = np.frombuffer(p6, dtype=np.uint8)[-128 * 128 * 3:].reshape(128, -1)
    (inputs / "map_p3.ppm").write_text("P3\n# golden copy\n128 128\n255\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in pixels.tolist()))
    (inputs / "cluster.cfg").write_text("# cluster settings\nk = 3\nm=4\ndelay = 3\nseed=9\nr = 1.6\n")


def _wide_stages(root: Path):
    """Short matches; every option at a non-default value at least once."""
    inputs, wide = root / "inputs", root / "wide"
    streams, traj = wide / "streams", wide / "traj"
    meta = str(streams / "matches.csv")
    legend = ["--legend", str(inputs / "legend.txt")]
    p6 = ["--map", str(inputs / "map_p6.ppm"), *legend]
    p3 = ["--map", str(inputs / "map_p3.ppm"), *legend]
    labeled = ["--trajectories", str(traj), "--meta", meta]
    yield "wide/streams", ["synth", "--matches", "2", "--duration", "240", "--seed", "3",
                           "--first-id", "900", "--regime", "High:8:5",
                           "--regime", "Normal:16:1.5", *p3]
    yield "wide/traj", ["ingest", *sorted(map(str, streams.glob("*.dtl2"))), "--meta", meta]
    yield "wide/zones", ["zones", *labeled, *p6, "--min-dwell", "4"]
    yield "wide/anova", ["anova", *labeled, *p3, "--min-dwell", "2"]
    yield "wide/cluster", ["cluster", *labeled, "--m", "auto", "--k", "2", "--r", "1.3",
                           "--delay", "2", "--seed", "4"]
    yield "wide/cluster_config", ["cluster", *labeled, "--config", str(inputs / "cluster.cfg")]
    yield "wide/zonemap_draft", ["zonemap-draft", "--trajectories", str(traj), *legend,
                                 "--provisional", "river"]


def run_batch(root: Path) -> dict[str, str]:
    """Run every stage into its own directory; map relative path -> sha256
    for every file under ``root`` except the inputs the batch writes first."""
    inputs = root / "inputs"
    _write_inputs(inputs)
    for stages in (_stages, _wide_stages):
        for out, argv in stages(root):
            code = main([*argv, "-o", str(root / out)])
            if code != EXIT_OK:
                raise RuntimeError(f"{argv[0]} exited {code}")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and inputs not in path.parents
    }


def format_manifest(digests: dict[str, str]) -> str:
    return "".join(f"{h}  {name}\n" for name, h in sorted(digests.items()))


def test_cli_outputs_match_golden_manifest(tmp_path):
    got = format_manifest(run_batch(tmp_path))
    assert got == MANIFEST.read_text()


def test_golden_stages_set_every_option_of_the_parser(tmp_path):
    """Each subcommand's options, as the golden stages pass them, are the
    parser's options; one stage also reads its settings from a config file."""
    used = {}
    for stages in (_stages, _wide_stages):
        for _, argv in stages(tmp_path):
            used.setdefault(argv[0], set()).update(a for a in argv if a.startswith("--"))
    assert any("--config" in flags for flags in used.values())
    _, commands = build_parser()
    assert sorted(used) == sorted(commands)
    for name, command in commands.items():
        options = {a.option_strings[-1] for a in command._actions
                   if a.option_strings and a.dest not in ("help", "out")}
        assert used[name] - {"--config"} == options, name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(format_manifest(run_batch(Path(tmp))))
