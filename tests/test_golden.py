"""Golden digests: every file the CLI writes on a small fixed batch must
match the committed sha256 manifest byte for byte.

A change that alters an output on purpose regenerates the manifest with
``PYTHONPATH=src python tests/test_golden.py > tests/golden.sha256`` and
says why.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

from teamtrace.cli import EXIT_OK, main

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


def run_batch(root: Path) -> dict[str, str]:
    """Run every stage into its own directory; map relative path -> sha256."""
    for out, argv in _stages(root):
        code = main([*argv, "-o", str(root / out)])
        if code != EXIT_OK:
            raise RuntimeError(f"{argv[0]} exited {code}")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def format_manifest(digests: dict[str, str]) -> str:
    return "".join(f"{h}  {name}\n" for name, h in sorted(digests.items()))


def test_cli_outputs_match_golden_manifest(tmp_path):
    got = format_manifest(run_batch(tmp_path))
    assert got == MANIFEST.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(format_manifest(run_batch(Path(tmp))))
