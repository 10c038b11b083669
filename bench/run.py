"""teamtrace benchmark: CLI stage times, in-process clustering, layer spans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli_long --seed 1 --seconds 30 --trace 0

Runs one seeded workload as a closed loop from this single process: each
step starts when the previous one ends, with TEAMTRACE_WORKERS=1 and
single-threaded BLAS. Whole passes (synth -> ingest -> every analysis)
repeat until the next one would overrun ``--seconds``; pass k generates
its matches from ``pass_seed(seed, k)``. Each stage reports its median
over passes, and the summed times are sums of those medians. The first
pass's outputs are checked against references decoded here from the
DTL2 bytes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced and one traced pass on the same inputs and prints per-layer
``calls`` / ``self_s``, the layer counts and the tracing overhead. The
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

The program is taken from ``src/`` of the current directory; without it
the benchmark exits 2 and prints no result.
"""
from __future__ import annotations

import os

# One thread everywhere: the benchmark is a single-threaded closed loop.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK = Path(".bench_work")

SETUP_REPEATS = 9
COMMAND_TIMEOUT_S = 150
CLI_ENTRY = "import sys; from teamtrace.cli import main; sys.exit(main())"
LIB_SETUP = (
    "import time; t0 = time.perf_counter(); import teamtrace; "
    "from teamtrace.defaultmap import default_zone_map; default_zone_map(); "
    "print(repr(time.perf_counter() - t0))"
)

# Mirrors the default regimes and per-match seeds of ``teamtrace synth``.
REGIMES = (("Professional", 6.0, 6.0), ("High", 10.0, 4.0), ("Normal", 14.0, 2.0))
CLUSTER_K, CLUSTER_R, CLUSTER_SEED = 3, 1.15, 0


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k. Each pass draws new matches, so a stage median also
    averages over data-dependent costs such as FANNY's sweep count."""
    return seed * 1000 + k


def match_seed(seed: int, regime: int, j: int) -> int:
    return seed * 1_000_003 + regime * 10_000 + j


@dataclass(frozen=True)
class Workload:
    mode: str  # "cli": one subprocess per command; "lib": library calls in-process
    matches: int  # per planted tier
    duration: int  # seconds per match

    @property
    def n_matches(self) -> int:
        return len(REGIMES) * self.matches

    @property
    def player_seconds(self) -> int:
        return self.n_matches * 10 * (self.duration + 1)


# cli_long: few long matches, so per-row layers dominate and all three
#   phases are populated.
# lib_many: in-process library calls with no files, CLI, CSV or GridCell
#   objects; n = 600 series makes pdclust the largest layer.
# Sizes are small enough for several passes per run: a single sample per
# stage spreads by 20-40 % from run to run on a shared host. Two workloads
# leave each run long enough for that within the benchmark's time limit.
WORKLOADS = {
    "cli_long": Workload("cli", 1, 2700),
    "lib_many": Workload("lib", 100, 300),
}

CLI_STAGES = ("synth", "ingest", "zones", "distance", "phases", "anova", "cluster",
              "heatmap", "zonemap_draft")
# Stages after ingest, summed into the end-to-end ``analysis_s`` (lib_many
# has no heatmap or zonemap-draft). One command, or synth plus ingest,
# spreads by more than the largest allowed bound from run to run on a
# shared host; their medians are in the report lines instead.
ANALYSIS_STAGES = CLI_STAGES[2:]

# Layer functions called on every workload: their self time is a per-layer
# metric. The others report calls only (their self time is in the text
# report), since a layer a workload never calls has no time to measure.
SHARED_LAYERS = (
    "synth.generate_match",
    "tickstream.stream_summary",
    "tickstream.tracks_from_stream",
    "measures.stats_from_codes",
    "measures.dwell_filter",
    "measures.distance_values",
    "measures.aggregate_by_category",
    "stats.one_way_anova",
    "pdclust.perm_distribution",
    "pdclust.distance_matrix",
    "pdclust.pam",
    "pdclust.fanny",
    "pdclust.silhouette",
    "pdclust.cluster_report",
    "defaultmap.default_zone_map",
)
CLI_COMMANDS = ("cmd_ingest", "cmd_zones", "cmd_distance", "cmd_phases", "cmd_anova",
                "cmd_cluster", "cmd_heatmap", "cmd_synth", "cmd_zonemap_draft")
LAYER_COUNTS = (
    ("tickstream.stream_bytes", "B"),
    ("tickstream.frames", "count"),
    ("tickstream.updates", "count"),
    ("tickstream.csv_bytes_written", "B"),
    ("tickstream.csv_bytes_read", "B"),
    ("pdclust.series", "count"),
    ("pdclust.fanny.n_iter", "count"),
    ("pdclust.fanny.converged", "count"),
)


def e2e_units() -> dict[str, str]:
    return {"setup_s": "s", "analysis_s": "s", "pipeline_s": "s",
            "player_s_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    from tracer import TARGETS

    units = {f"{name}.self_s": "s" for name in SHARED_LAYERS}
    every = [f"{m}.{f}" for m, fns in TARGETS.items() for f in fns]
    every += [f"cli.{c}" for c in CLI_COMMANDS]
    units.update({f"{name}.calls": "count" for name in every})
    units.update(dict(LAYER_COUNTS))
    units["measures.dwell_kept_ratio"] = "ratio"
    units["tracing_overhead_s"] = "s"
    return units


# ── bookkeeping ───────────────────────────────────────────────────────────


@dataclass
class Ledger:
    """Every attempted operation (command or check) and its outcome."""

    ops: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [op for op in self.ops if not op[1]]


@dataclass
class PassResult:
    times: dict[str, float]
    rss_mb: dict[str, float]
    digest: str
    outputs: object = None  # what the checks need; kept for the first pass only
    dumps: list = field(default_factory=list)  # tracer dumps of a traced pass

    @property
    def pipeline_s(self) -> float:
        return sum(self.times.values())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(SRC.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TEAMTRACE_WORKERS"] = "1"
    return env


@dataclass
class Command:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_command(cmd: list[str], env: dict, log_dir: Path) -> Command:
    """Run one child to completion; wall time from spawn to reap, peak RSS of
    that child alone (``wait4``, not the running max of RUSAGE_CHILDREN)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                   out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def output_digest(root: Path) -> str:
    """sha256 over the relative path and bytes of every file a CLI pass wrote."""
    h = hashlib.sha256()
    for sub in ("streams", "traj", "out"):
        for path in sorted(p for p in (root / sub).rglob("*") if p.is_file()):
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


# ── CLI workloads ─────────────────────────────────────────────────────────


def cli_argv(stage: str, wl: Workload, seed: int, root: Path) -> list[str]:
    streams, traj, out = root / "streams", root / "traj", root / "out"
    meta = str(streams / "matches.csv")
    if stage == "synth":
        return ["synth", "--matches", str(wl.matches), "--duration", str(wl.duration),
                "--seed", str(seed), "-o", str(streams)]
    if stage == "ingest":
        return ["ingest", *sorted(map(str, streams.glob("*.dtl2"))), "--meta", meta, "-o", str(traj)]
    name = stage.replace("_", "-")
    if stage in ("zones", "phases", "anova", "cluster"):
        return [name, "--trajectories", str(traj), "--meta", meta, "-o", str(out)]
    return [name, "--trajectories", str(traj), "-o", str(out)]


def plant_fault(kind: str, stage: str, root: Path) -> None:
    """Corrupt a stream or an output on purpose (self-check only)."""
    if kind == "stream" and stage == "synth":
        first = sorted((root / "streams").glob("*.dtl2"))[0]
        first.write_bytes(first.read_bytes()[:-5])
    elif kind == "output" and stage == "distance":
        path = root / "out" / "distance_series.csv"
        lines = path.read_text().splitlines(keepends=True)
        mid, team, t, _ = lines[1].rstrip("\n").split(",")
        lines[1] = f"{mid},{team},{t},999.0\n"
        path.write_text("".join(lines))


def cli_pass(wl, seed, root, env, ledger, tag, traced=False, fault=None) -> PassResult:
    times, rss, dumps = {}, {}, []
    for stage in CLI_STAGES:
        argv = cli_argv(stage, wl, seed, root)
        if traced:
            spans = root / "spans" / f"{stage}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), f"{tag}/{stage}", "--", *argv]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        res = run_command(cmd, env, root / "logs" / stage)
        times[stage], rss[stage] = res.wall_s, res.rss_mb
        ledger.add(f"{tag} {stage}", res.code == 0 and not res.stderr,
                   f"exit {res.code}; stderr: {res.stderr.strip()[:300]}")
        if traced and spans.is_file():
            dumps.append(json.loads(spans.read_text()))
        if fault:
            plant_fault(fault, stage, root)
    return PassResult(times, rss, output_digest(root), outputs=root, dumps=dumps)


def cli_checks(wl: Workload, root: Path, ledger: Ledger) -> None:
    import checks

    from teamtrace.defaultmap import default_zone_map

    try:
        meta = checks.read_meta(root / "streams" / "matches.csv")
        plan = {i + 1: (REGIMES[i // wl.matches][0], wl.duration) for i in range(wl.n_matches)}
        got = {mid: (tier, dur) for mid, (tier, _, dur) in meta.items()}
        ledger.add("check matches.csv", got == plan, f"{len(meta)} matches")
        streams = {mid: (root / "streams" / f"{mid}.dtl2").read_bytes() for mid in meta}
        expected = checks.Expected(streams, meta, default_zone_map().codes)
    except (OSError, ValueError, KeyError) as e:
        ledger.add("check reference decode", False, f"{type(e).__name__}: {e}")
        return
    for name, ok, detail in checks.check_cli_outputs(root, expected):
        ledger.add(f"check {name}", ok, detail)


# ── library workload ──────────────────────────────────────────────────────


@dataclass
class LibOutputs:
    streams: dict
    meta: dict
    zone_rows: list
    labeled: list
    ids: list
    fuzzy: object
    coded: int  # player-seconds given a zone code


def lib_pass(wl: Workload, seed: int, ledger: Ledger, tag: str, tracer=None, fault=None) -> PassResult:
    """The CLI's jobs as library calls on in-memory arrays. Like ``ingest``,
    a stream the decoder rejects is counted as failed and skipped."""
    from teamtrace import defaultmap, measures, pdclust, stats, synth, tickstream
    from teamtrace.core import Phase, SkillTier, Team

    times: dict[str, float] = {}

    @contextmanager
    def stage(name):
        with tracer.span(f"stage.{name}") if tracer else nullcontext():
            t0 = time.perf_counter()
            yield
            times[name] = time.perf_counter() - t0

    zmap = defaultmap.default_zone_map()
    with stage("synth"):
        streams, meta = {}, {}
        for ri, (tier, sigma, rate) in enumerate(REGIMES):
            params = synth.RegimeParams(sigma, rate, wl.duration)
            for j in range(wl.matches):
                mid = len(streams) + 1
                streams[mid], meta[mid] = synth.generate_match(
                    params, params, zmap, seed=match_seed(seed, ri, j), match_id=mid,
                    tier=SkillTier.parse(tier))
    if fault == "stream":
        streams[1] = streams[1][:-5]
    with stage("ingest"):
        decoded = {}
        for mid, data in streams.items():
            try:
                tickstream.stream_summary(data)
                decoded[mid] = tickstream.tracks_from_stream(data, meta[mid].duration_s)
            except ValueError as e:
                ledger.add(f"{tag} ingest {mid}", False, str(e))
    with stage("zones"):
        zone_rows, coded = [], 0
        for mid, (header, cells) in decoded.items():
            m = meta[mid]
            codes = measures.zone_codes(cells, zmap)
            coded += codes.size
            for slot, row in zip(header.players, codes):
                st = measures.stats_from_codes(slot.player_id, row)
                zone_rows.append((mid, st.player_id, slot.team, m.tier, slot.team is m.winner,
                                  st.changes, st.rate_per_min))
    with stage("distance"):
        labeled = []
        for mid, (header, cells) in decoded.items():
            m = meta[mid]
            for team in Team:
                rows = [i for i, p in enumerate(header.players) if p.team is team]
                values = measures.distance_values(cells[rows])
                labeled.append(measures.LabeledSeries(
                    measures.DistanceSeries(mid, team, values), m.tier, team is m.winner))
    with stage("phases"):
        smoothed = [
            measures.LabeledSeries(
                measures.DistanceSeries(ls.series.match_id, ls.series.team,
                                        measures.moving_average(ls.series.values, 1)),
                ls.tier, ls.won)
            for ls in labeled
        ]
        phase_rows = []
        for tier in SkillTier:
            for won in (True, False):
                if any(ls.tier is tier and ls.won == won for ls in smoothed):
                    for phase in Phase:
                        phase_rows += measures.aggregate_by_category(smoothed, tier, won, phase)
    with stage("anova"):
        rate_tier, dist_tier = {}, {}
        rate_won, dist_won = {True: [], False: []}, {True: [], False: []}
        for _, _, _, tier, won, _, rate in zone_rows:
            rate_tier.setdefault(tier, []).append(rate)
            rate_won[won].append(rate)
        for ls in labeled:
            mean_d = float(ls.series.values.mean())
            dist_tier.setdefault(ls.tier, []).append(mean_d)
            dist_won[ls.won].append(mean_d)
        anova = [stats.one_way_anova([g[t] for t in SkillTier if t in g])
                 for g in (rate_tier, dist_tier)]
        anova += [stats.one_way_anova([g[True], g[False]]) for g in (rate_won, dist_won)]
    with stage("cluster"):
        series = [ls.series.values for ls in labeled]
        ids = [f"{ls.series.match_id}:{ls.series.team}" for ls in labeled]
        m = pdclust.min_entropy_dimension(series, delay=1)
        matrix = pdclust.distance_matrix(series, m=m, delay=1, ids=ids)
        fuzzy = pdclust.fanny(matrix, k=CLUSTER_K, r=CLUSTER_R, seed=CLUSTER_SEED)
        crisp = pdclust.pam(matrix, k=CLUSTER_K, seed=CLUSTER_SEED)
        sils = (pdclust.silhouette(matrix, fuzzy.crisp), pdclust.silhouette(matrix, crisp.labels))
        report = pdclust.cluster_report(series, fuzzy, matrix,
                                        labels=[(ls.tier, ls.won) for ls in labeled])

    h = hashlib.sha256()
    for mid, (_, cells) in decoded.items():
        h.update(streams[mid])
        h.update(cells.tobytes())
    for ls in labeled:
        h.update(ls.series.values.tobytes())
    h.update(repr((zone_rows, phase_rows, anova, m, crisp.medoids, report)).encode())
    for arr in (matrix.values, fuzzy.memberships, fuzzy.crisp, crisp.labels, *(s.widths for s in sils)):
        h.update(arr.tobytes())
    rss = {"process": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    outputs = LibOutputs(streams, meta, zone_rows, labeled, ids, fuzzy, coded)
    return PassResult(times, rss, h.hexdigest(), outputs=outputs)


def lib_checks(wl: Workload, out: LibOutputs, ledger: Ledger) -> None:
    import checks

    from teamtrace.defaultmap import default_zone_map

    meta = {mid: (str(m.tier), str(m.winner), m.duration_s) for mid, m in out.meta.items()}
    try:
        expected = checks.Expected(out.streams, meta, default_zone_map().codes)
    except ValueError as e:
        ledger.add("check reference decode", False, f"{type(e).__name__}: {e}")
        return
    distance = {(ls.series.match_id, str(ls.series.team)): ls.series.values for ls in out.labeled}
    changes = {(r[0], r[1]): r[5] for r in out.zone_rows}
    rates = {(r[0], r[1]): r[6] for r in out.zone_rows}
    ledger.add("check distance_series", *checks.compare_distance(distance, expected))
    ledger.add("check zone_changes", *checks.compare_changes(changes, expected))
    ledger.add("check zone_code_count", out.coded == expected.player_seconds,
               f"{out.coded} of {expected.player_seconds}")
    ledger.add("check clusters", *checks.memberships_ok(out.ids, out.fuzzy.memberships, 2 * wl.n_matches))
    means = {k: float(v.mean()) for k, v in distance.items()}
    ledger.add("check tier_ordering", *checks.tier_ordering(means, rates, expected))


# ── set-up ────────────────────────────────────────────────────────────────


def measure_setup(wl: Workload, env: dict, root: Path, ledger: Ledger) -> list[float]:
    """Samples of the fixed cost of a command that does no work, taken after
    one warm-up (which also compiles the bytecode cache)."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        if wl.mode == "cli":
            res = run_command([sys.executable, "-c", CLI_ENTRY, "--help"], env, root / "logs" / "setup")
            ok = res.code == 0 and not res.stderr and "usage" in res.stdout
            value = res.wall_s
        else:
            res = run_command([sys.executable, "-c", LIB_SETUP], env, root / "logs" / "setup")
            ok = res.code == 0 and not res.stderr
            value = float(res.stdout) if ok else res.wall_s
        ledger.add("setup", ok, f"exit {res.code}; stderr: {res.stderr.strip()[:300]}")
        if i:
            samples.append(value)
    return samples


# ── run ───────────────────────────────────────────────────────────────────


def context(args) -> dict:
    import numpy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "teamtrace_workers": 1,
        "src_lines": src_lines,
    }


def run_pass(wl, seed, root, env, ledger, tag, tracer=None, fault=None) -> PassResult:
    """One closed-loop pass. ``tracer`` traces it: True for CLI workloads
    (each command traces itself), a Tracer installed here for lib ones."""
    if wl.mode == "cli":
        return cli_pass(wl, seed, root, env, ledger, tag, traced=bool(tracer), fault=fault)
    result = lib_pass(wl, seed, ledger, tag, tracer or None, fault)
    if tracer:
        result.dumps = [tracer.dump()]
    return result


def run_checks(wl: Workload, first: PassResult, ledger: Ledger) -> None:
    if wl.mode == "cli":
        cli_checks(wl, first.outputs, ledger)
    else:
        lib_checks(wl, first.outputs, ledger)


def stage_medians(passes: list[PassResult]) -> dict[str, float]:
    """Each stage's median over the passes. Summing these, rather than taking
    the median of the pass totals, lets each short sample fall on either
    side of a burst of host noise on its own."""
    return {st: statistics.median(p.times[st] for p in passes) for st in passes[0].times}


def end_to_end(wl: Workload, setup_s: float, passes: list[PassResult]) -> dict[str, float]:
    medians = stage_medians(passes)
    metrics = {"setup_s": setup_s}
    metrics["analysis_s"] = sum(t for st, t in medians.items() if st in ANALYSIS_STAGES)
    pipeline = sum(medians.values())
    metrics["pipeline_s"] = pipeline
    metrics["player_s_per_s"] = wl.player_seconds / pipeline
    # RSS repeats exactly from pass to pass; later passes of an in-process
    # workload would only add what earlier ones left behind
    metrics["peak_rss_mb"] = max(passes[0].rss_mb.values())
    return metrics


def per_layer(traced: PassResult, untraced: PassResult, ledger: Ledger, lines: list[str]) -> dict:
    import tracer as tr

    summary = tr.summarize(traced.dumps)
    counts = dict.fromkeys(tr.COUNT_NAMES, 0)
    absent = set()
    for d in traced.dumps:
        absent.update(d["absent"])
        for k, v in d["counts"].items():
            counts[k] += v
    errors = [e for d in traced.dumps for e in tr.span_identity_errors(d["spans"])]
    ledger.add("check span identity", not errors, "; ".join(errors[:5]))
    ledger.add("check traced digest", traced.digest == untraced.digest,
               "tracing changed an output byte" if traced.digest != untraced.digest else "")

    metrics: dict[str, float] = {}
    for name, unit in layer_units().items():
        base, _, kind = name.rpartition(".")
        rec = summary.get(base, {"calls": 0, "self_s": 0.0})
        if kind in ("self_s", "calls") and base:
            metrics[name] = rec[kind]
        elif name == "measures.dwell_kept_ratio":
            offered = counts["measures.dwell_offered_s"]
            metrics[name] = counts["measures.dwell_kept_s"] / offered if offered else 0.0
        elif name == "tracing_overhead_s":
            metrics[name] = traced.pipeline_s - untraced.pipeline_s
        else:
            metrics[name] = counts[name]
    for name in sorted(summary):
        rec = summary[name]
        lines.append(f"layer {name}: calls={rec['calls']} self_s={rec['self_s']:.6f} "
                     f"total_s={rec['total_s']:.6f}")
    if absent:
        lines.append("absent layer functions: " + ", ".join(sorted(absent)))
    lines.append(f"tracing overhead: traced pipeline {traced.pipeline_s:.4f} s, "
                 f"untraced {untraced.pipeline_s:.4f} s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, fault: str | None = None,
        wl: Workload | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, report lines)."""
    wl = wl or WORKLOADS[workload]
    env = child_env()
    root = WORK / f"{workload}-{os.getpid()}"
    ledger = Ledger()
    lines: list[str] = []
    try:
        setup = measure_setup(wl, env, root, ledger)
        first = run_pass(wl, pass_seed(seed, 0), root / "pass0", env, ledger, "pass0", fault=fault)
        # checks run before any later pass so that their memory stays out of
        # the in-process peak RSS of lib workloads
        run_checks(wl, first, ledger)
        first.outputs = None
        passes = [first]

        def next_pass():
            k = len(passes)
            passes.append(run_pass(wl, pass_seed(seed, k), root / f"pass{k}", env, ledger,
                                   f"pass{k}", fault=fault))
            shutil.rmtree(root / f"pass{k}", ignore_errors=True)

        if trace:
            import tracer as tr

            if wl.mode == "lib":
                # the first in-process pass also pays one-off warm-up costs;
                # the overhead is taken against a warm untraced pass
                next_pass()
                t = tr.Tracer(f"{workload}/{seed}")
                t.install()
            else:
                t = True
            traced = run_pass(wl, pass_seed(seed, len(passes) - 1), root / "traced", env, ledger,
                              "traced", tracer=t, fault=fault)
            units, values = layer_units(), per_layer(traced, passes[-1], ledger, lines)
        else:
            start = time.perf_counter() - first.pipeline_s
            while time.perf_counter() - start + passes[-1].pipeline_s <= seconds:
                next_pass()
            units, values = e2e_units(), end_to_end(wl, statistics.median(setup), passes)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for stage in CLI_STAGES:
        ts = [p.times[stage] for p in passes if stage in p.times]
        if ts:
            rss = [p.rss_mb[stage] for p in passes if stage in p.rss_mb]
            lines.append(f"stage {stage}: median {statistics.median(ts):.4f} s over {len(ts)} passes"
                         + (f", peak RSS {max(rss):.1f} MB" if rss else ""))
    lines.append(f"passes: {len(passes)}; player-seconds per pass: {wl.player_seconds}")
    samples = {"setup": setup, **{st: [p.times[st] for p in passes] for st in passes[0].times}}
    lines.append("samples: " + json.dumps(samples))
    lines.append(f"digest: {passes[0].digest}")
    for name, _, detail in ledger.failed:
        lines.append(f"FAILED {name}: {detail}")
    attempted, failed = len(ledger.ops), len(ledger.failed)
    lines.append(f"error_rate: {failed}/{attempted} = {failed / attempted:.6f}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "teamtrace" / "cli.py").is_file():
        print(f"bench: no teamtrace sources under {SRC.resolve()}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    sys.path.insert(0, str(HERE))
    print("context: " + json.dumps(context(args), sort_keys=True))
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
