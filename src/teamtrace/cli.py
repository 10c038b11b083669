"""Command-line front end.

Subcommands: ingest, zones, distance, phases, anova, cluster, heatmap,
synth, zonemap-draft. Every command is deterministic for fixed inputs,
flags and seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 partial batch
failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Start-up is most of a command's wall time: the module level imports only
# what the parser needs, and each command imports the layers it runs.
from .core import (
    DEFAULT_CLUSTER_COUNT, DEFAULT_EMBED_DIM, DEFAULT_MEMBERSHIP_EXPONENT, DEFAULT_MIN_DWELL_S,
    GRID_SIZE, MAX_DURATION_S, MAX_EMBED_DIM, MAX_SYNTH_MATCHES, MIN_EMBED_DIM, Phase, SkillTier,
    Team, check_lineup, outcome,
)
from .zonemap import (
    ZoneLabel, ZoneMap, draft_zone_map, load_zone_map, p6_bytes, parse_legend, render_zone_map,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


@dataclass(frozen=True)
class RunConfig:
    """Defaults mirror the reference analysis configuration."""

    min_dwell_s: int = DEFAULT_MIN_DWELL_S
    window_s: int = 1
    k: int = DEFAULT_CLUSTER_COUNT
    r: float = DEFAULT_MEMBERSHIP_EXPONENT
    m: int | str = DEFAULT_EMBED_DIM  # or "auto" for the minimum-entropy heuristic
    delay: int = 1
    seed: int = 0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve 2 for data
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_zone_map(args) -> ZoneMap:
    from .defaultmap import default_zone_map
    if args.zone_map and args.legend:
        legend = _read(args.legend, lambda f: parse_legend(f.read()))
        # a pixmap is binary: read the bytes under the text wrapper
        return _read(args.zone_map, lambda f: load_zone_map(f.buffer.read(), legend))
    if args.zone_map or args.legend:
        raise UsageError("--map and --legend must be given together")
    return default_zone_map()


def _trajectory_files(paths: Iterable[str]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(sorted(path.glob("*.csv")))
        else:
            out.append(path)
    if not out:
        raise ValueError("no trajectory files found")
    return out


def _read(path, reader):
    """``reader`` applied to the text file at ``path``; a failure is a ValueError
    that names the path."""
    try:
        with open(path) as f:
            return reader(f)
    except (OSError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None


class _Match(NamedTuple):
    """One trajectory file, with its metadata row if the command takes --meta."""

    match_id: int
    players: tuple[tuple[Team, int], ...]  # (team, player_id) per cells row
    cells: np.ndarray  # (PLAYER_COUNT, T+1, 2) uint8
    tier: SkillTier | None = None
    winner: Team | None = None


def _load_matches(args) -> list[_Match]:
    """Each trajectory file read once as one full-lineup match, by match id."""
    from . import tickstream
    meta = _read(args.meta, tickstream.read_metadata_csv) if "meta" in args else None
    source: dict[int, Path] = {}
    matches = []
    for path in _trajectory_files(args.trajectories):
        match_id, players, cells = _read(path, tickstream.read_trajectory_csv)
        try:
            check_lineup([team for team, _ in players])
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        if match_id in source:
            raise ValueError(f"{path}: match {match_id} already read from {source[match_id]}")
        source[match_id] = path
        if meta is not None and match_id not in meta:
            raise ValueError(f"{path}: match {match_id} missing from metadata")
        label = (meta[match_id].tier, meta[match_id].winner) if meta is not None else ()
        matches.append(_Match(match_id, players, cells, *label))
    return sorted(matches, key=lambda m: m.match_id)


def _team_series(match: _Match, window: int = 1) -> list[measures.LabeledSeries]:
    """One labeled distance series per team, Radiant first, smoothed with a
    trailing moving average of ``window`` seconds (window 1 keeps the values)."""
    from . import measures
    teams = np.array([team.value for team, _ in match.players])
    labeled = []
    for team in Team:
        values = measures.distance_values(match.cells[teams == team.value])
        s = measures.DistanceSeries(match.match_id, team, measures.moving_average(values, window))
        labeled.append(measures.LabeledSeries(s, match.tier, team is match.winner))
    return labeled


def _player_stats(match: _Match, zmap: ZoneMap, min_dwell_s: int):
    """(team, ZoneChangeStats) per player, in cells row order."""
    from . import measures
    codes = measures.zone_codes(match.cells, zmap)
    return [
        (team, measures.stats_from_codes(pid, player_codes, min_dwell_s))
        for (team, pid), player_codes in zip(match.players, codes)
    ]


def _occupancy(matches: Iterable[_Match], start: int = 0, end: int | None = None) -> np.ndarray:
    """128x128 grid of player-seconds per cell over seconds start..end."""
    grid = np.zeros((GRID_SIZE, GRID_SIZE), dtype=np.int64)
    stop = None if end is None else end + 1
    for match in matches:
        window = match.cells[:, start:stop]
        np.add.at(grid, (window[..., 0], window[..., 1]), 1)
    return grid


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: str, chunks: Iterable[str]) -> None:
    """Write a report: its header line, then each chunk of formatted rows as
    it is made. Fields are ints, enum names and float reprs, none of which
    needs CSV quoting."""
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(chunks)


def _write_json(path: Path, doc) -> None:
    import json
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# ── commands ──────────────────────────────────────────────────────────────


def cmd_ingest(args) -> int:
    """Decode each stream of ten players, five per team, and write its
    trajectory CSV; any other lineup fails the stream. A recorded duration
    wins over the stream's last standardized second: a written stream whose
    updates run past it gets one stderr line with the count dropped and the
    first dropped second."""
    from . import tickstream
    out = _out_dir(args)
    meta = _read(args.meta, tickstream.read_metadata_csv) if args.meta else {}
    durations = {mid: m.duration_s for mid, m in meta.items()}
    paths = sorted(args.streams)

    errors, drops = [], []
    source: dict[int, str] = {}
    for path in paths:
        try:
            header, cells, late = tickstream._resample(Path(path).read_bytes(), durations)
            check_lineup([slot.team for slot in header.players])
        except (OSError, ValueError) as e:
            errors.append(f"{path}: {e}")
            continue
        if header.match_id in source:
            errors.append(f"{path}: match {header.match_id} already ingested from "
                          f"{source[header.match_id]}")
            continue
        source[header.match_id] = path
        with open(out / f"{header.match_id}.csv", "w") as f:
            tickstream.write_trajectory_csv(header, cells, f)
        if late.size:
            drops.append(f"{path}: dropped {late.size} updates past the recorded "
                         f"{cells.shape[1] - 1} s, the first at second {late[0]}")
    if len(errors) == len(paths):
        raise ValueError(f"no stream ingested ({len(errors)} failed); first: {errors[0]}")
    for line in drops + [f"error: {err}" for err in errors]:
        print(line, file=sys.stderr)
    return EXIT_PARTIAL if errors else EXIT_OK


def cmd_zones(args) -> int:
    zmap = _load_zone_map(args)
    matches = _load_matches(args)
    header = "match_id,player_id,team,tier,win,changes,rate_per_min"
    _write_csv(_out_dir(args) / "zone_changes.csv", header, (
        "".join([
            f"{match.match_id},{st.player_id},{team!s},{match.tier!s},"
            f"{int(team is match.winner)},{st.changes},{st.rate_per_min!r}\n"
            for team, st in _player_stats(match, zmap, args.min_dwell)
        ])
        for match in matches
    ))
    return EXIT_OK


def cmd_distance(args) -> int:
    matches = _load_matches(args)
    _write_csv(_out_dir(args) / "distance_series.csv", "match_id,team,t,d", (
        "".join([f"{prefix}{t},{d!r}\n" for t, d in enumerate(ls.series.values.tolist())])
        for match in matches for ls in _team_series(match)
        for prefix in [f"{match.match_id},{ls.series.team!s},"]
    ))
    return EXIT_OK


def cmd_phases(args) -> int:
    from . import measures
    labeled = [ls for match in _load_matches(args) for ls in _team_series(match, args.window)]
    _write_csv(_out_dir(args) / "phase_aggregates.csv", "tier,outcome,phase,t,mean_d,n_matches", (
        "".join([f"{prefix}{t},{mean_d!r},{n}\n"
                 for t, mean_d, n in measures.aggregate_by_category(labeled, tier, won, phase)])
        for tier in SkillTier for won in (True, False) for phase in Phase
        for prefix in [f"{tier!s},{outcome(won)},{phase!s},"]
    ))
    return EXIT_OK


def cmd_anova(args) -> int:
    from . import stats
    zmap = _load_zone_map(args)

    # (measure, tier, won, value): a zone-change rate per player, a mean distance per team
    samples = []
    for match in _load_matches(args):
        samples += [("zone_change_rate", match.tier, team is match.winner, st.rate_per_min)
                    for team, st in _player_stats(match, zmap, args.min_dwell)]
        samples += [("team_distance", match.tier, ls.won, float(ls.series.values.mean()))
                    for ls in _team_series(match)]

    rows = []
    for factor, at, levels in (("tier", 1, tuple(SkillTier)), ("outcome", 2, (True, False))):
        for measure in ("zone_change_rate", "team_distance"):
            groups = [[s[3] for s in samples if s[0] == measure and s[at] == level]
                      for level in levels]
            if len(groups := [g for g in groups if g]) >= 2:
                rows.append((measure, factor, stats.one_way_anova(groups)))
    out = _out_dir(args)
    _write_csv(out / "anova.csv", "measure,factor,F,df1,df2,p", [
        f"{measure},{factor},{res.F!r},{res.df_between},{res.df_within},"
        f"{stats.format_p_value(res.p)}\n"
        for measure, factor, res in rows
    ])
    doc = [
        {
            "measure": measure,
            "factor": factor,
            # strict JSON has no Infinity literal
            "F": res.F if math.isfinite(res.F) else "inf",
            "df1": res.df_between,
            "df2": res.df_within,
            "p": res.p,
            "p_display": stats.format_p_value(res.p),
        }
        for measure, factor, res in rows
    ]
    _write_json(out / "anova.json", doc)
    return EXIT_OK


def cmd_cluster(args) -> int:
    from . import pdclust
    labeled = [ls for match in _load_matches(args) for ls in _team_series(match)]
    series = [ls.series.values for ls in labeled]
    ids = [f"{ls.series.match_id}:{ls.series.team}" for ls in labeled]
    facet_labels = [(ls.tier, ls.won) for ls in labeled]

    m = pdclust.min_entropy_dimension(series, delay=args.delay) if args.m == "auto" else args.m
    matrix = pdclust.distance_matrix(series, m=m, delay=args.delay, ids=ids)
    fuzzy = pdclust.fanny(matrix, k=args.k, r=args.r, seed=args.seed)
    report = pdclust.cluster_report(series, fuzzy, matrix, labels=facet_labels)
    sil_pam = pdclust.silhouette(matrix, fuzzy.start.labels)

    out = _out_dir(args)
    _write_csv(out / "dissimilarity.csv", ",".join(ids), (
        ",".join(map(repr, row.tolist())) + "\n" for row in matrix.values
    ))
    doc = {
        "config": {
            "k": args.k,
            "r": args.r,
            "m": m,
            "delay": args.delay,
            "seed": args.seed,
        },
        "ids": ids,
        "memberships": [[round(v, 12) for v in row] for row in fuzzy.memberships.tolist()],
        "crisp": fuzzy.crisp.tolist(),
        "converged": fuzzy.converged,
        "objective": fuzzy.objective,
        "silhouette": {
            "fuzzy_average": report.silhouette.average,
            "fuzzy_widths": report.silhouette.widths.tolist(),
            "pam_average": sil_pam.average,
            "pam_medoids": list(fuzzy.start.medoids),
        },
        "clusters": [asdict(c) for c in report.clusters],
    }
    _write_json(out / "clusters.json", doc)
    return EXIT_OK


def cmd_heatmap(args) -> int:
    if args.end is not None and args.end < args.start:
        raise UsageError("--end must not precede --start")
    grid = _occupancy(_load_matches(args), args.start, args.end)
    if not grid.any():
        raise ValueError("no positions to map")

    out = _out_dir(args)
    # CSV and PPM share the image orientation: row 0 is the north edge
    img = grid.T[::-1, :]
    with open(out / "heatmap.csv", "w") as f:
        for row in img:
            f.write(",".join(str(v) for v in row.tolist()))
            f.write("\n")
    peak = int(img.max())
    intensity = (img * 255 // peak).astype(np.uint8)
    pixels = np.repeat(intensity[:, :, None], 3, axis=2)
    (out / "heatmap.ppm").write_bytes(p6_bytes(pixels))
    return EXIT_OK


_DEFAULT_REGIMES = (
    ("Professional", 6.0, 6.0),
    ("High", 10.0, 4.0),
    ("Normal", 14.0, 2.0),
)


def cmd_synth(args) -> int:
    from . import synth, tickstream
    regimes = args.regime or list(_DEFAULT_REGIMES)
    if args.first_id + len(regimes) * args.matches > 1 << 64:  # match ids are uint64
        raise UsageError(f"--first-id {args.first_id} puts the last match id past 2**64 - 1")
    zmap = _load_zone_map(args)

    out = _out_dir(args)
    metas = []
    match_id = args.first_id
    for ri, (name, sigma, rate) in enumerate(regimes):
        params, tier = synth.RegimeParams(sigma, rate, args.duration), SkillTier.parse(name)
        for j in range(args.matches):
            stream, meta = synth.generate_match(
                params, params, zmap, seed=args.seed * 1_000_003 + ri * 10_000 + j,
                match_id=match_id, tier=tier,
            )
            (out / f"{match_id}.dtl2").write_bytes(stream)
            metas.append(meta)
            match_id += 1
    with open(out / "matches.csv", "w") as f:
        tickstream.write_metadata_csv(f, metas)
    return EXIT_OK


def cmd_zonemap_draft(args) -> int:
    from .defaultmap import DEFAULT_LEGEND
    legend = _read(args.legend, lambda f: parse_legend(f.read())) if args.legend else DEFAULT_LEGEND
    visits = _occupancy(_load_matches(args))
    draft = draft_zone_map(visits, legend, args.provisional)
    out = _out_dir(args)
    (out / "draft_map.ppm").write_bytes(render_zone_map(draft))
    return EXIT_OK


# ── argument plumbing ─────────────────────────────────────────────────────


def _read_config_file(argv: list[str]) -> dict[str, str]:
    """Extract --config FILE and return its key=value pairs."""
    if "--config" not in argv:
        return {}
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file argument")
    path = argv[i + 1]
    del argv[i : i + 2]
    settings = {}
    try:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            settings[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read config file {path}: {e}") from None
    return settings


def _int_at_least(low: int, *words: str, most: int | None = None):
    """argparse type: an integer no smaller than ``low`` (nor above
    ``most``), or one of ``words``."""
    def parse(text: str) -> int | str:
        if text in words:
            return text
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _float_above(low: float):
    """argparse type: a finite float greater than ``low``."""
    def parse(text: str) -> float:
        if not (math.isfinite(value := float(text)) and value > low):
            raise argparse.ArgumentTypeError(f"must be finite and above {low:g}, got {text}")
        return value
    parse.__name__ = "float"
    return parse


def _regime(text: str) -> tuple[str, float, float]:
    """argparse type for TIER:SIGMA:RATE, held to the generator's own checks."""
    from . import synth
    try:
        name, sigma, rate = text.split(":")
        SkillTier.parse(name)
        sigma, rate = float(sigma), float(rate)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r}, want TIER:SIGMA:RATE") from None
    try:
        synth.RegimeParams(sigma, rate, 1)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{text!r}: {e}") from None
    return name, sigma, rate


def _provisional_zone(text: str) -> ZoneLabel:
    """argparse type for the zone a draft map paints: any zone but void."""
    try:
        label = ZoneLabel.parse(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if label is ZoneLabel.VOID:
        raise argparse.ArgumentTypeError("provisional zone must be non-void")
    return label


def _add_common(p: _Parser, *, meta: bool = False, zone_args: bool = False) -> None:
    p.add_argument("--trajectories", nargs="+", required=True,
                   help="trajectory CSV files or directories of them")
    if meta:
        p.add_argument("--meta", required=True,
                       help="match metadata CSV (match_id,tier,winner,duration_s)")
    if zone_args:
        p.add_argument("--map", dest="zone_map", help="zone pixmap (P3/P6 PPM)")
        p.add_argument("--legend", help="zone legend text file")
        p.add_argument("--min-dwell", type=_int_at_least(1), default=RunConfig.min_dwell_s,
                       help="seconds a stay must last to count")


def _set_config_defaults(command: _Parser, settings: dict[str, str]) -> None:
    """Make config settings the chosen subcommand's defaults. argparse
    type-converts string defaults and explicit flags still win."""
    # single-valued options only: a string default would break an append
    # option such as --regime
    dests = {
        a.dest for a in command._actions
        if a.option_strings and isinstance(a, argparse._StoreAction)
    }
    unknown = sorted(set(settings) - dests)
    if unknown:
        raise UsageError(f"unknown config key(s) for {command.prog}: {', '.join(unknown)}")
    command.set_defaults(**settings)


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its subcommand parsers by name."""
    cfg = RunConfig()
    parser = _Parser(prog="teamtrace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="decode DTL2 streams to trajectory CSVs")
    p.add_argument("streams", nargs="+", help="DTL2 files")
    p.add_argument("--meta", help="metadata CSV fixing each match's duration")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("zones", help="per-player zone-change table")
    _add_common(p, meta=True, zone_args=True)
    p.set_defaults(fn=cmd_zones)

    p = sub.add_parser("distance", help="per-second intra-team distance series")
    _add_common(p)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("phases", help="per-category distance aggregates by phase")
    _add_common(p, meta=True)
    p.add_argument("--window", type=_int_at_least(1), default=cfg.window_s,
                   help="trailing moving-average window, seconds")
    p.set_defaults(fn=cmd_phases)

    p = sub.add_parser("anova", help="one-way ANOVA over tiers and outcomes")
    _add_common(p, meta=True, zone_args=True)
    p.set_defaults(fn=cmd_anova)

    p = sub.add_parser("cluster", help="permutation-distribution clustering")
    _add_common(p, meta=True)
    p.add_argument("--k", type=_int_at_least(2), default=cfg.k, help="cluster count")
    p.add_argument("--r", type=_float_above(1.0), default=cfg.r, help="membership exponent")
    p.add_argument("--m", type=_int_at_least(MIN_EMBED_DIM, "auto", most=MAX_EMBED_DIM),
                   default=str(cfg.m), help="embedding dimension or 'auto'")
    p.add_argument("--delay", type=_int_at_least(1), default=cfg.delay)
    p.add_argument("--seed", type=_int_at_least(0), default=cfg.seed)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("heatmap", help="visit-count grid and grayscale pixmap")
    _add_common(p)
    p.add_argument("--start", type=_int_at_least(0), default=0, help="first second counted")
    p.add_argument("--end", type=_int_at_least(0), default=None, help="last second counted")
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser("synth", help="generate synthetic matches")
    p.add_argument("--matches", type=_int_at_least(1, most=MAX_SYNTH_MATCHES), default=5,
                   help="matches per regime")
    p.add_argument("--duration", type=_int_at_least(1, most=MAX_DURATION_S), default=900,
                   help="match length, seconds")
    p.add_argument("--seed", type=_int_at_least(0), default=cfg.seed)
    p.add_argument("--first-id", type=_int_at_least(0), default=1, help="first match id")
    p.add_argument("--regime", action="append", type=_regime,
                   help="TIER:SIGMA:RATE, repeatable (default: three planted tiers)")
    p.add_argument("--map", dest="zone_map", help="zone pixmap (P3/P6 PPM)")
    p.add_argument("--legend", help="zone legend text file")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("zonemap-draft", help="draft zone map from observed cells")
    _add_common(p)
    p.add_argument("--legend", help="legend supplying the draft colors")
    p.add_argument("--provisional", type=_provisional_zone, default=str(ZoneLabel.JUNGLE),
                   help="zone name painted on visited cells")
    p.set_defaults(fn=cmd_zonemap_draft)

    for p in sub.choices.values():
        p.add_argument("-o", "--out", default=".", help="output directory")
    return parser, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        settings = _read_config_file(argv)
        if settings and argv and argv[0] in commands:
            _set_config_defaults(commands[argv[0]], settings)
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
        return args.fn(args)
    except (UsageError, ValueError, OSError, MemoryError) as e:
        if isinstance(e, MemoryError):  # str(MemoryError()) can be empty
            e = f"{argv[0] if argv else 'teamtrace'} ran out of memory"
        print(f"teamtrace: error: {e}", file=sys.stderr)
        return EXIT_USAGE if isinstance(e, UsageError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
