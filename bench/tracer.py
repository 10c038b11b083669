"""Outside-in layer tracing for the teamtrace benchmark.

Wraps the public functions of each teamtrace layer from the outside (no
change to ``src/``). Every call becomes a span (name, start, end, parent,
run id) kept in memory; a few wrappers also record counts at the same
boundary. Spans are dumped to JSON when the traced process ends and
summarised into per-function ``calls`` / ``self_s`` records.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import struct
import sys
import time
from contextlib import contextmanager

# Public layer functions, by module. ``cli.cmd_*`` is discovered at install
# time. A name missing from its module is reported as absent, not an error.
TARGETS = {
    "tickstream": (
        "stream_summary",
        "tracks_from_stream",
        "tracks_to_objects",
        "write_trajectory_csv",
        "read_trajectory_csv",
    ),
    "synth": ("generate_match",),
    "measures": (
        "zone_change_stats",
        "stats_from_codes",
        "dwell_filter",
        "zone_codes",
        "distance_series",
        "distance_values",
        "aggregate_by_category",
        "moving_average",
        "write_zone_changes_csv",
        "write_distance_csv",
        "write_aggregate_csv",
    ),
    "pdclust": (
        "perm_distribution",
        "min_entropy_dimension",
        "distance_matrix",
        "pam",
        "fanny",
        "silhouette",
        "cluster_report",
        "write_matrix_csv",
    ),
    "stats": ("one_way_anova", "write_anova_csv"),
    "zonemap": ("draft_zone_map", "render_zone_map"),
    "defaultmap": ("default_zone_map",),
    "cli": (),
}

COUNT_NAMES = (
    "tickstream.stream_bytes",
    "tickstream.frames",
    "tickstream.updates",
    "tickstream.csv_bytes_written",
    "tickstream.csv_bytes_read",
    "pdclust.series",
    "pdclust.fanny.n_iter",
    "pdclust.fanny.converged",
    "measures.dwell_offered_s",
    "measures.dwell_kept_s",
)

_FRAME_HEAD = struct.Struct("<IH")
_STREAM_HEADER_SIZE = 17 + 10 * 6
_UPDATE_SIZE = 11


def _frame_counts(data: bytes) -> tuple[int, int]:
    """(frames, updates) of a DTL2 stream, walking the frame heads only."""
    frames = updates = 0
    off, n = _STREAM_HEADER_SIZE, len(data)
    while off + _FRAME_HEAD.size <= n:
        _, count = _FRAME_HEAD.unpack_from(data, off)
        frames += 1
        updates += count
        off += _FRAME_HEAD.size + count * _UPDATE_SIZE
    return frames, updates


def _file_size(f) -> int:
    f.flush()
    return os.fstat(f.fileno()).st_size


def _count_stream(counts, args, kwargs, result):
    data = args[0]
    frames, updates = _frame_counts(data)
    counts["tickstream.stream_bytes"] += len(data)
    counts["tickstream.frames"] += frames
    counts["tickstream.updates"] += updates


def _count_csv_written(counts, args, kwargs, result):
    counts["tickstream.csv_bytes_written"] += _file_size(args[2])


def _count_csv_read(counts, args, kwargs, result):
    counts["tickstream.csv_bytes_read"] += _file_size(args[0])


def _count_series(counts, args, kwargs, result):
    counts["pdclust.series"] += len(args[0])


def _count_fanny(counts, args, kwargs, result):
    counts["pdclust.fanny.n_iter"] += result.n_iter
    counts["pdclust.fanny.converged"] += int(result.converged)


def _count_dwell(counts, args, kwargs, result):
    counts["measures.dwell_offered_s"] += len(args[0])
    counts["measures.dwell_kept_s"] += sum(v.dwell_s for v in result)


# Count hooks run after their span closes; their time is charged to the
# parent span as tracer cost, never to the layer's own self time.
HOOKS = {
    "tickstream.tracks_from_stream": _count_stream,
    "tickstream.write_trajectory_csv": _count_csv_written,
    "tickstream.read_trajectory_csv": _count_csv_read,
    "pdclust.distance_matrix": _count_series,
    "pdclust.fanny": _count_fanny,
    "measures.dwell_filter": _count_dwell,
}


class Tracer:
    """In-memory span recorder. Single-threaded use only."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.present: list[str] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    # ── recording ─────────────────────────────────────────────────────────

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, time.perf_counter())

    def _open(self) -> tuple[int, int | None]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, hook_s=0.0):
        self._stack.pop()
        self.spans.append(
            {"id": sid, "name": name, "start": start, "end": end,
             "hook_s": hook_s, "parent": parent, "run": self.run_id}
        )

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, start, time.perf_counter())
                raise
            end = time.perf_counter()
            hook_s = 0.0
            if hook is not None:
                hook(counts, args, kwargs, result)
                hook_s = time.perf_counter() - end
            self._close(sid, parent, name, start, end, hook_s)
            return result

        return functools.update_wrapper(traced, fn)

    # ── installation ──────────────────────────────────────────────────────

    def install(self) -> None:
        """Wrap every target and rebind each ``teamtrace.*`` module attribute
        that refers to it, so ``from .x import f`` call sites are traced too."""
        modules = {name: importlib.import_module(f"teamtrace.{name}") for name in TARGETS}
        targets = [(m, f) for m, fns in TARGETS.items() for f in fns]
        targets += [("cli", f) for f in sorted(vars(modules["cli"])) if f.startswith("cmd_")]
        package = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "teamtrace" or key.startswith("teamtrace."))
        ]
        for mod_name, fn_name in targets:
            qual = f"{mod_name}.{fn_name}"
            original = getattr(modules[mod_name], fn_name, None)
            if not callable(original):
                self.absent.append(qual)
                continue
            wrapped = self.wrap(qual, original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
            self.present.append(qual)

    # ── output ────────────────────────────────────────────────────────────

    def dump(self) -> dict:
        return {
            "run": self.run_id,
            "present": self.present,
            "absent": self.absent,
            "counts": self.counts,
            "spans": self.spans,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.dump(), f)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children (each child charged with its count hook)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"] + s["hook_s"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def span_identity_errors(spans: list[dict], prefix: str = "cli.cmd_") -> list[str]:
    """Spans under ``prefix`` whose duration differs from self time plus the
    charged durations of their children, i.e. children that overlap each
    other or stick out of their parent."""
    selfs = self_times(spans)
    kids: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]] = kids.get(s["parent"], 0.0) + s["end"] + s["hook_s"] - s["start"]
    errors = []
    for s in spans:
        if s["name"].startswith(prefix):
            dur = s["end"] - s["start"]
            gap = dur - selfs[s["id"]] - kids.get(s["id"], 0.0)
            if abs(gap) > 1e-6 + 1e-9 * dur:
                errors.append(f"{s['name']} (run {s['run']}): off by {gap:.3g} s")
    return errors


def summarize(dumps: list[dict]) -> dict[str, dict]:
    """Per-function ``calls``, ``total_s`` and ``self_s`` over many dumps."""
    out: dict[str, dict] = {}
    for d in dumps:
        selfs = self_times(d["spans"])
        for s in d["spans"]:
            rec = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += s["end"] - s["start"]
            rec["self_s"] += selfs[s["id"]]
    return out
