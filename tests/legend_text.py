"""The default zone map's legend written out as legend-file text, for tests
that write a legend file or edit one line of it."""
from __future__ import annotations

from teamtrace.defaultmap import DEFAULT_LEGEND
from teamtrace.zonemap import Color, ZoneLabel


def format_legend(legend: dict[ZoneLabel, Color]) -> str:
    """One ``R G B zone_name`` line per label, in the mapping's order."""
    lines = [f"{r} {g} {b} {label}" for label, (r, g, b) in legend.items()]
    return "\n".join(lines) + "\n"


DEFAULT_LEGEND_TEXT = format_legend(DEFAULT_LEGEND)
