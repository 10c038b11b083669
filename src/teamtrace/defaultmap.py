"""Built-in zone map: a hand-drawn 128x128 approximation of the classic
two-base MOBA arena.

Radiant base sits in the south-west corner, Dire in the north-east. The
river crosses the anti-diagonal, three lanes connect the bases (top lane
along the west and north edges, bottom lane along the south and east
edges, middle lane on the diagonal), side and secret shops and the
neutral pit sit in the jungle. Unreachable border terrain is void.

This is a schematic redrawing for tests, demos and the synthetic match
generator; real deployments load their own pixmap + legend.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import GRID_SIZE
from .zonemap import Color, ZoneLabel, ZoneMap, _LABEL_INDEX

DEFAULT_LEGEND: dict[ZoneLabel, Color] = {
    ZoneLabel.BASE_RADIANT: (0, 255, 0),
    ZoneLabel.BASE_DIRE: (255, 0, 0),
    ZoneLabel.RIVER: (0, 128, 255),
    ZoneLabel.JUNGLE: (0, 128, 0),
    ZoneLabel.LANE_SHOP: (255, 255, 0),
    ZoneLabel.SECRET_SHOP: (255, 0, 255),
    ZoneLabel.TOP_LANE: (222, 184, 135),
    ZoneLabel.MIDDLE_LANE: (205, 133, 63),
    ZoneLabel.BOTTOM_LANE: (160, 82, 45),
    ZoneLabel.PIT: (128, 0, 128),
    ZoneLabel.VOID: (0, 0, 0),
}


def _paint(codes: np.ndarray, mask: np.ndarray, label: ZoneLabel) -> None:
    codes[mask] = _LABEL_INDEX[label]


@lru_cache(maxsize=1)
def default_zone_map() -> ZoneMap:
    """Build (once) the schematic default map."""
    n = GRID_SIZE
    x = np.arange(n)[:, None]
    y = np.arange(n)[None, :]
    codes = np.full((n, n), _LABEL_INDEX[ZoneLabel.VOID], dtype=np.uint8)

    interior = (x >= 4) & (x <= 123) & (y >= 4) & (y <= 123)
    _paint(codes, interior, ZoneLabel.JUNGLE)

    lane_w = (x >= 8) & (x <= 16) & (y >= 8) & (y <= 119)    # west column
    lane_n = (y >= 111) & (y <= 119) & (x >= 8) & (x <= 119)  # north row
    _paint(codes, lane_w | lane_n, ZoneLabel.TOP_LANE)

    lane_s = (y >= 8) & (y <= 16) & (x >= 8) & (x <= 119)     # south row
    lane_e = (x >= 111) & (x <= 119) & (y >= 8) & (y <= 119)  # east column
    _paint(codes, lane_s | lane_e, ZoneLabel.BOTTOM_LANE)

    mid = (np.abs(y - x) <= 4) & (x >= 16) & (x <= 111)
    _paint(codes, mid, ZoneLabel.MIDDLE_LANE)

    river = (np.abs(x + y - 127) <= 3) & interior
    _paint(codes, river, ZoneLabel.RIVER)

    _paint(codes, (x >= 5) & (x <= 25) & (y >= 5) & (y <= 25), ZoneLabel.BASE_RADIANT)
    _paint(codes, (x >= 102) & (x <= 122) & (y >= 102) & (y <= 122), ZoneLabel.BASE_DIRE)

    _paint(codes, (x >= 84) & (x <= 90) & (y >= 44) & (y <= 50), ZoneLabel.PIT)

    secret = ((x >= 30) & (x <= 34) & (y >= 56) & (y <= 60)) | (
        (x >= 94) & (x <= 98) & (y >= 68) & (y <= 72)
    )
    _paint(codes, secret, ZoneLabel.SECRET_SHOP)

    side = ((x >= 20) & (x <= 24) & (y >= 103) & (y <= 107)) | (
        (x >= 103) & (x <= 107) & (y >= 20) & (y <= 24)
    )
    _paint(codes, side, ZoneLabel.LANE_SHOP)

    return ZoneMap(codes, dict(DEFAULT_LEGEND))
