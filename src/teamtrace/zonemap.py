"""Terrain zone map: a 128x128 grid of zone labels loaded from a
color-coded portable pixmap plus a plain-text color legend.

The pixmap is a standard netpbm PPM, ASCII (P3) or binary (P6), exactly
128x128 with maxval 255. The legend maps one RGB color to each of the
eleven zone names, one ``R G B zone_name`` entry per line; ``#`` starts a
comment. Image orientation: the top pixel row is the north edge of the
map, so pixel (col, row) paints grid cell (x=col, y=127-row).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import GRID_SIZE

Color = tuple[int, int, int]


class ZoneMapError(ValueError):
    pass


class ZoneLabel(Enum):
    BASE_RADIANT = "base_Radiant"
    BASE_DIRE = "base_Dire"
    RIVER = "river"
    JUNGLE = "jungle"
    LANE_SHOP = "lane_Shop"
    SECRET_SHOP = "secret_Shop"
    TOP_LANE = "top_Lane"
    MIDDLE_LANE = "middle_Lane"
    BOTTOM_LANE = "bottom_Lane"
    PIT = "pit"
    VOID = "void"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "ZoneLabel":
        for label in cls:
            if label.value == text:
                return label
        raise ZoneMapError(f"unknown zone name: {text!r}")


ZONE_COUNT = len(ZoneLabel)
_LABELS = tuple(ZoneLabel)
_LABEL_INDEX = {label: i for i, label in enumerate(_LABELS)}


@dataclass(frozen=True)
class ZoneMap:
    """Immutable cell -> zone mapping plus the color legend it came from.

    ``codes[x, y]`` is the index of the zone label at grid cell (x, y).
    """

    codes: np.ndarray = field(repr=False)
    legend: dict[ZoneLabel, Color]

    def __post_init__(self):
        if self.codes.shape != (GRID_SIZE, GRID_SIZE):
            raise ZoneMapError(f"zone grid must be {GRID_SIZE}x{GRID_SIZE}")
        if self.codes.dtype != np.uint8 or self.codes.max(initial=0) >= ZONE_COUNT:
            raise ZoneMapError("zone grid must hold uint8 label codes")
        if set(self.legend) != set(ZoneLabel):
            missing = sorted(str(z) for z in set(ZoneLabel) - set(self.legend))
            raise ZoneMapError(f"legend missing zones: {', '.join(missing)}")
        colors = list(self.legend.values())
        if len(set(colors)) != len(colors):
            raise ZoneMapError("legend colors must be unique")
        self.codes.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZoneMap):
            return NotImplemented
        return self.legend == other.legend and np.array_equal(self.codes, other.codes)


def parse_legend(text: str) -> dict[ZoneLabel, Color]:
    """Parse ``R G B zone_name`` lines into a label -> color mapping."""
    legend: dict[ZoneLabel, Color] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ZoneMapError(f"legend line {lineno}: expected 'R G B zone_name'")
        try:
            color = tuple(int(p) for p in parts[:3])
        except ValueError:
            raise ZoneMapError(f"legend line {lineno}: non-integer color") from None
        if not all(0 <= c <= 255 for c in color):
            raise ZoneMapError(f"legend line {lineno}: color out of 0..255")
        try:
            label = ZoneLabel.parse(parts[3])
        except ZoneMapError as e:
            raise ZoneMapError(f"legend line {lineno}: {e}") from None
        if color in legend.values():
            raise ZoneMapError(f"legend line {lineno}: duplicate color {color}")
        if label in legend:
            raise ZoneMapError(f"legend line {lineno}: duplicate zone {label}")
        legend[label] = color
    missing = [str(z) for z in ZoneLabel if z not in legend]
    if missing:
        raise ZoneMapError(f"legend missing zones: {', '.join(missing)}")
    return legend


# Four header tokens (magic, width, height, maxval), each after whitespace and
# '#' comments that run to the end of the line; a missing token is None. re
# compiles it on first use, so commands that read no pixmap never pay for it.
_PPM_HEADER = rb"(?:(?:\s|#[^\n]*(?=\n|\Z))*([^\s#]\S*))?" * 4


def _parse_ppm(data: bytes) -> tuple[int, int, np.ndarray]:
    """Parse P3/P6 pixmap bytes into (width, height, (h, w, 3) uint8)."""
    header = re.match(_PPM_HEADER, data)
    magic, *fields = header.groups()
    if magic is None:
        raise ZoneMapError("unexpected end of pixmap header")
    if magic not in (b"P3", b"P6"):
        raise ZoneMapError(f"not a P3/P6 pixmap (magic {magic!r})")
    # unsigned decimal digits only: int() would also take a sign or '_'
    if not all(f and f.isdigit() for f in fields):
        raise ZoneMapError("malformed pixmap header")
    try:
        width, height, maxval = map(int, fields)
    except ValueError:  # past int()'s digit limit
        raise ZoneMapError("malformed pixmap header") from None
    if maxval != 255:
        raise ZoneMapError(f"unsupported maxval {maxval} (expected 255)")
    count = width * height * 3
    pos, n = header.end(), len(data)

    if magic == b"P6":
        pos += pos < n  # single whitespace byte after maxval, if any
        if n - pos < count:
            raise ZoneMapError(f"pixmap truncated: need {count} bytes, have {n - pos}")
        if n - pos > count:
            raise ZoneMapError("trailing bytes after pixmap data")
        flat = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    else:
        try:
            values = data[pos:].split()
            flat = np.array([int(v) for v in values], dtype=np.int64)
        except ValueError:
            raise ZoneMapError("malformed P3 sample") from None
        if flat.size != count:
            raise ZoneMapError(f"expected {count} samples, got {flat.size}")
        if flat.size and (flat.min() < 0 or flat.max() > 255):
            raise ZoneMapError("P3 sample out of 0..255")
        flat = flat.astype(np.uint8)
    return width, height, flat.reshape(height, width, 3)


def load_zone_map(pixmap_bytes: bytes, legend: dict[ZoneLabel, Color]) -> ZoneMap:
    """Build a ZoneMap from pixmap bytes and a parsed legend.

    Every pixel color must appear in the legend; the image must be exactly
    128x128.
    """
    width, height, pixels = _parse_ppm(pixmap_bytes)
    if (width, height) != (GRID_SIZE, GRID_SIZE):
        raise ZoneMapError(
            f"zone pixmap must be {GRID_SIZE}x{GRID_SIZE}, got {width}x{height}"
        )

    packed = (
        pixels[:, :, 0].astype(np.int32) << 16
        | pixels[:, :, 1].astype(np.int32) << 8
        | pixels[:, :, 2].astype(np.int32)
    )
    colors = sorted((r << 16 | g << 8 | b, _LABEL_INDEX[z]) for z, (r, g, b) in legend.items())
    keys, labels = np.array(colors + [(1 << 24, 255)]).T  # the sentinel sorts above every pixel
    at = np.searchsorted(keys, packed)
    img_codes = np.where(keys[at] == packed, labels[at], 255).astype(np.uint8)
    if (img_codes == 255).any():
        row, col = np.argwhere(img_codes == 255)[0]
        r, g, b = pixels[row, col]
        raise ZoneMapError(
            f"pixel color ({r},{g},{b}) at col {col}, row {row} not in legend"
        )
    # pixel (col, row) -> cell (x=col, y=127-row)
    codes = img_codes[::-1, :].T.copy()
    return ZoneMap(codes, legend)


def p6_bytes(pixels: np.ndarray) -> bytes:
    """Binary P6 pixmap bytes of an (h, w, 3) uint8 image, maxval 255."""
    height, width, _ = pixels.shape
    return f"P6\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def render_zone_map(zmap: ZoneMap) -> bytes:
    """Render a ZoneMap back to canonical P6 pixmap bytes.

    Inverse of load_zone_map for canonically written files.
    """
    palette = np.zeros((ZONE_COUNT, 3), dtype=np.uint8)
    for label, color in zmap.legend.items():
        palette[_LABEL_INDEX[label]] = color
    img_codes = zmap.codes.T[::-1, :]
    return p6_bytes(palette[img_codes])


def draft_zone_map(
    visits: np.ndarray,
    legend: dict[ZoneLabel, Color],
    provisional: ZoneLabel,
) -> ZoneMap:
    """Draft map from observed positions: every cell with a nonzero count
    in the 128x128 ``visits`` grid gets the provisional label, everything
    else is void. Meant as a starting point for hand-editing zone borders."""
    if provisional is ZoneLabel.VOID:
        raise ZoneMapError("provisional zone must be non-void")
    codes = np.where(
        np.asarray(visits) > 0, _LABEL_INDEX[provisional], _LABEL_INDEX[ZoneLabel.VOID]
    ).astype(np.uint8)
    return ZoneMap(codes, dict(legend))
