import re
import tracemalloc

import numpy as np
import pytest

from legend_text import DEFAULT_LEGEND_TEXT, format_legend
from teamtrace.defaultmap import DEFAULT_LEGEND, default_zone_map
from teamtrace.zonemap import (
    ZoneLabel,
    ZoneMap,
    ZoneMapError,
    draft_zone_map,
    load_zone_map,
    parse_legend,
    render_zone_map,
)

VOID_RGB = DEFAULT_LEGEND[ZoneLabel.VOID]
RIVER_RGB = DEFAULT_LEGEND[ZoneLabel.RIVER]
BASE_RGB = DEFAULT_LEGEND[ZoneLabel.BASE_RADIANT]


def ppm_p6(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    return f"P6\n{w} {h}\n255\n".encode() + pixels.astype(np.uint8).tobytes()


def ppm_p3(zm: ZoneMap) -> bytes:
    """Canonical ASCII (P3) pixmap of a zone map, one image row per line."""
    pixels = np.frombuffer(render_zone_map(zm), dtype=np.uint8)[-128 * 128 * 3:]
    rows = [" ".join(map(str, row)) for row in pixels.reshape(128, -1).tolist()]
    return ("P3\n128 128\n255\n" + "\n".join(rows) + "\n").encode("ascii")


def label_at(zm: ZoneMap, x: int, y: int) -> ZoneLabel:
    return list(ZoneLabel)[zm.codes[x, y]]


def uniform_image(rgb, size=128) -> np.ndarray:
    img = np.zeros((size, size, 3), dtype=np.uint8)
    img[:, :] = rgb
    return img


class TestLoad:
    def test_uniform_void_maps_every_cell(self):
        zm = load_zone_map(ppm_p6(uniform_image(VOID_RGB)), DEFAULT_LEGEND)
        assert all(
            label_at(zm, x, y) is ZoneLabel.VOID
            for x in range(0, 128, 17)
            for y in range(0, 128, 17)
        )
        assert (zm.codes == zm.codes[0, 0]).all()

    def test_wrong_dimensions_rejected(self):
        img = np.zeros((127, 128, 3), dtype=np.uint8)
        with pytest.raises(ZoneMapError, match="128x128"):
            load_zone_map(ppm_p6(img), DEFAULT_LEGEND)

    def test_row_flip_orientation(self):
        # a river pixel at image col 10, row 117 lands on cell (10, 10)
        img = uniform_image(VOID_RGB)
        img[117, 10] = RIVER_RGB
        zm = load_zone_map(ppm_p6(img), DEFAULT_LEGEND)
        assert label_at(zm, 10, 10) is ZoneLabel.RIVER
        assert label_at(zm, 10, 117) is ZoneLabel.VOID

    def test_base_cell(self):
        img = uniform_image(VOID_RGB)
        img[127, 0] = BASE_RGB  # bottom-left pixel -> cell (0, 0)
        zm = load_zone_map(ppm_p6(img), DEFAULT_LEGEND)
        assert label_at(zm, 0, 0) is ZoneLabel.BASE_RADIANT

    def test_unknown_pixel_color_rejected(self):
        img = uniform_image(VOID_RGB)
        img[5, 5] = (7, 7, 7)
        with pytest.raises(ZoneMapError, match="not in legend"):
            load_zone_map(ppm_p6(img), DEFAULT_LEGEND)

    def test_p3_and_p6_agree(self):
        zm6 = default_zone_map()
        p3 = ppm_p3(zm6)
        p6 = render_zone_map(zm6)
        assert load_zone_map(p3, DEFAULT_LEGEND) == load_zone_map(p6, DEFAULT_LEGEND)

    def test_rerender_is_byte_identical(self):
        zm = default_zone_map()
        for render in (render_zone_map, ppm_p3):
            blob = render(zm)
            again = render(load_zone_map(blob, DEFAULT_LEGEND))
            assert again == blob

    def test_peak_memory_is_far_below_a_table_of_every_color(self):
        # a lookup table over all 2^24 packed colors alone would be 16 MiB
        blob = render_zone_map(default_zone_map())
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            load_zone_map(blob, DEFAULT_LEGEND)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_truncated_p6_rejected(self):
        blob = render_zone_map(default_zone_map())
        # the second ends right after maxval, with no whitespace byte
        for data, have in ((blob[:-10], 49142), (b"P6\n128 128\n255", 0)):
            with pytest.raises(ZoneMapError, match=f"^pixmap truncated: need 49152 bytes, "
                                                   f"have {have}$"):
                load_zone_map(data, DEFAULT_LEGEND)

    def test_bad_magic_rejected(self):
        with pytest.raises(ZoneMapError, match="P3/P6"):
            load_zone_map(b"P5\n1 1\n255\n\x00", DEFAULT_LEGEND)

    @pytest.mark.parametrize("header", [
        b"P6\n-1 -3\n255\n", b"P6\n-128 -128\n255\n", b"P6\n+128 128\n255\n",
        b"P6\n128 1_28\n255\n", b"P6\n128 128\n+255\n", b"P6\n" + b"1" * 5000 + b" 128\n255\n",
    ], ids=["minus-1-minus-3", "minus-128", "plus-sign", "underscore", "signed-maxval",
            "past-int-digit-limit"])
    @pytest.mark.parametrize("kind", ["P6", "P3"])
    def test_header_numbers_are_unsigned_decimal(self, header, kind):
        # a signed number must never reach numpy's reshape, which reads -1 as "infer"
        body = bytes(9) if kind == "P6" else b"0 " * 9
        blob = header.replace(b"P6", kind.encode(), 1) + body
        with pytest.raises(ZoneMapError, match="malformed pixmap header"):
            load_zone_map(blob, DEFAULT_LEGEND)

    @pytest.mark.parametrize("blob, message", [
        (b"P6\n1 1\n254\n" + bytes(3), "unsupported maxval 254 (expected 255)"),
        (b"P6\n1 1\n255\n" + bytes(4), "trailing bytes after pixmap data"),
        (b"P3\n1 1\n255\n0 0 x\n", "malformed P3 sample"),
        (b"P3\n1 1\n255\n0 0\n", "expected 3 samples, got 2"),
        (b"P3\n1 1\n255\n0 0 256\n", "P3 sample out of 0..255"),
    ], ids=["maxval-254", "p6-trailing-byte", "p3-non-integer", "p3-short", "p3-sample-256"])
    def test_bad_pixmap_body_rejected(self, blob, message):
        with pytest.raises(ZoneMapError, match=f"^{re.escape(message)}$"):
            load_zone_map(blob, DEFAULT_LEGEND)

    def test_header_comments_and_whitespace(self):
        blob = render_zone_map(default_zone_map())
        body = blob[len(b"P6\n128 128\n255\n"):]
        commented = b"P6 # comment\n\t128#x\n128 # y\n255\n" + body
        with pytest.raises(ZoneMapError, match="malformed"):
            load_zone_map(commented, DEFAULT_LEGEND)  # '#' inside a token is not a comment
        commented = b"P6 # comment\n\t128\n#\n128 # y\n255\n" + body
        assert load_zone_map(commented, DEFAULT_LEGEND) == default_zone_map()
        for cut in (b"", b"# only a comment", b"P6 128 128 #255"):
            with pytest.raises(ZoneMapError):
                load_zone_map(cut, DEFAULT_LEGEND)

    def test_fuzzed_input_never_crashes(self):
        rng = np.random.default_rng(2)
        valid = render_zone_map(default_zone_map())
        for i in range(800):
            if i % 2 == 0:
                blob = rng.integers(0, 256, size=rng.integers(0, 600)).astype(np.uint8).tobytes()
            else:
                buf = bytearray(valid)
                for _ in range(rng.integers(1, 8)):
                    buf[rng.integers(len(buf))] = rng.integers(256)
                blob = bytes(buf[: rng.integers(1, len(buf) + 1)])
            try:
                load_zone_map(blob, DEFAULT_LEGEND)
            except ZoneMapError:
                pass


class TestLegend:
    def test_parse_with_comments(self):
        text = "# palette\n0 0 0 void\n" + "\n".join(
            f"{r} {g} {b} {label}"
            for label, (r, g, b) in DEFAULT_LEGEND.items()
            if label is not ZoneLabel.VOID
        )
        legend = parse_legend(text)
        assert legend == DEFAULT_LEGEND

    def test_duplicate_color_rejected(self):
        text = DEFAULT_LEGEND_TEXT + "\n0 0 0 pit\n"
        with pytest.raises(ZoneMapError, match="duplicate color"):
            parse_legend(text)

    @pytest.mark.parametrize("line, message", [
        ("0 256 0 pit", "legend line 12: color out of 0..255"),
        ("9 9 9 pit", "legend line 12: duplicate zone pit"),
        ("9 x 9 pit", "legend line 12: non-integer color"),
        ("9 9 9 fountain", "legend line 12: unknown zone name: 'fountain'"),
    ], ids=["color-256", "duplicate-zone", "non-integer-color", "unknown-zone"])
    def test_bad_line_rejected(self, line, message):
        text = DEFAULT_LEGEND_TEXT.rstrip("\n") + "\n" + line + "\n"
        with pytest.raises(ZoneMapError, match=f"^{re.escape(message)}$"):
            parse_legend(text)

    def test_unknown_zone_rejected(self):
        with pytest.raises(ZoneMapError, match="unknown zone"):
            parse_legend(DEFAULT_LEGEND_TEXT + "\n9 9 9 fountain\n")

    def test_missing_zone_rejected(self):
        lines = [l for l in DEFAULT_LEGEND_TEXT.splitlines() if "pit" not in l]
        with pytest.raises(ZoneMapError, match="missing"):
            parse_legend("\n".join(lines))

    def test_malformed_line_rejected(self):
        with pytest.raises(ZoneMapError, match="expected"):
            parse_legend("1 2 river\n")

    def test_format_parse_roundtrip(self):
        assert parse_legend(format_legend(DEFAULT_LEGEND)) == DEFAULT_LEGEND


class TestZoneOf:
    def test_total_over_all_cells(self, zmap):
        labels = {label_at(zmap, x, y) for x in range(128) for y in range(128)}
        assert labels == set(ZoneLabel)

    def test_eleven_labels(self):
        assert len(ZoneLabel) == 11
        assert {z.value for z in ZoneLabel} == {
            "base_Radiant", "base_Dire", "river", "jungle", "lane_Shop",
            "secret_Shop", "top_Lane", "middle_Lane", "bottom_Lane", "pit", "void",
        }


class TestDraft:
    def test_visited_cells_get_provisional_label(self):
        visits = np.zeros((128, 128), dtype=np.int64)
        visits[3, 3] = 1
        visits[3, 4] = 7
        draft = draft_zone_map(visits, DEFAULT_LEGEND, ZoneLabel.JUNGLE)
        assert label_at(draft, 3, 3) is ZoneLabel.JUNGLE
        assert label_at(draft, 3, 4) is ZoneLabel.JUNGLE
        assert label_at(draft, 9, 9) is ZoneLabel.VOID

    def test_void_provisional_rejected(self):
        with pytest.raises(ZoneMapError):
            draft_zone_map([], DEFAULT_LEGEND, provisional=ZoneLabel.VOID)


class TestZoneMapType:
    def test_legend_must_cover_all_labels(self):
        codes = np.zeros((128, 128), dtype=np.uint8)
        partial = {k: v for k, v in DEFAULT_LEGEND.items() if k is not ZoneLabel.PIT}
        with pytest.raises(ZoneMapError, match="missing"):
            ZoneMap(codes, partial)

    @pytest.mark.parametrize("codes, message", [
        (np.zeros((127, 128), dtype=np.uint8), "zone grid must be 128x128"),
        (np.full((128, 128), 11, dtype=np.uint8), "zone grid must hold uint8 label codes"),
    ], ids=["127-rows", "code-11"])
    def test_bad_grid_rejected(self, codes, message):
        with pytest.raises(ZoneMapError, match=f"^{re.escape(message)}$"):
            ZoneMap(codes, DEFAULT_LEGEND)

    def test_duplicate_colors_rejected(self):
        codes = np.zeros((128, 128), dtype=np.uint8)
        legend = dict(DEFAULT_LEGEND)
        legend[ZoneLabel.PIT] = legend[ZoneLabel.RIVER]
        with pytest.raises(ZoneMapError, match="unique"):
            ZoneMap(codes, legend)

    def test_comparison_with_another_type_is_left_to_it(self, zmap):
        assert zmap.__eq__(DEFAULT_LEGEND) is NotImplemented
        assert zmap != DEFAULT_LEGEND and zmap != "map"
        assert zmap == default_zone_map()
