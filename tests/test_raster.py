"""Tests for the PNG codec, rasterizer, and HTML2PNG task."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import RenderError
from repro.charts import Axis, ChartSpec, ScatterSeries, write_html
from repro.charts.render import layout_chart
from repro.raster import (
    decode_png,
    encode_png,
    html_to_png,
    rasterize_chart,
    render_png,
    save_primitives,
)
from repro.raster.draw import Canvas, hex_to_rgb
from repro.raster.font import glyph, text_width


class TestPngCodec:
    def test_round_trip_small(self):
        img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        assert np.array_equal(decode_png(encode_png(img)), img)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_random(self, h, w, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(img)), img)

    def test_signature_enforced(self):
        with pytest.raises(RenderError, match="signature"):
            decode_png(b"GIF89a" + b"\0" * 50)

    def test_crc_checked(self):
        data = bytearray(encode_png(np.zeros((4, 4, 3), dtype=np.uint8)))
        data[40] ^= 0xFF  # corrupt inside a chunk
        with pytest.raises(RenderError):
            decode_png(bytes(data))

    def test_wrong_shape_rejected(self):
        with pytest.raises(RenderError):
            encode_png(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(RenderError):
            encode_png(np.zeros((4, 4, 3), dtype=np.float32))

    def test_truncated_rejected(self):
        data = encode_png(np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(RenderError):
            decode_png(data[:30])

    def _hand_encode(self, image: np.ndarray, filters: list[int]) -> bytes:
        """Encode with explicit per-row filter types (exercises the
        decoder paths the encoder itself never emits)."""
        import struct
        import zlib
        h, w, _ = image.shape
        rows = image.reshape(h, w * 3).astype(np.int16)
        raw = bytearray()
        prev = np.zeros(w * 3, dtype=np.int16)
        for y in range(h):
            ftype = filters[y % len(filters)]
            cur = rows[y]
            raw.append(ftype)
            if ftype == 0:
                enc = cur
            elif ftype == 1:    # Sub
                left = np.concatenate([[0, 0, 0], cur[:-3]])
                enc = (cur - left) % 256
            elif ftype == 2:    # Up
                enc = (cur - prev) % 256
            elif ftype == 3:    # Average
                left = np.concatenate([[0, 0, 0], cur[:-3]])
                enc = (cur - ((left + prev) >> 1)) % 256
            elif ftype == 4:    # Paeth (left-only reference impl)
                enc = np.empty_like(cur)
                for i in range(w * 3):
                    a = int(cur[i - 3]) if i >= 3 else 0
                    b = int(prev[i])
                    c = int(prev[i - 3]) if i >= 3 else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pr = a if pa <= pb and pa <= pc else \
                        (b if pb <= pc else c)
                    enc[i] = (int(cur[i]) - pr) % 256
            else:
                raise AssertionError(ftype)
            raw.extend(enc.astype(np.uint8).tobytes())
            prev = cur

        def chunk(tag, payload):
            return (struct.pack(">I", len(payload)) + tag + payload +
                    struct.pack(">I",
                                zlib.crc32(tag + payload) & 0xFFFFFFFF))

        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) +
                chunk(b"IDAT", zlib.compress(bytes(raw))) +
                chunk(b"IEND", b""))

    @pytest.mark.parametrize("filters", [[1], [3], [4], [0, 1, 2, 3, 4]])
    def test_decode_all_filter_types(self, filters):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
        data = self._hand_encode(img, filters)
        assert np.array_equal(decode_png(data), img)


class TestCanvas:
    def test_background(self):
        c = Canvas(4, 4, background="#ff0000")
        img = c.to_uint8()
        assert (img[..., 0] == 255).all() and (img[..., 1] == 0).all()

    def test_rect_opaque(self):
        c = Canvas(10, 10)
        c.rect(2, 2, 4, 4, "#000000")
        img = c.to_uint8()
        assert img[3, 3].sum() == 0
        assert img[0, 0].sum() == 765

    def test_alpha_blend(self):
        c = Canvas(4, 4)
        c.rect(0, 0, 4, 4, "#000000", alpha=0.5)
        img = c.to_uint8()
        assert 120 <= img[1, 1, 0] <= 135

    def test_circle_antialiased(self):
        c = Canvas(20, 20)
        c.circle(10, 10, 4, "#000000")
        img = c.to_uint8()
        assert img[10, 10].sum() == 0          # center solid
        values = np.unique(img[..., 0])
        assert len(values) > 2                 # edge gradient exists

    def test_line_diagonal(self):
        c = Canvas(20, 20)
        c.line(0, 0, 19, 19, "#000000", width=1.5)
        img = c.to_uint8()
        assert img[10, 10, 0] < 100
        assert img[2, 17, 0] == 255

    def test_degenerate_line_is_dot(self):
        c = Canvas(10, 10)
        c.line(5, 5, 5, 5, "#000000", width=2)
        assert c.to_uint8()[5, 5, 0] < 128

    def test_plus_mark(self):
        c = Canvas(20, 20)
        c.plus(10, 10, 5, "#000000")
        img = c.to_uint8()
        assert img[10, 6, 0] < 100   # horizontal arm
        assert img[6, 10, 0] < 100   # vertical arm
        assert img[6, 6, 0] == 255   # diagonal empty

    def test_text_marks_pixels(self):
        c = Canvas(120, 30)
        c.text(4, 20, "Hello", "#000000", size=12)
        assert (c.to_uint8()[..., 0] < 128).sum() > 20

    def test_text_anchor_end(self):
        c1 = Canvas(100, 30)
        c1.text(90, 20, "abc", "#000000", anchor="end")
        img = c1.to_uint8()
        dark_cols = np.nonzero((img[..., 0] < 128).any(axis=0))[0]
        assert dark_cols.max() <= 92

    def test_bad_color(self):
        with pytest.raises(RenderError):
            hex_to_rgb("#12345")

    def test_offcanvas_clipped(self):
        c = Canvas(10, 10)
        c.circle(-20, -20, 3, "#000000")   # fully off: no crash
        assert (c.to_uint8() == 255).all()


class TestFont:
    def test_glyph_shape(self):
        assert glyph("A").shape == (7, 5)

    def test_unknown_renders_box(self):
        assert glyph("♞").any()

    def test_unicode_dash_folded(self):
        assert np.array_equal(glyph("—"), glyph("-"))

    def test_text_width_scales(self):
        assert text_width("ab", scale=2) == 2 * text_width("ab", scale=1)

    def test_empty_width(self):
        assert text_width("") == 0


class TestChartRaster:
    def _spec(self):
        rng = np.random.default_rng(1)
        return ChartSpec(
            title="raster test", x_axis=Axis("x"), y_axis=Axis("y"),
            series=[ScatterSeries("s", rng.random(50), rng.random(50))])

    def test_rasterize_shape(self):
        img = rasterize_chart(self._spec())
        assert img.shape == (560, 900, 3)
        assert img.dtype == np.uint8

    def test_render_png_with_sidecar(self, tmp_path):
        path = render_png(self._spec(), str(tmp_path / "c.png"))
        assert (tmp_path / "c.png").exists()
        assert (tmp_path / "c.png.json").exists()
        img = decode_png(open(path, "rb").read())
        assert img.shape == (560, 900, 3)

    def test_html2png_via_sidecar(self, tmp_path):
        spec = self._spec()
        html = str(tmp_path / "c.html")
        write_html(spec, html)
        save_primitives(spec, html)
        png = html_to_png(html)
        direct = rasterize_chart(spec)
        assert np.array_equal(decode_png(open(png, "rb").read()), direct)

    def test_sidecar_bytes_are_json_dump_bytes(self, tmp_path):
        """The sidecar holds what ``json.dump`` streams for the payload;
        serve's chart ETags hash these bytes."""
        spec = self._spec()
        spec.title = "raster tést"
        sidecar = save_primitives(spec, str(tmp_path / "c.html"))
        expected = io.StringIO()
        json.dump({"width": spec.width, "height": spec.height,
                   "calibration": spec.calibration(),
                   "primitives": [vars(p) for p in layout_chart(spec)]},
                  expected)
        with open(sidecar, encoding="utf-8") as fh:
            assert fh.read() == expected.getvalue()

    def test_html2png_missing_sidecar(self, tmp_path):
        html = tmp_path / "foreign.html"
        html.write_text("<html></html>")
        with pytest.raises(RenderError, match="sidecar"):
            html_to_png(str(html))
