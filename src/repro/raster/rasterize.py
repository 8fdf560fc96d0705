"""Chart → PNG drivers, and the HTML2PNG task.

:func:`render_png` goes straight from a :class:`ChartSpec`.
:func:`html_to_png` reproduces the paper's file-to-file task shape: the
dashboard stage writes ``chart.html`` plus a ``chart.html.prims.json``
sidecar (the serialized primitives — what a headless browser would
recompute from the DOM); HTML2PNG reads the sidecar and rasterizes it.
Both write the calibration JSON next to the PNG for the LLM stage.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro._util.errors import RenderError
from repro.charts.render import Primitive, layout_chart
from repro.charts.spec import ChartSpec
from repro.raster.draw import Canvas
from repro.raster.png import encode_png

__all__ = ["rasterize_chart", "render_png", "save_primitives",
           "html_to_png"]


def rasterize_chart(spec: ChartSpec) -> np.ndarray:
    """Rasterize a chart spec to an ``(H, W, 3)`` uint8 array."""
    canvas = Canvas(spec.width, spec.height)
    for prim in layout_chart(spec):
        canvas.draw(prim)
    return canvas.to_uint8()


def render_png(spec: ChartSpec, path: str) -> str:
    """Rasterize and write ``path`` (+ ``path.json`` calibration)."""
    image = rasterize_chart(spec)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(encode_png(image))
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(spec.calibration(), fh, indent=1)
    return path


def save_primitives(spec: ChartSpec, html_path: str) -> str:
    """Persist the chart's primitives sidecar next to its HTML file."""
    prims = layout_chart(spec)
    sidecar = html_path + ".prims.json"
    payload = {
        "width": spec.width,
        "height": spec.height,
        "calibration": spec.calibration(),
        "primitives": [vars(p) for p in prims],
    }
    os.makedirs(os.path.dirname(os.path.abspath(sidecar)), exist_ok=True)
    with open(sidecar, "w", encoding="utf-8") as fh:
        # dumps, not dump: one string from the C encoder, where dump
        # streams chunks through the pure-Python one (same bytes)
        fh.write(json.dumps(payload))
    return sidecar


def html_to_png(html_path: str, png_path: str | None = None) -> str:
    """Convert a written HTML chart to PNG via its primitives sidecar.

    This is the workflow's HTML2PNG task: input one HTML file, output one
    PNG (plus calibration JSON).  Raises :class:`RenderError` when the
    sidecar is missing — an HTML page we did not produce cannot be
    rasterized without a browser.
    """
    sidecar = html_path + ".prims.json"
    if not os.path.exists(sidecar):
        raise RenderError(
            f"no primitives sidecar for {html_path}; write charts through "
            "the workflow's dashboard stage")
    with open(sidecar, encoding="utf-8") as fh:
        payload = json.load(fh)
    canvas = Canvas(int(payload["width"]), int(payload["height"]))
    for raw in payload["primitives"]:
        canvas.draw(Primitive(**raw))
    png_path = png_path or os.path.splitext(html_path)[0] + ".png"
    os.makedirs(os.path.dirname(os.path.abspath(png_path)), exist_ok=True)
    with open(png_path, "wb") as fh:
        fh.write(encode_png(canvas.to_uint8()))
    with open(png_path + ".json", "w", encoding="utf-8") as fh:
        json.dump(payload["calibration"], fh, indent=1)
    return png_path
