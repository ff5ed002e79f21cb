"""Minimal static SVG 1.1 emission: quiver fields, polylines, axes.

No plotting framework: documents are built from a fixed, documented
coordinate transform (linear map from data space to a pixel viewport with a
margin), so outputs are diffable and byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MARGIN = 50.0
TICKS = 5  # per axis
ARROW_CAP = 0.8  # the longest arrow, in grid pitches
ARROW_STROKE = "#1f4e9c"
# arrows per formatted string in draw_quiver, so its text is built in bounded pieces
QUIVER_BLOCK = 4096


@dataclass
class Viewport:
    """Linear data-to-canvas-pixel transform for one panel; px and py also map
    arrays elementwise. The canvas sets ``left``, the panel's offset on it."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    width: float = 420.0
    height: float = 420.0
    left: float = field(default=0.0, init=False)

    def px(self, x: float) -> float:
        span = self.xmax - self.xmin or 1.0
        return MARGIN + (x - self.xmin) / span * self.width + self.left

    def py(self, y: float) -> float:
        span = self.ymax - self.ymin or 1.0
        return MARGIN + self.height - (y - self.ymin) / span * self.height


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _line_template(stroke, width) -> str:
    """A <line> whose four coordinates are ``%.2f`` fields; ``'%.2f' % x`` and
    ``_fmt(x)`` give the same bytes."""
    attrs = f' stroke="{stroke}" stroke-width="{width}"/>'.replace("%", "%%")
    return '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"' + attrs


class SvgCanvas:
    """Panels side by side, each a (distinct) viewport plus MARGIN on every side;
    accumulates SVG elements, and render() returns the full document."""

    def __init__(self, *viewports: Viewport):
        left = 0.0
        for vp in viewports:
            vp.left = left
            left += vp.width + 2 * MARGIN
        self.width = left
        self.height = max(vp.height for vp in viewports) + 2 * MARGIN
        self.elements: list[str] = []

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0):
        self.elements.append(_line_template(stroke, width) % (x1, y1, x2, y2))

    def polyline(self, pts, stroke="blue", width=1.5):
        """One polyline through pts, an (n, 2) array or a sequence of (x, y) pairs."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        coords = " ".join(["%.2f,%.2f"] * len(pts)) % tuple(pts.ravel().tolist())
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="{width}"/>'
        )

    def text(self, x, y, s, size=12, anchor="middle"):
        self.elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}"'
            f' text-anchor="{anchor}" font-family="sans-serif">{s}</text>'
        )

    def marker(self, x, y):
        self.line(x - 5.0, y - 5.0, x + 5.0, y + 5.0, stroke="green", width=2.0)
        self.line(x - 5.0, y + 5.0, x + 5.0, y - 5.0, stroke="green", width=2.0)

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}">\n'
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"


def draw_axes(canvas: SvgCanvas, vp: Viewport, xlabel: str, ylabel: str, title: str):
    """Frame, ticks and labels for one panel."""
    x0, x1 = MARGIN + vp.left, MARGIN + vp.left + vp.width
    y0, y1 = MARGIN, MARGIN + vp.height
    for (a, b, c, d) in [(x0, y1, x1, y1), (x0, y0, x0, y1)]:
        canvas.line(a, b, c, d, stroke="black", width=1.0)
    for t in np.linspace(vp.xmin, vp.xmax, TICKS):
        px = vp.px(t)
        canvas.line(px, y1, px, y1 + 5)
        canvas.text(px, y1 + 18, f"{t:g}", size=10)
    for t in np.linspace(vp.ymin, vp.ymax, TICKS):
        py = vp.py(t)
        canvas.line(x0 - 5, py, x0, py)
        canvas.text(x0 - 10, py + 4, f"{t:g}", size=10, anchor="end")
    canvas.text((x0 + x1) / 2, y1 + 35, xlabel, size=12)
    canvas.text(x0 - 35, MARGIN - 15, ylabel, size=12, anchor="start")
    canvas.text((x0 + x1) / 2, MARGIN - 15, title, size=13)


def draw_quiver(canvas: SvgCanvas, vp: Viewport, xs, ys, us, vs):
    """Arrows at (xs, ys) with direction (us, vs), lengths capped at ARROW_CAP cells.

    Arrow length is proportional to the vector norm, the largest finite one
    spanning ARROW_CAP grid pitches; zero and non-finite vectors draw nothing.
    The geometry is computed in array passes over all arrows, and
    each block of QUIVER_BLOCK arrows (a shaft and two arrowhead strokes
    each) is appended to the canvas as one string of ``<line>`` elements.
    """
    xs, ys, us, vs = (np.asarray(a, dtype=float).ravel() for a in (xs, ys, us, vs))
    norms = np.hypot(us, vs)
    pitch = min(vp.width, vp.height) / max(np.sqrt(norms.size), 1.0)
    drawn = np.isfinite(norms) & (norms != 0)
    xs, ys, us, vs, n = xs[drawn], ys[drawn], us[drawn], vs[drawn], norms[drawn]
    vmax = n.max() if n.size else 1.0
    length = np.minimum(n / vmax, 1.0) * ARROW_CAP * pitch
    dx, dy = us / n * length, -vs / n * length
    px, py = vp.px(xs), vp.py(ys)
    hx, hy = px + dx, py + dy
    ang = np.arctan2(dy, dx)
    # arrowhead: two short back-strokes from the tip
    heads = [(hx + 0.3 * length * np.cos(ang + da), hy + 0.3 * length * np.sin(ang + da))
             for da in (+2.6, -2.6)]
    coords = np.column_stack([px, py, hx, hy, hx, hy, *heads[0], hx, hy, *heads[1]])
    arrow = "\n".join([_line_template(ARROW_STROKE, 1.0)] * 3)
    for start in range(0, len(coords), QUIVER_BLOCK):
        block = coords[start:start + QUIVER_BLOCK]
        canvas.elements.append("\n".join([arrow] * len(block)) % tuple(block.ravel().tolist()))


def map_polyline(vp: Viewport, xs, ys) -> np.ndarray:
    """Pixel coordinates of the points (xs, ys) as an (n, 2) array."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    return np.column_stack([vp.px(xs), vp.py(ys)])
