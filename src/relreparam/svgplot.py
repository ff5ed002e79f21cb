"""Minimal static SVG 1.1 emission: quiver fields, polylines, axes.

No plotting framework: documents are built from a fixed, documented
coordinate transform (linear map from data space to a pixel viewport with a
margin), so outputs are diffable and byte-stable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

MARGIN = 50.0
TICKS = 5  # per axis
ARROW_CAP = 0.8  # the longest arrow, in grid pitches
ARROW_STROKE = "#1f4e9c"
# arrows per formatted string in draw_quiver, so its text is built in bounded pieces
QUIVER_BLOCK = 512


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
    Each arrow's 8 distinct coordinates are written by _hundredths, the
    same bytes as ``'%.2f' %``: exact round-half-even in int64 for
    |x| < 2**52, ``'%.2f' %`` one by one past that and for nan and inf.
    Polylines, axes and text keep ``%`` formatting: at their sizes (a few to
    ~100 points) the array passes cost more than they save.
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
    coords = np.column_stack([px, py, hx, hy, *heads[0], *heads[1]])
    for start in range(0, len(coords), QUIVER_BLOCK):
        canvas.elements.append(_arrow_text(coords[start:start + QUIVER_BLOCK]))


# one arrow's text, a shaft from (px, py) to the tip (hx, hy) and two
# arrowhead strokes from the tip, and the coordinate each %.2f field takes
_ARROW_ROW = "\n".join([_line_template(ARROW_STROKE, 1.0)] * 3) + "\n"
_ARROW_COLUMNS = (0, 1, 2, 3, 2, 3, 4, 5, 2, 3, 6, 7)


def _arrow_text(coords: np.ndarray) -> str:
    """The ``<line>`` elements of the arrows whose 8 coordinates are the rows
    of coords (px, py, hx, hy and the two arrowhead ends), newline-separated.
    Each arrow is one fixed-width byte row: a copy of the constant text with
    its coordinate fields written in, whose 0 bytes are dropped at the end."""
    fields = _hundredths(coords).reshape(len(coords), 8, -1)
    width = fields.shape[2]
    pieces = _ARROW_ROW.split("%.2f")
    template = np.frombuffer(("\0" * width).join(pieces).encode(), dtype=np.uint8)
    rows = np.tile(template, (len(coords), 1))
    at = 0
    for piece, column in zip(pieces, _ARROW_COLUMNS):
        at += len(piece)
        rows[:, at:at + width] = fields[:, column]
        at += width
    flat = rows.ravel()[:-1]
    return flat[flat != 0].tobytes().decode("ascii")


def _hundredths(x: np.ndarray) -> np.ndarray:
    """``'%.2f' % v`` for each v of the float64 array x, one uint8 row each:
    the ASCII text with 0 bytes between and around its pieces, which the
    caller drops.

    For |v| < 2**52 the rounding is exact and in integers only: v's bits give
    its integer significand M and a shift s with |v| = M / 2**s (s >= 1), and
    N = round-half-even(M * 100 / 2**s) comes from one shift and a comparison
    of the remainder with the exact half; M * 100 < 2**60 fits in int64. This
    is the correctly rounded conversion ``'%.2f'`` makes, ties to even. The
    digits of N are looked up 3 at a time in _digit_words' tables, and the
    sign comes from the sign bit, so -0.001 gives "-0.00" as Python writes
    it. Larger values, nan and inf get ``'%.2f' % v`` one by one. numpy
    dispatches even its integer ufuncs to SIMD kernels, but every step here
    is exact, so the bytes do not depend on the dispatch level.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    bits = x.view(np.int64)
    biased = bits >> 52 & 0x7FF
    significand = bits & (1 << 52) - 1 | (biased != 0).astype(np.int64) << 52
    shift = 1075 - np.maximum(biased, 1)
    exact = shift >= 1
    shift = np.clip(shift, 1, 62)  # from 62 on, M * 100 < 2**60 is below the half
    scaled = significand * 100
    n = scaled >> shift
    rest = scaled - (n << shift)
    half = np.left_shift(1, shift - 1)
    n += (rest > half) | (rest == half) & (n & 1 == 1)
    n[~exact] = 0  # their rows are written one by one below

    units = n // 100
    top, chunks = int(units.max(initial=0)), 1
    while top >= 1000 ** chunks:
        chunks += 1
    # one uint32 word per 3-digit chunk of the units, most significant first,
    # then the cents; the leading chunk's word carries the sign
    unit_words, cent_words = _digit_words()
    words = np.empty((n.size, chunks + 1), dtype=np.uint32)
    words[:, -1] = cent_words.take(n - 100 * units)
    table = 1 + (bits < 0)  # of the leading chunk: 1 positive, 2 negative
    for k in range(chunks):
        higher = units // 1000
        index = units - 1000 * higher + 1000 * table * (higher == 0)
        if k:
            index[units == 0] = _BLANK
        words[:, -2 - k] = unit_words.take(index)
        units = higher
    out = words.view(np.uint8)

    inexact = np.flatnonzero(~exact)
    if inexact.size:
        texts = [("%.2f" % v).encode() for v in x[inexact].tolist()]
        width = max(out.shape[1], *map(len, texts))
        out = np.pad(out, ((0, 0), (width - out.shape[1], 0)))
        for i, t in zip(inexact, texts):
            out[i] = 0
            out[i, width - len(t):] = np.frombuffer(t, dtype=np.uint8)
    return out


_BLANK = 3000  # the index of the 0 word in _digit_words' units


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The uint32 words of _hundredths, 4 ASCII or 0 bytes each: for a 3-digit
    chunk c, "ddd" at index c, and the leading chunk's "%d" and "-%d" of c at
    1000 + c and 2000 + c, then the blank; ".dd" for the cents. Built from
    Python's own formatting, once, on first use."""
    def words(texts):
        return np.frombuffer("".join(texts).replace(" ", "\0").encode(), dtype=np.uint32)
    chunks = range(1000)
    units = words([f" {c:03d}" for c in chunks] + [f"{c:4d}" for c in chunks]
                  + [f"{'-' + str(c):>4}" for c in chunks] + ["    "])
    return units, words([f".{c:02d} " for c in range(100)])


def map_polyline(vp: Viewport, xs, ys) -> np.ndarray:
    """Pixel coordinates of the points (xs, ys) as an (n, 2) array."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    return np.column_stack([vp.px(xs), vp.py(ys)])
