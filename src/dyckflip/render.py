"""Figure output: paths drawn on a grid as ASCII art or SVG, with peak
points, segment endpoints and reflection lines taken from a mapping trace.

Both renderers are pure: the same spec always yields the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .bijection import BijectionTrace
from .errors import MAX_CELL_SIZE, RangeError
from .path import UP, LatticePath, height_array

MAX_ASCII_LENGTH = 120


@dataclass(frozen=True)
class RenderSpec:
    path: LatticePath
    trace: Optional[BijectionTrace] = None
    cell_size: int = 10
    show_axes: bool = False
    show_lines: bool = True

    def __post_init__(self) -> None:
        if self.cell_size < 1:
            raise RangeError(f"cell_size must be >= 1, got {self.cell_size}")
        if self.cell_size > MAX_CELL_SIZE:
            raise RangeError(f"cell_size must be <= {MAX_CELL_SIZE}, got {self.cell_size}")


def render_ascii(spec: RenderSpec) -> str:
    """Monospaced drawing: '/' per upstep, '\\' per downstep, one column per
    step. Rows are the unit bands between integer heights, topmost first;
    the bottom row without axes is the lowest band the path enters.

    Peaks from the trace are marked 'B' at the column right of the peak
    vertex; reflection lines fill free cells of the band under their level
    with '-'. With show_axes each row gets a "y|" gutter labelled with the
    band's lower height.
    """
    p = spec.path
    if p.length > MAX_ASCII_LENGTH:
        raise RangeError(f"ascii rendering supports up to {MAX_ASCII_LENGTH} steps")
    if p.length == 0:
        return ""
    h = p.heights
    bands = [min(h[j], h[j + 1]) for j in range(p.length)]
    top = max(bands)
    bottom = min(bands)
    grid = {b: [" "] * p.length for b in range(bottom, top + 1)}

    if spec.trace is not None and spec.show_lines:
        for level in spec.trace.reflection_lines:
            band = level - 1 if level > 0 else level
            if bottom <= band <= top:
                grid[band] = ["-"] * p.length

    for j, s in enumerate(p.steps):
        grid[bands[j]][j] = "/" if s == UP else "\\"

    if spec.trace is not None:
        for idx, height in spec.trace.b_points:
            if not 1 <= idx < p.length:
                continue
            band = height - 1 if h[idx - 1] < height else height
            if bottom <= band <= top:
                grid[band][idx] = "B"

    rows = []
    for band in range(top, bottom - 1, -1):
        line = "".join(grid[band]).rstrip()
        if spec.show_axes:
            line = f"{band:3d}|{line}"
        rows.append(line)
    return "\n".join(rows) + "\n"


def _multiples(n: int, cell: int) -> np.ndarray:
    """The decimal digits of 0, cell, ..., (n - 1)·cell as ASCII, one column
    per value, right-aligned to the widest (row 0 holds the leading digits),
    with NUL bytes for leading zeros. The values are int32 unless the last
    one needs int64."""
    last = (n - 1) * cell
    width = len(str(last))
    digits = np.empty((width, n), np.uint8)
    q = np.arange(n, dtype=np.int32 if last < 2**31 else np.int64)
    q *= cell
    q10 = np.empty_like(q)
    for row in digits[::-1]:
        # floor division by a constant is much faster than remainder or divmod
        np.floor_divide(q, 10, out=q10)
        q -= q10 * 10
        row[:] = q
        q, q10 = q10, q
    digits += ord("0")
    # the values increase, so those below 10^e are the first ceil(10^e / cell)
    for k in range(width - 1):
        digits[k, : -(-(10 ** (width - 1 - k)) // cell)] = 0
    return digits


def render_svg(spec: RenderSpec) -> str:
    """SVG document with the height profile as a polyline.

    Vertex j maps to (j*cell, (H - h_j)*cell) with H the maximum height, so
    the image is in conventional screen orientation. Reflection lines from
    the trace become dashed horizontal lines, B/G points circles with text
    labels. The extent comes from the path's int32 heights, and the
    polyline is written as one uint8 array: per vertex its x digits, a
    comma, the digits of its level's y (gathered from a table with one
    entry per level, a slice of the x digits' table) and a space, with the
    leading zeros dropped.
    """
    p = spec.path
    cell = spec.cell_size
    h = height_array(p)
    top = int(h.max())
    bottom = int(h.min())
    width = max(p.length * cell, cell)
    height = max((top - bottom) * cell, cell)

    def y(level: int) -> int:
        return (top - level) * cell

    # the document's lines, each with its newline, joined once at the end
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    ]
    if spec.show_axes:
        parts.append(
            f'<line x1="0" y1="{y(0)}" x2="{p.length * cell}" y2="{y(0)}" '
            'stroke="gray" stroke-width="1" />\n'
        )
    if spec.trace is not None and spec.show_lines:
        for level in spec.trace.reflection_lines:
            parts.append(
                f'<line x1="0" y1="{y(level)}" x2="{p.length * cell}" y2="{y(level)}" '
                'stroke="red" stroke-width="1" stroke-dasharray="4 2" />\n'
            )
    # one row per byte column of the "x,y " vertex fields, one column per vertex
    xs = _multiples(len(h), cell)
    # column r of ys is the y of level top - r, which is r·cell as column r
    # of xs is: there are no more levels than vertices, and the last rows of
    # xs hold the digits of r·cell to the width of the largest y
    ys = xs[len(xs) - len(str((top - bottom) * cell)) :, : top - bottom + 1]
    fields = np.empty((len(xs) + len(ys) + 2, len(h)), np.uint8)
    fields[: len(xs)] = xs
    fields[len(xs)] = ord(",")
    fields[len(xs) + 1 : -1] = ys.take(top - h, axis=1)
    fields[-1] = ord(" ")
    fields[-1, -1] = 0  # no space after the last vertex
    points = fields.T.tobytes().translate(None, b"\0").decode("ascii")
    parts += ['<polyline points="', points, '" fill="none" stroke="black" stroke-width="2" />\n']
    if spec.trace is not None:
        for tag, pts in (("B", spec.trace.b_points), ("G", spec.trace.g_points)):
            for k, (idx, level) in enumerate(pts, start=1):
                cx = idx * cell
                cy = y(level)
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="blue" />\n')
                parts.append(f'<text x="{cx + 4}" y="{cy - 4}" font-size="10">{tag}{k}</text>\n')
    parts.append("</svg>\n")
    return "".join(parts)
