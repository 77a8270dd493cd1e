"""Figure output: paths drawn on a grid as ASCII art or SVG, with peak
points, segment endpoints and reflection lines taken from a mapping trace.

Both renderers are pure: the same spec always yields the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .bijection import BijectionTrace
from .errors import RangeError
from .path import UP, LatticePath

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


def render_svg(spec: RenderSpec) -> str:
    """SVG document with the height profile as a polyline.

    Vertex j maps to (j*cell, (H - h_j)*cell) with H the maximum height, so
    the image is in conventional screen orientation. Reflection lines from
    the trace become dashed horizontal lines, B/G points circles with text
    labels.
    """
    p = spec.path
    cell = spec.cell_size
    h = p.heights
    top = max(h)
    bottom = min(h)
    width = max(p.length * cell, cell)
    height = max((top - bottom) * cell, cell)

    def y(level: int) -> int:
        return (top - level) * cell

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if spec.show_axes:
        parts.append(
            f'<line x1="0" y1="{y(0)}" x2="{p.length * cell}" y2="{y(0)}" '
            'stroke="gray" stroke-width="1" />'
        )
    if spec.trace is not None and spec.show_lines:
        for level in spec.trace.reflection_lines:
            parts.append(
                f'<line x1="0" y1="{y(level)}" x2="{p.length * cell}" y2="{y(level)}" '
                'stroke="red" stroke-width="1" stroke-dasharray="4 2" />'
            )
    # one % format over the x coordinates, exact ints that grow without bound
    # with the cell size, interleaved with a ",y " label per height
    labels = {level: f",{y(level)} " for level in range(bottom, top + 1)}
    xy = [0] * (2 * len(h))
    xy[::2] = range(0, len(h) * cell, cell)
    xy[1::2] = map(labels.__getitem__, h)
    points = ("%d%s" * len(h) % tuple(xy))[:-1]
    parts.append(f'<polyline points="{points}" fill="none" stroke="black" stroke-width="2" />')
    if spec.trace is not None:
        for tag, pts in (("B", spec.trace.b_points), ("G", spec.trace.g_points)):
            for k, (idx, level) in enumerate(pts, start=1):
                cx = idx * cell
                cy = y(level)
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="blue" />')
                parts.append(f'<text x="{cx + 4}" y="{cy - 4}" font-size="10">{tag}{k}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
