"""The peak decomposition built on the `heights` tuple alone, sharing no
code with the library. test_decompose checks `decompose` against it, and
test_bijection builds the paper's construction of phi on it."""

from dyckflip import DownStartError, EmptyPathError, LatticePath, NotBalancedError, SegmentKind
from dyckflip.decompose import Decomposition, Segment
from dyckflip.path import DOWN_BYTE


def reference_decompose(p):
    """The peak decomposition read off the `heights` tuple: each uprun ends
    at the next down-step, and the next one starts one vertex before the
    first visit, found by `h.index`, to the level above its peak."""
    if p.length == 0:
        raise EmptyPathError("cannot decompose the empty path")
    if p.end_height != 0:
        raise NotBalancedError("path does not end at height 0")
    if p._buf.startswith(DOWN_BYTE):
        raise DownStartError("path starts with a downstep; reflect it first")
    buf, h = p._buf, p.heights
    parts, peak_indices, peak_heights = [], [], []
    start = top = 0
    kind = SegmentKind.DOWN_DYCK
    while kind is SegmentKind.DOWN_DYCK:
        end = buf.find(DOWN_BYTE, start)
        top += end - start
        try:
            next_start = h.index(top + 1, end) - 1
        except ValueError:
            next_start, kind = p.length, SegmentKind.DOWN_UNBALANCED
        parts.append((end - start, Segment(kind, LatticePath._trusted(buf[end:next_start]), end)))
        peak_indices.append(end)
        peak_heights.append(top)
        start = next_start
    return Decomposition(parts=tuple(parts), peak_indices=tuple(peak_indices), peak_heights=tuple(peak_heights))
