"""The paper's constructions built on the `steps` and `heights` tuples,
sharing no code with the library: the peak decomposition, the crossing
search and segment flip, and phi and phi_inverse made of them.
test_decompose checks `decompose` against it, test_bijection checks the
maps, and test_bijection also checks that this file imports nothing of the
package but its types, error classes and byte constants."""

from dyckflip import Decomposition, DownStartError, EmptyPathError, LatticePath, NotBalancedError, Segment, SegmentKind
from dyckflip.path import DOWN_BYTE


def reference_heights(steps):
    h = [0]
    acc = 0
    for s in steps:
        acc += s
        h.append(acc)
    return tuple(h)


def reference_last_zero_touch(steps):
    h = reference_heights(steps)
    for j in range(len(h) - 1, -1, -1):
        if h[j] == 0:
            return j
    return 0


def reference_reflect_segment(steps, start, end):
    """The steps with those at positions in [start, end) flipped: the
    sub-path reflected about the horizontal line through vertex `start`,
    the suffix after `end` shifted rigidly."""
    return steps[:start] + tuple(-s for s in steps[start:end]) + steps[end:]


def reference_rightmost_crossing(h, level, search_end):
    """Largest interior vertex j < search_end where the heights `h` strictly
    cross the line at `level`: h[j - 1] and h[j + 1] lie on opposite sides
    of it. Touch points and the endpoints 0 and search_end never count."""
    for j in range(search_end - 1, 0, -1):
        if h[j] == level and (h[j - 1] - level) * (h[j + 1] - level) < 0:
            return j
    return None


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


def _flip(p):
    return LatticePath(reference_reflect_segment(p.steps, 0, p.length))


def _conjugate_fields(fields):
    b_points, g_points, lines, _ = fields
    return (
        tuple((i, -h) for i, h in b_points),
        tuple((i, -h) for i, h in g_points),
        tuple(-lvl for lvl in lines),
        True,
    )


def reference_phi(p):
    """phi as the paper builds it: decompose at the peaks, reflect every
    segment about its peak line and recompose. Returns the image and the
    trace's (b_points, g_points, reflection_lines, conjugated)."""
    if p.steps[0] == -1:
        image, fields = reference_phi(_flip(p))
        return _flip(image), _conjugate_fields(fields)
    d = reference_decompose(p)
    steps = []
    seg_ends = []
    for up_len, seg in d.parts:
        steps.extend([1] * up_len)
        steps.extend(-s for s in seg.steps.steps)
        seg_ends.append(seg.start_index + seg.steps.length)
    h = reference_heights(steps)
    b_points = tuple(zip(d.peak_indices, d.peak_heights))[::-1]
    g_points = tuple((j, h[j]) for j in seg_ends)[::-1]
    return LatticePath(steps), (b_points, g_points, tuple(h for _, h in b_points), False)


def reference_phi_inverse(p):
    """phi_inverse by unwinding one reflection at a time, each at the
    rightmost strict crossing of its line left of the current endpoint.
    Returns the preimage and the trace's fields, as reference_phi does."""
    if p.steps[0] == -1:
        pre, fields = reference_phi_inverse(_flip(p))
        return _flip(pre), _conjugate_fields(fields)
    steps = p.steps
    h = reference_heights(steps)
    g = len(steps)
    level = h[g] // 2
    b_points = []
    g_points = [(g, h[g])]
    lines = [level]
    while True:
        b = reference_rightmost_crossing(h, level, g)
        b_points.append((b, level))
        steps = reference_reflect_segment(steps, b, g)
        h = reference_heights(steps)
        j = b - 1
        while j >= 0 and steps[j] == 1:
            j -= 1
        if j < 0:
            break
        g = j + 1
        level = h[g]
        g_points.append((g, level))
        lines.append(level)
    return LatticePath(steps), (tuple(b_points), tuple(g_points), tuple(lines), False)
