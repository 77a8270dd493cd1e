"""The partial-reflection map between balanced paths and unbalanced paths,
and the peak decomposition of an up-starting balanced path it is built on.

Every such path splits uniquely as

    [upsteps, seg_m, upsteps, seg_{m-1}, ..., upsteps, seg_1]

where each intermediate segment is a "down-Dyck" piece (starts with a
downstep, never rises above its start level, returns to it) and the final
segment is "down-unbalanced" (same, but ends strictly below its start level,
at absolute height 0). The peak in front of each segment is the leftmost
highest vertex of the region it closes off.

The paper builds the forward map by decomposing an up-starting balanced
path at its peaks and reflecting every down segment upward about the
horizontal line through its peak, leaving the upruns alone; the inverse
reflects back segment by segment, each time at the rightmost strict
crossing of the current line (touch points do not count). A
down-starting path is the mirror image of an up-starting one, so the
mirror costs one sign: with s the first step, both directions find their
kept steps on the up-start mirror s*steps, write s where the paper writes
Up, and multiply every recorded height by s. Both directions are computed
in closed form, one numpy scan each (the first-/last-passage view behind
the Chung-Feller theorem), by two kernels over int8 step arrays of shape
(rows, L): phi_rows and phi_inverse_rows, which phi and phi_inverse run on
one row and the census on a run. Each also returns its mask of kept
steps; the inverse's on a path is the forward map's on its preimage, so
one trace builder serves both. Each also marks its domain, read off the
scan it already makes: phi_rows the balanced rows, phi_inverse_rows the
unbalanced ones. phi and phi_inverse check their input against that mask,
not against classify, and then record the classes of their input and
output on both paths (the output's by the paper's theorem: a balanced
path maps to the unbalanced class of its first step, and back), so
classify on either does no scan.

Forward, first passage. An uprun climbs from the previous peak height, the
highest point so far (the segment before it never rises above its start),
to a new peak, so each of its steps reaches a new strict maximum height;
no segment step does. Keeping the upruns and flipping the segments
therefore keeps exactly the steps where the prefix maximum of the heights
rises, and flips every other step. The peaks are the ends of the maximal
runs of kept steps (decompose reads its upruns off the same mask), and
the image height at vertex j is 2*max(h_0..h_j) - h_j: it never re-touches
the baseline and ends at twice the input's maximum height M.

Inverse, last passage. Let M be half the image's end height (the
preimage's maximum) and b the vertex of the global peak: the image is at
M - 1 at b - 1 and, being the final segment reflected upward from b on,
never below M after it. Before b, a kept step starts at a record height r
of the preimage and the image never comes back down to r before b, while
every flipped step starts at or above the image height of the next run's
start. Since for j < b the suffix minimum of the whole row is the one up
to b, the kept steps are the j with h_j < min(h_{j+1..L}) and h_j < M, the
level cut standing in for j < b: one scan, with no crossing search, whose
value at vertex 1 also gives the domain. Every other step is flipped back.
These are the steps the forward map keeps on the preimage, so the trace
of the inverse is the trace of the forward map of its preimage.

The decomposition, off the same mask. `decompose` reads its upruns off
the forward map's mask of kept steps, by the reader the trace uses, and
cuts its segments from the steps between them. The decomposition is
unique, so `validate` and `recompose` read validity off it: a
`Decomposition` is valid iff it equals `decompose` of the path its parts
join into.

A path of k peaks decomposes into k parts, and the many-peak paths are
where the paper's map does the most work. So `decompose` builds its parts
in whole-list passes, with no Python loop per peak: the segments' bytes
come from one split of the path's bytes, and the `Segment` named tuples
and the parts from map and zip over the runs (a segment's one Python call
is the `LatticePath._trusted` that wraps its bytes), with the garbage
collector paused while they are built.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat
from operator import sub
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import (
    DomainError,
    DownStartError,
    EmptyPathError,
    NotBalancedError,
    NotUnbalancedError,
    OddLengthError,
    PreconditionError,
    ValidationError,
)
from .path import (
    DOWN,
    DOWN_BYTE,
    UP,
    UP_BYTE,
    LatticePath,
    PathClass,
    classify,
    concat,
    height_array,
    max_height,
    reflect_all,
)

Point = Tuple[int, int]  # (vertex index, height)


class Direction(Enum):
    FORWARD = "Forward"
    INVERSE = "Inverse"


@dataclass(frozen=True)
class BijectionTrace:
    """Peak points, segment endpoints and reflection lines recorded while
    mapping, in discovery order (global peak / final endpoint first)."""

    b_points: Tuple[Point, ...]
    g_points: Tuple[Point, ...]
    reflection_lines: Tuple[int, ...]
    direction: Direction
    conjugated: bool = False


def _empty_trace(direction: Direction) -> BijectionTrace:
    return BijectionTrace((), (), (), direction)


def _mirror_heights(steps: np.ndarray) -> np.ndarray:
    """Heights h_0..h_L of each row's up-start mirror s*steps, s its first
    step; int32 holds +-L for a path of any length."""
    h = np.zeros((steps.shape[0], steps.shape[1] + 1), dtype=np.int32)
    np.multiply(steps, steps[:, :1], out=h[:, 1:])
    np.add.accumulate(h[:, 1:], axis=1, out=h[:, 1:])
    return h


def _first_passage(h: np.ndarray) -> np.ndarray:
    """The first-passage mask of heights h_0..h_L on the last axis: the
    steps that reach a new strict maximum. Scans h in place."""
    top = np.maximum.accumulate(h, axis=-1, out=h)
    return top[..., 1:] > top[..., :-1]


def phi_rows(steps: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi on every row of an int8 array of step rows: the images and the
    mask of kept steps, junk off the domain, and the domain: rows that end
    at height 0."""
    h = _mirror_heights(steps)
    balanced = h[:, -1] == 0  # before the scan overwrites h
    kept = _first_passage(h)
    return np.where(kept, steps, -steps), kept, balanced


def phi_inverse_rows(steps: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_inverse on every row of an int8 array of step rows of even length,
    zero included: the preimages, their kept steps (phi_rows' mask on them),
    junk off the domain, and the domain: rows whose mirror stays above 0."""
    h = _mirror_heights(steps)
    # low_j = min(h_j..h_L), so low_L = h_L = 2M
    low = np.minimum.accumulate(h[:, ::-1], axis=1, out=h[:, ::-1])[:, ::-1]
    # step j is kept iff the suffix minimum rises after vertex j, below M
    kept = (low[:, :-1] < low[:, 1:]) & (low[:, :-1] < low[:, -1:] // 2)
    return np.where(kept, steps, -steps), kept, low[:, 1:2].min(axis=1, initial=1) > 0


def _upruns(kept: np.ndarray, s: int = UP) -> Tuple[List[int], List[int], List[int]]:
    """The upruns of an up-start balanced path, from its first-passage mask:
    the start and end vertex of each maximal run of kept steps and the
    height of its end, the peak, times s, left to right."""
    # the vertices where the mask changes, after 0: the first step is kept
    # and the last is not, so they are the end of the first run of kept
    # steps, then the start and end of each later one
    edges = [0, *((kept[1:] != kept[:-1]).nonzero()[0] + 1).tolist()]
    starts = edges[::2]
    ends = edges[1::2]
    # each later run starts at the height of the peak before it; a run
    # rises end - start, which s = -1 turns into a fall of start - end
    return starts, ends, list(accumulate(map(sub, ends, starts) if s == UP else map(sub, starts, ends)))


def _trace(kept: np.ndarray, direction: Direction, s: int) -> BijectionTrace:
    """Trace of the forward map of a balanced path whose first step is s,
    from the kept-step mask of its up-start mirror."""
    starts, ends, heights = _upruns(kept, s)
    # the peak heights times s, right to left; in the image too, each later
    # run starts at the height of the peak before it
    peaks = heights[::-1]
    return BijectionTrace(
        b_points=tuple(zip(ends[::-1], peaks)),
        g_points=((len(kept), 2 * peaks[0]), *zip(starts[:0:-1], peaks[1:])),
        reflection_lines=tuple(peaks),
        direction=direction,
        conjugated=s == DOWN,
    )


def _row(p: LatticePath) -> np.ndarray:
    """The steps of p as one read-only int8 row, sharing its buffer."""
    return np.frombuffer(p._buf, dtype=np.int8).reshape(1, -1)


def _first_step(p: LatticePath) -> int:
    return DOWN if p._buf.startswith(DOWN_BYTE) else UP


def _unbalanced(s: int) -> PathClass:
    """The unbalanced class of a path whose first step is s."""
    return PathClass.UP_UNBALANCED if s == UP else PathClass.DOWN_UNBALANCED


def _classed(row: np.ndarray, cls: PathClass) -> LatticePath:
    """The path of one kernel row, with the class the map gives it."""
    q = LatticePath._trusted(row.tobytes())
    q._cls = cls
    return q


def phi(p: LatticePath) -> Tuple[LatticePath, BijectionTrace]:
    """Map a balanced path to an unbalanced path of the same length."""
    if p.length == 0:
        return p, _empty_trace(Direction.FORWARD)
    image, kept, balanced = phi_rows(_row(p))
    if not balanced[0]:
        raise NotBalancedError("input path must end at height 0")
    s = _first_step(p)
    p._cls = PathClass.BALANCED
    return _classed(image, _unbalanced(s)), _trace(kept[0], Direction.FORWARD, s)


def phi_inverse(p: LatticePath) -> Tuple[LatticePath, BijectionTrace]:
    """Recover the balanced path whose image is p (unbalanced, even length)."""
    if p.length == 0:
        return p, _empty_trace(Direction.INVERSE)
    if p.length % 2:
        raise OddLengthError("unbalanced image paths have even length")
    pre, kept, unbalanced = phi_inverse_rows(_row(p))
    if not unbalanced[0]:
        raise NotUnbalancedError(f"input path is {classify(p).value}, expected unbalanced")
    s = _first_step(p)
    p._cls = _unbalanced(s)
    return _classed(pre, PathClass.BALANCED), _trace(kept[0], Direction.INVERSE, s)


def verify_roundtrip(p: LatticePath) -> bool:
    """True iff mapping there and back reproduces p exactly."""
    cls = classify(p)
    if cls is PathClass.BALANCED:
        return phi_inverse(phi(p)[0])[0] == p
    if cls in (PathClass.UP_UNBALANCED, PathClass.DOWN_UNBALANCED):
        return phi(phi_inverse(p)[0])[0] == p
    raise NotUnbalancedError("path is neither balanced nor unbalanced")


def compose_law_check(t1: LatticePath, t2: LatticePath) -> bool:
    """Check phi(t1 + t2) == phi(t1) + reflect_all(t2).

    Requires t1 nonempty balanced and up-starting, t2 balanced, and t2 no
    higher than t1 (so the global peak of the joined path stays in t1).
    """
    if t1.length == 0:
        raise PreconditionError("t1 must be nonempty")
    if t1.end_height != 0:
        raise PreconditionError("t1 must be balanced")
    if _first_step(t1) == DOWN:
        raise PreconditionError("t1 must start with an upstep")
    if t2.end_height != 0:
        raise PreconditionError("t2 must be balanced")
    if max_height(t2)[0] > max_height(t1)[0]:
        raise PreconditionError("t2 must not be higher than t1")
    lhs = phi(concat(t1, t2))[0]
    rhs = concat(phi(t1)[0], reflect_all(t2))
    return lhs == rhs


class SegmentKind(Enum):
    DOWN_DYCK = "DownDyck"
    DOWN_UNBALANCED = "DownUnbalanced"


class Segment(NamedTuple):
    """A down-Dyck or down-unbalanced fragment, located in its parent path.

    A named tuple: immutable, built and hashed as a tuple, so it also
    compares equal to the plain tuple (kind, steps, start_index) and
    unpacks into it.
    """

    kind: SegmentKind
    steps: LatticePath
    start_index: int


@dataclass(frozen=True)
class Decomposition:
    """Alternating (uprun, segment) parts plus the peak vertices.

    peak_indices/peak_heights run left-to-right along the path, i.e. from
    the lowest peak to the global maximum; the global maximum is last and
    fronts the down-unbalanced segment.
    """

    parts: Tuple[Tuple[int, Segment], ...]
    peak_indices: Tuple[int, ...]
    peak_heights: Tuple[int, ...]


def decompose(p: LatticePath) -> Decomposition:
    """Split an up-starting balanced path into upruns and down segments.

    The upruns are the maximal runs of first-passage up-steps, the steps
    that reach a new strict maximum height, and their ends are the peaks:
    the runs of phi's kept steps, read off the same mask by the same
    reader. Each segment is the bytes of the path from its peak to the
    start of the next run, the last one to the end.
    """
    if p.length == 0:
        raise EmptyPathError("cannot decompose the empty path")
    h = height_array(p)
    if h[-1] != 0:
        raise NotBalancedError("path does not end at height 0")
    if p._buf.startswith(DOWN_BYTE):
        raise DownStartError("path starts with a downstep; reflect it first")

    kept = _first_passage(h)
    starts, ends, heights = _upruns(kept)
    # the segments are what is left between the runs of kept steps: blank
    # those to NUL, and the non-empty pieces between NULs are the segments
    pieces = filter(None, np.where(kept, 0, np.frombuffer(p._buf, np.int8)).tobytes().split(b"\0"))
    kinds = [SegmentKind.DOWN_DYCK] * (len(ends) - 1) + [SegmentKind.DOWN_UNBALANCED]
    segments = map(tuple.__new__, repeat(Segment), zip(kinds, map(LatticePath._trusted, pieces), ends))
    # the collector finds no garbage here (a path, a segment and a part a
    # peak, with no cycle among them), but every 700 of them would set off
    # a pass, and its passes over the old generation grow with the parts
    enabled = gc.isenabled()
    gc.disable()
    try:
        parts = tuple(zip(map(sub, ends, starts), segments))
    finally:
        if enabled:
            gc.enable()
    return Decomposition(parts=parts, peak_indices=tuple(ends), peak_heights=tuple(heights))


def _check(d: Decomposition) -> Tuple[LatticePath, List[str]]:
    """The path d's parts join into, and each part and peak list of d that
    differs from that path's decomposition, which is unique."""
    p = LatticePath._trusted(b"".join([UP_BYTE * up_len + seg.steps._buf for up_len, seg in d.parts]))
    try:
        e = decompose(p)
    except DomainError as exc:
        return p, [f"recomposed path: {exc}"]
    # tuple(): a part given as a list counts as its tuple
    violations = [f"{len(d.parts)} parts, not {len(e.parts)}"] if len(d.parts) != len(e.parts) else []
    for k, (got, (run, seg)) in enumerate(zip(d.parts, e.parts)):
        if tuple(got) != (run, seg):
            word = "down-Dyck" if seg.kind is SegmentKind.DOWN_DYCK else "down-unbalanced"
            violations.append(f"part {k}: expected uprun {run}, {word} segment {seg.steps} at {seg.start_index}")
    peaks = (("indices", d.peak_indices, e.peak_indices), ("heights", d.peak_heights, e.peak_heights))
    violations += [f"peak {name} {tuple(got)}, expected {want}" for name, got, want in peaks if tuple(got) != want]
    return p, violations


def validate(d: Decomposition) -> List[str]:
    """Each way d differs from its path's decomposition; empty iff d is valid."""
    return _check(d)[1]


def recompose(d: Decomposition) -> LatticePath:
    """The path d's parts join into, if d is its decomposition."""
    p, violations = _check(d)
    if violations:
        raise ValidationError(violations[0])
    return p
