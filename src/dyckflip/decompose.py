"""Peak decomposition of an up-starting balanced path.

Every such path splits uniquely as

    [upsteps, seg_m, upsteps, seg_{m-1}, ..., upsteps, seg_1]

where each intermediate segment is a "down-Dyck" piece (starts with a
downstep, never rises above its start level, returns to it) and the final
segment is "down-unbalanced" (same, but ends strictly below its start level,
at absolute height 0). The peak in front of each segment is the leftmost
highest vertex of the region it closes off. So `validate` and `recompose`
read validity off uniqueness: a `Decomposition` is valid iff it equals
`decompose` of the path its parts join into.

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
from itertools import repeat
from operator import sub
from typing import List, NamedTuple, Tuple

import numpy as np

from .bijection import _first_passage, _upruns
from .errors import (
    DomainError,
    DownStartError,
    EmptyPathError,
    NotBalancedError,
    ValidationError,
)
from .path import DOWN_BYTE, UP_BYTE, LatticePath, height_array


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
