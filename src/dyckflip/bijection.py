"""The partial-reflection map between balanced paths and unbalanced paths.

The paper builds the forward map by decomposing an up-starting balanced
path at its peaks and reflecting every down segment upward about the
horizontal line through its peak, leaving the upruns alone; the inverse
reflects back segment by segment, each time at the rightmost strict
crossing of the current line (touch points do not count). A
down-starting path is the mirror image of an up-starting one, so the
mirror costs one sign: with s the first step, both directions find their
kept steps on the up-start mirror s*steps, write s where the paper writes
Up, and multiply every recorded height by s. Both directions are computed
here in closed form, in one linear pass each (the first-/last-passage
view behind the Chung-Feller theorem).

Forward, first passage. An uprun climbs from the previous peak height, the
highest point so far (the segment before it never rises above its start),
to a new peak, so each of its steps reaches a new strict maximum height;
no segment step does. Keeping the upruns and flipping the segments
therefore keeps exactly the first-passage up-steps and flips every other
step. The peaks are the ends of the maximal runs of kept steps, and the
image height at vertex j is 2*max(h_0..h_j) - h_j: it never re-touches the
baseline and ends at twice the input's maximum height M.

Inverse, last passage. In the image, the vertex of the global peak is the
rightmost strict crossing b of level M, i.e. 1 + the last vertex at height
M - 1. Before b, a kept step starts at a record height r of the preimage
and the image never comes back down to r before b, while every flipped
step starts at or above the image height of the next run's start.
So the kept steps are the up-steps j < b with h_j < min(h_{j+1..b}), found
by one suffix-minimum scan, and every other step is flipped back. The
trace of the inverse is the trace of the forward map of its preimage.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import List, Sequence, Tuple

from .errors import (
    NotBalancedError,
    NotUnbalancedError,
    OddLengthError,
    PreconditionError,
)
from .path import (
    DOWN,
    UP,
    LatticePath,
    PathClass,
    classify,
    concat,
    first_passage_runs,
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


def _mirror_runs(steps: Sequence[int]) -> Tuple[int, List[Tuple[int, int]]]:
    """Sign s of the first step (Up when there is none) and the first-passage
    runs of the up-start mirror s*steps; only a down start is negated."""
    if steps and steps[0] == DOWN:
        return DOWN, first_passage_runs([-x for x in steps])
    return UP, first_passage_runs(steps)


def _flip_outside(steps: Sequence[int], runs: List[Tuple[int, int]], s: int) -> List[int]:
    out = [-x for x in steps]
    for start, end in runs:
        out[start:end] = [s] * (end - start)
    return out


def _trace(
    runs: List[Tuple[int, int]], length: int, direction: Direction, s: int
) -> BijectionTrace:
    """Trace of the forward map of a balanced path whose first step is s and
    whose up-start mirror has these first-passage runs; phi_inverse reports
    the trace of its preimage."""
    b_points: List[Point] = []
    g_points: List[Point] = []
    top = 0
    for start, end in runs:
        if top:
            # a later run starts at the previous peak height, in the image too
            g_points.append((start, s * top))
        top += end - start
        b_points.append((end, s * top))
    g_points.append((length, s * 2 * top))
    b_points.reverse()
    g_points.reverse()
    return BijectionTrace(
        b_points=tuple(b_points),
        g_points=tuple(g_points),
        reflection_lines=tuple(h for _, h in b_points),
        direction=direction,
        conjugated=s == DOWN,
    )


def phi(p: LatticePath) -> Tuple[LatticePath, BijectionTrace]:
    """Map a balanced path to an unbalanced path of the same length."""
    if p.length == 0:
        return p, _empty_trace(Direction.FORWARD)
    if p.end_height != 0:
        raise NotBalancedError("input path must end at height 0")
    s, runs = _mirror_runs(p.steps)
    image = LatticePath(tuple(_flip_outside(p.steps, runs, s)))
    return image, _trace(runs, p.length, Direction.FORWARD, s)


def phi_inverse(p: LatticePath) -> Tuple[LatticePath, BijectionTrace]:
    """Recover the balanced path whose image is p (unbalanced, even length)."""
    if p.length == 0:
        return p, _empty_trace(Direction.INVERSE)
    if p.length % 2:
        raise OddLengthError("unbalanced image paths have even length")
    cls = classify(p)
    if cls not in (PathClass.UP_UNBALANCED, PathClass.DOWN_UNBALANCED):
        raise NotUnbalancedError(f"input path is {cls.value}, expected unbalanced")
    pre = phi_inverse_steps(p.steps)
    s, runs = _mirror_runs(pre)
    return LatticePath(tuple(pre)), _trace(runs, p.length, Direction.INVERSE, s)


# --- step-level kernels: the census calls these on raw step lists ---


def phi_steps(steps: Sequence[int]) -> List[int]:
    """phi on a balanced step list, without trace capture."""
    s, runs = _mirror_runs(steps)
    return _flip_outside(steps, runs, s)


def phi_inverse_steps(steps: Sequence[int]) -> List[int]:
    """phi_inverse on a nonempty unbalanced step list, without trace capture."""
    s = steps[0]
    # heights of the up-start mirror s*steps
    h = list(accumulate(steps if s == UP else [-x for x in steps], initial=0))
    # 1 + the last vertex at height M - 1 is the rightmost strict crossing
    # of the first reflection line M = h[-1] / 2
    b = len(h) - h[::-1].index(h[-1] // 2 - 1)
    out = [-x for x in steps]
    low = h[b]
    for j in range(b - 1, -1, -1):
        if h[j] < low:
            low = h[j]
            out[j] = s
    return out


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
    if t1.steps[0] == DOWN:
        raise PreconditionError("t1 must start with an upstep")
    if t2.end_height != 0:
        raise PreconditionError("t2 must be balanced")
    if max_height(t2)[0] > max_height(t1)[0]:
        raise PreconditionError("t2 must not be higher than t1")
    lhs = phi(concat(t1, t2))[0]
    rhs = concat(phi(t1)[0], reflect_all(t2))
    return lhs == rhs
