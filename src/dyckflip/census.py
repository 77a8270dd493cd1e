"""Exhaustive verification over the rank space, with numpy. The identity,
its report, its bounds and the state tally live in `identity`, which loads
no numpy and no other module of this package; the sweep's bound,
`MAX_BIJECTION_N`, lives here.

The partial-reflection map is a bijection between balanced and unbalanced
paths of each even length, verified by sweeping the whole rank space:
every balanced path is mapped, its image must never touch height 0 and
must map back to it, and the two classes are counted. The inverse maps
each image row on its own, so when every round trip holds it is a left
inverse and the map is one-to-one; its domain mask makes every image
unbalanced, and as many distinct images as there are unbalanced paths are
all of them, so the counts prove that the map is onto.

The census reads the codes a run at a time: a run is the 2^k codes that
share one high part, k = `_low_bits(length)`. A path's code has bit j set
iff step j is Up, so its low k bits are its first k steps and its high
bits the rest. Each half of a code is summed up by three heights, from
its own start: where it ends, and the lowest and highest it reaches after
its start (`_half_stats`, one table per half, built by doubling with no
code decoded); of the low half it keeps only the end heights and the
masks of the halves that stay above, or below, 0 (`_low_halves`).
`_class_codes` selects each run's codes of one class with
one `_class_mask` call, in classify's precedence: a path is balanced iff
its two ends sum to 0, up-unbalanced iff its low half stays above 0 and
its high half above minus the low half's end, down-unbalanced likewise
below, and Other else. `enumerate_class` and the bijection sweep both
iterate `_class_codes`, and `path.unrank_rows` decodes the codes it gives
into int8 step rows. The sweep checks each run in one call,
`_round_trip_failures`, which runs the rows of the run's balanced codes
through the row kernels of `bijection`, forward and back, which phi and
phi_inverse run on one row; a run's arrays go when the call returns. Its
unbalanced count is the state tally at vertex 0
(`identity._last_zero_tally`), the count the structural identity reports.
It returns a `CensusReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import OddLengthError, RangeError
from .bijection import phi_inverse_rows, phi_rows
from .identity import _last_zero_tally, _Report, identity_lhs
from .path import LatticePath, PathClass, unrank_rows

# sets the run length of `_class_codes`: a run holds 2^k codes, where k is
# its bit length less one as `_low_bits` raises and caps it; any value
# gives the same reports, and a run bounds the memory of its codes and rows
_CHUNK = 1 << 16

MAX_BIJECTION_N = 12


@dataclass(frozen=True)
class CensusReport(_Report):
    """Exact counts and verdicts of `verify_bijection` for one half-length n.

    It has the fields of `identity.IdentityReport` and shares its verdict
    and text forms; the sweep never fills structural_tallies or
    tally_mismatches. A frozen dataclass, not a named tuple: it does not
    equal the tuple of its fields, and the benchmark's tests copy it with
    `dataclasses.replace`.
    """

    n: int
    total_paths: int
    balanced_count: int
    unbalanced_count: int
    identity_lhs: int
    identity_rhs: int
    bijection_ok: bool
    roundtrip_failures: Tuple[int, ...]
    elapsed: float
    structural_tallies: Optional[Tuple[int, ...]] = None
    tally_mismatches: Tuple[int, ...] = ()


def last_zero_touch(p: LatticePath) -> int:
    """Largest vertex index at height 0 (0 if the path never returns)."""
    h = p.heights
    return len(h) - 1 - h[::-1].index(0)  # h[0] = 0, so there is one


def split_at_last_zero(p: LatticePath) -> Tuple[LatticePath, LatticePath]:
    """Split into (balanced prefix, suffix that never re-touches its start).

    The suffix is empty when the path itself is balanced.
    """
    if p.length % 2:
        raise OddLengthError("split requires an even-length path")
    j = last_zero_touch(p)
    return LatticePath._trusted(p._buf[:j]), LatticePath._trusted(p._buf[j:])


def enumerate_class(length: int, cls: Optional[PathClass] = None) -> Iterator[LatticePath]:
    """All paths of the given length matching the class filter, in rank order."""
    if not 0 <= length <= 30:
        raise RangeError(f"length must be in [0, 30], got {length}")
    if cls is not None and not isinstance(cls, PathClass):
        raise ValueError(f"class filter must be None or a PathClass, got {cls!r}")
    for codes in _class_codes(length, cls):
        # each row's bytes from a view of the row, not from one copy of the
        # run's rows, which would hold both at once
        yield from map(LatticePath._trusted, map(np.ndarray.tobytes, unrank_rows(codes, length)))


def _low_bits(length: int) -> int:
    """k, the number of low bits of a code: a run holds 2^k codes. It is
    `_CHUNK`'s bit length less one, raised to half the length, so that no
    patched `_CHUNK`, however small, leaves more than 2^15 runs, and capped
    at the length."""
    return min(length, max(_CHUNK.bit_length() - 1, (length + 1) // 2))


def _half_stats(bits: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(end, low, high): for each code of `bits` steps, in rank order, its
    path's end height and its lowest and highest height after its start,
    as int8. The empty path has no height after its start: its low is 127
    and its high -127, above and below any height, so it bounds nothing."""
    end = np.zeros(1, np.int8)
    low, high = end + 127, end - 127
    for _ in range(bits):
        # the codes of one more step: those so far with that step down,
        # then the same codes with it up
        down, up = end - 1, end + 1
        low = np.concatenate((np.minimum(low, down), np.minimum(low, up)))
        high = np.concatenate((np.maximum(high, down), np.maximum(high, up)))
        end = np.concatenate((down, up))
    return end, low, high


def _low_halves(bits: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(end, above, below): for each code of `bits` steps, in rank order,
    its path's end height and whether the path stays above, or below, 0
    after its start. The empty path ends at 0 and is in neither. The
    lowest and highest heights they are read off go when this returns."""
    end, low, high = _half_stats(bits)
    return end, (low > 0) & (end != 0), (high < 0) & (end != 0)


def _class_codes(length: int, cls: Optional[PathClass]) -> Iterator[np.ndarray]:
    """The codes of class cls, every code if cls is None, of each run in
    turn, in rank order: one int32 array per run. A run's codes of a class
    are the offsets of its `_class_mask` plus the run's first code; no
    mask is kept while the run is read."""
    k = _low_bits(length)
    end, above, below = _low_halves(k)
    for h, high_part in enumerate(zip(*(stats.tolist() for stats in _half_stats(length - k)))):
        if cls is None:
            yield np.arange(h << k, (h + 1) << k, dtype=np.int32)
        else:
            yield np.flatnonzero(_class_mask(cls, end, above, below, *high_part)).astype(np.int32) + (h << k)


def _class_mask(cls: PathClass, end, above, below, e: int, h_low: int, h_high: int) -> np.ndarray:
    """The mask of one run's codes of class cls. end is the low half's end
    height per code, above and below `_low_halves`' masks of the low
    halves, and e, h_low and h_high the run's high part's end and lowest
    and highest heights.

    A path is its low half, then its high half from the low half's end.
    So it ends at 0 iff the two ends sum to 0, and it stays above 0 after
    its start iff its low half does and its high half stays above minus
    the low half's end; below likewise. The classes are classify's, in
    its precedence: the empty path is balanced, not up-unbalanced. A
    balanced selection evaluates no other class's rule.
    """
    if cls is PathClass.BALANCED:
        return end == -e
    up, down = above & (end > -h_low), below & (end < -h_high)
    if cls is PathClass.OTHER:
        return ~((end == -e) | up | down)
    return up if cls is PathClass.UP_UNBALANCED else down


def verify_bijection(n: int) -> CensusReport:
    """Sweep all 2^(2n) paths and verify the bijection exhaustively.

    The two classes are counted apart. balanced_count is the number of
    codes the sweep decodes and maps: the balanced codes of `_class_codes`,
    a run at a time. unbalanced_count is the state tally of the paths that
    never return to height 0, as the structural identity reports it: a
    count over every path, carried by (height, last vertex at 0) state a
    step at a time, in which phi plays no part. Each run of balanced paths
    is checked in one `_round_trip_failures` call, and a path whose round
    trip fails is listed in roundtrip_failures. The inverse works row by
    row, so it is a function of the image alone, and a map with a left inverse is
    injective: phi(a) = phi(b) gives a = phi_inverse(phi(a)) = b. The map
    is a bijection iff nothing failed and both sides count C(2n, n): the
    images are then distinct unbalanced paths, as many as there are
    unbalanced paths, so they are all of them.
    """
    if not 1 <= n <= MAX_BIJECTION_N:
        raise RangeError(f"n must be in [1, {MAX_BIJECTION_N}], got {n}")
    start = time.perf_counter()
    length = 2 * n

    balanced_count = 0
    failures: List[int] = []

    for balanced in _class_codes(length, PathClass.BALANCED):
        balanced_count += len(balanced)
        failures += _round_trip_failures(balanced, length)

    # a ±1 walk cannot change sign without passing 0, so a path that never
    # returns to 0 stays on one side: unbalanced
    unbalanced_count = _last_zero_tally(length)[0]

    return CensusReport(
        n=n,
        total_paths=1 << length,
        balanced_count=balanced_count,
        unbalanced_count=unbalanced_count,
        identity_lhs=identity_lhs(n),
        identity_rhs=4**n,
        bijection_ok=not failures and balanced_count == unbalanced_count == comb(2 * n, n),
        roundtrip_failures=tuple(failures),
        elapsed=time.perf_counter() - start,
    )


def _round_trip_failures(codes: np.ndarray, length: int) -> List[int]:
    """The codes of one run of balanced paths of the given length whose
    round trip fails. The run's step rows go through the forward kernel as
    one array, and their images through the inverse one; an image must
    have the shape of its input, be unbalanced by the inverse kernel's
    mask and map back to its path. The run's rows and images go when the
    call returns."""
    rows = unrank_rows(codes, length)
    image = phi_rows(rows)[0]
    # an image of another shape, or back at height 0, fails
    if image.shape != rows.shape:
        return codes.tolist()
    pre, _, ok = phi_inverse_rows(image)
    return codes[~(ok & (pre == rows).all(axis=1))].tolist()
