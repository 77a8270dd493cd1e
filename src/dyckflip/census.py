"""Exhaustive verification over the rank space, with numpy. The identity,
its report and the bounds live in `identity`, and the all-codes walk in
`walk`; neither loads numpy, and the walk loads nothing of this package.

The partial-reflection map is a bijection between balanced and unbalanced
paths of each even length, verified by sweeping the whole rank space:
every balanced path is mapped, its image must never touch height 0 and
must map back to it, and the two classes are counted. The inverse maps
each image row on its own, so when every round trip holds it is a left
inverse and the map is one-to-one; its domain mask makes every image
unbalanced, and as many distinct images as there are unbalanced paths are
all of them, so the counts prove that the map is onto.

One walk over all codes, a run of codes at a time, gives each path's last
vertex at height 0 as one byte (`walk._last_zero`). `_class_codes` is the
one reader of those bytes: it selects the codes of a class off an int8
view of each run's bytes, a path being balanced iff that is its last
vertex, unbalanced iff its first. `enumerate_class` and the bijection
sweep both iterate it, and `path.unrank_rows` decodes the codes it gives
into int8 step rows. The sweep runs the rows of the balanced codes
through the row kernels of `bijection`, forward and back, which phi and
phi_inverse run on one row; its unbalanced count is the walk's tally at
vertex 0 (`walk._last_zero_tally`), the count the structural identity
reports. It returns a `CensusReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .bijection import phi_inverse_rows, phi_rows
from .errors import OddLengthError, RangeError
from .identity import MAX_BIJECTION_N, _Report, identity_lhs
from .path import LatticePath, PathClass, unrank_rows
from .walk import _last_zero, _last_zero_tally


@dataclass(frozen=True)
class CensusReport(_Report):
    """Exact counts and verdicts of `verify_bijection` for one half-length n.

    It has the fields of `identity.IdentityReport` and shares its verdict
    and text forms; the sweep never fills structural_tallies or
    tally_mismatches.
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
    for codes in _class_codes(length, cls):
        # each row's bytes from a view of the row, not from one copy of the
        # run's rows, which would hold both at once
        yield from map(LatticePath._trusted, map(np.ndarray.tobytes, unrank_rows(codes, length)))


def _class_codes(length: int, cls: Optional[PathClass]) -> Iterator[np.ndarray]:
    """The codes of class cls, every code if cls is None, of each run of
    the all-codes walk in turn, in rank order: one int32 array per run.

    A code's class comes off its last visit to height 0, in classify's
    precedence: balanced if that is the last vertex, else up or down
    unbalanced by the first step if it is the first, else Other.
    """
    for lo, last in _last_zero(length):
        last = np.frombuffer(last, np.int8)
        codes = np.arange(lo, lo + len(last), dtype=np.int32)
        if cls is PathClass.BALANCED:
            # the sweep's class: one comparison, with no array of every
            # code's class to raise the sweep's peak memory
            codes = codes[last == length]
        elif cls is not None:
            # the index of each class in PathClass: balanced, up, down, other
            kind = np.where(last == length, 0, np.where(last == 0, 2 - (codes & 1), 3))
            codes = codes[kind == list(PathClass).index(cls)]
        yield codes


def verify_bijection(n: int) -> CensusReport:
    """Sweep all 2^(2n) paths and verify the bijection exhaustively.

    The two classes are counted apart. balanced_count is the number of
    codes the sweep decodes and maps: the all-codes walk's balanced codes,
    a run at a time. unbalanced_count is the walk's tally of the paths that
    never return to height 0, as the structural identity reports it: a
    count over every path, carried by (height, last vertex at 0) state a
    step at a time, in which phi plays no part. The balanced paths of each
    run go through the forward kernel as one array of step rows, and their
    images through the inverse one. An image must have the shape of its
    input, be unbalanced by the inverse kernel's mask and map back to its
    path, or the path is listed in roundtrip_failures. The inverse works row by row, so it is a
    function of the image alone, and a map with a left inverse is
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
        rows = unrank_rows(balanced, length)
        image = phi_rows(rows)[0]
        # an image of another shape, or back at height 0, fails
        if image.shape != rows.shape:
            failures += balanced.tolist()
            continue
        pre, _, ok = phi_inverse_rows(image)
        ok &= (pre == rows).all(axis=1)
        failures += balanced[~ok].tolist()
        del rows, image, pre, _  # before the next run builds its own

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
