"""Exhaustive verification over the rank space, with numpy. The identity,
the bounds and the report live in `identity`, which loads no numpy.

The partial-reflection map is a bijection between balanced and unbalanced
paths of each even length, verified by sweeping the whole rank space:
every balanced path is mapped, its image must never touch height 0 and
must map back to it, and the two classes are counted. The inverse maps
each image row on its own, so when every round trip holds it is a left
inverse and the map is one-to-one; its domain mask makes every image
unbalanced, and as many distinct images as there are unbalanced paths are
all of them, so the counts prove that the map is onto.

One walk over all codes, a chunk at a time, gives each path's last vertex
at height 0, and both sweeps and `enumerate_class` read their classes off
it: a path is balanced iff that is its last vertex, unbalanced iff its
first. The walk splits each path into a prefix and a suffix, as the
structural identity does, but after a fixed k steps: the code's low k bits
and its high bits. A prefix table, built once a bit at a time, gives each
low part its height and its last vertex at 0. A suffix row gives each high
part, for every height in [-k, k] it may start from, the last vertex at
which it is at 0. Cut at the multiples of 2^k, a chunk falls into runs of codes with
one high part; a run's last vertices are the larger of a slice of the
prefix table and that slice's heights looked up in the run's suffix row.
The bijection sweep decodes the chunk's balanced codes into int8 step rows
for the row kernels of `bijection`, forward and back, which phi and
phi_inverse run on one row.
"""

from __future__ import annotations

import time
from math import comb
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .bijection import phi_inverse_rows, phi_rows
from .errors import OddLengthError, RangeError
from .identity import MAX_BIJECTION_N, CensusReport, identity_lhs
from .path import LatticePath, PathClass

# codes per chunk of the all-codes walk; any size gives the same reports,
# it bounds the memory of one chunk and of the rows it decodes, and its
# bit length less one is the number of low bits in the walk's prefix table
_CHUNK = 1 << 16


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
    """All paths of the given length matching the class filter, in rank order.

    A code's class comes off its last visit to height 0, in classify's
    precedence: balanced if that is the last vertex, else up or down
    unbalanced by the first step if it is the first, else Other.
    """
    if not 0 <= length <= 30:
        raise RangeError(f"length must be in [0, 30], got {length}")
    for lo, last in _last_zero(length):
        codes = np.arange(lo, lo + len(last), dtype=np.int32)
        if cls is not None:
            # the index of each class in PathClass: balanced, up, down, other
            kind = np.where(last == length, 0, np.where(last == 0, 2 - (codes & 1), 3))
            codes = codes[kind == list(PathClass).index(cls)]
        # slices of a view, not of one copy of the chunk's rows, which would
        # hold both at once
        rows = memoryview(_rows(codes, length).ravel())
        for i in range(len(codes)):
            yield LatticePath._trusted(rows[i * length : (i + 1) * length].tobytes())


def _rows(codes: np.ndarray, length: int) -> np.ndarray:
    """One int8 row of steps per code: step j is Up iff bit j is set."""
    # bit j of a code is bit j % 8 of its byte j // 8 in little-endian order
    code_bytes = codes.astype("<i4", copy=False).view(np.uint8).reshape(-1, 4)
    rows = np.unpackbits(code_bytes, axis=1, count=length, bitorder="little").view(np.int8)
    rows *= 2
    rows -= 1
    return rows


def _last_zero(length: int) -> Iterator[Tuple[int, np.ndarray]]:
    """(lo, last) per chunk of all 2^length codes in rank order: last[r] is
    the last vertex of the path of code lo + r at height 0, 0 if it never
    returns."""
    last_of = _last_zero_tables(length)
    total = 1 << length
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        # length <= 30, so int8 holds every height and index
        yield lo, last_of(lo, hi)


def _last_zero_tables(length: int) -> Callable[[int, int], np.ndarray]:
    """last_of(lo, hi): the last vertex at height 0 of the path of each code
    in [lo, hi), from a table of the low k bits and one of the high bits."""
    # a code is a high part over k low bits; the chunk size fixes k, so one
    # chunk of the default size is one run of codes with the same high part,
    # and k is at least half the length, so that no chunk size, however
    # small, makes the suffix table longer than 2^15 rows
    k = min(length, max(_CHUNK.bit_length() - 1, (length + 1) // 2))
    # the prefix table: each low part's height after its k steps, as an
    # index into a suffix row, and its last vertex at 0 among them; the
    # indices are int16, a quarter of the size of intp, and take widens
    # only one run's worth of them at a time
    height, low_last = _returns(k, 0, 0)
    row_index = np.add(height, k, dtype=np.int16)
    low_last = low_last[:, 0]
    # the suffix rows: per high part and start height v in [-k, k], the last
    # vertex k + t at which its t-step suffix, started at v, is at 0; 0 if none
    _, suffix = _returns(length - k, k, k)

    def last_of(lo: int, hi: int) -> np.ndarray:
        last = np.empty(hi - lo, dtype=np.int8)
        # runs of codes with one high part, cut at the multiples of 2^k
        cuts = [lo, *range(((lo >> k) + 1) << k, hi, 1 << k), hi]
        for a, b in zip(cuts, cuts[1:]):
            base = a >> k << k
            low = slice(a - base, b - base)
            # a return in the suffix comes after every vertex of the low part
            np.maximum(low_last[low], suffix[a >> k].take(row_index[low]), out=last[a - lo : b - lo])
        return last

    return last_of


def _returns(steps: int, width: int, offset: int) -> Tuple[np.ndarray, np.ndarray]:
    """(height, table) for every code of the given number of steps: its end
    height and, per start height v in [-width, width], the last vertex
    offset + t at which the path started at v is at height 0, 0 if none."""
    h = np.zeros(1, dtype=np.int8)
    table = np.zeros((1, 2 * width + 1), dtype=np.int8)
    for t in range(steps):
        # the codes of t + 1 bits: those of t bits with step t + 1 down, then
        # the same with it up
        h = np.concatenate([h - 1, h + 1])
        table = np.concatenate([table, table])
        # the vertex index only grows, so a later mark overwrites an earlier
        seen = np.flatnonzero(np.abs(h) <= width)
        table[seen, width - h[seen]] = offset + t + 1
    return h, table


def verify_bijection(n: int) -> CensusReport:
    """Sweep all 2^(2n) paths and verify the bijection exhaustively.

    One pass over the rank space reads each path's last visit to height 0
    and counts the balanced and the unbalanced paths. The balanced paths of
    each chunk go through the forward kernel as one array of step rows, and
    their images through the inverse one. An image must have the shape of
    its input, be unbalanced by the inverse kernel's mask and map back to
    its path, or the path is listed in roundtrip_failures. The inverse works
    row by row, so it is a function of the image alone, and a map with a
    left inverse is injective: phi(a) = phi(b) gives a = phi_inverse(phi(a))
    = b. The map is a bijection iff nothing failed and both sides count
    C(2n, n): the images are then distinct unbalanced paths, as many as
    there are unbalanced paths, so they are all of them.
    """
    if not 1 <= n <= MAX_BIJECTION_N:
        raise RangeError(f"n must be in [1, {MAX_BIJECTION_N}], got {n}")
    start = time.perf_counter()
    length = 2 * n
    total = 1 << length

    balanced_count = 0
    unbalanced_count = 0
    failures: List[int] = []

    for lo, last in _last_zero(length):
        # a ±1 walk cannot change sign without passing 0, so a path that
        # never returns to 0 stays on one side: unbalanced
        balanced = lo + np.flatnonzero(last == length)
        balanced_count += len(balanced)
        unbalanced_count += int(np.count_nonzero(last == 0))
        rows = _rows(balanced, length)
        image = phi_rows(rows)[0]
        # an image of another shape, or back at height 0, fails
        if image.shape != rows.shape:
            failures += balanced.tolist()
            continue
        pre, _, ok = phi_inverse_rows(image)
        ok &= (pre == rows).all(axis=1)
        failures += balanced[~ok].tolist()
        del rows, image, pre, _  # before the next chunk builds its own

    bijection_ok = not failures and balanced_count == unbalanced_count == comb(2 * n, n)

    return CensusReport(
        n=n,
        total_paths=total,
        balanced_count=balanced_count,
        unbalanced_count=unbalanced_count,
        identity_lhs=identity_lhs(n),
        identity_rhs=4**n,
        bijection_ok=bijection_ok,
        roundtrip_failures=tuple(failures),
        elapsed=time.perf_counter() - start,
    )
