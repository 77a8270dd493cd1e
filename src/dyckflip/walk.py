"""The all-codes walk: each path's last vertex at height 0, a chunk of codes
at a time, in rank order. It imports numpy and nothing of this package, so
the structural identity check loads it and nothing else.

A path's code has bit j set iff step j is Up. The bijection sweep, the
structural identity and `enumerate_class` all read their classes off the
walk: a path is balanced iff its last vertex at 0 is its last vertex,
unbalanced iff it is its first.

The walk splits each path into a prefix and a suffix, as the structural
identity does, but after a fixed k steps: the code's low k bits and its
high bits. A prefix table, built once a bit at a time, gives each low part
its height and its last vertex at 0. A suffix row gives each high part, for
every height in [-k, k] it may start from, the last vertex at which it is
at 0. Cut at the multiples of 2^k, a chunk falls into runs of codes with
one high part; a run's last vertices are the larger of a slice of the
prefix table and that slice's heights looked up in the run's suffix row.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple

import numpy as np

# codes per chunk of the all-codes walk; any size gives the same reports,
# it bounds the memory of one chunk and of the rows it decodes, and its
# bit length less one is the number of low bits in the walk's prefix table
_CHUNK = 1 << 16


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
