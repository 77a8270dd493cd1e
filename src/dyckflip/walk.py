"""The all-codes walk: each path's last vertex at height 0, a run of codes
at a time, in rank order, one byte per code. It imports no numpy and
nothing of this package, so the structural identity check loads it and
nothing else.

A path's code has bit j set iff step j is Up. The bijection sweep and
`enumerate_class` read their classes off the walk: a path is balanced iff
its last vertex at 0 is its last vertex, unbalanced iff it is its first.

The walk splits each path into a prefix and a suffix, as the structural
identity does, but after a fixed k steps: the code's low k bits and its
high bits. A prefix's state is its height after its k steps and its last
vertex at 0 among them. The prefix table holds one byte per low part, the
index of its state, and is built a step at a time with two 256-entry
`bytes.translate` tables. Each high part's suffix is walked once, which
gives the last vertex at which it is at 0 from each start height, and fills
a 256-byte table from a state to the whole path's last vertex at 0. The
walk yields one run per high part, the 2^k codes that share it, and a run's
last vertices are the prefix table translated by its high part's table.

The structural identity needs only how many paths have each last vertex,
and `_last_zero_tally` counts them from the same two tables without a byte
per path: the prefix table's bytes are counted once per state, and each
high part's table sends every state's count to its vertex. The prefix
table translated by a table T has as many bytes v as it has bytes s with
T[s] = v, so the tally is the count of the bytes that the per-code walk
yields.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

# sets the run length of the all-codes walk: a run holds 2^k codes, where
# k is its bit length less one as `_low_bits` raises and caps it; any value
# gives the same reports, and a run bounds the memory of its bytes and rows
_CHUNK = 1 << 16


def _last_zero(length: int) -> Iterator[Tuple[int, bytes]]:
    """(lo, last) per run of the 2^k codes with one high part, in rank
    order: last[r] is the last vertex at height 0 of the path of code
    lo + r, 0 if it never returns."""
    k, keys, _, table = _suffix_tables(length)
    for high in range(1 << (length - k)):
        yield high << k, keys.translate(table(high))


def _low_bits(length: int) -> int:
    """k, the number of steps in the prefix table: a run holds 2^k codes.
    It is `_CHUNK`'s bit length less one, raised to half the length, so
    that no patched `_CHUNK`, however small, leaves more than 2^15 runs, and
    capped at the length, 30 at most: the states of up to 30 steps fit in
    one byte."""
    return min(length, max(_CHUNK.bit_length() - 1, (length + 1) // 2))


def _suffix_tables(length: int) -> Tuple[int, bytes, int, Callable[[int], bytes]]:
    """(k, keys, size, table): the prefix table of the low k bits, whose
    bytes index its `size` states, and table(high), the 256-byte table from
    a state to the last vertex at 0 of the path of high part `high`."""
    k = _low_bits(length)
    keys, states = _prefix(k)
    heights, lows = zip(*states)

    def table(high: int) -> bytes:
        # the suffix started at height v is at 0 after its t-th step iff
        # its walk from 0 is at -v there; a later vertex overwrites an earlier
        ends = {}
        g = 0
        for vertex in range(k + 1, length + 1):
            g += 1 if high & 1 else -1
            high >>= 1
            ends[-g] = vertex
        # a return in the suffix comes after every vertex of the prefix;
        # translate takes 256 entries, and no key is past the last state
        return bytes(map(ends.get, heights, lows)).ljust(256, b"\0")

    return k, keys, len(states), table


def _last_zero_tally(length: int) -> List[int]:
    """tally[v]: the number of paths of `length` steps whose last vertex at
    height 0 is v, 0 if they never return. It counts the bytes that
    `_last_zero` yields, a run at a time: a run's bytes are the prefix
    table translated by its high part's table, so each state adds its
    number of prefix codes to the tally of the vertex its table gives."""
    k, keys, size, table = _suffix_tables(length)
    mult = [keys.count(s) for s in range(size)]
    tally = [0] * (length + 1)
    for high in range(1 << (length - k)):
        for vertex, m in zip(table(high), mult):
            tally[vertex] += m
    return tally


def _prefix(k: int) -> Tuple[bytes, List[Tuple[int, int]]]:
    """(keys, states) of the codes of k steps: keys[code] is the index in
    states of the pair (height after the k steps, last vertex at 0)."""
    keys, states = b"\0", [(0, 0)]
    for t in range(1, k + 1):
        index = {}
        down, up = bytearray(256), bytearray(256)
        for s, (h, z) in enumerate(states):
            for table, g in ((down, h - 1), (up, h + 1)):
                table[s] = index.setdefault((g, t if g == 0 else z), len(index))
        # the codes of t bits: those of t - 1 bits with step t down, then
        # the same with it up
        keys = keys.translate(down) + keys.translate(up)
        states = list(index)
    return keys, states
