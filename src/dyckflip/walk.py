"""The all-codes walk: each path's last vertex at height 0, a chunk of codes
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
a 256-byte table from a state to the whole path's last vertex at 0. Cut at
the multiples of 2^k, a chunk falls into runs of codes with one high part,
and a run's last vertices are its slice of the prefix table, translated.

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

# codes per chunk of the all-codes walk; any size gives the same reports,
# it bounds the memory of one chunk and of the rows it decodes, and its
# bit length less one is the number of low bits in the walk's prefix table
_CHUNK = 1 << 16


def _last_zero(length: int) -> Iterator[Tuple[int, bytes]]:
    """(lo, last) per chunk of all 2^length codes in rank order: last[r] is
    the last vertex of the path of code lo + r at height 0, 0 if it never
    returns."""
    last_of = _last_zero_tables(length)
    total = 1 << length
    for lo in range(0, total, _CHUNK):
        yield lo, last_of(lo, min(lo + _CHUNK, total))


def _low_bits(length: int) -> int:
    """k, the number of steps in the prefix table. The chunk size fixes it,
    so one chunk of the default size is one run of codes with the same high
    part, and it is at least half the length, so that no chunk size,
    however small, leaves more than 2^15 high parts. It is at most the
    length, 30 at most, and the states of up to 30 steps fit in one byte."""
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


def _last_zero_tables(length: int) -> Callable[[int, int], bytes]:
    """last_of(lo, hi): the last vertex at height 0 of the path of each code
    in [lo, hi), from the prefix table of the low k bits and a table per
    high part."""
    k, keys, _, table = _suffix_tables(length)

    def last_of(lo: int, hi: int) -> bytes:
        # runs of codes with one high part, cut at the multiples of 2^k;
        # the slice of a whole run is the prefix table itself, not a copy
        cuts = [lo, *range(((lo >> k) + 1) << k, hi, 1 << k), hi]
        runs = []
        for a, b in zip(cuts, cuts[1:]):
            base = a >> k << k
            runs.append(keys[a - base : b - base].translate(table(a >> k)))
        return b"".join(runs)

    return last_of


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
