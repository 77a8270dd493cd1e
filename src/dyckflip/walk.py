"""The all-codes walk: each path's last vertex at height 0, a run of codes
at a time, in rank order, one byte per code. It imports no numpy and
nothing of this package, so the structural identity check loads it and
nothing else. That is why it reads the steps of a code off its bits with a
loop of its own, where the rest of the package decodes codes in `path`.

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

The structural identity and the bijection sweep's unbalanced count need
only how many paths have each last vertex, and `_last_zero_tally` counts
them from the same tables without a byte per path. The prefix table's
build carries each state's number of codes through its doubling, a
state of t steps having the codes of the states of t - 1 steps it
follows, and each high part's table sends every state's count to its
vertex. The prefix table translated by a table T has as many bytes v as
it has bytes s with T[s] = v, so the tally is the count of the bytes that
the per-code walk yields.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

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
    bytes index its `size` states, and `_suffix_table`'s table(high) of
    those states."""
    k = _low_bits(length)
    keys, states = _prefix(k)
    return k, keys, len(states), _suffix_table(length, k, states)


def _suffix_table(length: int, k: int, states: Dict[Tuple[int, int], int]) -> Callable[[int], bytes]:
    """table(high): the 256-byte table from the index of each of `states`,
    the states of the k prefix steps, to the last vertex at 0 of the path
    with that state and high part `high`. `_last_zero` reads it with the
    states' prefix table, `_last_zero_tally` with their counts."""
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

    return table


def _last_zero_tally(length: int) -> List[int]:
    """tally[v]: the number of paths of `length` steps whose last vertex at
    height 0 is v, 0 if they never return. It counts the bytes that
    `_last_zero` yields, a run at a time: a run's bytes are the prefix
    table translated by its high part's table, so each state adds its
    number of prefix codes to the tally of the vertex its table gives."""
    k = _low_bits(length)
    states = _prefix(k)[1]
    # a list, which the inner loop below reads faster than a dict's view
    counts = list(states.values())
    tally = [0] * (length + 1)
    # each high part's table: the last vertex at 0 of each state's paths
    for vertices in map(_suffix_table(length, k, states), range(1 << (length - k))):
        for vertex, m in zip(vertices, counts):
            tally[vertex] += m
    return tally


def _prefix(k: int) -> Tuple[bytes, Dict[Tuple[int, int], int]]:
    """(keys, states) of the codes of k steps: keys[code] is the index in
    states of the pair (height after the k steps, last vertex at 0), and
    states maps each pair, in the order of their indices, to its number of
    codes, carried through the doubling so that the tally does not scan
    the table for them."""
    keys, states = b"\0", {(0, 0): 1}
    for t in range(1, k + 1):
        # a state of t steps has the codes of its parents of t - 1 steps;
        # no more than 256 states, so their indices fit one byte
        index, count = {}, [0] * 256
        down, up = bytearray(256), bytearray(256)
        for s, ((h, z), m) in enumerate(states.items()):
            for table, g in ((down, h - 1), (up, h + 1)):
                i = table[s] = index.setdefault((g, t if g == 0 else z), len(index))
                count[i] += m
        # the codes of t bits: those of t - 1 bits with step t down, then
        # the same with it up
        keys = keys.translate(down) + keys.translate(up)
        states = dict(zip(index, count))
    return keys, states
