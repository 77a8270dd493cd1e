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
high bits. A path's state after t steps is its height and its last vertex
at 0 among them, and `_states` is the one recursion over states: step t
takes each state of t - 1 steps, with its number of paths, to the two
states that a down and an up step t lead to, and records the move as two
256-entry `bytes.translate` tables from state index to state index. Up to
30 steps there are at most 241 states, so an index fits one byte. One
`_states` pass over the whole length gives the walk both of its tables.
The prefix table holds one byte per low part, the index of its state,
folded from the pass's first k step tables. A high part's suffix table
follows every prefix state through the pass's step tables of the high
part's steps, down or up by its bits, and reads the final state's last
vertex at 0: a 256-byte table from a prefix state to the whole path's
last vertex at 0. The walk yields one run per high part, the 2^k codes
that share it, and a run's last vertices are the prefix table translated
by its high part's table.

The structural identity and the bijection sweep's unbalanced count need
only how many paths have each last vertex, and `_last_zero_tally` counts
them by state with no table and no byte per path: the recursion carries
each state's number of paths from those of the states it follows, each
of the 2^length paths ends in one state, and that state's last vertex at
0 is the path's. So the tally is the count of the bytes that the per-code
walk yields.
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
    k, keys, table = _suffix_tables(length)
    for high in range(1 << (length - k)):
        yield high << k, keys.translate(table(high))


def _low_bits(length: int) -> int:
    """k, the number of steps in the prefix table: a run holds 2^k codes.
    It is `_CHUNK`'s bit length less one, raised to half the length, so
    that no patched `_CHUNK`, however small, leaves more than 2^15 runs, and
    capped at the length, 30 at most: the states of up to 30 steps fit in
    one byte."""
    return min(length, max(_CHUNK.bit_length() - 1, (length + 1) // 2))


def _suffix_tables(length: int) -> Tuple[int, bytes, Callable[[int], bytes]]:
    """(k, keys, table): the prefix table of the low k bits, whose byte for
    each code is the index of its state after k steps, and table(high), the
    256-byte table from the index of each of those states to the last
    vertex at 0 of the path with that state and high part `high`. One
    `_states` pass gives both: the prefix table is folded from its first k
    step tables, and table(high) follows the rest. `_last_zero` reads the
    two together."""
    k = _low_bits(length)
    steps, final = _states(length)
    keys = b"\0"
    for down, up in steps[:k]:
        # the codes of one more step: those so far with that step down,
        # then the same with it up
        keys = keys.translate(down) + keys.translate(up)
    suffix = steps[k:]
    # a final state's last vertex at 0 is its path's; translate takes 256
    # entries, and no index is past the last state
    vertices = bytes(z for _, z in final).ljust(256, b"\0")

    def table(high: int) -> bytes:
        # each prefix state's index, moved through the state table of each
        # of the high part's steps to that of its final state; the identity
        # table that `maketrans` returns is much quicker to build than
        # bytes(range(256))
        index = bytes.maketrans(b"", b"")
        for down, up in suffix:
            index = index.translate(up if high & 1 else down)
            high >>= 1
        return index.translate(vertices)

    return k, keys, table


def _last_zero_tally(length: int) -> List[int]:
    """tally[v]: the number of paths of `length` steps whose last vertex at
    height 0 is v, 0 if they never return. Each path ends in one state of
    `_states`, whose last vertex at 0 is its own, so each final state adds
    its number of paths to its vertex: the count of the bytes that
    `_last_zero` yields, with no table and no byte per path."""
    tally = [0] * (length + 1)
    for (_, vertex), m in _states(length)[1].items():
        tally[vertex] += m
    return tally


def _states(length: int) -> Tuple[List[Tuple[bytearray, bytearray]], Dict[Tuple[int, int], int]]:
    """(steps, states): steps[t - 1] is the pair (down, up) of 256-byte
    `bytes.translate` tables from the index of each state of t - 1 steps
    to the index of the state that a down or an up step t leads to, and
    states maps each of the states of `length` steps, in the order of
    their indices, to its number of paths. A state is the pair (height,
    last vertex at 0); the states of t steps are indexed in the order in
    which the states of t - 1 steps, in theirs, first lead to them."""
    steps, states = [], {(0, 0): 1}
    for t in range(1, length + 1):
        # a state of t steps has the paths of its parents of t - 1 steps;
        # no more than 256 states, so their indices fit one byte
        index, count = {}, [0] * 256
        down, up = bytearray(256), bytearray(256)
        for s, ((h, z), m) in enumerate(states.items()):
            for table, g in ((down, h - 1), (up, h + 1)):
                i = table[s] = index.setdefault((g, t if g == 0 else z), len(index))
                count[i] += m
        steps.append((down, up))
        states = dict(zip(index, count))
    return steps, states
