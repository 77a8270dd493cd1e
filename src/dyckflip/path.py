"""Step/path representation in rotated coordinates, plus the primitives
everything else is built from: classification, reflections, concatenation,
crossing search and rank/unrank enumeration support.

A path lives on the rotated lattice where the diagonal is horizontal: every
step moves one unit right and one unit up (+1) or down (-1). The height
profile h_0=0, h_1, ..., h_L is the running sum of steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Optional, Tuple

from .errors import ParseError, RangeError

# rank/unrank stick to a machine-word-sized code space
MAX_RANK_LENGTH = 62


UP = 1
DOWN = -1


class PathClass(Enum):
    BALANCED = "Balanced"
    UP_UNBALANCED = "UpUnbalanced"
    DOWN_UNBALANCED = "DownUnbalanced"
    OTHER = "Other"


_ALPHABETS = {
    "ud": {"U": UP, "D": DOWN},
    "ne": {"N": UP, "E": DOWN},
}
_LETTERS = {
    "ud": {UP: "U", DOWN: "D"},
    "ne": {UP: "N", DOWN: "E"},
}


@dataclass(frozen=True)
class LatticePath:
    """An immutable sequence of +1/-1 steps with a derived height profile.

    `LatticePath(steps)` converts every step with int() and rejects any that
    is not +1 or -1. `LatticePath._trusted(steps)` stores its argument
    unchecked, so library code in this package calls it only on a tuple of
    Python ints +1/-1 that it has just built or already validated: parsed
    letters, the int8 rows of the map kernels after .tolist(), slices,
    negations and joins of steps of existing paths, and decoded codes.
    """

    steps: Tuple[int, ...]

    def __post_init__(self) -> None:
        cleaned = tuple(map(int, self.steps))
        if not {UP, DOWN}.issuperset(cleaned):
            raise ValueError("steps must be +1 (Up) or -1 (Down)")
        object.__setattr__(self, "steps", cleaned)

    @classmethod
    def _trusted(cls, steps: Tuple[int, ...]) -> LatticePath:
        p = object.__new__(cls)
        object.__setattr__(p, "steps", steps)
        return p

    @cached_property
    def heights(self) -> Tuple[int, ...]:
        return tuple(accumulate(self.steps, initial=0))

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def end_height(self) -> int:
        return self.heights[-1]

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return format_path(self) or "(empty)"


def parse_path(text: str, alphabet: str = "ud") -> LatticePath:
    """Parse path text ("UDUD" or "NNEE") case-insensitively.

    Surrounding whitespace is allowed; empty text yields the empty path.
    """
    table = _ALPHABETS[alphabet.lower()]
    stripped = text.strip()
    upper = stripped.upper()
    # a character whose uppercase is longer (such as "ß") is never a step
    # letter; with none, upper[i] is the uppercase of stripped[i]
    if len(upper) == len(stripped):
        try:
            return LatticePath._trusted(tuple(map(table.__getitem__, upper)))
        except KeyError:
            pass
    i, ch = next((i, ch) for i, ch in enumerate(stripped) if ch.upper() not in table)
    raise ParseError(f"invalid character {ch!r} for alphabet {alphabet!r}", i)


def format_path(p: LatticePath, alphabet: str = "ud") -> str:
    """Canonical uppercase text for a path; inverse of parse_path."""
    letters = _LETTERS[alphabet.lower()]
    return "".join(map(letters.__getitem__, p.steps))


def classify(p: LatticePath) -> PathClass:
    """Balanced / UpUnbalanced / DownUnbalanced / Other, in that precedence.

    Balanced means ending at height 0 (the empty path included); the
    unbalanced classes never re-touch 0 after the start.
    """
    h = p.heights
    if h[-1] == 0:
        return PathClass.BALANCED
    if min(h[1:]) > 0:
        return PathClass.UP_UNBALANCED
    if max(h[1:]) < 0:
        return PathClass.DOWN_UNBALANCED
    return PathClass.OTHER


def reflect_all(p: LatticePath) -> LatticePath:
    """Reflect about the baseline y=0: every step flipped, heights negated."""
    return LatticePath._trusted(tuple(-s for s in p.steps))


def reflect_segment(p: LatticePath, start: int, end: int) -> LatticePath:
    """Flip the steps with positions in [start, end).

    Geometrically this reflects the sub-path about the horizontal line
    through vertex `start`; the suffix after `end` shifts rigidly.
    """
    if not 0 <= start <= end <= p.length:
        raise IndexError(f"segment [{start}, {end}) out of bounds for length {p.length}")
    steps = list(p.steps)
    for j in range(start, end):
        steps[j] = -steps[j]
    return LatticePath._trusted(tuple(steps))


def concat(p1: LatticePath, p2: LatticePath) -> LatticePath:
    """Join two paths, the second starting where the first ends."""
    return LatticePath._trusted(p1.steps + p2.steps)


def max_height(p: LatticePath) -> Tuple[int, int]:
    """(maximum height, leftmost vertex index attaining it)."""
    h = p.heights
    m = max(h)  # at least h[0] = 0
    return m, h.index(m)


def rightmost_crossing(p: LatticePath, level: int, search_end: int) -> Optional[int]:
    """Largest interior index j < search_end where the path strictly crosses
    the horizontal line at `level`.

    A crossing has its two neighbouring vertices on opposite sides of the
    line; touch points (both neighbours on the same side) are skipped, and
    the endpoints 0 and search_end never count.
    """
    if not 0 <= search_end <= p.length:
        raise IndexError(f"search_end {search_end} out of bounds for length {p.length}")
    h = p.heights
    for j in range(search_end - 1, 0, -1):
        if h[j] == level and (h[j - 1] - level) * (h[j + 1] - level) < 0:
            return j
    return None


def unrank(length: int, code: int) -> LatticePath:
    """Path of the given length whose step j is Up iff bit j of code is set."""
    if not 0 <= length <= MAX_RANK_LENGTH:
        raise RangeError(f"length must be in [0, {MAX_RANK_LENGTH}], got {length}")
    if not 0 <= code < (1 << length):
        raise RangeError(f"code {code} out of range for length {length}")
    return LatticePath._trusted(tuple(UP if (code >> j) & 1 else DOWN for j in range(length)))


def rank(p: LatticePath) -> int:
    """Inverse of unrank: the bitmask code of a path."""
    if p.length > MAX_RANK_LENGTH:
        raise RangeError(f"length must be <= {MAX_RANK_LENGTH}, got {p.length}")
    return sum(1 << j for j, s in enumerate(p.steps) if s == UP)


def all_paths(length: int) -> Iterator[LatticePath]:
    """All paths of a given length in rank order."""
    for code in range(1 << length):
        yield unrank(length, code)
