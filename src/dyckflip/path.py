"""Step/path representation in rotated coordinates, plus the primitives
everything else is built from: classification, reflection, concatenation
and rank/unrank enumeration support. This is the one module that decodes
codes into steps: `unrank` one code, `unrank_rows` an array of them, the
all-codes census's runs.

A path lives on the rotated lattice where the diagonal is horizontal: every
step moves one unit right and one unit up (+1) or down (-1). The height
profile h_0=0, h_1, ..., h_L is the running sum of steps.
"""

from __future__ import annotations

import struct
from enum import Enum
from itertools import accumulate, repeat
from typing import Iterable, Iterator, Tuple

import numpy as np

from .errors import ParseError, RangeError

# rank/unrank stick to a machine-word-sized code space
MAX_RANK_LENGTH = 62


UP = 1
DOWN = -1
# the steps as the bytes of LatticePath._buf: int8 +1 and -1
UP_BYTE = b"\x01"
DOWN_BYTE = b"\xff"


class PathClass(Enum):
    BALANCED = "Balanced"
    UP_UNBALANCED = "UpUnbalanced"
    DOWN_UNBALANCED = "DownUnbalanced"
    OTHER = "Other"


def _alphabet(up: str, down: str) -> Tuple[Tuple[str, str], bytes, bytes]:
    """(letters, parse table, format table) of an alphabet. The tables are
    for bytes.translate: the parse table maps either case of each letter to
    its step byte and every other byte to 0, the format table maps the step
    bytes to the uppercase letters."""
    parse = bytearray(256)
    for letter, step in ((up, UP_BYTE), (down, DOWN_BYTE)):
        parse[ord(letter)] = parse[ord(letter.lower())] = step[0]
    return (up, down), bytes(parse), bytes.maketrans(UP_BYTE + DOWN_BYTE, (up + down).encode("ascii"))


_ALPHABETS = {"ud": _alphabet("U", "D"), "ne": _alphabet("N", "E")}
# the default alphabet's tables, which parse and format read without a lookup
_UD = _ALPHABETS["ud"]
_FLIP = bytes.maketrans(UP_BYTE + DOWN_BYTE, DOWN_BYTE + UP_BYTE)
# the binary digits of rank and unrank codes: Up is 1, Down is 0
_BITS = bytes.maketrans(UP_BYTE + DOWN_BYTE, b"10")
_UNBITS = bytes.maketrans(b"10", UP_BYTE + DOWN_BYTE)


def _tables(alphabet: str) -> Tuple[Tuple[str, str], bytes, bytes]:
    try:
        return _ALPHABETS[alphabet.lower()]
    except (KeyError, AttributeError):  # an unknown name, or not a string
        raise ValueError(f"alphabet must be 'ud' or 'ne', got {alphabet!r}") from None


class LatticePath:
    """An immutable sequence of +1/-1 steps with a derived height profile.

    The steps are held as one bytes object, `_buf`, of int8 +1 and -1
    (UP_BYTE and DOWN_BYTE); `steps` and `heights` are tuples of Python
    ints built from it on each use. The one other slot, `_cls`, memoises
    the path's PathClass: no constructor sets it, `classify` fills it on
    its first scan, and phi and phi_inverse fill it on their input and
    output, whose classes they have established. Equality, hashing, repr
    and pickling follow the steps alone.

    `LatticePath(steps)` converts every step with int() and rejects any that
    is not +1 or -1. `LatticePath._trusted(buf)` stores its argument
    unchecked, so library code in this package calls it only on a bytes
    object of UP_BYTE and DOWN_BYTE that it has just built or taken from
    existing paths: translated text that it checked for bad letters, the
    int8 rows of the map kernels and of decoded codes after .tobytes(), and
    slices, translations and joins of the buffers of existing paths.
    """

    __slots__ = ("_buf", "_cls")

    def __init__(self, steps: Iterable[int]) -> None:
        cleaned = tuple(map(int, steps))
        try:
            buf = struct.pack(f"{len(cleaned)}b", *cleaned)
        except struct.error:  # a step outside the int8 range
            buf = b"\0"
        # every step is +1 or -1 iff deleting their bytes leaves nothing
        if buf.translate(None, UP_BYTE + DOWN_BYTE):
            raise ValueError("steps must be +1 (Up) or -1 (Down)")
        self._buf = buf

    @classmethod
    def _trusted(cls, buf: bytes) -> LatticePath:
        p = object.__new__(cls)
        p._buf = buf
        return p

    @property
    def steps(self) -> Tuple[int, ...]:
        return tuple(memoryview(self._buf).cast("b"))

    @property
    def heights(self) -> Tuple[int, ...]:
        return tuple(accumulate(memoryview(self._buf).cast("b"), initial=0))

    @property
    def length(self) -> int:
        return len(self._buf)

    @property
    def end_height(self) -> int:
        # an up byte has 1 bit set and a down byte 8, so the buffer's
        # popcount is L + 7D; one popcount of the buffer read as an int does
        # not branch on each byte as bytes.count does
        length = len(self._buf)
        down = (int.from_bytes(self._buf, "little").bit_count() - length) // 7
        return length - 2 * down

    def __len__(self) -> int:
        return len(self._buf)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._buf == other._buf
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._buf)

    def __reduce__(self) -> tuple:
        # a copy or an unpickled path keeps the steps, not the class memo
        return LatticePath._trusted, (self._buf,)

    def __repr__(self) -> str:
        return f"LatticePath(steps={self.steps!r})"

    def __str__(self) -> str:
        return format_path(self) or "(empty)"


def parse_path(text: str, alphabet: str = "ud") -> LatticePath:
    """Parse path text ("UDUD" or "NNEE") case-insensitively.

    Surrounding whitespace is allowed; empty text yields the empty path.
    """
    letters, table, _ = _UD if alphabet == "ud" else _tables(alphabet)
    stripped = text.strip()
    # no character outside ASCII has a step letter as its uppercase, so text
    # that does not encode holds a bad character, as does text with a byte
    # that the table maps to 0
    try:
        buf = stripped.encode("ascii").translate(table)
    except UnicodeEncodeError:
        buf = b"\0"
    if 0 not in buf:
        return LatticePath._trusted(buf)
    i, ch = next((i, ch) for i, ch in enumerate(stripped) if ch.upper() not in letters)
    raise ParseError(f"invalid character {ch!r} for alphabet {alphabet!r}", i)


def format_path(p: LatticePath, alphabet: str = "ud") -> str:
    """Canonical uppercase text for a path; inverse of parse_path."""
    return p._buf.translate((_UD if alphabet == "ud" else _tables(alphabet))[2]).decode("ascii")


def height_array(p: LatticePath) -> np.ndarray:
    """The heights h_0..h_L of p as one int32 array: the cumsum of its
    buffer behind a 0 step. For the library's scans over long paths, which
    would otherwise build the `heights` tuple of Python ints."""
    return np.add.accumulate(np.frombuffer(b"\0" + p._buf, np.int8), dtype=np.int32)


def classify(p: LatticePath) -> PathClass:
    """Balanced / UpUnbalanced / DownUnbalanced / Other, in that precedence.

    Balanced means ending at height 0 (the empty path included), read off
    the buffer's byte count; the unbalanced classes never re-touch 0 after
    the start. With unit steps, such a path keeps its first step's sign, so
    one reduction of the int32 heights after the start decides the rest:
    their minimum is above 0 for UpUnbalanced, their maximum below 0 for
    DownUnbalanced. The class is memoised on p, so a path is scanned at
    most once.
    """
    try:
        return p._cls
    except AttributeError:
        p._cls = cls = _scan_class(p)
        return cls


def _scan_class(p: LatticePath) -> PathClass:
    if p.end_height == 0:
        return PathClass.BALANCED
    h = height_array(p)[1:]
    if p._buf.startswith(UP_BYTE):
        return PathClass.UP_UNBALANCED if h.min() > 0 else PathClass.OTHER
    return PathClass.DOWN_UNBALANCED if h.max() < 0 else PathClass.OTHER


def reflect_all(p: LatticePath) -> LatticePath:
    """Reflect about the baseline y=0: every step flipped, heights negated."""
    return LatticePath._trusted(p._buf.translate(_FLIP))


def concat(p1: LatticePath, p2: LatticePath) -> LatticePath:
    """Join two paths, the second starting where the first ends."""
    return LatticePath._trusted(p1._buf + p2._buf)


def max_height(p: LatticePath) -> Tuple[int, int]:
    """(maximum height, leftmost vertex index attaining it)."""
    h = p.heights
    m = max(h)  # at least h[0] = 0
    return m, h.index(m)


def _check_rank_length(length: int) -> None:
    """Refuse a length that has no codes to rank: unrank's and all_paths'
    bound."""
    if not 0 <= length <= MAX_RANK_LENGTH:
        raise RangeError(f"length must be in [0, {MAX_RANK_LENGTH}], got {length}")


def unrank(length: int, code: int) -> LatticePath:
    """Path of the given length whose step j is Up iff bit j of code is set."""
    _check_rank_length(length)
    if not 0 <= code < (1 << length):
        raise RangeError(f"code {code} out of range for length {length}")
    # the code's binary digits, low bit first, less the leading 1 that keeps
    # their count at length
    low_first = bin(code | 1 << length)[:2:-1]
    return LatticePath._trusted(low_first.encode("ascii").translate(_UNBITS))


def rank(p: LatticePath) -> int:
    """Inverse of unrank: the bitmask code of a path."""
    if p.length > MAX_RANK_LENGTH:
        raise RangeError(f"length must be <= {MAX_RANK_LENGTH}, got {p.length}")
    return int(b"0" + p._buf[::-1].translate(_BITS), 2)


def unrank_rows(codes: np.ndarray, length: int) -> np.ndarray:
    """unrank for an array of codes below 2^31: one int8 row of steps per
    code, step j Up iff bit j is set."""
    # bit j of a code is bit j % 8 of its byte j // 8 in little-endian order
    code_bytes = codes.astype("<i4", copy=False).view(np.uint8).reshape(-1, 4)
    rows = np.unpackbits(code_bytes, axis=1, count=length, bitorder="little").view(np.int8)
    rows *= 2
    rows -= 1
    return rows


def all_paths(length: int) -> Iterator[LatticePath]:
    """All paths of a given length in rank order. The length is checked
    at the call, before any path is drawn."""
    _check_rank_length(length)
    return map(unrank, repeat(length), range(1 << length))
