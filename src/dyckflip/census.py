"""Exact counting and exhaustive verification.

Two claims get checked here. First, the arithmetic identity

    sum_{i=0..n} C(2i,i) * C(2n-2i,n-i) = 4^n

with each term built from the one before by their exact ratio
(2i+1)(n-i) / ((i+1)(2n-2i-1)), starting from C(2n,n), and its structural
counterpart: splitting every length-2n path at its last visit to height 0
buckets the 4^n paths into exactly C(2i,i)*C(2n-2i,n-i) per prefix
half-length i. Second, that the partial-reflection map is a bijection
between balanced and unbalanced paths of each even length, verified by
sweeping the whole rank space: every balanced path is mapped, its image
must never touch height 0 and must map back to it, and the two classes are
counted. The inverse maps each image row on its own, so when every round
trip holds it is a left inverse and the map is one-to-one; its domain mask
makes every image unbalanced, and as many distinct images as there are
unbalanced paths are all of them, so the counts prove that the map is onto.

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

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator, List, Literal, Optional, Tuple

import numpy as np

from .bijection import phi_inverse_rows, phi_rows
from .errors import OddLengthError, RangeError
from .path import LatticePath, PathClass

MAX_BIJECTION_N = 12
MAX_STRUCTURAL_N = 12
MAX_ARITHMETIC_N = 10_000
# codes per chunk of the all-codes walk; any size gives the same reports,
# it bounds the memory of one chunk and of the rows it decodes, and its
# bit length less one is the number of low bits in the walk's prefix table
_CHUNK = 1 << 16

IdentityMode = Literal["arithmetic", "structural"]


def binomial(n: int, k: int) -> int:
    """Exact C(n, k) for 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        raise RangeError(f"binomial requires 0 <= k <= n, got n={n}, k={k}")
    return comb(n, k)


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
    for codes, last in _last_zero(length):
        if cls is not None:
            # the index of each class in PathClass: balanced, up, down, other
            kind = np.where(last == length, 0, np.where(last == 0, 2 - (codes & 1), 3))
            codes = codes[kind == list(PathClass).index(cls)]
        # slices of a view, not of one copy of the chunk's rows, which would
        # hold both at once
        rows = memoryview(_rows(codes, length).ravel())
        for i in range(len(codes)):
            yield LatticePath._trusted(rows[i * length : (i + 1) * length].tobytes())


@dataclass(frozen=True)
class CensusReport:
    """Exact counts and verdicts for one half-length n.

    structural_tallies is only populated by the structural identity check;
    tally_mismatches lists the prefix half-lengths whose bucket size
    disagreed with the binomial product.
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

    @property
    def ok(self) -> bool:
        return (
            self.bijection_ok
            and not self.roundtrip_failures
            and self.identity_lhs == self.identity_rhs
            and not self.tally_mismatches
        )

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "total_paths": self.total_paths,
            "balanced_count": self.balanced_count,
            "unbalanced_count": self.unbalanced_count,
            "identity_lhs": self.identity_lhs,
            "identity_rhs": self.identity_rhs,
            "bijection_ok": self.bijection_ok,
            "roundtrip_failures": list(self.roundtrip_failures),
            "ok": self.ok,
        }
        if self.structural_tallies is not None:
            d["structural_tallies"] = list(self.structural_tallies)
            d["tally_mismatches"] = list(self.tally_mismatches)
        d["elapsed"] = self.elapsed
        return d

    def to_kv(self) -> str:
        """Line-oriented key=value form of the JSON fields, with ok last.
        elapsed is wall-clock noise and is left out so reports compare
        byte-for-byte."""
        fields = self.to_json_dict()
        del fields["elapsed"]
        fields["ok"] = fields.pop("ok")
        with exact_int_str():
            return "".join(f"{key}={_kv_text(value)}\n" for key, value in fields.items())


def _kv_text(value: object) -> str:
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


@contextmanager
def exact_int_str() -> Iterator[None]:
    """Lift the interpreter-wide limit on the digits of an int turned into
    text (4300 by default) inside the block: 4^n has more from n = 7143."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def identity_lhs(n: int) -> int:
    """The binomial convolution sum_{i} C(2i,i) * C(2n-2i,n-i)."""
    # term i + 1 is term i times (2i+1)(n-i) / ((i+1)(2n-2i-1)), exactly
    t = comb(2 * n, n)
    total = t
    for i in range(n):
        t = t * ((2 * i + 1) * (n - i)) // ((i + 1) * (2 * n - 2 * i - 1))
        total += t
    return total


def _rows(codes: np.ndarray, length: int) -> np.ndarray:
    """One int8 row of steps per code: step j is Up iff bit j is set."""
    # bit j of a code is bit j % 8 of its byte j // 8 in little-endian order
    code_bytes = codes.astype("<i4", copy=False).view(np.uint8).reshape(-1, 4)
    rows = np.unpackbits(code_bytes, axis=1, count=length, bitorder="little").view(np.int8)
    rows *= 2
    rows -= 1
    return rows


def _last_zero(length: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(codes, last) per chunk of all 2^length codes in rank order: last[r] is
    the last vertex of the path of codes[r] at height 0, 0 if it never returns."""
    last_of = _last_zero_tables(length)
    total = 1 << length
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        # length <= 30, so int32 holds every code, int8 every height and index
        yield np.arange(lo, hi, dtype=np.int32), last_of(lo, hi)


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

    for codes, last in _last_zero(length):
        # a ±1 walk cannot change sign without passing 0, so a path that
        # never returns to 0 stays on one side: unbalanced
        balanced = codes[last == length]
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


def verify_identity(n: int, mode: IdentityMode = "arithmetic") -> CensusReport:
    """Check the central-binomial convolution identity for one n.

    Arithmetic mode evaluates both sides with exact integers, each term of
    the sum from the one before by their ratio. Structural mode reads the
    last visit to height 0 of each of the 4^n paths off the one all-codes
    walk, tallies them by prefix half-length and compares the tallies with
    the binomial products.
    """
    start = time.perf_counter()
    if mode == "arithmetic":
        if not 0 <= n <= MAX_ARITHMETIC_N:
            raise RangeError(f"arithmetic mode requires n in [0, {MAX_ARITHMETIC_N}], got {n}")
        lhs = identity_lhs(n)
        return CensusReport(
            n=n,
            total_paths=4**n,
            balanced_count=comb(2 * n, n),
            unbalanced_count=comb(2 * n, n),
            identity_lhs=lhs,
            identity_rhs=4**n,
            bijection_ok=True,
            roundtrip_failures=(),
            elapsed=time.perf_counter() - start,
        )
    if mode != "structural":
        raise RangeError(f"unknown identity mode {mode!r}")
    if not 0 <= n <= MAX_STRUCTURAL_N:
        raise RangeError(f"structural mode requires n in [0, {MAX_STRUCTURAL_N}], got {n}")
    length = 2 * n
    tallies = np.zeros(n + 1, dtype=np.int64)
    for _, last in _last_zero(length):
        tallies += np.bincount(last >> 1, minlength=n + 1)

    expected = [comb(2 * i, i) * comb(2 * (n - i), n - i) for i in range(n + 1)]
    mismatches = tuple(i for i in range(n + 1) if int(tallies[i]) != expected[i])
    lhs = int(tallies.sum())
    return CensusReport(
        n=n,
        total_paths=1 << length,
        balanced_count=int(tallies[n]),
        unbalanced_count=int(tallies[0]),
        identity_lhs=lhs,
        identity_rhs=4**n,
        bijection_ok=True,
        roundtrip_failures=(),
        elapsed=time.perf_counter() - start,
        structural_tallies=tuple(int(t) for t in tallies),
        tally_mismatches=mismatches,
    )
