"""Exact counting and exhaustive verification.

Two claims get checked here. First, the arithmetic identity

    sum_{i=0..n} C(2i,i) * C(2n-2i,n-i) = 4^n

and its structural counterpart: splitting every length-2n path at its last
visit to height 0 buckets the 4^n paths into exactly C(2i,i)*C(2n-2i,n-i)
per prefix half-length i. Second, that the partial-reflection map is a
bijection between balanced and unbalanced paths of each even length,
verified by sweeping the whole rank space: every balanced path is mapped,
its image is marked in one image-seen array and mapped back, and the two
classes are counted. Images that are all unbalanced, all distinct and as
many as the unbalanced paths are all of them, so the counts prove that the
map is onto.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Iterator, List, Literal, Optional, Tuple

import numpy as np

from .bijection import phi_inverse_steps, phi_steps
from .errors import OddLengthError, RangeError
from .path import LatticePath, PathClass, all_paths, classify, code_from_steps, steps_from_code

MAX_BIJECTION_N = 12
MAX_STRUCTURAL_N = 12
MAX_ARITHMETIC_N = 10_000
# codes per chunk of a sweep; any size gives the same reports, it only
# bounds the memory of one chunk's height matrix
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
    for j in range(len(h) - 1, -1, -1):
        if h[j] == 0:
            return j
    return 0


def split_at_last_zero(p: LatticePath) -> Tuple[LatticePath, LatticePath]:
    """Split into (balanced prefix, suffix that never re-touches its start).

    The suffix is empty when the path itself is balanced.
    """
    if p.length % 2:
        raise OddLengthError("split requires an even-length path")
    j = last_zero_touch(p)
    return LatticePath(p.steps[:j]), LatticePath(p.steps[j:])


def enumerate_class(length: int, cls: Optional[PathClass] = None) -> Iterator[LatticePath]:
    """All paths of the given length matching the class filter, in rank order."""
    if not 0 <= length <= 30:
        raise RangeError(f"length must be in [0, 30], got {length}")
    for p in all_paths(length):
        if cls is None or classify(p) is cls:
            yield p


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

    def to_kv(self, include_elapsed: bool = False) -> str:
        """Line-oriented key=value form. elapsed is wall-clock noise and is
        left out by default so reports compare byte-for-byte."""
        lines = [
            f"n={self.n}",
            f"total_paths={self.total_paths}",
            f"balanced_count={self.balanced_count}",
            f"unbalanced_count={self.unbalanced_count}",
            f"identity_lhs={self.identity_lhs}",
            f"identity_rhs={self.identity_rhs}",
            f"bijection_ok={str(self.bijection_ok).lower()}",
            "roundtrip_failures=" + ",".join(map(str, self.roundtrip_failures)),
        ]
        if self.structural_tallies is not None:
            lines.append("structural_tallies=" + ",".join(map(str, self.structural_tallies)))
            lines.append("tally_mismatches=" + ",".join(map(str, self.tally_mismatches)))
        lines.append(f"ok={str(self.ok).lower()}")
        if include_elapsed:
            lines.append(f"elapsed={self.elapsed:.6f}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self, include_elapsed: bool = False) -> dict:
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
        if include_elapsed:
            d["elapsed"] = self.elapsed
        return d


@lru_cache(maxsize=None)
def _central_binomial(i: int) -> int:
    return comb(2 * i, i)


def identity_lhs(n: int) -> int:
    """The binomial convolution sum_{i} C(2i,i) * C(2n-2i,n-i)."""
    return sum(_central_binomial(i) * _central_binomial(n - i) for i in range(n + 1))


def _height_chunks(length: int) -> Iterator[Tuple[int, np.ndarray]]:
    """(first code, heights) for consecutive chunks of all 2^length codes, in
    rank order. Row r of heights is the path of code first + r; column c is
    its height after step c."""
    shifts = np.arange(length, dtype=np.int64)
    total = 1 << length
    for lo in range(0, total, _CHUNK):
        codes = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        bits = ((codes[:, None] >> shifts) & 1).astype(np.int8)
        heights = np.cumsum(2 * bits - 1, axis=1, dtype=np.int16)
        # a suspended generator keeps its locals alive; drop the temporaries
        # so they do not add to the peak memory of the caller's chunk work
        del codes, bits
        yield lo, heights


def verify_bijection(n: int) -> CensusReport:
    """Sweep all 2^(2n) paths and verify the bijection exhaustively.

    One pass over the rank space counts the balanced and the unbalanced
    paths. Every balanced path is mapped; its image must have the same
    length and never touch height 0, must not be marked already in the one
    image-seen array, and must map back to the path, or the path is listed
    in roundtrip_failures. The map is a bijection iff nothing failed and
    both sides count C(2n, n): the images are then distinct unbalanced
    paths, as many as there are unbalanced paths, so they are all of them.
    """
    if not 1 <= n <= MAX_BIJECTION_N:
        raise RangeError(f"n must be in [1, {MAX_BIJECTION_N}], got {n}")
    start = time.perf_counter()
    length = 2 * n
    total = 1 << length

    balanced_count = 0
    unbalanced_count = 0
    seen = bytearray(total)
    failures: List[int] = []

    for lo, hs in _height_chunks(length):
        balanced = hs[:, -1] == 0
        unbalanced = (hs > 0).all(axis=1) | (hs < 0).all(axis=1)
        balanced_count += int(balanced.sum())
        unbalanced_count += int(unbalanced.sum())

        for code in (lo + np.flatnonzero(balanced)).tolist():
            steps = steps_from_code(code, length)
            image_steps = phi_steps(steps)
            # an image of another length or one that returns to height 0 is
            # not an unbalanced path of this length: no mark, no round trip
            if len(image_steps) != length or 0 in accumulate(image_steps):
                failures.append(code)
                continue
            image_code = code_from_steps(image_steps)
            if seen[image_code] or phi_inverse_steps(image_steps) != steps:
                failures.append(code)
            seen[image_code] = 1

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

    Arithmetic mode evaluates both sides with exact integers. Structural
    mode enumerates all 4^n paths, splits each at its last visit to height
    0 and compares the per-prefix-length tallies with the binomial products.
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
    if length == 0:
        tallies[0] = 1
    else:
        for _, hs in _height_chunks(length):
            zeros = hs == 0
            rev = zeros[:, ::-1]
            has_zero = rev.any(axis=1)
            # column c of hs is height index c+1; argmax finds the first
            # zero from the right, i.e. the last return to the baseline
            last = np.where(has_zero, length - np.argmax(rev, axis=1), 0)
            tallies += np.bincount(last // 2, minlength=n + 1)

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
