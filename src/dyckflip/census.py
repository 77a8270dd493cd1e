"""Exact counting and exhaustive verification.

Two claims get checked here. First, the arithmetic identity

    sum_{i=0..n} C(2i,i) * C(2n-2i,n-i) = 4^n

and its structural counterpart: splitting every length-2n path at its last
visit to height 0 buckets the 4^n paths into exactly C(2i,i)*C(2n-2i,n-i)
per prefix half-length i. Second, that the partial-reflection map is a
bijection between balanced and unbalanced paths of each even length,
verified by sweeping the whole rank space, marking images in a bitset and
round-tripping every path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .bijection import phi_inverse_steps, phi_steps
from .errors import OddLengthError, RangeError
from .path import LatticePath, PathClass, classify, code_from_steps, steps_from_code, unrank

MAX_BIJECTION_N = 12
MAX_STRUCTURAL_N = 12
MAX_ARITHMETIC_N = 10_000
_CHUNK = 1 << 16


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
    for code in range(1 << length):
        p = unrank(length, code)
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


def _height_matrix(lo: int, hi: int, length: int) -> np.ndarray:
    codes = np.arange(lo, hi, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(length, dtype=np.int64)) & 1).astype(np.int8)
    return np.cumsum(2 * bits - 1, axis=1, dtype=np.int16)


def _partition_bounds(total: int, partitions: int) -> List[Tuple[int, int]]:
    if partitions < 1:
        raise RangeError(f"partitions must be >= 1, got {partitions}")
    step = -(-total // partitions)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def verify_bijection(
    n: int,
    partitions: int = 1,
    phi_fn: Optional[Callable[[LatticePath], LatticePath]] = None,
) -> CensusReport:
    """Sweep all 2^(2n) paths and verify the bijection exhaustively.

    The rank space is cut into `partitions` disjoint intervals; each
    partition tallies classes, maps its balanced paths, marks images in a
    local bitset and round-trips them. Partition results are merged in rank
    order, so the report does not depend on the partition count.

    phi_fn substitutes the forward map (fault injection in tests); the
    round trip still checks against the true inverse.
    """
    if not 1 <= n <= MAX_BIJECTION_N:
        raise RangeError(f"n must be in [1, {MAX_BIJECTION_N}], got {n}")
    start = time.perf_counter()
    length = 2 * n
    total = 1 << length

    balanced_count = 0
    up_count = 0
    down_count = 0
    nbytes = (total + 7) // 8
    image_bitset = bytearray(nbytes)
    unbalanced_bitset = bytearray(nbytes)
    injective = True
    failures: List[int] = []

    for lo, hi in _partition_bounds(total, partitions):
        for clo in range(lo, hi, _CHUNK):
            chi = min(clo + _CHUNK, hi)
            hs = _height_matrix(clo, chi, length)
            balanced = hs[:, -1] == 0
            positive = (hs > 0).all(axis=1)
            negative = (hs < 0).all(axis=1)
            balanced_count += int(balanced.sum())
            up_count += int(positive.sum())
            down_count += int(negative.sum())

            for off in np.flatnonzero(positive | negative):
                code = clo + int(off)
                unbalanced_bitset[code >> 3] |= 1 << (code & 7)

            for off in np.flatnonzero(balanced):
                code = clo + int(off)
                steps = steps_from_code(code, length)
                if phi_fn is None:
                    image_steps = phi_steps(steps)
                else:
                    image_steps = list(phi_fn(unrank(length, code)).steps)
                image_code = code_from_steps(image_steps)
                mask = 1 << (image_code & 7)
                if image_bitset[image_code >> 3] & mask:
                    injective = False
                    failures.append(code)
                    continue
                image_bitset[image_code >> 3] |= mask
                if phi_inverse_steps(image_steps) != steps:
                    failures.append(code)

    unbalanced_count = up_count + down_count
    surjective = image_bitset == unbalanced_bitset
    counts_ok = balanced_count == unbalanced_count == comb(2 * n, n)
    bijection_ok = injective and surjective and counts_ok and not failures

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


class IdentityMode:
    ARITHMETIC = "arithmetic"
    STRUCTURAL = "structural"


def verify_identity(n: int, mode: str = IdentityMode.ARITHMETIC) -> CensusReport:
    """Check the central-binomial convolution identity for one n.

    Arithmetic mode evaluates both sides with exact integers. Structural
    mode enumerates all 4^n paths, splits each at its last visit to height
    0 and compares the per-prefix-length tallies with the binomial products.
    """
    start = time.perf_counter()
    if mode == IdentityMode.ARITHMETIC:
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
    if mode != IdentityMode.STRUCTURAL:
        raise RangeError(f"unknown identity mode {mode!r}")

    if not 0 <= n <= MAX_STRUCTURAL_N:
        raise RangeError(f"structural mode requires n in [0, {MAX_STRUCTURAL_N}], got {n}")
    length = 2 * n
    tallies = np.zeros(n + 1, dtype=np.int64)
    if length == 0:
        tallies[0] = 1
    else:
        for clo in range(0, 1 << length, _CHUNK):
            chi = min(clo + _CHUNK, 1 << length)
            hs = _height_matrix(clo, chi, length)
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
