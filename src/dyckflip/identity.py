"""The identity sum_{i=0..n} C(2i,i) * C(2n-2i,n-i) = 4^n, the census
bounds, and the reports of the census checks.

Arithmetic mode sums exact integers, each term from the one before by their
ratio (2i+1)(n-i) / ((i+1)(2n-2i-1)), starting from C(2n,n); term i equals
term n-i, so it sums the lower half and doubles it. Structural mode splits
every length-2n path at its last visit to height 0, which buckets the 4^n
paths into exactly C(2i,i)*C(2n-2i,n-i) per prefix half-length i.

The structural tally counts paths by state and keeps none of them: a
path's state after t steps is its height and its last vertex at 0 among
them, and `_states` is the one recursion over states. Step t takes each
state of t - 1 steps, with its number of paths, to the two states that a
down and an up step t lead to. Each of the 2^length paths ends in one
state, whose last vertex at 0 is the path's, so `_last_zero_tally` adds
each final state's count to its vertex. The bijection sweep of `census`
reads the same tally for its unbalanced count.

Both checks return an `IdentityReport`, a named tuple; the bijection sweep
of `census` returns a `CensusReport`, a frozen dataclass with the same
fields. The two share their verdict and text forms through `_Report`. This
module imports neither numpy nor `dataclasses` nor any other module of
the package but `errors`, so neither mode loads them.
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple
from contextlib import contextmanager
from math import comb
from typing import Dict, Iterator, List, Literal, Tuple

from .errors import RangeError

MAX_BIJECTION_N = 12
MAX_STRUCTURAL_N = 15
MAX_ARITHMETIC_N = 10_000

IdentityMode = Literal["arithmetic", "structural"]


def binomial(n: int, k: int) -> int:
    """Exact C(n, k) for 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        raise RangeError(f"binomial requires 0 <= k <= n, got n={n}, k={k}")
    return comb(n, k)


class _Report:
    """The verdict and the two text forms of a report, shared by
    `IdentityReport` and the bijection sweep's `census.CensusReport`, which
    carry the same fields."""

    __slots__ = ()

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


class IdentityReport(
    _Report,
    namedtuple(
        "IdentityReport",
        "n total_paths balanced_count unbalanced_count identity_lhs identity_rhs bijection_ok "
        "roundtrip_failures elapsed structural_tallies tally_mismatches",
        defaults=(None, ()),
    ),
):
    """Exact counts and verdicts of `verify_identity` for one half-length n.

    structural_tallies is only populated by the structural check;
    tally_mismatches lists the prefix half-lengths whose bucket size
    disagreed with the binomial product. A named tuple, not a dataclass:
    the arithmetic check then loads no `dataclasses`, and with it
    `inspect`, which would be most of its import.
    """

    __slots__ = ()


def _kv_text(value: object) -> str:
    """A report's or a trace record's value as the text after `key=`: a
    list or tuple comma-separated, an (i, h) point in it as i:h, and a bool
    as true or false."""
    if isinstance(value, (list, tuple)):
        return ",".join(["%d:%d" % x if isinstance(x, tuple) else str(x) for x in value])
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
    return _convolution(n, comb(2 * n, n))


def _convolution(n: int, t: int) -> int:
    """identity_lhs(n), from its first term t = C(2n, n)."""
    # term i equals term n - i: sum the terms i < n/2, double them, and add
    # the middle term if n is even; term i + 1 is term i times
    # (2i+1)(n-i) / ((i+1)(2n-2i-1)), exactly
    total = 0
    for i in range(n // 2):
        total += t
        t = t * ((2 * i + 1) * (n - i)) // ((i + 1) * (2 * n - 2 * i - 1))
    # t is now term n // 2: the middle term if n is even, else the last of
    # the lower half
    return 2 * total + (2 * t if n % 2 else t)


def _last_zero_tally(length: int) -> List[int]:
    """tally[v]: the number of paths of `length` steps whose last vertex at
    height 0 is v, 0 if they never return. Each path ends in one state of
    `_states`, whose last vertex at 0 is its own, so each final state adds
    its number of paths to its vertex."""
    tally = [0] * (length + 1)
    for (_, vertex), m in _states(length).items():
        tally[vertex] += m
    return tally


def _states(length: int) -> Dict[Tuple[int, int], int]:
    """Each state of `length` steps, the pair (height, last vertex at 0),
    and its number of paths."""
    states = {(0, 0): 1}
    for t in range(1, length + 1):
        # a state of t steps has the paths of its parents of t - 1 steps
        following = {}
        for (h, z), m in states.items():
            for g in (h - 1, h + 1):
                state = (g, t if g == 0 else z)
                following[state] = following.get(state, 0) + m
        states = following
    return states


def verify_identity(n: int, mode: IdentityMode = "arithmetic") -> IdentityReport:
    """Check the central-binomial convolution identity for one n.

    Arithmetic mode evaluates both sides with exact integers, each term of
    the sum from the one before by their ratio. Structural mode tallies the
    4^n paths by their last visit to height 0, counted by the recursion
    over (height, last vertex at 0) states, a step at a time, with nothing
    kept per path. It compares the tallies, by prefix
    half-length, with the binomial products.
    """
    start = time.perf_counter()
    tallies, mismatches = None, ()
    if mode == "arithmetic":
        if not 0 <= n <= MAX_ARITHMETIC_N:
            raise RangeError(f"arithmetic mode requires n in [0, {MAX_ARITHMETIC_N}], got {n}")
        balanced = unbalanced = comb(2 * n, n)
        lhs = _convolution(n, balanced)
    elif mode != "structural":
        raise RangeError(f"unknown identity mode {mode!r}")
    elif not 0 <= n <= MAX_STRUCTURAL_N:
        raise RangeError(f"structural mode requires n in [0, {MAX_STRUCTURAL_N}], got {n}")
    else:
        # the paths by their last vertex at 0, twice their prefix half-length;
        # none is at an odd vertex, and one counted there would leave the sum
        # short of 4^n
        tallies = tuple(_last_zero_tally(2 * n)[::2])
        mismatches = tuple(i for i in range(n + 1) if tallies[i] != comb(2 * i, i) * comb(2 * (n - i), n - i))
        balanced, unbalanced, lhs = tallies[n], tallies[0], sum(tallies)
    return IdentityReport(
        n=n,
        total_paths=4**n,
        balanced_count=balanced,
        unbalanced_count=unbalanced,
        identity_lhs=lhs,
        identity_rhs=4**n,
        bijection_ok=True,
        roundtrip_failures=(),
        elapsed=time.perf_counter() - start,
        structural_tallies=tallies,
        tally_mismatches=mismatches,
    )
