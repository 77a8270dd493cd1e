"""In-memory spans around the benchmark's calls into each dyckflip module.

A span records its name, start and end (perf_counter_ns), the span that
caused it and the counts observed at the same boundary: steps, peaks,
reflections, yielded and scanned, plus free-form tags. Spans stay in memory
and are written once, at the end of a traced run.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import Dict, Iterable, List, Optional, Tuple

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "counts")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "counts", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, parent: Optional[int], counts: dict) -> None:
        self._tracer = tracer
        self.id = len(tracer.spans)
        self.name = name
        self.parent = parent
        self.counts = counts
        self.start = 0
        self.end = 0

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self.id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter_ns()
        self._tracer._stack.pop()

    def count(self, **counts) -> None:
        self.counts.update(counts)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def count(self, **counts) -> None:
        pass


class Tracer:
    """Collects spans; `enabled=False` makes every span a shared no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NULL
        s = Span(self, name, self._stack[-1] if self._stack else None, counts)
        self.spans.append(s)
        return s

    def add(self, name: str, start: int, end: int, parent: Optional[Span] = None, **counts) -> Optional[Span]:
        """Record a span measured elsewhere, such as in a child process
        (perf_counter_ns is the system-wide monotonic clock on Linux)."""
        if not self.enabled:
            return None
        if parent is None:
            parent_id = self._stack[-1] if self._stack else None
        else:
            parent_id = parent.id
        s = Span(self, name, parent_id, counts)
        s.start, s.end = start, end
        self.spans.append(s)
        return s

    def write(self, path: str, extra: dict) -> None:
        rows = [[s.id, s.name, s.start, s.end, s.parent, s.counts] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "fields": FIELDS, "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


_NULL = _NullSpan()


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span come from one thread and do not overlap, so their
    clipped durations add up."""
    covered = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            covered[s.parent] += max(0, min(s.end, p.end) - max(s.start, p.start))
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def slope(points: Iterable[Tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs, ys = zip(*((math.log(x), math.log(y)) for x, y in points))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics from one traced tour of every workload.

    ns_per_step figures of bijection and decompose use the random-path
    requests, which carry the typical sqrt(L) peaks; the exponents use the
    many-peak family, whose cost grows fastest with length."""
    own = self_times(spans)
    by_name: Dict[str, List[Tuple[Span, int]]] = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s.name, []).append((s, t))

    def rows(name: str, keep=lambda s: True) -> List[Tuple[Span, int]]:
        return [(s, t) for s, t in by_name.get(name, []) if keep(s)]

    def ns_per(name: str, unit: str, keep=lambda s: True) -> float:
        picked = rows(name, keep)
        return sum(t for _, t in picked) / sum(s.counts[unit] for s, _ in picked)

    def ratio(name: str, num: str, den: str, keep=lambda s: True) -> float:
        picked = rows(name, keep)
        return sum(s.counts[num] for s, _ in picked) / sum(s.counts[den] for s, _ in picked)

    def exponent(name: str) -> float:
        return slope((s.counts["steps"], t) for s, t in rows(name) if s.counts.get("family"))

    def median_s(name: str, keep=lambda s: True) -> float:
        return statistics.median((s.end - s.start) / 1e9 for s, _ in rows(name, keep))

    def tagged(key: str, value):
        return lambda s: s.counts.get(key) == value

    def random_input(s: Span) -> bool:
        return not s.counts.get("family")

    m: Dict[str, float] = {}
    m["census.verify_bijection.ns_per_path"] = ns_per("census.verify_bijection", "scanned")
    m["census.verify_bijection.ns_per_balanced"] = ns_per("census.verify_bijection", "yielded")
    m["census.verify_bijection.balanced_ratio"] = ratio("census.verify_bijection", "yielded", "scanned")
    for cls in ("all", "balanced", "up"):
        keep = tagged("cls", cls)
        m[f"census.enumerate_class.ns_per_code.{cls}"] = ns_per("census.enumerate_class", "scanned", keep)
        m[f"census.enumerate_class.yield_ratio.{cls}"] = ratio("census.enumerate_class", "yielded", "scanned", keep)

    m["cli.import_s"] = median_s("cli.import")
    m["cli.main.arith_s"] = median_s("cli.main", tagged("mode", "arithmetic"))
    m["cli.main.struct_s"] = median_s("cli.main", tagged("mode", "structural"))
    m["cli.main.struct_ns_per_path"] = ns_per("cli.main", "scanned", tagged("mode", "structural"))
    m["cli.spawn_overhead_s"] = statistics.median(t for _, t in rows("cli.process")) / 1e9

    for name in ("bijection.phi", "bijection.phi_inverse", "decompose.decompose"):
        m[f"{name}.ns_per_step"] = ns_per(name, "steps", random_input)
        m[f"{name}.exponent"] = exponent(name)
    for name in ("path.parse_path", "path.format_path", "path.classify", "render.render_svg"):
        m[f"{name}.ns_per_step"] = ns_per(name, "steps")

    requests = [s for s in spans if s.name.startswith("longpath.")]
    m["longpath.many_peak_share"] = sum(1 for s in requests if s.counts.get("family")) / len(requests)
    return m
