"""The four workloads, each a closed loop: one client in one process sends
its next request only after the previous one has returned.

A workload is a plan of requests built once per run from the seed. A run
repeats the whole plan until its time is up, so every run times the same
mix of kinds, lengths and path families, and every input is timed several
times. Each request is timed alone. Its output is checked untimed, right
after it returns: in full by the oracles the first time, and against that
verified output on every repeat of the same input.

The latency of an input is its fastest repeat. The benchmark shares its host
with other tenants whose load slows a single-threaded run by up to 1.6x for
seconds at a time; the fastest repeat is the one least disturbed by them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import gen
from .trace import Tracer

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "identity_child.py")
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Sizes:
    sweep_n: int = 10
    arith_n: int = 4000
    struct_n: int = 11
    # geometric from 10^3 to 1.6*10^4, each a multiple of 4 so that the
    # many-peak family (UUD)^k D^k has every length
    lengths: Tuple[int, ...] = (1000, 1488, 2208, 3280, 4876, 7244, 10768, 16000)
    random_inputs: int = 3  # random longpath inputs per length, kind and start
    enum_len: int = 18


TINY = Sizes(sweep_n=3, arith_n=40, struct_n=3, lengths=(8, 12, 20), random_inputs=1, enum_len=6)


@dataclass(frozen=True)
class Request:
    kind: str  # what the latency is reported under, e.g. "map"
    slot: str  # names the input; repeats of a slot do the same work
    paths: int  # paths the request walks, for paths_per_s
    work: Callable[[], object]  # the timed part; returns the user-visible output
    check: Callable[[object], List[str]]  # exact oracle, run untimed on the first output


class Client:
    """One closed-loop client: issues requests, times them, checks them."""

    def __init__(self, lib, tracer: Tracer, sizes: Sizes, seed: int, src: str) -> None:
        self.lib = lib
        self.tr = tracer
        self.sizes = sizes
        self.seed = seed
        self.src = src
        self.latency: Dict[str, Dict[str, List[float]]] = {}
        self.slot_paths: Dict[str, int] = {}
        self.verified: Dict[str, bytes] = {}  # slot -> digest of its checked output
        self.busy_ns = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def send(self, req: Request) -> None:
        """Time one request, then check its output. A request that raises
        or whose output is wrong counts as failed, and the loop goes on."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = req.work()
        except Exception as exc:  # reported as a failed request
            self.fail(req.slot, f"{type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter_ns() - start
        self.latency.setdefault(req.kind, {}).setdefault(req.slot, []).append(elapsed / 1e9)
        self.slot_paths[req.slot] = req.paths
        self.busy_ns += elapsed
        # a digest, not the output, so that memory does not grow with repeats
        digest = hashlib.sha256(repr(out).encode()).digest()
        if req.slot in self.verified:
            if digest != self.verified[req.slot]:
                self.fail(req.slot, "output differs from the verified output of the same input")
            return
        problems = req.check(out)
        if problems:
            self.fail(req.slot, problems[0])
        else:
            self.verified[req.slot] = digest

    def fail(self, slot: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{slot}: {message}")

    def samples(self, kind: str) -> List[float]:
        return [t for times in self.latency[kind].values() for t in times]

    def best(self, kind: str) -> List[float]:
        """The fastest repeat of each input of a kind, in seconds."""
        return [min(times) for times in self.latency[kind].values()]


# --- sweep ------------------------------------------------------------------


def sweep_plan(c: Client, rng: random.Random) -> List[Request]:
    """verify_bijection(n) with default arguments and its key=value report,
    as `verify bijection --n n` prints it."""
    n = c.sizes.sweep_n

    def work():
        with c.tr.span("census.verify_bijection", scanned=4**n) as s:
            report = c.lib.verify_bijection(n)
        s.count(yielded=report.balanced_count)
        return report.to_kv()

    return [Request("sweep", "sweep", 4**n, work, lambda out: gen.check_kv("sweep", n, False, out))]


# --- identity ---------------------------------------------------------------


def identity_request(c: Client, mode: str, n: int) -> Request:
    """`verify identity` in a fresh interpreter, so the lru_cache of central
    binomials starts cold as it does for a user of the command. The child
    is waited for before the next request: one child is alive at a time."""
    argv = ["verify", "identity", "--n", str(n), "--mode", mode]
    scanned = 4**n if mode == "structural" else 0
    env = dict(os.environ, PYTHONPATH=c.src)

    def work():
        start = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, CHILD, *argv], capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S
        )
        end = time.perf_counter_ns()
        if c.tr.enabled and proc.returncode == 0:
            marks = json.loads(proc.stderr.splitlines()[-1])
            process = c.tr.add("cli.process", start, end, mode=mode)
            c.tr.add("cli.import", *marks["import"], parent=process)
            c.tr.add("cli.main", *marks["main"], parent=process, mode=mode, scanned=scanned)
        return proc.returncode, proc.stdout

    kind = "arith" if mode == "arithmetic" else "struct"
    return Request(
        kind, kind, scanned, work, lambda out: gen.check_kv(kind, n, mode == "structural", out[1], out[0])
    )


def identity_plan(c: Client, rng: random.Random) -> List[Request]:
    return [identity_request(c, "arithmetic", c.sizes.arith_n), identity_request(c, "structural", c.sizes.struct_n)]


# --- longpath ---------------------------------------------------------------


def _points(points) -> str:
    return ",".join(f"{i}:{h}" for i, h in points)


def map_request(c: Client, text: str, inverse: bool, family: bool) -> List[str]:
    """`map P --trace` (or `invert P --trace`): parse, map, then format and
    classify the result, as the command does."""
    lib, tr, n = c.lib, c.tr, len(text)
    kind = "invert" if inverse else "map"
    with tr.span(f"longpath.{kind}", steps=n, family=family):
        with tr.span("path.parse_path", steps=n):
            p = lib.parse_path(text)
        name = "bijection.phi_inverse" if inverse else "bijection.phi"
        with tr.span(name, steps=n, family=family) as s:
            image, trace = (lib.phi_inverse if inverse else lib.phi)(p)
        s.count(peaks=len(trace.b_points), reflections=len(trace.reflection_lines))
        with tr.span("path.format_path", steps=n):
            out = lib.format_path(image)
        with tr.span("path.classify", steps=n):
            class_in = lib.classify(p).value
        with tr.span("path.classify", steps=n):
            class_out = lib.classify(image).value
        return [
            out,
            f"class_in={class_in}",
            f"class_out={class_out}",
            "b_points=" + _points(trace.b_points),
            "g_points=" + _points(trace.g_points),
            "lines=" + ",".join(map(str, trace.reflection_lines)),
        ]


def decompose_request(c: Client, text: str, family: bool) -> List[str]:
    """`decompose P`: upruns, segments and peaks, one per line."""
    lib, tr, n = c.lib, c.tr, len(text)
    with tr.span("longpath.decompose", steps=n, family=family):
        with tr.span("path.parse_path", steps=n):
            p = lib.parse_path(text)
        with tr.span("decompose.decompose", steps=n, family=family) as s:
            d = lib.decompose(p)
        s.count(peaks=len(d.peak_indices))
        lines = []
        for up_len, seg in d.parts:
            lines.append(f"uprun={up_len}")
            with tr.span("path.format_path", steps=seg.steps.length):
                lines.append(f"segment={seg.kind.value}:{lib.format_path(seg.steps)}")
        lines.append("peaks=" + _points(zip(d.peak_indices, d.peak_heights)))
        return lines


def render_request(c: Client, text: str) -> str:
    """`render P --trace forward --svg -`."""
    lib, tr, n = c.lib, c.tr, len(text)
    with tr.span("longpath.render", steps=n, family=False):
        with tr.span("path.parse_path", steps=n):
            p = lib.parse_path(text)
        with tr.span("bijection.phi", steps=n, family=False) as s:
            _, trace = lib.phi(p)
        s.count(peaks=len(trace.b_points), reflections=len(trace.reflection_lines))
        with tr.span("render.render_svg", steps=n):
            return lib.render_svg(lib.RenderSpec(path=p, trace=trace))


def _roundtrip(c: Client, text: str, out: str, inverse: bool) -> List[str]:
    """phi_inverse(phi(P)) == P after map, phi(phi_inverse(P)) == P after invert."""
    lib = c.lib
    back = (lib.phi if inverse else lib.phi_inverse)(lib.parse_path(out))[0]
    if lib.format_path(back) != text:
        return ["phi(phi_inverse(P)) != P" if inverse else "phi_inverse(phi(P)) != P"]
    return []


def _longpath_request(c: Client, kind: str, slot: str, text: str, fam: int) -> Request:
    if kind == "map":
        return Request(
            kind,
            slot,
            1,
            lambda: map_request(c, text, False, fam > 0),
            lambda out: gen.check_map(text, out, fam) or _roundtrip(c, text, out[0], False),
        )
    if kind == "invert":
        return Request(
            kind,
            slot,
            1,
            lambda: map_request(c, text, True, fam > 0),
            lambda out: gen.check_invert(text, out, fam) or _roundtrip(c, text, out[0], True),
        )
    if kind == "decompose":
        return Request(
            kind, slot, 1, lambda: decompose_request(c, text, fam > 0), lambda out: gen.check_decompose(text, out)
        )
    return Request(kind, slot, 1, lambda: render_request(c, text), lambda out: gen.check_render(text, out))


def longpath_plan(c: Client, rng: random.Random) -> List[Request]:
    """Per length: map on random up- and down-start balanced paths and on
    the many-peak family; invert on random up- and down-unbalanced paths and
    on the family's image; decompose on random up-start paths and on the
    family; render on random balanced paths. Several random paths per length
    and start, because a random path's cost varies with its peak count and
    the median over several varies less from seed to seed. One request in 8
    is many-peak, well above the tail's share of a run's samples."""
    plan = []
    for n in c.sizes.lengths:
        k = n // 4

        def randoms(make, starts):
            return [(f"{s}{i}", make(rng, n, s == "up"), 0) for i in range(c.sizes.random_inputs) for s in starts]

        inputs = {
            "map": randoms(gen.random_balanced, ("up", "down")) + [("family", gen.many_peak(k), k)],
            "invert": randoms(gen.random_unbalanced, ("up", "down")) + [("family", gen.many_peak_image(k), k)],
            "decompose": randoms(gen.random_balanced, ("up",)) + [("family", gen.many_peak(k), k)],
            "render": randoms(gen.random_balanced, ("up", "down")),
        }
        for kind, texts in inputs.items():
            plan += [_longpath_request(c, kind, f"{kind}:{n}:{tag}", text, fam) for tag, text, fam in texts]
    return plan


# --- enumerate --------------------------------------------------------------


def enumerate_plan(c: Client, rng: random.Random) -> List[Request]:
    """enumerate_class(L, cls) consumed in full with format_path on every
    path, as `enumerate --len L --class cls` prints them."""
    lib, tr, n = c.lib, c.tr, c.sizes.enum_len
    classes = (
        ("all", None, None),
        ("balanced", "Balanced", lib.PathClass.BALANCED),
        ("up", "UpUnbalanced", lib.PathClass.UP_UNBALANCED),
    )
    plan = []
    for label, name, cls in classes:

        def work(label=label, cls=cls):
            texts = []
            with tr.span("census.enumerate_class", scanned=1 << n, cls=label) as s:
                for p in lib.enumerate_class(n, cls):
                    with tr.span("path.format_path", steps=n):
                        texts.append(lib.format_path(p))
            s.count(yielded=len(texts))
            return texts

        plan.append(Request(label, label, 1 << n, work, lambda out, name=name: gen.check_enumerate(n, name, out)))
    return plan


PLANS: Dict[str, Callable[[Client, random.Random], List[Request]]] = {
    "sweep": sweep_plan,
    "identity": identity_plan,
    "longpath": longpath_plan,
    "enumerate": enumerate_plan,
}


def make_plan(c: Client, workload: str) -> List[Request]:
    return PLANS[workload](c, random.Random(f"{workload}:{c.seed}"))


def run_loop(c: Client, workload: str, seconds: float) -> int:
    """Repeat the workload's plan while another pass is expected to end
    within `seconds`; always at least once. Returns the number of passes."""
    plan = make_plan(c, workload)
    start = time.perf_counter()
    passes = 0
    while True:
        for req in plan:
            c.send(req)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return passes


def run_paired(a: Client, b: Client, workload: str) -> None:
    """One pass of the same plan on two clients, request by request and
    alternating which goes first, so that both see the same host load."""
    for i, (x, y) in enumerate(zip(make_plan(a, workload), make_plan(b, workload))):
        for client, req in ((a, x), (b, y)) if i % 2 == 0 else ((b, y), (a, x)):
            client.send(req)


# --- summaries --------------------------------------------------------------


def tail(samples: List[float]) -> Optional[Tuple[float, float, int]]:
    """(value, percentile, n) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def p50_ms(c: Client) -> float:
    """Median over a kind's inputs of each input's fastest repeat; where a
    workload mixes kinds, the geometric mean over kinds, so each weighs the same."""
    logs = [math.log(statistics.median(c.best(kind))) for kind in c.latency]
    return 1000.0 * math.exp(statistics.fmean(logs))


def paths_per_s(c: Client) -> float:
    """Paths walked by one pass of the plan over the time of that pass,
    each input timed at its fastest repeat."""
    best = {slot: min(t) for kinds in c.latency.values() for slot, t in kinds.items()}
    return sum(c.slot_paths[slot] for slot in best) / sum(best.values())
