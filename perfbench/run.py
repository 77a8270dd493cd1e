"""dyckflip benchmark: four seeded closed-loop workloads against the public
API, with exact output checks, and a traced run for per-layer metrics.

Run from the root of a dyckflip checkout (the package is imported from
./src, so there is nothing to build):

    python3 perfbench/run.py --workload longpath --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 the end-to-end metrics of the
workload, with --trace 1 the per-layer metrics. Lines before it name every
metric with its unit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

if __package__ in (None, ""):  # run as a script: make the perfbench package importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.trace import Tracer, layer_metrics
from perfbench.workloads import Client, Sizes, p50_ms, paths_per_s, run_loop, run_paired, tail

WORKLOADS = ("sweep", "identity", "longpath", "enumerate")
SETUP_REPS = 9
SETUP_CODE = (
    "import time; t = time.perf_counter(); import dyckflip, dyckflip.cli; "
    "dt = time.perf_counter() - t; print(dyckflip.__file__); print(repr(dt))"
)
# per-layer metric units; see README.md for the end-to-end metric each moves
LAYER_UNITS = {
    "census.verify_bijection.ns_per_path": "ns",
    "census.verify_bijection.ns_per_balanced": "ns",
    "census.verify_bijection.balanced_ratio": "ratio",
    "census.enumerate_class.ns_per_code.all": "ns",
    "census.enumerate_class.ns_per_code.balanced": "ns",
    "census.enumerate_class.ns_per_code.up": "ns",
    "census.enumerate_class.yield_ratio.all": "ratio",
    "census.enumerate_class.yield_ratio.balanced": "ratio",
    "census.enumerate_class.yield_ratio.up": "ratio",
    "cli.import_s": "s",
    "cli.main.arith_s": "s",
    "cli.main.struct_s": "s",
    "cli.main.struct_ns_per_path": "ns",
    "cli.spawn_overhead_s": "s",
    "bijection.phi.ns_per_step": "ns",
    "bijection.phi.exponent": "1",
    "bijection.phi_inverse.ns_per_step": "ns",
    "bijection.phi_inverse.exponent": "1",
    "decompose.decompose.ns_per_step": "ns",
    "decompose.decompose.exponent": "1",
    "path.parse_path.ns_per_step": "ns",
    "path.format_path.ns_per_step": "ns",
    "path.classify.ns_per_step": "ns",
    "render.render_svg.ns_per_step": "ns",
    "longpath.many_peak_share": "ratio",
    "trace.overhead": "ratio",
}


class CheckoutError(Exception):
    """The working directory is not a dyckflip checkout."""


def load_library(root: str):
    """Import dyckflip from <root>/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dyckflip", "__init__.py")):
        raise CheckoutError(f"no dyckflip package under {src}")
    sys.path.insert(0, src)
    import dyckflip

    if not os.path.abspath(dyckflip.__file__).startswith(src + os.sep):
        raise CheckoutError(f"dyckflip imported from {dyckflip.__file__}, not from {src}")
    return dyckflip, src


def measure_setup(src: str, reps: int = SETUP_REPS) -> float:
    """Median time to import dyckflip and dyckflip.cli in a fresh interpreter."""
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 2 or not lines[0].startswith(src + os.sep):
            raise CheckoutError(f"import of dyckflip failed in a fresh interpreter: {proc.stderr.strip()}")
        times.append(float(lines[1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (ru_maxrss is in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_kind_metrics(workload: str, c: Client) -> List[Tuple[str, float, str, str]]:
    """The workload's metrics under their per-kind names, medians over every
    request: (name, value, unit, note)."""
    rows = [("error_rate", c.failed / c.attempted, "ratio", f"{c.failed} of {c.attempted}")]
    if workload in ("sweep", "enumerate"):
        paths = sum(c.slot_paths[slot] * len(t) for kind in c.latency.values() for slot, t in kind.items())
        rows.append(("paths_per_s", paths / (c.busy_ns / 1e9), "1/s", "over busy time"))
    if workload == "identity":
        for kind in ("arith", "struct"):
            times = c.samples(kind)
            rows.append((f"{kind}_s", statistics.median(times), "s", f"n={len(times)}"))
    if workload == "longpath":
        for kind in ("map", "invert", "decompose", "render"):
            times = c.samples(kind)
            rows.append((f"{kind}_p50_ms", 1000 * statistics.median(times), "ms", f"n={len(times)}"))
            t = tail(times) if kind in ("map", "invert") else None
            if t is not None:
                rows.append((f"{kind}_tail_ms", 1000 * t[0], "ms", f"p{t[1]:.1f} of n={t[2]}"))
    return rows


def run_untraced(lib, src: str, workload: str, seed: int, seconds: float, sizes: Sizes) -> Tuple[dict, List[str]]:
    setup_s = measure_setup(src)
    c = Client(lib, Tracer(False), sizes, seed, src)
    passes = run_loop(c, workload, seconds)
    rss = peak_rss_mb()
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "p50_ms": metric(p50_ms(c), "ms"),
        "paths_per_s": metric(paths_per_s(c), "1/s"),
    }
    lines = [f"{workload}: {passes} passes, {c.attempted} requests, busy {c.busy_ns / 1e9:.3f} s"]
    lines += [f"{workload}: {n} = {m['value']:.6g} {m['unit']}  (end-to-end)" for n, m in metrics.items()]
    for name, value, unit, note in per_kind_metrics(workload, c):
        lines.append(f"{workload}: {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    lines += [f"{workload}: FAILED {p}" for p in c.problems]
    return result(c.attempted, c.failed, metrics), lines


def run_traced(lib, src: str, workload: str, seed: int, root: str, sizes: Sizes) -> Tuple[dict, List[str]]:
    """One traced pass of every workload's plan; the per-layer metrics come
    from this tour. The named workload's traced pass is paired request by
    request with an untraced pass of the same inputs, and trace.overhead is
    the ratio of their busy times."""
    tracer = Tracer(True)
    plain = Client(lib, Tracer(False), sizes, seed, src)
    clients = {}
    for name in WORKLOADS:
        clients[name] = Client(lib, tracer, sizes, seed, src)
        if name == workload:
            run_paired(plain, clients[name], name)
        else:
            run_loop(clients[name], name, 0)
    values = layer_metrics(tracer.spans)
    values["trace.overhead"] = clients[workload].busy_ns / plain.busy_ns

    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload}.json")
    tracer.write(spans_path, {"workload": workload, "seed": seed, "metrics": values})

    everyone = [plain, *clients.values()]
    attempted = sum(c.attempted for c in everyone)
    failed = sum(c.failed for c in everyone)
    metrics = {name: metric(values[name], unit) for name, unit in LAYER_UNITS.items()}
    lines = [f"{workload}: {len(tracer.spans)} spans written to {os.path.relpath(spans_path, root)}"]
    lines += [f"{workload}: {n} = {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
    lines += [f"{workload}: FAILED {p}" for c in everyone for p in c.problems]
    return result(attempted, failed, metrics), lines


def result(attempted: int, failed: int, metrics: Dict[str, dict]) -> dict:
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), *argv], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        total["correct"] = total["correct"] and part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(total))
    return 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = os.getcwd()
    try:
        lib, src = load_library(root)
        start = time.perf_counter()
        if args.trace:
            res, lines = run_traced(lib, src, args.workload, args.seed, root, Sizes())
        else:
            res, lines = run_untraced(lib, src, args.workload, args.seed, args.seconds, Sizes())
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(f"{args.workload}: wall {time.perf_counter() - start:.3f} s")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
