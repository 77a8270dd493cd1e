"""Command-line front end.

Subcommands: map, invert, decompose, verify, enumerate, render.
Paths arrive as an argument or via stdin when the argument is "-", so
`dyckflip map UDUD | dyckflip invert -` round-trips.

Exit codes: 0 success, 1 verification failure or stdout closed early (as
Python itself exits on a broken pipe), 2 usage or domain error, or path
text on stdin longer than MAX_STDIN_CHARS.

This module imports only `errors` and the standard library. Each command
imports the kernels it runs when it runs, so `--help`, usage errors and
`verify identity --mode arithmetic` never load numpy, and each `--json`
branch imports `json`, which no other output needs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from .errors import MAX_CELL_SIZE, DomainError, ParseError, RangeError, ValidationError

if TYPE_CHECKING:
    from .identity import _Report
    from .path import LatticePath

# path text read from stdin, surrounding whitespace included: 2^20
# characters, so a path of 2^20 - 1 steps with its newline
MAX_STDIN_CHARS = 1 << 20

# the name of each class filter's PathClass member
_CLASS_FILTERS = {
    "balanced": "BALANCED",
    "up": "UP_UNBALANCED",
    "down": "DOWN_UNBALANCED",
    "other": "OTHER",
    "all": None,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckflip",
        description="Partial-reflection bijection between balanced lattice "
        "paths and unbalanced Dyck paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_path_cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "path", help=f'path text, or "-" to read it from stdin (at most {MAX_STDIN_CHARS} characters)'
        )
        cmd.add_argument("--alphabet", choices=("ud", "ne"), default="ud")
        return cmd

    for name, help_text in (
        ("map", "map a balanced path to its unbalanced image"),
        ("invert", "recover the balanced path from an unbalanced image"),
    ):
        cmd = add_path_cmd(name, help_text)
        cmd.add_argument("--json", action="store_true", dest="as_json")
        cmd.add_argument("--trace", action="store_true")

    cmd = add_path_cmd("decompose", "show the peak decomposition of a balanced path")
    cmd.add_argument("--json", action="store_true", dest="as_json")

    verify = sub.add_parser("verify", help="exhaustive verification runs")
    vsub = verify.add_subparsers(dest="target", required=True)
    vb = vsub.add_parser("bijection", help="exhaustive bijectivity sweep")
    vb.add_argument("--n", type=int, required=True)
    vb.add_argument("--json", action="store_true", dest="as_json")
    vi = vsub.add_parser("identity", help="central binomial convolution identity")
    vi.add_argument("--n", type=int, required=True)
    vi.add_argument("--mode", choices=("arithmetic", "structural"), default="arithmetic")
    vi.add_argument("--json", action="store_true", dest="as_json")

    enum = sub.add_parser("enumerate", help="list paths of a length in rank order")
    enum.add_argument("--len", type=int, required=True, dest="length")
    enum.add_argument("--class", choices=sorted(_CLASS_FILTERS), default="all", dest="cls")
    enum.add_argument("--alphabet", choices=("ud", "ne"), default="ud")

    rend = add_path_cmd("render", "draw a path as ASCII art or SVG")
    rend.add_argument("--svg", metavar="FILE", help='write SVG to FILE ("-" for stdout)')
    rend.add_argument(
        "--cell-size", type=int, default=10, help=f"SVG pixels per unit step, 1 to {MAX_CELL_SIZE} (default 10)"
    )
    rend.add_argument("--trace", choices=("forward", "inverse"), default=None)
    rend.add_argument("--axes", action="store_true")

    return parser


def _read_path(arg: str, alphabet: str) -> LatticePath:
    from .path import parse_path

    if arg != "-":
        return parse_path(arg, alphabet)
    text = sys.stdin.read(MAX_STDIN_CHARS + 1)
    if len(text) > MAX_STDIN_CHARS:
        raise RangeError(f"path text on stdin must be at most {MAX_STDIN_CHARS} characters")
    return parse_path(text, alphabet)


def _trace_fields(p, image, trace, alphabet: str) -> dict:
    from .path import classify, format_path

    return {
        "input": format_path(p, alphabet),
        "output": format_path(image, alphabet),
        "class_in": classify(p).value,
        "class_out": classify(image).value,
        "b_points": [list(pt) for pt in trace.b_points],
        "g_points": [list(pt) for pt in trace.g_points],
        "lines": list(trace.reflection_lines),
    }


def _run_map(args: argparse.Namespace, inverse: bool) -> int:
    from .bijection import phi, phi_inverse
    from .path import classify, format_path

    p = _read_path(args.path, args.alphabet)
    image, trace = (phi_inverse if inverse else phi)(p)
    if args.as_json:
        import json

        print(json.dumps(_trace_fields(p, image, trace, args.alphabet)))
        return 0
    print(format_path(image, args.alphabet))
    if args.trace:
        print(f"class_in={classify(p).value}")
        print(f"class_out={classify(image).value}")
        print("b_points=" + ",".join(f"{i}:{h}" for i, h in trace.b_points))
        print("g_points=" + ",".join(f"{i}:{h}" for i, h in trace.g_points))
        print("lines=" + ",".join(map(str, trace.reflection_lines)))
    return 0


def _run_decompose(args: argparse.Namespace) -> int:
    from .decompose import decompose
    from .path import format_path

    p = _read_path(args.path, args.alphabet)
    d = decompose(p)
    if args.as_json:
        import json

        print(
            json.dumps(
                {
                    "input": format_path(p, args.alphabet),
                    "parts": [
                        {
                            "uprun": up_len,
                            "kind": seg.kind.value,
                            "steps": format_path(seg.steps, args.alphabet),
                            "start": seg.start_index,
                        }
                        for up_len, seg in d.parts
                    ],
                    "peak_indices": list(d.peak_indices),
                    "peak_heights": list(d.peak_heights),
                }
            )
        )
        return 0
    # one write a part, through writelines, and not one write of the joined
    # text: a write larger than a pipe holds returns short, with no error,
    # when the reader leaves midway, and the joined text is one more copy
    sys.stdout.writelines(
        f"uprun={up_len}\nsegment={seg.kind.value}:{format_path(seg.steps, args.alphabet)}\n"
        for up_len, seg in d.parts
    )
    sys.stdout.write("peaks=" + ",".join(f"{i}:{h}" for i, h in zip(d.peak_indices, d.peak_heights)) + "\n")
    return 0


def _write_whole(text: str) -> None:
    """Write a whole document to stdout, or raise BrokenPipeError.

    A write larger than a pipe holds returns short, with no error, when the
    reader leaves midway, and the text layer drops the rest unseen. So the
    bytes go to the binary layer in a loop on the count each write took:
    after a short write, the next one meets the closed pipe.
    """
    out = sys.stdout
    out.flush()
    buffer = getattr(out, "buffer", None)
    if buffer is None:  # a text-only stream, such as io.StringIO
        out.write(text)
        return
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[buffer.write(data) :]


def _print_report(report: _Report, as_json: bool) -> int:
    from .identity import exact_int_str

    if as_json:
        import json

        with exact_int_str():
            print(json.dumps(report.to_json_dict()))
    else:
        _write_whole(report.to_kv())
    return 0 if report.ok else 1


def _to_devnull(stream) -> None:
    """Point a stream whose reader went away at devnull, so that nothing
    more is written or raised on the way out."""
    with open(os.devnull, "w") as null:
        os.dup2(null.fileno(), stream.fileno())


def _print_error(exc: Exception) -> int:
    """One `error: Kind: message` line on stderr; the exit code is 2."""
    kind = getattr(exc, "reason", type(exc).__name__.removesuffix("Error"))
    try:
        print(f"error: {kind}: {exc}", file=sys.stderr)
    except BrokenPipeError:  # no reader (`dyckflip map UUU 2>&1 | true`)
        _to_devnull(sys.stderr)
    return 2


def _run_render(args: argparse.Namespace) -> int:
    from .bijection import phi, phi_inverse
    from .render import RenderSpec, render_ascii, render_svg

    p = _read_path(args.path, args.alphabet)
    trace = None
    if args.trace == "forward":
        _, trace = phi(p)
    elif args.trace == "inverse":
        _, trace = phi_inverse(p)
    spec = RenderSpec(path=p, trace=trace, cell_size=args.cell_size, show_axes=args.axes)
    if args.svg is not None:
        doc = render_svg(spec)
        if args.svg == "-":
            _write_whole(doc)
        else:
            try:
                fh = open(args.svg, "w", encoding="utf-8")
            except OSError as exc:
                return _print_error(exc)
            with fh:
                fh.write(doc)
    else:
        _write_whole(render_ascii(spec))
    return 0


def _run(args: argparse.Namespace) -> int:
    if args.command == "map":
        return _run_map(args, inverse=False)
    if args.command == "invert":
        return _run_map(args, inverse=True)
    if args.command == "decompose":
        return _run_decompose(args)
    if args.command == "verify":
        if args.target == "bijection":
            from .census import verify_bijection

            report = verify_bijection(args.n)
        else:
            from .identity import verify_identity

            report = verify_identity(args.n, mode=args.mode)
        return _print_report(report, args.as_json)
    if args.command == "enumerate":
        from .census import enumerate_class
        from .path import PathClass, format_path

        cls = _CLASS_FILTERS[args.cls]
        for p in enumerate_class(args.length, cls and PathClass[cls]):
            print(format_path(p, args.alphabet))
        return 0
    if args.command == "render":
        return _run_render(args)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        # surface a closed pipe here rather than in the interpreter's final flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _to_devnull(sys.stdout)  # no reader (`dyckflip enumerate --len 30 | head`)
        return 1
    except (DomainError, ParseError, RangeError, ValidationError) as exc:
        return _print_error(exc)


if __name__ == "__main__":
    sys.exit(main())
