"""Command-line front end.

Subcommands: map, invert, decompose, verify, enumerate, render.
Paths arrive as an argument or via stdin when the argument is "-", so
`dyckflip map UDUD | dyckflip invert -` round-trips.

Exit codes: 0 success, 1 verification failure or stdout closed early (as
Python itself exits on a broken pipe), 2 usage or domain error, or path
text on stdin longer than MAX_STDIN_CHARS. Every byte of stdout leaves
through `_write`, so a reader that closes the pipe early gives 1 on every
command. A stream that fails or is closed ends in one `error: IO:` line:
stdout with 1, stdin or the `--svg` file with 2.

This module imports only the package root, for the exceptions and
`MAX_CELL_SIZE`, and the standard library. Each command
imports the kernels it runs when it runs, so `--help`, usage errors and
`verify identity --mode arithmetic` never load numpy, and each `--json`
branch imports `json`, which no other output needs.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from typing import TYPE_CHECKING, Iterable, List, Optional

from . import MAX_CELL_SIZE, DomainError, ParseError, RangeError, ValidationError

if TYPE_CHECKING:
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
        cmd.set_defaults(run=_run_map)

    cmd = add_path_cmd("decompose", "show the peak decomposition of a balanced path")
    cmd.add_argument("--json", action="store_true", dest="as_json")
    cmd.set_defaults(run=_run_decompose)

    verify = sub.add_parser("verify", help="exhaustive verification runs")
    verify.set_defaults(run=_run_verify)
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
    enum.set_defaults(run=_run_enumerate)

    rend = add_path_cmd("render", "draw a path as ASCII art or SVG")
    rend.add_argument("--svg", metavar="FILE", help='write SVG to FILE ("-" for stdout)')
    rend.add_argument(
        "--cell-size", type=int, default=10, help=f"SVG pixels per unit step, 1 to {MAX_CELL_SIZE} (default 10)"
    )
    rend.add_argument("--trace", choices=("forward", "inverse"), default=None)
    rend.add_argument("--axes", action="store_true")
    rend.set_defaults(run=_run_render)

    return parser


class _StdinError(ValueError):
    """stdin is closed or cannot be read; it exits 2, as bad path text does."""

    reason = "IO"


def _read_path(arg: str, alphabet: str) -> LatticePath:
    from .path import parse_path

    if arg != "-":
        return parse_path(arg, alphabet)
    try:
        text = sys.stdin.read(MAX_STDIN_CHARS + 1)
    except (AttributeError, OSError) as exc:  # None if started with stdin closed (`<&-`)
        raise _StdinError(exc if sys.stdin else "stdin is closed") from None
    if len(text) > MAX_STDIN_CHARS:
        raise RangeError(f"path text on stdin must be at most {MAX_STDIN_CHARS} characters")
    return parse_path(text, alphabet)


def _write(chunks: Iterable[str]) -> None:
    """Write text to stdout and flush it, or raise BrokenPipeError, or
    OSError if stdout fails or is closed.

    The chunks are joined 1024 at a time, so that a long run of short lines
    costs one encode and one write a batch. A write larger than a pipe holds
    returns short, with no error, when the reader leaves midway, and the
    text layer drops the rest unseen. So the bytes go to the binary layer in
    a loop on the count each write took: after a short write, the next one
    meets the closed pipe.
    """
    out = sys.stdout
    if out is None:  # started with stdout closed (`>&-`)
        raise OSError("stdout is closed")
    out.flush()
    buffer = getattr(out, "buffer", None)
    if buffer is None:  # a text-only stream, such as io.StringIO
        out.writelines(chunks)
        return
    chunks = iter(chunks)
    while batch := list(islice(chunks, 1024)):
        data = memoryview("".join(batch).encode(out.encoding, out.errors))
        while data:
            data = data[buffer.write(data) :]
    # surface a closed pipe here rather than in the interpreter's final flush
    buffer.flush()


def _run_map(args: argparse.Namespace) -> int:
    from .bijection import phi, phi_inverse
    from .identity import _kv_text
    from .path import classify, format_path

    p = _read_path(args.path, args.alphabet)
    image, trace = (phi_inverse if args.command == "invert" else phi)(p)
    output = format_path(image, args.alphabet)
    # the trace record: --json dumps it after the two paths, its tuples as
    # lists, and --trace writes it as key=value lines after the image
    record = {
        "class_in": classify(p).value,
        "class_out": classify(image).value,
        "b_points": trace.b_points,
        "g_points": trace.g_points,
        "lines": trace.reflection_lines,
    }
    if args.as_json:
        import json

        _write([json.dumps({"input": format_path(p, args.alphabet), "output": output, **record}), "\n"])
    else:
        _write([output, "\n", *(f"{key}={_kv_text(value)}\n" for key, value in record.items() if args.trace)])
    return 0


def _run_decompose(args: argparse.Namespace) -> int:
    from .bijection import decompose
    from .path import format_path

    p = _read_path(args.path, args.alphabet)
    d = decompose(p)
    if args.as_json:
        import json

        doc = json.dumps(
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
        _write([doc, "\n"])
        return 0
    _write(
        f"uprun={up_len}\nsegment={seg.kind.value}:{format_path(seg.steps, args.alphabet)}\n"
        for up_len, seg in d.parts
    )
    _write(["peaks=" + ",".join(f"{i}:{h}" for i, h in zip(d.peak_indices, d.peak_heights)) + "\n"])
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    from .identity import exact_int_str

    if args.target == "bijection":
        from .census import verify_bijection

        report = verify_bijection(args.n)
    else:
        from .identity import verify_identity

        report = verify_identity(args.n, mode=args.mode)
    if args.as_json:
        import json

        with exact_int_str():
            _write([json.dumps(report.to_json_dict()), "\n"])
    else:
        _write([report.to_kv()])
    return 0 if report.ok else 1


def _run_enumerate(args: argparse.Namespace) -> int:
    from .census import enumerate_class
    from .path import PathClass, format_path

    cls = _CLASS_FILTERS[args.cls]
    _write(f"{format_path(p, args.alphabet)}\n" for p in enumerate_class(args.length, cls and PathClass[cls]))
    return 0


def _to_devnull(stream) -> None:
    """Point a stream whose reader went away at devnull, so that nothing
    more is written or raised on the way out."""
    with open(os.devnull, "w") as null:
        os.dup2(null.fileno(), stream.fileno())


def _print_error(exc: Exception, code: int = 2) -> int:
    """One `error: Kind: message` line on stderr, a bare OSError's kind IO,
    or nothing if stderr is closed; returns code."""
    kind = "IO" if type(exc) is OSError else getattr(exc, "reason", type(exc).__name__.removesuffix("Error"))
    if sys.stderr is None:  # started with `2>&-`: print would fall back to stdout
        return code
    try:
        print(f"error: {kind}: {exc}", file=sys.stderr)
    except BrokenPipeError:  # no reader (`dyckflip map UUU 2>&1 | true`)
        _to_devnull(sys.stderr)
    return code


def _run_render(args: argparse.Namespace) -> int:
    from .bijection import phi, phi_inverse
    from .render import RenderSpec, render_ascii, render_svg

    p = _read_path(args.path, args.alphabet)
    trace = None if args.trace is None else (phi_inverse if args.trace == "inverse" else phi)(p)[1]
    spec = RenderSpec(path=p, trace=trace, cell_size=args.cell_size, show_axes=args.axes)
    if args.svg is not None:
        doc = render_svg(spec)
        if args.svg == "-":
            _write([doc])
        else:
            try:
                with open(args.svg, "w", encoding="utf-8") as fh:
                    fh.write(doc)
            except OSError as exc:
                return _print_error(exc)
    else:
        _write([render_ascii(spec)])
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # as parse_args words it, but each in its repr, so that a line break stays in the one line
        parser.error(f"unrecognized arguments: {' '.join(map(repr, extra))}")
    try:
        return args.run(args)
    except BrokenPipeError:
        _to_devnull(sys.stdout)  # no reader (`dyckflip enumerate --len 30 | head`)
        return 1
    except OSError as exc:  # stdout is full (`> /dev/full`) or closed (`>&-`)
        if sys.stdout:
            _to_devnull(sys.stdout)
        return _print_error(exc, 1)
    except (DomainError, ParseError, RangeError, ValidationError, _StdinError) as exc:
        return _print_error(exc)


if __name__ == "__main__":
    sys.exit(main())
