"""Statement coverage: every line of src/dyckflip must run under the Tier-1 suite.

Run from anywhere, with the standard library and pytest:

    python tests/line_cover.py

It runs the suite in this process under a `sys.settrace` line tracer,
which traces only the frames of code under src/dyckflip, and then lists
each line that holds code and did not run. A line holds code if the
compiled module maps an instruction to it. Subprocesses that the tests
start are not traced. A few lines cannot run in this process and are
allowed below, each named by its text and not its number; an allowed text
that no longer occurs exactly once, or whose lines all ran, is an error
too. The script exits 1 on any error, and with the suite's code if the
suite fails.

The file is not named test_*.py, so the test suite does not collect it.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dyckflip"

# (module, exact text): lines that may go unrun, with why
ALLOWED: List[Tuple[str, str]] = [
    # read by type checkers alone
    ("cli.py", "    from .path import LatticePath\n"),
    # runs only as `python -m dyckflip.cli`, in a subprocess
    ("cli.py", "    sys.exit(main())\n"),
    # the branch for Python before 3.10.7, which has no digit limit
    ("identity.py", "# no limit before 3.10.7\n        yield\n        return\n"),
]


def code_lines(code: CodeType) -> Iterator[int]:
    """The lines that code and the code nested in it map instructions to."""
    yield from (line for *_, line in code.co_lines() if line)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from code_lines(const)


def allowed_lines(name: str, source: str) -> Tuple[List[Set[int]], List[str]]:
    """The lines of each text that ALLOWED names in one module, and an
    error for each such text that does not occur exactly once."""
    spans, errors = [], []
    for module, text in ALLOWED:
        if module != name:
            continue
        if source.count(text) != 1:
            errors.append(f"{name}: the allowed text {text!r} occurs {source.count(text)} times")
            continue
        first = source[: source.index(text)].count("\n") + 1
        spans.append(set(range(first, first + text.count("\n"))))
    return spans, errors


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    ran: Dict[str, Set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    start = time.perf_counter()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"error: the suite exits {code}")
        return int(code)
    errors = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        spans, problems = allowed_lines(path.name, source)
        errors += problems
        unrun = set(code_lines(compile(source, str(path), "exec"))) - ran.get(str(path), set())
        lines = source.splitlines()
        errors += [f"{path.name}:{n}: not run: {lines[n - 1].strip()}" for n in sorted(unrun.difference(*spans))]
        errors += [f"{path.name}:{min(span)}: every allowed line ran" for span in spans if span.isdisjoint(unrun)]
    print(*errors, sep="\n")
    print(f"{len(errors)} errors in {time.perf_counter() - start:.1f} s")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
