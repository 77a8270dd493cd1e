"""Byte identity of the CLI's reports and listings: one sha256 of stdout per
argv, kept in tests/golden/digests.json.

    PYTHONPATH=src python tests/digests.py write           # regenerate the file
    PYTHONPATH=src python tests/digests.py check           # recompute every digest
    PYTHONPATH=src python tests/digests.py check --costly  # only those the suite skips

Each argv runs through `cli.main` in this process. A `--json` form's digest
leaves out its `elapsed` field, which is wall-clock time. The test suite
(`tests/test_cli.py::test_digests`) recomputes the cheap argvs and never
writes the file; `check --costly` recomputes the rest. A change that alters
output on purpose regenerates the file with `write` and says which digests
changed, and why.

The file is not named test_*.py, so the test suite does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import Dict, List

from dyckflip import cli

FILE = Path(__file__).resolve().parent / "golden" / "digests.json"

_CLASSES = ("all", "balanced", "up", "down", "other")
# map's inputs are balanced and invert's unbalanced, short and many-peak
_MAP_PATHS = ("UD", "UDUUDD", "DUUDDU", "UUDUDDDU", "UUD" * 20 + "D" * 20)
_INVERT_PATHS = ("UU", "UUDUUU", "DDUDDD", "UUUDUU", "U" * 10 + "UD" * 20 + "U" * 10)
_NE = str.maketrans("UD", "NE")


def _verify(target: str, n: int, *mode: str) -> List[List[str]]:
    argv = ["verify", target, "--n", str(n), *mode]
    return [argv, [*argv, "--json"]]


def _enumerate(length: int) -> List[List[str]]:
    return [
        ["enumerate", "--len", str(length), "--class", cls, "--alphabet", alphabet]
        for cls in _CLASSES
        for alphabet in ("ud", "ne")
    ]


def _maps(command: str, paths) -> List[List[str]]:
    return [
        [command, path.translate(_NE) if alphabet == "ne" else path, "--alphabet", alphabet, form]
        for path in paths
        for alphabet in ("ud", "ne")
        for form in ("--trace", "--json")
    ]


# the argvs the suite recomputes, by command; each takes well under a second
CHEAP: Dict[str, List[List[str]]] = {
    "verify-bijection": [argv for n in range(1, 11) for argv in _verify("bijection", n)],
    "verify-identity": [
        argv
        for n in (*range(16), 100, 1000, 7143, 10_000)
        for mode in ("arithmetic", "structural")
        if n <= 15 or mode == "arithmetic"
        for argv in _verify("identity", n, "--mode", mode)
    ]
    # the structural check at its cap
    + _verify("identity", 48, "--mode", "structural"),
    "enumerate": [argv for length in range(17) for argv in _enumerate(length)],
    "map": _maps("map", _MAP_PATHS) + _maps("invert", _INVERT_PATHS),
}
# the sweep at n = 11 and 12 and the listings of 17 to 20 steps: seconds each
COSTLY: List[List[str]] = [
    *(argv for n in (11, 12) for argv in _verify("bijection", n)),
    *(argv for length in range(17, 21) for argv in _enumerate(length)),
]


def stdout(argv: List[str]) -> bytes:
    """The bytes `cli.main(argv)` writes to stdout, with a `--json` form's
    `elapsed` field cut out; it raises unless the command exits 0."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8")
    with redirect_stdout(out):
        code = cli.main(argv)
    out.flush()
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exits {code}")
    data = raw.getvalue()
    return re.sub(rb', "elapsed": [^,}]+', b"", data) if "--json" in argv else data


def digest(argv: List[str]) -> str:
    return hashlib.sha256(stdout(argv)).hexdigest()


def key(argv: List[str]) -> str:
    return " ".join(argv)


def every_argv() -> List[List[str]]:
    return [argv for argvs in CHEAP.values() for argv in argvs] + COSTLY


def load() -> Dict[str, str]:
    return json.loads(FILE.read_text())


def main(args: List[str]) -> int:
    if args == ["write"]:
        FILE.write_text(json.dumps({key(argv): digest(argv) for argv in every_argv()}, indent=1) + "\n")
        return 0
    if args not in (["check"], ["check", "--costly"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    expected = load()
    argvs = COSTLY if "--costly" in args else every_argv()
    wrong = [key(argv) for argv in argvs if expected.get(key(argv)) != digest(argv)]
    for line in wrong:
        print(f"digest differs: {line}")
    print(f"{len(argvs) - len(wrong)} of {len(argvs)} digests match")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
