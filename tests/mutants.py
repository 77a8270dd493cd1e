"""Mutation check: each mutant of the package must fail the tests named for it.

Run from anywhere, with the standard library and pytest:

    python tests/mutants.py

A mutant is a file under src/dyckflip, a text that occurs in it exactly
once, the text that replaces it, and the pytest node ids that must fail.
The node ids first run on an unmutated copy of src/ and tests/, where they
must pass. Then, for each mutant, the runner copies src/ and tests/ into a
temporary directory (the tests find src/ relative to themselves), applies
the mutant there and runs its node ids with -x; the mutant is killed if
pytest reports a failed test (exit 1). A mutant that survives, or whose
text no longer occurs exactly once, is an error, and the script exits 1:
a change to the code it mutates must update its entry.

The file is not named test_*.py, so the test suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

# (file under src/dyckflip, exact text, replacement, node ids that must fail)
MUTANTS: List[Tuple[str, str, str, List[str]]] = [
    (
        # the inverse keeps the steps that stay at or above level M
        "bijection.py",
        "low[:, :-1] < low[:, -1:] // 2",
        "low[:, :-1] <= low[:, -1:] // 2",
        ["tests/test_bijection.py::TestAgainstPeakConstruction::test_phi_inverse_exhaustive"],
    ),
    (
        # each run starts one step late
        "bijection.py",
        "(kept[1:] != kept[:-1]).nonzero()[0] + 1",
        "(kept[1:] != kept[:-1]).nonzero()[0]",
        ["tests/test_decompose.py::TestAgainstReference"],
    ),
    (
        # empty pieces between adjacent peaks become parts
        "bijection.py",
        'pieces = filter(None, np.where(kept, 0, np.frombuffer(p._buf, np.int8)).tobytes().split(b"\\0"))',
        'pieces = np.where(kept, 0, np.frombuffer(p._buf, np.int8)).tobytes().split(b"\\0")',
        ["tests/test_decompose.py::TestAgainstReference::test_many_peak_families"],
    ),
    (
        # the SVG digits stay int32 past 2^31
        "render.py",
        "np.int32 if last < 2**31 else np.int64",
        "np.int32",
        ["tests/test_render.py::TestPolylineNearInt32"],
    ),
    (
        # each final state counts once, not once per path
        "identity.py",
        "tally[vertex] += m",
        "tally[vertex] += 1",
        ["tests/test_census.py::TestLastZeroWalk::test_tally_counts_the_walks_bytes"],
    ),
    (
        # a map's unbalanced side gets the other unbalanced class
        "bijection.py",
        "PathClass.UP_UNBALANCED if s == UP else PathClass.DOWN_UNBALANCED",
        "PathClass.DOWN_UNBALANCED if s == UP else PathClass.UP_UNBALANCED",
        ["tests/test_bijection.py::TestClassHandover::test_every_code"],
    ),
    (
        # a rejected input of phi_inverse keeps a class it does not have
        "bijection.py",
        "    if not unbalanced[0]:\n"
        '        raise NotUnbalancedError(f"input path is {classify(p).value}, expected unbalanced")\n'
        "    s = _first_step(p)\n"
        "    p._cls = _unbalanced(s)\n",
        "    s = _first_step(p)\n"
        "    p._cls = _unbalanced(s)\n"
        "    if not unbalanced[0]:\n"
        '        raise NotUnbalancedError(f"input path is {classify(p).value}, expected unbalanced")\n',
        ["tests/test_bijection.py::TestClassHandover::test_every_code"],
    ),
    (
        # a short write drops the rest of its bytes unseen
        "cli.py",
        "        while data:\n            data = data[buffer.write(data) :]\n",
        "        buffer.write(data)\n",
        ["tests/test_cli.py::TestBrokenPipe::test_short_write_is_followed_to_the_closed_pipe"],
    ),
    (
        # a full or closed stdout ends in a traceback
        "cli.py",
        "    except OSError as exc:  # stdout is full (`> /dev/full`) or closed (`>&-`)\n"
        "        if sys.stdout:\n"
        "            _to_devnull(sys.stdout)\n"
        "        return _print_error(exc, 1)\n",
        "",
        ["tests/test_cli.py::TestStreamFailures::test_full_stdout_is_one_line_and_1"],
    ),
    (
        # validate compares the parts but not the peak lists
        "bijection.py",
        'peaks = (("indices", d.peak_indices, e.peak_indices), ("heights", d.peak_heights, e.peak_heights))',
        "peaks = ()",
        ["tests/test_decompose.py::TestRecomposeAndValidate::test_non_increasing_peak_heights_flagged"],
    ),
    (
        # a small chunk size leaves 2^20 runs at length 30
        "census.py",
        "(length + 1) // 2",
        "(length + 1) // 3",
        ["tests/test_census.py::TestLastZeroWalk::test_low_bits_floor_bounds_the_runs"],
    ),
    (
        # the SVG axis is drawn at level 1
        "render.py",
        'y1="{y(0)}" x2="{p.length * cell}" y2="{y(0)}"',
        'y1="{y(1)}" x2="{p.length * cell}" y2="{y(1)}"',
        ["tests/test_cli.py::test_golden[argv11-render_uduudd_axes.svg]"],
    ),
    (
        # a failed verification exits 2, the code of a usage or domain error
        "cli.py",
        "return 0 if report.ok else 1",
        "return 0 if report.ok else 2",
        ["tests/test_cli.py::TestExitCodes::test_failed_verification_is_1"],
    ),
    (
        # rank refuses a path of MAX_RANK_LENGTH steps
        "path.py",
        "if p.length > MAX_RANK_LENGTH:",
        "if p.length >= MAX_RANK_LENGTH:",
        ["tests/test_path.py::TestRankUnrank::test_longest"],
    ),
    (
        # a low half that comes back to 0 counts as staying above it
        "census.py",
        "(low > 0) & (end != 0)",
        "(low >= 0) & (end != 0)",
        ["tests/test_census.py::TestClassCodes::test_classes_partition_each_run[3]"],
    ),
    (
        # the empty path is up- and down-unbalanced as well as balanced
        "census.py",
        "return end, (low > 0) & (end != 0), (high < 0) & (end != 0)",
        "return end, low > 0, high < 0",
        ["tests/test_census.py::TestClassCodes::test_classes_partition_each_run[0]"],
    ),
    (
        # a path whose high half comes back to 0 at its end is down-unbalanced
        "census.py",
        "end < -h_high",
        "end <= -h_high",
        ["tests/test_census.py::TestClassCodes::test_classes_partition_each_run[4]"],
    ),
    (
        # a half's lowest height after an up step is taken as if it went down
        "census.py",
        "np.minimum(low, up)",
        "np.minimum(low, down)",
        ["tests/test_census.py::TestLastZeroWalk::test_matches_per_path_reference[2]"],
    ),
    (
        # the sweep's unbalanced count is the state tally's count of balanced paths
        "census.py",
        "_last_zero_tally(length)[0]",
        "_last_zero_tally(length)[-1]",
        ["tests/test_census.py::TestVerifyBijection::test_unbalanced_count_is_the_tallys"],
    ),
    (
        # a path whose image is unbalanced passes, whatever it maps back to
        "census.py",
        "ok & (pre == rows).all(axis=1)",
        "ok | (pre == rows).all(axis=1)",
        ["tests/test_census.py::TestVerifyBijection::test_collision_caught_by_round_trip"],
    ),
    (
        # images of another shape fail no path
        "census.py",
        "        return codes.tolist()\n",
        "        return []\n",
        ["tests/test_census.py::TestVerifyBijection::test_image_of_other_length_reported"],
    ),
    (
        # Other takes in the down-unbalanced codes too
        "census.py",
        "~((end == -e) | up | down)",
        "~((end == -e) | up)",
        ["tests/test_census.py::TestClassCodes::test_classes_partition_each_run[2]"],
    ),
    (
        # the up and down selections are swapped
        "census.py",
        "return up if cls is PathClass.UP_UNBALANCED else down",
        "return down if cls is PathClass.UP_UNBALANCED else up",
        ["tests/test_census.py::TestClassCodes::test_classes_partition_each_run[2]"],
    ),
    (
        # every run's selected codes are offsets from the first run's
        "census.py",
        ".astype(np.int32) + (h << k)",
        ".astype(np.int32)",
        ["tests/test_census.py::TestClassCodes::test_classes_partition_each_run[4]"],
    ),
    (
        # a state's number of paths comes from its down parent only
        "identity.py",
        "following.get(state, 0) + m",
        "following.get(state, 0) + m * (g < h)",
        ["tests/test_census.py::TestLastZeroWalk::test_state_counts_cover_every_path"],
    ),
    (
        # a return to height 0 leaves the state's last vertex at 0 as it was
        "identity.py",
        "t if g == 0 else z",
        "z",
        [
            "tests/test_census.py::TestLastZeroWalk::test_state_counts_cover_every_path",
            "tests/test_census.py::TestLastZeroWalk::test_tally_counts_the_walks_bytes",
        ],
    ),
    (
        # all_paths takes any length until its first path is drawn
        "path.py",
        "    _check_rank_length(length)\n    return map(unrank",
        "    return map(unrank",
        ["tests/test_path.py::TestRankUnrank::test_all_paths_checks_its_length_at_the_call"],
    ),
    (
        # enumerate lists the ne alphabet's paths in U and D; no test but
        # the digests reads that listing
        "cli.py",
        'format_path(p, args.alphabet)}\\n" for p in enumerate_class',
        'format_path(p)}\\n" for p in enumerate_class',
        ["tests/test_cli.py::test_digests[enumerate]"],
    ),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def pytest(cwd: Path, node_ids: List[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def check(mutant: Tuple[str, str, str, List[str]]) -> Optional[str]:
    """Apply one mutant to a fresh copy and run its node ids: None if they
    fail, else what went wrong."""
    name, text, replacement, node_ids = mutant
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        path = Path(tmp, "src", "dyckflip", name)
        source = path.read_text()
        count = source.count(text)
        if count != 1:
            return f"its text occurs {count} times in {name}"
        path.write_text(source.replace(text, replacement))
        code = pytest(Path(tmp), node_ids)
    if code == 1:
        return None
    return "survived" if code == 0 else f"pytest exited {code}"


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        code = pytest(Path(tmp), sorted({node for *_, node_ids in MUTANTS for node in node_ids}))
    if code != 0:
        print(f"error: the named tests exit {code} on the unmutated code")
        return 1
    errors = 0
    for i, mutant in enumerate(MUTANTS):
        problem = check(mutant)
        print(f"mutant {i} ({mutant[0]}): {problem or 'killed'}")
        errors += problem is not None
    print(f"{len(MUTANTS) - errors} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
