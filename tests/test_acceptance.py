"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line. All checks are exact integer comparisons.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import sys
import xml.etree.ElementTree as ET
from itertools import combinations
from math import comb
from pathlib import Path

from dyckflip import (
    LatticePath,
    PathClass,
    census,
    classify,
    compose_law_check,
    decompose,
    format_path,
    max_height,
    parse_path,
    phi,
    phi_inverse,
    recompose,
    unrank,
    verify_bijection,
    verify_identity,
)
from dyckflip.identity import MAX_STRUCTURAL_N, identity_lhs
from dyckflip.cli import main

GOLDEN = Path(__file__).parent / "golden"


def report(name: str, passed: bool) -> None:
    # bypass pytest capture so one line per criterion always shows
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}", file=sys.__stdout__)
    assert passed, name


def balanced_codes(length):
    for code in range(1 << length):
        p = unrank(length, code)
        if classify(p) is PathClass.BALANCED:
            yield p


def up_start_balanced(length):
    """The balanced paths of the given length whose first step is Up, built
    directly: step 0 is Up and so are length/2 - 1 of the steps after it."""
    for ups in combinations(range(1, length), length // 2 - 1):
        steps = [-1] * length
        for j in (0, *ups):
            steps[j] = 1
        yield LatticePath(tuple(steps))


def test_criterion_1_bijectivity_exhaustive():
    ok = True
    for n in range(1, 11):
        r = verify_bijection(n)
        ok &= (
            r.bijection_ok
            and r.balanced_count == r.unbalanced_count == comb(2 * n, n)
            and r.roundtrip_failures == ()
            and r.total_paths == 1 << (2 * n)
        )
    report("1 bijectivity exhaustive n=1..10", ok)


def test_criterion_2_identity_arithmetic():
    ok = all(identity_lhs(n) == 4**n for n in range(0, 1001))
    report("2 identity arithmetic n=0..1000", ok)


def test_criterion_3_identity_structural():
    ok = True
    for n in range(0, MAX_STRUCTURAL_N + 1):
        r = verify_identity(n, "structural")
        ok &= r.tally_mismatches == () and r.identity_lhs == 1 << (2 * n)
        ok &= r.structural_tallies == tuple(
            comb(2 * i, i) * comb(2 * (n - i), n - i) for i in range(n + 1)
        )
    report(f"3 identity structural n=0..{MAX_STRUCTURAL_N}", ok)


def test_criterion_4_endpoint_law():
    ok = True
    for length in range(2, 21, 2):
        for p in up_start_balanced(length):
            image, _ = phi(p)
            ok &= image.end_height == 2 * max_height(p)[0]
    report("4 endpoint law, lengths <= 20", ok)


def test_criterion_5_inverse_step_fidelity():
    image1, ftrace1 = phi(parse_path("UDUUDD"))
    back1, itrace1 = phi_inverse(parse_path("UUDUUU"))
    image2, ftrace2 = phi(parse_path("UDUD"))
    back2, itrace2 = phi_inverse(parse_path("UUDU"))
    ok = (
        format_path(image1) == "UUDUUU"
        and format_path(back1) == "UDUUDD"
        and ftrace1.b_points == ((4, 2), (1, 1))
        and ftrace1.g_points == ((6, 4), (3, 1))
        # inverse finds the crossings at 4 then 1; the touch of level 2 at
        # index 2 is skipped
        and itrace1.b_points == ((4, 2), (1, 1))
        and itrace1.g_points == ((6, 4), (3, 1))
        and format_path(image2) == "UUDU"
        and format_path(back2) == "UDUD"
        and ftrace2.b_points == ((1, 1),)
        and itrace2.b_points == ((1, 1),)
    )
    report("5 inverse-step fidelity on worked traces", ok)


def test_criterion_6_composition_law():
    balanced = {
        L: list(balanced_codes(L)) for L in range(0, 9, 2)
    }
    ok = True
    checked = 0
    for L1 in range(2, 11, 2):
        for t1 in balanced_codes(L1):
            if t1.steps[0] != 1:
                continue
            m1 = max_height(t1)[0]
            for L2 in range(0, 9, 2):
                for t2 in balanced[L2]:
                    if max_height(t2)[0] <= m1:
                        ok &= compose_law_check(t1, t2)
                        checked += 1
    report(f"6 composition law ({checked} pairs)", ok and checked > 0)


def test_criterion_7_decomposition_roundtrip():
    ok = True
    for length in range(2, 21, 2):
        for p in up_start_balanced(length):
            ok &= recompose(decompose(p)) == p
    report("7 decomposition round trip, lengths <= 20", ok)


def test_criterion_8_chunk_determinism(monkeypatch):
    reports = []
    for chunk in (7, 8, 40, 1 << 16):
        monkeypatch.setattr(census, "_CHUNK", chunk)
        reports.append(verify_bijection(8).to_kv())
    report("8 determinism under chunk size", len(set(reports)) == 1)


def test_criterion_9_cli_golden(capsys):
    cases = [
        (("map", "UDUD"), "map_udud.txt", 0),
        (("map", "UDUUDD", "--trace"), "map_uduudd_trace.txt", 0),
        (("invert", "UU"), "invert_uu.txt", 0),
        (("invert", "UUDUUU", "--trace"), "invert_uuduuu_trace.txt", 0),
        (("decompose", "UDUUDD"), "decompose_uduudd.txt", 0),
        (("verify", "identity", "--n", "2", "--mode", "arithmetic"), "verify_identity_n2.txt", 0),
        (("verify", "bijection", "--n", "2"), "verify_bijection_n2.txt", 0),
    ]
    ok = True
    for argv, golden, expected_code in cases:
        code = main(list(argv))
        out = capsys.readouterr().out
        ok &= code == expected_code and out == (GOLDEN / golden).read_text()
    # exit code taxonomy: 2 for domain errors
    ok &= main(["map", "UU"]) == 2
    ok &= main(["map", "UXD"]) == 2
    capsys.readouterr()
    # SVG well-formedness and vertex count |path| + 1
    for text in ("UD", "UDUUDD", "DUUDDU"):
        code = main(["render", text, "--trace", "forward", "--svg", "-"])
        doc = capsys.readouterr().out
        root = ET.fromstring(doc)
        points = root.find("{http://www.w3.org/2000/svg}polyline").get("points")
        ok &= code == 0 and len(points.split()) == len(text) + 1
    report("9 CLI golden outputs, exit codes, SVG", ok)
