"""Seeded input generators and exact oracles for the benchmark.

Nothing here imports dyckflip: inputs are built and outputs judged with this
module's own arithmetic, so a defect in the library cannot hide itself by
also breaking the oracle. Paths are plain "U"/"D" strings.
"""

from __future__ import annotations

import random
import re
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

_FLIP = str.maketrans("UD", "DU")
_BITS = str.maketrans("UD", "10")


# --- generators -------------------------------------------------------------


def reflect(path: str) -> str:
    """Every step flipped: the mirror image about the baseline."""
    return path.translate(_FLIP)


def random_balanced(rng: random.Random, length: int, up_start: bool) -> str:
    """Uniform balanced path of even length, mirrored if needed so that its
    first step is U (up_start) or D."""
    steps = ["U"] * (length // 2) + ["D"] * (length // 2)
    rng.shuffle(steps)
    path = "".join(steps)
    if length and (path[0] == "U") != up_start:
        path = reflect(path)
    return path


def random_unbalanced(rng: random.Random, length: int, up: bool) -> str:
    """Random up- (or down-) unbalanced path of even length >= 2.

    The end height is twice the peak of a random balanced path of the same
    length, which is the end height a random balanced input maps to. Given
    the end height e, the steps are shuffled and rotated by the cycle lemma:
    a sequence summing to e > 0 has a rotation all of whose partial sums
    are positive, starting just after the last minimum of its prefix sums.
    """
    end = 2 * max(heights(random_balanced(rng, length, True)))
    steps = ["U"] * ((length + end) // 2) + ["D"] * ((length - end) // 2)
    rng.shuffle(steps)
    h = 0
    low, cut = 0, 0
    for j, s in enumerate(steps):
        h += 1 if s == "U" else -1
        if h <= low and j + 1 < length:
            low, cut = h, j + 1
    path = "".join(steps[cut:] + steps[:cut])
    return path if up else reflect(path)


def many_peak(k: int) -> str:
    """(UUD)^k D^k: an up-start balanced path of length 4k with k peaks."""
    return "UUD" * k + "D" * k


def many_peak_image(k: int) -> str:
    """UUU (DUU)^(k-1) U^k, the image of many_peak(k), written out directly."""
    return "UUU" + "DUU" * (k - 1) + "U" * k


# --- path arithmetic --------------------------------------------------------


def heights(path: str) -> List[int]:
    h = [0]
    acc = 0
    for s in path:
        acc += 1 if s == "U" else -1
        h.append(acc)
    return h


def classify(path: str) -> str:
    """Class name as the library prints it, with the library's precedence."""
    h = heights(path)
    if h[-1] == 0:
        return "Balanced"
    if min(h[1:]) > 0:
        return "UpUnbalanced"
    if max(h[1:]) < 0:
        return "DownUnbalanced"
    return "Other"


def rank(path: str) -> int:
    """Bitmask code: step j is U iff bit j is set."""
    return int(path[::-1].translate(_BITS), 2) if path else 0


def peaks(path: str) -> List[Tuple[int, int]]:
    """(index, height) of the peaks of an up-start balanced path, global
    maximum first: each later peak is the leftmost highest vertex left of
    where the previous peak's final ascent begins. Linear time."""
    h = heights(path)
    first_max = [0] * len(h)  # leftmost argmax of h[0..j]
    for j in range(1, len(h)):
        b = first_max[j - 1]
        first_max[j] = j if h[j] > h[b] else b
    out = []
    b = first_max[-1]
    while True:
        out.append((b, h[b]))
        s = b
        while s > 0 and path[s - 1] == "U":
            s -= 1
        if s == 0:
            return out
        b = first_max[s]


def signed_peaks(path: str) -> List[Tuple[int, int]]:
    """peaks() for either start: a down-start path is mirrored, and the
    peak heights are negated back."""
    if path[0] == "U":
        return peaks(path)
    return [(i, -h) for i, h in peaks(reflect(path))]


# --- expected counts --------------------------------------------------------


def enumerate_count(length: int, cls: Optional[str]) -> int:
    """Paths of a length in a class: all 2^L, balanced C(L, L/2), up- and
    down-unbalanced C(L-1, floor((L-1)/2)) by the ballot theorem."""
    if cls is None:
        return 1 << length
    if length == 0:
        return 1 if cls == "Balanced" else 0
    if cls == "Balanced":
        return comb(length, length // 2) if length % 2 == 0 else 0
    if cls in ("UpUnbalanced", "DownUnbalanced"):
        return comb(length - 1, (length - 1) // 2)
    raise ValueError(f"no closed-form count for class {cls!r}")


def kv_expected(n: int, structural: bool) -> Dict[str, str]:
    """key=value report of a correct library for half-length n: what
    `verify bijection --n n` and `verify identity --n n` print."""
    central = comb(2 * n, n)
    kv = {
        "n": str(n),
        "total_paths": str(4**n),
        "balanced_count": str(central),
        "unbalanced_count": str(central),
        "identity_lhs": str(4**n),
        "identity_rhs": str(4**n),
        "bijection_ok": "true",
        "roundtrip_failures": "",
    }
    if structural:
        tallies = [comb(2 * i, i) * comb(2 * (n - i), n - i) for i in range(n + 1)]
        kv["structural_tallies"] = ",".join(map(str, tallies))
        kv["tally_mismatches"] = ""
    kv["ok"] = "true"
    return kv


# --- oracles: each returns a list of problems, empty when the output is right


def check_kv(label: str, n: int, structural: bool, stdout: str, returncode: int = 0) -> List[str]:
    """A key=value report, its keys in order, and the exit code."""
    problems = [f"{label}: exit code {returncode}"] if returncode else []
    got = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    want = kv_expected(n, structural)
    for key, value in want.items():
        if got.get(key) != value:
            shown = got.get(key, "<missing>")
            problems.append(f"{label}: {key}={shown[:60]}")
    if list(got) != list(want):
        problems.append(f"{label}: keys {list(got)}")
    return problems


def check_enumerate(length: int, cls: Optional[str], texts: Sequence[str]) -> List[str]:
    """The yielded texts are the class in rank order: each has the right
    length and class, ranks strictly increase, and the count is exact."""
    label = cls or "all"
    want = enumerate_count(length, cls)
    if len(texts) != want:
        return [f"enumerate {label}: {len(texts)} paths, want {want}"]
    prev = -1
    for t in texts:
        if len(t) != length or t.strip("UD"):
            return [f"enumerate {label}: malformed path {t!r}"]
        r = rank(t)
        if r <= prev:
            return [f"enumerate {label}: {t!r} out of rank order"]
        prev = r
        if cls == "Balanced" and 2 * t.count("U") != length:
            return [f"enumerate {label}: {t!r} is not balanced"]
        if cls is not None and cls != "Balanced" and classify(t) != cls:
            return [f"enumerate {label}: {t!r} is {classify(t)}"]
    return []


def _points(text: str) -> List[Tuple[int, int]]:
    return [tuple(int(v) for v in pt.split(":")) for pt in text.split(",") if pt]


def _fields(lines: Sequence[str]) -> Dict[str, str]:
    return dict(line.split("=", 1) for line in lines[1:])


def check_map(inp: str, lines: Sequence[str], family_k: int = 0) -> List[str]:
    """Output of `map P --trace`: the image, both classes, B/G points and lines."""
    out = lines[0]
    f = _fields(lines)
    up = inp[0] == "U"
    h_in = heights(inp)
    want_cls = "UpUnbalanced" if up else "DownUnbalanced"
    problems = []
    if len(out) != len(inp):
        problems.append(f"map: image length {len(out)}, want {len(inp)}")
    elif classify(out) != want_cls:
        problems.append(f"map: image is {classify(out)}, want {want_cls}")
    elif heights(out)[-1] != 2 * (max(h_in) if up else min(h_in)):
        problems.append("map: image end height is not twice the input's extreme height")
    if family_k and out != many_peak_image(family_k):
        problems.append(f"map: many-peak image differs for k={family_k}")
    if f.get("class_in") != "Balanced" or f.get("class_out") != want_cls:
        problems.append(f"map: classes {f.get('class_in')}->{f.get('class_out')}")
    b_points = _points(f.get("b_points", ""))
    if b_points != signed_peaks(inp):
        problems.append("map: b_points are not the input's peaks")
    if len(_points(f.get("g_points", ""))) != len(b_points):
        problems.append("map: g_points and b_points differ in number")
    if f.get("lines") != ",".join(str(h) for _, h in b_points):
        problems.append("map: reflection lines are not the peak heights")
    return problems


def check_invert(inp: str, lines: Sequence[str], family_k: int = 0) -> List[str]:
    """Output of `invert P --trace` for an unbalanced input."""
    out = lines[0]
    f = _fields(lines)
    up = inp[0] == "U"
    end = heights(inp)[-1]
    problems = []
    if len(out) != len(inp):
        problems.append(f"invert: preimage length {len(out)}, want {len(inp)}")
    elif classify(out) != "Balanced" or (out[0] == "U") != up:
        problems.append(f"invert: preimage is {classify(out)} starting {out[:1]}")
    else:
        h_out = heights(out)
        if 2 * (max(h_out) if up else min(h_out)) != end:
            problems.append("invert: input end height is not twice the preimage's extreme height")
    if family_k and out != many_peak(family_k):
        problems.append(f"invert: many-peak preimage differs for k={family_k}")
    want_in = "UpUnbalanced" if up else "DownUnbalanced"
    if f.get("class_in") != want_in or f.get("class_out") != "Balanced":
        problems.append(f"invert: classes {f.get('class_in')}->{f.get('class_out')}")
    g_points = _points(f.get("g_points", ""))
    if not g_points or g_points[0] != (len(inp), end):
        problems.append("invert: first g_point is not the input's endpoint")
    if len(_points(f.get("b_points", ""))) != len(f.get("lines", "").split(",")):
        problems.append("invert: b_points and lines differ in number")
    return problems


_SEG = re.compile(r"^segment=(DownDyck|DownUnbalanced):([UD]+)$")


def check_decompose(inp: str, lines: Sequence[str]) -> List[str]:
    """Output of `decompose P`. The decomposition is unique, so checking its
    invariants and that it rebuilds the input checks it exactly."""
    if len(lines) < 3 or len(lines) % 2 == 0 or not lines[-1].startswith("peaks="):
        return [f"decompose: malformed output ({len(lines)} lines)"]
    rebuilt = []
    pos = level = 0
    tops = []
    n_parts = (len(lines) - 1) // 2
    for k in range(n_parts):
        up_line, seg_line = lines[2 * k], lines[2 * k + 1]
        m = _SEG.match(seg_line)
        if not up_line.startswith("uprun=") or m is None:
            return [f"decompose: malformed part {k}"]
        up_len = int(up_line[6:])
        kind, seg = m.groups()
        if up_len < 1:
            return [f"decompose: part {k} has uprun {up_len}"]
        pos += up_len
        level += up_len
        tops.append((pos, level))
        rebuilt.append("U" * up_len + seg)
        pos += len(seg)
        rel = heights(seg)
        last = k == n_parts - 1
        want_kind = "DownUnbalanced" if last else "DownDyck"
        if kind != want_kind or seg[0] != "D" or max(rel) > 0:
            return [f"decompose: part {k} is not a {want_kind} segment"]
        if (rel[-1] >= 0) if last else (rel[-1] != 0):
            return [f"decompose: part {k} ends at relative height {rel[-1]}"]
        level += rel[-1]
    problems = []
    if "".join(rebuilt) != inp:
        problems.append("decompose: parts do not rebuild the input")
    if _points(lines[-1][6:]) != tops:
        problems.append("decompose: peaks line does not match the upruns")
    if any(a[1] >= b[1] for a, b in zip(tops, tops[1:])):
        problems.append("decompose: peak heights do not increase")
    return problems


def check_render(inp: str, svg: str, cell: int = 10) -> List[str]:
    """SVG of `render P --trace forward --svg -`: the polyline follows the
    heights, and there is one dashed line per peak and two circles per peak
    (its B point and its G point)."""
    h = heights(inp)
    top = max(h)
    points = " ".join(f"{j * cell},{(top - y) * cell}" for j, y in enumerate(h))
    n_peaks = len(signed_peaks(inp))
    problems = []
    if not svg.startswith("<svg ") or not svg.endswith("</svg>\n"):
        problems.append("render: not an SVG document")
    if f'<polyline points="{points}"' not in svg:
        problems.append("render: polyline does not follow the path's heights")
    if svg.count("<circle ") != 2 * n_peaks:
        problems.append(f"render: {svg.count('<circle ')} circles, want {2 * n_peaks}")
    if svg.count('stroke-dasharray="4 2"') != n_peaks:
        problems.append("render: reflection line count differs from peak count")
    return problems
