import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from dyckflip import (
    BijectionTrace,
    Direction,
    LatticePath,
    RangeError,
    RenderSpec,
    parse_path,
    phi,
    phi_inverse,
    reflect_all,
    render,
    render_ascii,
    render_svg,
    unrank,
)
from dyckflip.render import MAX_ASCII_LENGTH, MAX_CELL_SIZE

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
CELL_SIZES = [1, 7, 10, 999, MAX_CELL_SIZE]


def svg_root(doc):
    return ET.fromstring(doc)


def polyline_points(doc):
    root = svg_root(doc)
    ns = "{http://www.w3.org/2000/svg}"
    polyline = root.find(f"{ns}polyline")
    return polyline.get("points").split()


def reference_points(p, cell):
    """The polyline's points attribute as one `%` format over the x ints,
    interleaved with a ",y " label per height."""
    h = p.heights
    top = max(h)
    labels = {level: f",{(top - level) * cell} " for level in range(min(h), top + 1)}
    xy = [0] * (2 * len(h))
    xy[::2] = range(0, len(h) * cell, cell)
    xy[1::2] = map(labels.__getitem__, h)
    return ("%d%s" * len(h) % tuple(xy))[:-1]


def points_text(doc):
    return doc.split('<polyline points="', 1)[1].split('"', 1)[0]


class TestAscii:
    def test_smallest(self):
        assert render_ascii(RenderSpec(path=parse_path("UD"))) == "/\\\n"

    def test_ascending_rows(self):
        assert render_ascii(RenderSpec(path=parse_path("UU"))) == " /\n/\n"

    def test_peaks_marked(self):
        p = parse_path("UDUUDD")
        _, trace = phi(p)
        art = render_ascii(RenderSpec(path=p, trace=trace, show_lines=False))
        rows = art.splitlines()
        marks = {
            (r, c)
            for r, row in enumerate(rows)
            for c, ch in enumerate(row)
            if ch == "B"
        }
        assert {c for _, c in marks} == {1, 4}

    def test_empty(self):
        assert render_ascii(RenderSpec(path=LatticePath(()))) == ""

    def test_below_baseline(self):
        art = render_ascii(RenderSpec(path=parse_path("DU")))
        assert art == "\\/\n"

    def test_axes_gutter(self):
        art = render_ascii(RenderSpec(path=parse_path("UU"), show_axes=True))
        assert art == "  1| /\n  0|/\n"

    def test_oversize_rejected(self):
        with pytest.raises(RangeError):
            render_ascii(RenderSpec(path=LatticePath((1,) * 121)))

    def test_longest(self):
        assert MAX_ASCII_LENGTH == 120
        assert render_ascii(RenderSpec(path=parse_path("UD" * 60))) == "/\\" * 60 + "\n"

    def test_b_point_at_or_past_the_last_vertex_skipped(self):
        # a B goes in the column right of its vertex, and the last vertex
        # has none
        p = parse_path("UUDD")
        trace = BijectionTrace(((4, 1), (5, 0)), (), (), Direction.FORWARD)
        assert render_ascii(RenderSpec(path=p, trace=trace)) == render_ascii(RenderSpec(path=p))

    def test_deterministic(self):
        spec = RenderSpec(path=parse_path("UDUUDD"), trace=phi(parse_path("UDUUDD"))[1])
        assert render_ascii(spec) == render_ascii(spec)


class TestSvg:
    def test_smallest_coordinates(self):
        doc = render_svg(RenderSpec(path=parse_path("UD"), cell_size=10))
        assert polyline_points(doc) == ["0,10", "10,0", "20,10"]

    def test_default_cell_size(self):
        p = parse_path("UDUUDD")
        doc = render_svg(RenderSpec(path=p, trace=phi(p)[1]))
        assert doc == (GOLDEN / "render_uduudd.svg").read_text()

    def test_empty_path_is_valid_document(self):
        doc = render_svg(RenderSpec(path=LatticePath(())))
        assert polyline_points(doc) == ["0,0"]

    def test_reflection_line_from_inverse_trace(self):
        p = parse_path("UUDUUU")
        _, trace = phi_inverse(p)
        doc = render_svg(RenderSpec(path=p, trace=trace, cell_size=10))
        root = svg_root(doc)
        ns = "{http://www.w3.org/2000/svg}"
        dashed = [el for el in root.findall(f"{ns}line") if el.get("stroke-dasharray")]
        # first reflection line sits at level 2 = end height / 2
        assert dashed[0].get("y1") == str((4 - 2) * 10)

    @pytest.mark.parametrize("text", ["UD", "UUDD", "UDUUDD", "DUUDDU"])
    def test_wellformed_and_vertex_count(self, text):
        p = parse_path(text)
        _, trace = phi(p)
        doc = render_svg(RenderSpec(path=p, trace=trace, show_axes=True))
        assert len(polyline_points(doc)) == p.length + 1

    def test_vertices_reproduce_height_profile(self):
        p = parse_path("UDDUUD")
        cell = 7
        doc = render_svg(RenderSpec(path=p, cell_size=cell))
        top = max(p.heights)
        for j, pt in enumerate(polyline_points(doc)):
            x, y = map(int, pt.split(","))
            assert x == j * cell
            assert y == (top - p.heights[j]) * cell

    def test_allowed_elements_only(self):
        p = parse_path("UDUUDD")
        _, trace = phi(p)
        doc = render_svg(RenderSpec(path=p, trace=trace, show_axes=True))
        tags = {el.tag.split("}")[1] for el in svg_root(doc).iter()}
        assert tags <= {"svg", "polyline", "line", "circle", "text"}

    def test_deterministic(self):
        spec = RenderSpec(path=parse_path("UDUUDD"), trace=phi(parse_path("UDUUDD"))[1])
        assert render_svg(spec) == render_svg(spec)

    @pytest.mark.parametrize("cell", [1, MAX_CELL_SIZE])
    def test_cell_size_limit(self, cell):
        doc = render_svg(RenderSpec(path=parse_path("UD"), cell_size=cell))
        assert polyline_points(doc) == [f"0,{cell}", f"{cell},0", f"{2 * cell},{cell}"]

    def test_cell_size_past_limit_rejected(self):
        with pytest.raises(RangeError, match=f"cell_size must be <= {MAX_CELL_SIZE}, got {MAX_CELL_SIZE + 1}"):
            RenderSpec(path=parse_path("UD"), cell_size=MAX_CELL_SIZE + 1)


class TestPolylineAgainstReference:
    # each render_svg call costs tens of microseconds, so the exhaustive
    # sweep stops at length 8 and the long paths cover the wide numbers
    @pytest.mark.parametrize("cell", CELL_SIZES)
    def test_every_code(self, cell):
        for length in range(9):
            for code in range(1 << length):
                p = unrank(length, code)
                assert points_text(render_svg(RenderSpec(path=p, cell_size=cell))) == reference_points(p, cell)

    @pytest.mark.parametrize("cell", CELL_SIZES)
    @pytest.mark.parametrize("length", [1000, 4876, 16000])
    def test_long_paths(self, length, cell):
        rng = random.Random(length)
        steps = [1, -1] * (length // 2)
        rng.shuffle(steps)
        p = LatticePath(steps)
        many_peak = parse_path("UUD" * (length // 4) + "D" * (length // 4))
        for q in (p, reflect_all(p), many_peak):
            assert points_text(render_svg(RenderSpec(path=q, cell_size=cell))) == reference_points(q, cell)


class TestDigitTables:
    @pytest.mark.parametrize("cell", [1, 2, 3, 7, 10, 97, 1000, MAX_CELL_SIZE])
    def test_y_digits_are_the_last_rows_of_the_x_digits(self, cell):
        # render_svg takes the digits of the levels' y values off those of
        # the vertices' x values; the counts of values from 1 to 16,001 at
        # which the widest value gains a digit, with their neighbours
        edges = {-(-(10**e) // cell) + d for e in range(17) for d in (0, 1, 2)}
        counts = sorted({1, 2, 3, 16001} | {c for c in edges if c <= 16001})
        for vertices in counts:
            xs = render._multiples(vertices, cell)
            for levels in (c for c in counts if c <= vertices):
                width = len(str((levels - 1) * cell))
                assert np.array_equal(xs[len(xs) - width :, :levels], render._multiples(levels, cell))


def fstring_points(p, cell):
    """The polyline's points attribute, one f-string per vertex."""
    h = p.heights
    top = max(h)
    return " ".join(f"{j * cell},{(top - level) * cell}" for j, level in enumerate(h))


class TestPolylineNearInt32:
    # the digits of the x and y values come from int32 unless the largest,
    # (n - 1)·cell for n values, needs int64; the lengths put it just below
    # and just above 2^31 where a path of at most 16,000 steps can reach it,
    # and cells 1, 7 and 10 (whose crossing needs 2·10^8 steps) are checked
    # on the same paths
    @pytest.mark.parametrize(
        "cell, lengths",
        [
            (1, [2147, 2148, 4095, 4096, 16000]),
            (7, [2147, 2148, 4095, 4096, 16000]),
            (10, [2147, 2148, 4095, 4096, 16000]),
            (MAX_CELL_SIZE, [2146, 2147, 2148, 2149]),  # 2147·10^6 < 2^31 < 2148·10^6
            (2**19, [4095, 4096]),  # 4096·2^19 = 2^31
            (134217, [16000]),  # 16000·134217 = 2^31 - 11648
            (134218, [16000]),  # 16000·134218 = 2^31 + 4352
        ],
    )
    def test_largest_value_below_and_above_2_31(self, cell, lengths):
        rng = random.Random(cell)
        for length in lengths:
            steps = [1, -1] * (length // 2) + [1] * (length % 2)
            rng.shuffle(steps)
            # a monotone path's heights span the length, so its y values do too
            for q in (parse_path("U" * length), parse_path("D" * length), LatticePath(steps)):
                assert points_text(render_svg(RenderSpec(path=q, cell_size=cell))) == fstring_points(q, cell)


def test_demo_3_figures(tmp_path):
    # the demo writes its three SVGs into ./figures/ of its working directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    demo = ROOT / "demos" / "03_render_figures.py"
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    names = ("input_with_peaks.svg", "image_with_lines.svg", "inverse_crossings.svg")
    assert sorted(path.name for path in (tmp_path / "figures").iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / "figures" / name).read_text() == (GOLDEN / f"demo3_{name}").read_text(), name
