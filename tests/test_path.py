import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyckflip import (
    LatticePath,
    ParseError,
    PathClass,
    RangeError,
    classify,
    concat,
    format_path,
    max_height,
    parse_path,
    rank,
    reflect_all,
    reflect_segment,
    rightmost_crossing,
    unrank,
)

steps_lists = st.lists(st.sampled_from([1, -1]), max_size=24)


def brute_classify(p: LatticePath) -> PathClass:
    # direct height scan, independent of the library's precedence logic
    h = p.heights
    if h[-1] == 0:
        return PathClass.BALANCED
    if len(h) > 1 and min(h[1:]) > 0:
        return PathClass.UP_UNBALANCED
    if len(h) > 1 and max(h[1:]) < 0:
        return PathClass.DOWN_UNBALANCED
    return PathClass.OTHER


class TestStepValidation:
    def test_int_like_steps_accepted(self):
        p = LatticePath((True, 1.0, np.int8(-1)))
        assert p.steps == (1, 1, -1)
        assert all(type(s) is int for s in p.steps)

    @pytest.mark.parametrize(
        "bad, error",
        [(0, ValueError), (2, ValueError), ("U", ValueError), (None, TypeError)],
    )
    def test_other_steps_rejected(self, bad, error):
        with pytest.raises(error):
            LatticePath((1, bad, -1))


class TestParseFormat:
    def test_parse_ud(self):
        assert parse_path("UD").steps == (1, -1)

    def test_parse_ne(self):
        assert parse_path("NE", "ne") == parse_path("UD")

    def test_parse_invalid_letter(self):
        with pytest.raises(ParseError) as exc:
            parse_path("UX")
        assert exc.value.index == 1

    def test_parse_case_insensitive_and_whitespace(self):
        assert parse_path("  udUD \n") == parse_path("UDUD")

    def test_format_roundtrip(self):
        assert format_path(parse_path("UD")) == "UD"
        assert format_path(LatticePath(())) == ""
        assert format_path(parse_path("UU"), "ne") == "NN"

    @given(steps_lists)
    def test_parse_inverts_format(self, steps):
        p = LatticePath(tuple(steps))
        for alphabet in ("ud", "ne"):
            assert parse_path(format_path(p, alphabet), alphabet) == p


class TestClassify:
    def test_examples(self):
        assert classify(parse_path("UDUD")) is PathClass.BALANCED
        assert classify(parse_path("UUDU")) is PathClass.UP_UNBALANCED
        assert classify(parse_path("UDDU")) is PathClass.BALANCED
        assert classify(parse_path("DDUD")) is PathClass.DOWN_UNBALANCED
        assert classify(parse_path("UDD")) is PathClass.OTHER
        assert classify(LatticePath(())) is PathClass.BALANCED

    @given(steps_lists)
    def test_matches_brute_scan(self, steps):
        p = LatticePath(tuple(steps))
        assert classify(p) is brute_classify(p)

    @given(steps_lists)
    def test_reflection_swaps_unbalanced_classes(self, steps):
        p = LatticePath(tuple(steps))
        swap = {
            PathClass.UP_UNBALANCED: PathClass.DOWN_UNBALANCED,
            PathClass.DOWN_UNBALANCED: PathClass.UP_UNBALANCED,
        }
        cls = classify(p)
        assert classify(reflect_all(p)) is swap.get(cls, cls)


class TestReflections:
    def test_reflect_all(self):
        assert format_path(reflect_all(parse_path("UD"))) == "DU"
        assert reflect_all(LatticePath(())) == LatticePath(())
        p = parse_path("UUDU")
        assert reflect_all(reflect_all(p)) == p

    def test_reflect_segment_examples(self):
        assert format_path(reflect_segment(parse_path("UDUD"), 1, 4)) == "UUDU"
        assert format_path(reflect_segment(parse_path("UUUU"), 2, 4)) == "UUDD"
        p = parse_path("UDUD")
        assert reflect_segment(p, 2, 2) == p

    def test_reflect_segment_height_law(self):
        # heights inside the window become 2*h_start - h_j
        p = parse_path("UDUD")
        q = reflect_segment(p, 1, 4)
        for j in range(2, 5):
            assert q.heights[j] == 2 * p.heights[1] - p.heights[j]

    def test_reflect_segment_bounds(self):
        with pytest.raises(IndexError):
            reflect_segment(parse_path("UD"), 0, 3)
        with pytest.raises(IndexError):
            reflect_segment(parse_path("UD"), -1, 1)

    @given(steps_lists, st.data())
    def test_reflect_segment_involution(self, steps, data):
        p = LatticePath(tuple(steps))
        a = data.draw(st.integers(0, p.length))
        b = data.draw(st.integers(a, p.length))
        assert reflect_segment(reflect_segment(p, a, b), a, b) == p

    @given(steps_lists)
    def test_reflect_all_is_full_segment_reflection(self, steps):
        p = LatticePath(tuple(steps))
        assert reflect_all(p) == reflect_segment(p, 0, p.length)


class TestConcatAndHeights:
    def test_concat_examples(self):
        assert format_path(concat(parse_path("UD"), parse_path("UD"))) == "UDUD"
        p = parse_path("UDU")
        assert concat(LatticePath(()), p) == p
        assert format_path(concat(parse_path("UU"), parse_path("DD"))) == "UUDD"

    @given(steps_lists)
    def test_height_steps_are_unit(self, steps):
        p = LatticePath(tuple(steps))
        h = p.heights
        assert h[0] == 0
        assert all(abs(a - b) == 1 for a, b in zip(h, h[1:]))
        assert (h[-1] - p.length) % 2 == 0


class TestMaxHeight:
    def test_examples(self):
        assert max_height(parse_path("UDUD")) == (1, 1)
        assert max_height(parse_path("UUDD")) == (2, 2)
        assert max_height(parse_path("DDUU")) == (0, 0)
        assert max_height(LatticePath(())) == (0, 0)

    @given(steps_lists)
    def test_matches_scan(self, steps):
        p = LatticePath(tuple(steps))
        height, idx = max_height(p)
        assert height == max(p.heights)
        assert p.heights[idx] == height
        assert all(x < height for x in p.heights[:idx])


class TestRightmostCrossing:
    def test_touch_point_skipped(self):
        # index 3 touches level 1 (neighbours both at 2), only 1 crosses
        assert rightmost_crossing(parse_path("UUDU"), 1, 4) == 1

    def test_monotone(self):
        assert rightmost_crossing(parse_path("UUUU"), 2, 4) == 2

    def test_level_never_reached(self):
        assert rightmost_crossing(parse_path("UU"), 5, 2) is None

    def test_endpoints_never_count(self):
        assert rightmost_crossing(parse_path("UD"), 0, 2) is None

    def test_bad_search_end(self):
        with pytest.raises(IndexError):
            rightmost_crossing(parse_path("UD"), 0, 3)

    @given(steps_lists, st.integers(-3, 3))
    def test_matches_definition_scan(self, steps, level):
        p = LatticePath(tuple(steps))
        got = rightmost_crossing(p, level, p.length)
        h = p.heights
        expected = None
        for j in range(1, p.length):
            if h[j] == level and (h[j - 1] > level) != (h[j + 1] > level):
                expected = j
        assert got == expected


class TestRankUnrank:
    def test_examples(self):
        assert format_path(unrank(2, 0b01)) == "UD"
        assert format_path(unrank(2, 0b11)) == "UU"
        assert rank(unrank(20, 12345)) == 12345

    def test_range_errors(self):
        with pytest.raises(RangeError):
            unrank(63, 0)
        with pytest.raises(RangeError):
            unrank(2, 4)
        with pytest.raises(RangeError):
            unrank(2, -1)

    @pytest.mark.parametrize("length", range(0, 11))
    def test_bijection_on_small_lengths(self, length):
        seen = set()
        for code in range(1 << length):
            p = unrank(length, code)
            assert rank(p) == code
            seen.add(p.steps)
        assert len(seen) == 1 << length
