import copy
import pickle
import random
from array import array

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dyckflip import (
    LatticePath,
    ParseError,
    PathClass,
    RangeError,
    all_paths,
    classify,
    concat,
    decompose,
    enumerate_class,
    format_path,
    last_zero_touch,
    max_height,
    parse_path,
    phi,
    phi_inverse,
    rank,
    recompose,
    reflect_all,
    split_at_last_zero,
    unrank,
)
from dyckflip.path import MAX_RANK_LENGTH
from peak_reference import (
    reference_heights,
    reference_last_zero_touch,
    reference_reflect_segment,
    reference_rightmost_crossing,
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


def reference_construct(steps):
    # the step check of LatticePath(steps) when it stored the tuple itself
    cleaned = tuple(map(int, steps))
    if not {1, -1}.issuperset(cleaned):
        raise ValueError("steps must be +1 (Up) or -1 (Down)")
    return cleaned


def construct_outcome(make, steps):
    try:
        return "accepted", make(steps)
    except Exception as exc:
        return "rejected", type(exc), str(exc)


step_values = st.one_of(
    st.sampled_from(
        [1, -1, 0, 2, -2, 127, 128, -128, -129, 255, 256, 10**30, -(10**30)]
        + [True, False, 1.0, -1.0, 0.5, -1.5, float("nan"), float("inf")]
        + ["1", "-1", " +1 ", "0", "x", "", "１", b"1", b"-1", None, 1j, (), [1]]
        + [np.int8(-1), np.int64(1), np.uint8(255), np.int16(-128), np.float64(-1.0)]
    ),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
)


class TestStepValidation:
    def test_int_like_steps_accepted(self):
        p = LatticePath((True, 1.0, np.int8(-1)))
        assert p.steps == (1, 1, -1)
        assert all(type(s) is int for s in p.steps)

    @settings(max_examples=500)
    @given(st.one_of(st.lists(step_values, max_size=6), st.text(alphabet="1-+ 0", max_size=6), st.binary(max_size=6)))
    def test_accepts_and_rejects_as_before(self, steps):
        expected = construct_outcome(reference_construct, steps)
        assert construct_outcome(lambda s: LatticePath(s).steps, steps) == expected
        if expected[0] == "accepted":
            # a one-shot iterator is read once, into both views
            p = LatticePath(iter(steps))
            assert all(type(s) is int for s in p.steps)
            assert p._buf == array("b", expected[1]).tobytes()

    def test_equality_hash_and_repr_follow_the_steps(self):
        for length in range(0, 9):
            enumerated = list(enumerate_class(length))
            for code in range(1 << length):
                p = unrank(length, code)
                steps = p.steps
                same = [
                    LatticePath(steps),
                    LatticePath([float(s) for s in steps]),
                    LatticePath(np.array(steps, dtype=np.int8)),
                    LatticePath._trusted(array("b", steps).tobytes()),
                    parse_path(format_path(p)),
                    parse_path(format_path(p, "ne").lower(), "ne"),
                    reflect_all(reflect_all(p)),
                    concat(LatticePath(()), p),
                    enumerated[code],
                ]
                for q in same:
                    assert q == p and not q != p
                    assert hash(q) == hash(p)
                    assert repr(q) == f"LatticePath(steps={steps!r})"
                assert len({p, *same}) == 1
                if length:
                    assert reflect_all(p) != p
                assert p != steps and p != p._buf
        assert repr(parse_path("UD")) == "LatticePath(steps=(1, -1))"
        assert repr(LatticePath(())) == "LatticePath(steps=())"
        assert str(LatticePath(())) == "(empty)"
        assert str(parse_path("ud")) == "UD"

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

    @pytest.mark.parametrize("alphabet", ["xy", "", "u", None, 3])
    def test_unknown_alphabet_rejected(self, alphabet):
        # a ValueError that names both alphabets, not a KeyError or an
        # AttributeError from the table lookup
        for call in (lambda: parse_path("UD", alphabet), lambda: format_path(parse_path("UD"), alphabet)):
            with pytest.raises(ValueError, match="'ud' or 'ne'") as exc:
                call()
            assert type(exc.value) is ValueError

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

    def test_memo(self):
        # no constructor sets the class; classify scans once and keeps it
        for p in (LatticePath((1, 1, -1, 1)), parse_path("UUDU"), LatticePath._trusted(b"\x01\x01\xff\x01")):
            assert not hasattr(p, "_cls")
            assert classify(p) is PathClass.UP_UNBALANCED
            assert p._cls is PathClass.UP_UNBALANCED

    def test_memo_is_not_state(self):
        # equality, hashing, repr, copies and pickles follow the steps alone
        p = parse_path("UDDU")
        image = phi(p)[0]
        for q in (p, image, LatticePath(())):
            cls = classify(q)
            for r in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
                assert r == q and hash(r) == hash(q) and repr(r) == repr(q)
                assert not hasattr(r, "_cls")
                assert classify(r) is cls
        assert pickle.dumps(p) == pickle.dumps(parse_path("UDDU"))


class TestReflections:
    def test_reflect_all(self):
        assert format_path(reflect_all(parse_path("UD"))) == "DU"
        assert reflect_all(LatticePath(())) == LatticePath(())
        p = parse_path("UUDU")
        assert reflect_all(reflect_all(p)) == p

    def test_reflect_segment_examples(self):
        assert reference_reflect_segment((1, -1, 1, -1), 1, 4) == (1, 1, -1, 1)
        assert reference_reflect_segment((1, 1, 1, 1), 2, 4) == (1, 1, -1, -1)
        assert reference_reflect_segment((1, -1, 1, -1), 2, 2) == (1, -1, 1, -1)

    def test_reflect_segment_height_law(self):
        # heights inside the window become 2*h_start - h_j
        h = reference_heights((1, -1, 1, -1))
        g = reference_heights(reference_reflect_segment((1, -1, 1, -1), 1, 4))
        for j in range(2, 5):
            assert g[j] == 2 * h[1] - h[j]

    @given(steps_lists, st.data())
    def test_reflect_segment_involution(self, steps, data):
        steps = tuple(steps)
        a = data.draw(st.integers(0, len(steps)))
        b = data.draw(st.integers(a, len(steps)))
        assert reference_reflect_segment(reference_reflect_segment(steps, a, b), a, b) == steps

    @given(steps_lists)
    def test_reflect_all_is_full_segment_reflection(self, steps):
        p = LatticePath(tuple(steps))
        assert reflect_all(p).steps == reference_reflect_segment(p.steps, 0, p.length)


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
    # the oracle's crossing search, with which test_bijection unwinds phi
    def test_touch_point_skipped(self):
        # index 3 touches level 1 (neighbours both at 2), only 1 crosses
        assert reference_rightmost_crossing(reference_heights((1, 1, -1, 1)), 1, 4) == 1

    def test_monotone(self):
        assert reference_rightmost_crossing(reference_heights((1, 1, 1, 1)), 2, 4) == 2

    def test_level_never_reached(self):
        assert reference_rightmost_crossing(reference_heights((1, 1)), 5, 2) is None

    def test_endpoints_never_count(self):
        assert reference_rightmost_crossing(reference_heights((1, -1)), 0, 2) is None

    @given(steps_lists, st.integers(-3, 3))
    def test_matches_definition_scan(self, steps, level):
        h = reference_heights(steps)
        got = reference_rightmost_crossing(h, level, len(steps))
        expected = None
        for j in range(1, len(steps)):
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

    def test_longest(self):
        top = unrank(MAX_RANK_LENGTH, 2**62 - 1)
        assert (MAX_RANK_LENGTH, rank(top)) == (62, 2**62 - 1)
        with pytest.raises(RangeError):
            rank(concat(top, parse_path("U")))

    def test_all_paths_checks_its_length_at_the_call(self):
        # unrank's bound, refused before any path is drawn
        for length in (-1, MAX_RANK_LENGTH + 1):
            with pytest.raises(RangeError, match=rf"^length must be in \[0, 62\], got {length}$"):
                all_paths(length)
        assert list(all_paths(0)) == [LatticePath(())]
        assert next(all_paths(MAX_RANK_LENGTH)) == parse_path("D" * 62)

    @pytest.mark.parametrize("length", range(0, 11))
    def test_bijection_on_small_lengths(self, length):
        seen = set()
        for code in range(1 << length):
            p = unrank(length, code)
            assert rank(p) == code
            seen.add(p.steps)
        assert len(seen) == 1 << length


# per-step loop definitions of parse_path, heights and classify: the
# references that the library's builtin-based versions must match


def reference_parse(text, alphabet):
    table = {"ud": {"U": 1, "D": -1}, "ne": {"N": 1, "E": -1}}[alphabet]
    steps = []
    for i, ch in enumerate(text.strip()):
        step = table.get(ch.upper())
        if step is None:
            raise ParseError(f"invalid character {ch!r} for alphabet {alphabet!r}", i)
        steps.append(step)
    return tuple(steps)


def reference_classify(steps):
    h = reference_heights(steps)
    if h[-1] == 0:
        return PathClass.BALANCED
    if all(x > 0 for x in h[1:]):
        return PathClass.UP_UNBALANCED
    if all(x < 0 for x in h[1:]):
        return PathClass.DOWN_UNBALANCED
    return PathClass.OTHER


def reference_max_height(steps):
    best = 0
    best_j = 0
    for j, h in enumerate(reference_heights(steps)):
        if h > best:
            best = h
            best_j = j
    return best, best_j


def outcome(parse, text, alphabet):
    try:
        return tuple(parse(text, alphabet))
    except ParseError as exc:
        return str(exc), exc.index


# step letters of both alphabets, whitespace, characters whose uppercase is
# no step letter (ı -> I, ſ -> S, İ -> İ) or longer than one character
# (ß -> SS, ﬀ -> FF), NUL, fullwidth step letters, and lone surrogates, which
# is what `map -` reads for bytes of stdin that are not UTF-8
parse_texts = st.text(
    alphabet=st.sampled_from(list("udneUDNE \t\n\r\x0b\x0c\xa0\u2003xßıſİﬀ\x00ＵｄＮｅ\udcff\ud800")),
    max_size=40,
)


class TestAgainstReferenceDefinitions:
    @settings(max_examples=500)
    @given(parse_texts)
    def test_parse_accepts_and_rejects_as_before(self, text):
        for alphabet in ("ud", "ne"):
            expected = outcome(reference_parse, text, alphabet)
            assert outcome(lambda t, a: parse_path(t, a).steps, text, alphabet) == expected

    @pytest.mark.parametrize("length", range(0, 15))
    def test_heights_and_classify_exhaustive(self, length):
        for code in range(1 << length):
            p = unrank(length, code)
            assert p.heights == reference_heights(p.steps)
            assert classify(p) is reference_classify(p.steps)

    @pytest.mark.parametrize("length", [1000, 4876, 16000])
    def test_classify_long_paths(self, length):
        rng = random.Random(length)
        steps = [1, -1] * (length // 2)
        rng.shuffle(steps)
        balanced = LatticePath(steps)
        many_peak = parse_path("UUD" * (length // 4) + "D" * (length // 4))
        walk = LatticePath(rng.choice((1, -1)) for _ in steps)
        paths = [balanced, walk, phi(balanced)[0], phi(reflect_all(balanced))[0], phi(many_peak)[0]]
        paths += [reflect_all(p) for p in paths]
        # back at 0 at the last vertex but one, or at vertex 2, whatever follows
        paths += [concat(p, parse_path("UU")) for p in paths[:2]]
        paths += [concat(parse_path("UD"), LatticePath._trusted(p._buf[2:])) for p in paths[2:]]
        assert {classify(p) for p in paths} == set(PathClass)
        for p in paths:
            assert classify(p) is reference_classify(p.steps)

    @pytest.mark.parametrize("length", range(0, 13))
    def test_end_height_exhaustive(self, length):
        for code in range(1 << length):
            p = unrank(length, code)
            assert p.end_height == sum(p.steps)

    def test_end_height_random_buffers(self):
        # lengths on both sides of the int's 30-bit digits and of 2^16,
        # random and all one step
        rng = random.Random(65536)
        to_steps = bytes(1 if i & 1 else 255 for i in range(256))
        lengths = [0, 1, 7, 8, 29, 30, 31, 60, 61, 4876, 16000, (1 << 16) - 1, 1 << 16]
        lengths += rng.sample(range(1, 1 << 16), 20)
        for length in lengths:
            bufs = [rng.randbytes(length).translate(to_steps) for _ in range(3)]
            bufs += [b"\x01" * length, b"\xff" * length]
            for buf in bufs:
                p = LatticePath._trusted(buf)
                assert p.end_height == sum(p.steps), length

    @pytest.mark.parametrize("length", range(0, 15))
    def test_max_height_and_last_zero_touch_exhaustive(self, length):
        for code in range(1 << length):
            p = unrank(length, code)
            assert max_height(p) == reference_max_height(p.steps)
            assert last_zero_touch(p) == reference_last_zero_touch(p.steps)


def assert_valid(p):
    # what LatticePath(...) would have made of the same steps: a bytes object
    # of int8 +1 and -1, and the Python ints of its steps and heights
    assert type(p._buf) is bytes
    assert not p._buf.translate(None, b"\x01\xff")
    assert type(p.steps) is tuple
    assert all(type(s) is int and s in (1, -1) for s in p.steps)
    assert p._buf == array("b", p.steps).tobytes()
    assert p.heights == reference_heights(p.steps)
    assert p.end_height == p.heights[-1]
    assert p == LatticePath(p.steps)


def library_paths(p):
    """Every path the library builds from p without re-checking its steps."""
    yield p
    for alphabet in ("ud", "ne"):
        yield parse_path(format_path(p, alphabet), alphabet)
    yield reflect_all(p)
    yield concat(p, reflect_all(p))
    if p.length <= 62:
        yield unrank(p.length, rank(p))
    if p.length % 2 == 0:
        yield from split_at_last_zero(p)
    cls = classify(p)
    if cls is PathClass.BALANCED:
        yield phi(p)[0]
        if p.length and p.steps[0] == 1:
            d = decompose(p)
            yield from (seg.steps for _, seg in d.parts)
            yield recompose(d)
    elif cls is not PathClass.OTHER and p.length % 2 == 0:
        yield phi_inverse(p)[0]


class TestTrustedConstruction:
    @pytest.mark.parametrize("length", range(0, 13))
    def test_exhaustive(self, length):
        for code in range(1 << length):
            for q in library_paths(unrank(length, code)):
                assert_valid(q)
        for cls in (None, *PathClass):
            for q in enumerate_class(length, cls):
                assert_valid(q)

    # no shrink phase: on paths of thousands of steps a failure would
    # otherwise shrink for a minute; the generated examples are the same
    @settings(max_examples=20, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
    @given(st.integers(500, 5000), st.integers(0, 2**64 - 1))
    def test_long_paths(self, n, seed):
        steps = [1] * n + [-1] * n
        random.Random(seed).shuffle(steps)
        p = LatticePath(tuple(steps))
        # p or its mirror starts up, and phi of both gives either unbalanced class
        for q in (p, reflect_all(p), phi(p)[0], phi(reflect_all(p))[0]):
            for r in library_paths(q):
                assert_valid(r)
