import random
from itertools import combinations, product

import pytest

from dyckflip import (
    Decomposition,
    DomainError,
    DownStartError,
    EmptyPathError,
    LatticePath,
    NotBalancedError,
    Segment,
    SegmentKind,
    ValidationError,
    decompose,
    format_path,
    parse_path,
    recompose,
    reflect_all,
    validate,
)
from peak_reference import reference_decompose


def balanced_up_start(length):
    """Every balanced path of the given even length >= 2 whose first step is
    Up: step 0 and length/2 - 1 of the steps after it are Up."""
    for ups in combinations(range(1, length), length // 2 - 1):
        buf = bytearray(b"\xff" * length)
        for j in (0, *ups):
            buf[j] = 1
        yield LatticePath._trusted(bytes(buf))


def outcome(fn, p):
    try:
        return fn(p)
    except Exception as exc:
        return type(exc), str(exc)


class TestDecomposeExamples:
    def test_monotone_peak(self):
        d = decompose(parse_path("UUDD"))
        assert len(d.parts) == 1
        up_len, seg = d.parts[0]
        assert up_len == 2
        assert seg.kind is SegmentKind.DOWN_UNBALANCED
        assert format_path(seg.steps) == "DD"
        assert d.peak_indices == (2,)
        assert d.peak_heights == (2,)

    def test_later_equal_height_point_stays_inside_final_segment(self):
        d = decompose(parse_path("UDUD"))
        assert len(d.parts) == 1
        up_len, seg = d.parts[0]
        assert (up_len, format_path(seg.steps)) == (1, "DUD")
        assert d.peak_indices == (1,)
        assert d.peak_heights == (1,)

    def test_two_peaks(self):
        d = decompose(parse_path("UDUUDD"))
        assert [(u, s.kind, format_path(s.steps)) for u, s in d.parts] == [
            (1, SegmentKind.DOWN_DYCK, "DU"),
            (1, SegmentKind.DOWN_UNBALANCED, "DD"),
        ]
        assert d.peak_indices == (1, 4)
        assert d.peak_heights == (1, 2)

    def test_lower_peak_before_a_long_final_climb(self):
        # the final ascent spans heights 0..3; the earlier peak closes off
        # the prefix before that climb begins
        d = decompose(parse_path("UDUUUDDD"))
        assert [(u, format_path(s.steps)) for u, s in d.parts] == [
            (1, "DU"),
            (2, "DDD"),
        ]
        assert d.peak_indices == (1, 5)
        assert d.peak_heights == (1, 3)
        assert recompose(d) == parse_path("UDUUUDDD")

    def test_intermediate_segment_may_touch_its_start_level(self):
        d = decompose(parse_path("UDUDUUDD"))
        assert [(u, format_path(s.steps)) for u, s in d.parts] == [
            (1, "DUDU"),
            (1, "DD"),
        ]

    def test_balanced_path_dipping_below_zero(self):
        d = decompose(parse_path("UDDUUD"))
        assert len(d.parts) == 1
        assert format_path(d.parts[0][1].steps) == "DDUUD"


class TestDecomposeErrors:
    def test_not_balanced(self):
        with pytest.raises(NotBalancedError):
            decompose(parse_path("UU"))

    def test_down_start(self):
        with pytest.raises(DownStartError):
            decompose(parse_path("DU"))

    def test_empty(self):
        with pytest.raises(EmptyPathError):
            decompose(LatticePath(()))


class TestSegment:
    def test_fields_by_name_and_position(self):
        steps = parse_path("DUD")
        seg = Segment(SegmentKind.DOWN_UNBALANCED, steps, 4)
        assert seg == Segment(kind=SegmentKind.DOWN_UNBALANCED, steps=steps, start_index=4)
        assert (seg.kind, seg.steps, seg.start_index) == (SegmentKind.DOWN_UNBALANCED, steps, 4)
        assert Segment._fields == ("kind", "steps", "start_index")

    def test_repr(self):
        seg = Segment(SegmentKind.DOWN_DYCK, parse_path("DU"), 1)
        assert repr(seg) == (
            "Segment(kind=<SegmentKind.DOWN_DYCK: 'DownDyck'>, steps=LatticePath(steps=(-1, 1)), start_index=1)"
        )

    def test_equal_segments_hash_equal(self):
        a = decompose(parse_path("UUDUDDUUUDDD")).parts
        b = decompose(parse_path("UUDUDDUUUDDD")).parts
        assert a == b
        assert [hash(seg) for _, seg in a] == [hash(seg) for _, seg in b]
        assert len({seg for _, seg in a + b}) == len(a)

    def test_assignment_raises(self):
        seg = Segment(SegmentKind.DOWN_DYCK, parse_path("DU"), 1)
        for name, value in (("kind", SegmentKind.DOWN_UNBALANCED), ("start_index", 2), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(seg, name, value)
        assert seg == Segment(SegmentKind.DOWN_DYCK, parse_path("DU"), 1)

    def test_a_tuple_of_its_fields(self):
        steps = parse_path("DD")
        seg = Segment(SegmentKind.DOWN_UNBALANCED, steps, 2)
        assert seg == (SegmentKind.DOWN_UNBALANCED, steps, 2)
        kind, s, start = seg
        assert (kind, s, start) == (SegmentKind.DOWN_UNBALANCED, steps, 2)


class TestRecomposeAndValidate:
    def test_roundtrip_example(self):
        p = parse_path("UDUUDD")
        assert recompose(decompose(p)) == p

    def test_single_part(self):
        d = Decomposition(
            parts=((2, Segment(SegmentKind.DOWN_UNBALANCED, parse_path("DD"), 2)),),
            peak_indices=(2,),
            peak_heights=(2,),
        )
        assert format_path(recompose(d)) == "UUDD"

    def test_zero_uprun_rejected(self):
        d = Decomposition(
            parts=((0, Segment(SegmentKind.DOWN_UNBALANCED, parse_path("D"), 0)),),
            peak_indices=(0,),
            peak_heights=(0,),
        )
        assert validate(d)
        with pytest.raises(ValidationError):
            recompose(d)

    def test_down_dyck_ending_below_start_is_flagged(self):
        d = Decomposition(
            parts=(
                (1, Segment(SegmentKind.DOWN_DYCK, parse_path("DD"), 1)),
                (3, Segment(SegmentKind.DOWN_UNBALANCED, parse_path("DD"), 6)),
            ),
            peak_indices=(1, 6),
            peak_heights=(1, 2),
        )
        assert any("down-Dyck" in v for v in validate(d))

    def test_non_increasing_peak_heights_flagged(self):
        d = Decomposition(
            parts=(
                (1, Segment(SegmentKind.DOWN_DYCK, parse_path("DU"), 1)),
                (1, Segment(SegmentKind.DOWN_UNBALANCED, parse_path("DD"), 4)),
            ),
            peak_indices=(1, 4),
            peak_heights=(2, 2),
        )
        assert any("peak" in v for v in validate(d))

    def test_violations_name_the_expected_kind(self):
        d = decompose(parse_path("UDUUDD"))
        (a, dyck), (b, last) = d.parts
        d = d._replace(
            parts=(
                (a, dyck._replace(kind=SegmentKind.DOWN_UNBALANCED)),
                (b, last._replace(kind=SegmentKind.DOWN_DYCK)),
            ),
        )
        assert validate(d) == [
            "part 0: expected uprun 1, down-Dyck segment DU at 1",
            "part 1: expected uprun 1, down-unbalanced segment DD at 4",
        ]

    def test_valid_decomposition_has_no_violations(self):
        for p in balanced_up_start(8):
            assert validate(decompose(p)) == []


def joined(d):
    """The path the parts of d join into, built from their steps."""
    steps = []
    for up_len, seg in d.parts:
        steps += [1] * up_len + list(seg.steps.steps)
    return LatticePath(steps)


# every path of at most 4 steps, the empty one included
SHORT_PATHS = [LatticePath(s) for n in range(5) for s in product((1, -1), repeat=n)]


def perturbations(d):
    """d, the empty decomposition and each change of one field of d: an
    uprun or segment start by one, a segment's kind or steps, a peak entry
    by one, or a part dropped."""
    yield d
    yield Decomposition(parts=(), peak_indices=(), peak_heights=())
    for k, (up_len, seg) in enumerate(d.parts):
        parts = []
        for delta in (-1, 1):
            parts += [(up_len + delta, seg), (up_len, seg._replace(start_index=seg.start_index + delta))]
        other = SegmentKind.DOWN_UNBALANCED if seg.kind is SegmentKind.DOWN_DYCK else SegmentKind.DOWN_DYCK
        parts.append((up_len, seg._replace(kind=other)))
        parts += [(up_len, seg._replace(steps=steps)) for steps in SHORT_PATHS]
        for part in parts:
            yield d._replace(parts=d.parts[:k] + (part,) + d.parts[k + 1 :])
        yield d._replace(parts=d.parts[:k] + d.parts[k + 1 :])
        for name in ("peak_indices", "peak_heights"):
            values = getattr(d, name)
            for delta in (-1, 1):
                yield d._replace(**{name: values[:k] + (values[k] + delta,) + values[k + 1 :]})


class TestValidateAgainstReference:
    @pytest.mark.parametrize("length", range(2, 11, 2))
    def test_valid_iff_the_reference_decomposition(self, length):
        # the decomposition is unique: d is valid iff it is the reference
        # decomposition of the path its parts join into
        for p in balanced_up_start(length):
            for d in perturbations(decompose(p)):
                try:
                    want = reference_decompose(joined(d))
                except DomainError:
                    want = None
                violations = validate(d)
                assert (violations == []) == (d == want)
                expected = (ValidationError, violations[0]) if violations else joined(d)
                assert outcome(recompose, d) == expected


class TestExhaustive:
    @pytest.mark.parametrize("length", range(2, 15, 2))
    def test_roundtrip_and_peak_properties(self, length):
        for p in balanced_up_start(length):
            d = decompose(p)
            assert recompose(d) == p
            h = p.heights
            # every vertex strictly before a peak is strictly lower
            for idx, y in zip(d.peak_indices, d.peak_heights):
                assert h[idx] == y
                assert all(x < y for x in h[:idx])
            # uprun lengths match consecutive peak-height gaps
            gaps = [d.peak_heights[0]] + [
                b - a for a, b in zip(d.peak_heights, d.peak_heights[1:])
            ]
            assert [u for u, _ in d.parts] == gaps


class TestAgainstReference:
    @pytest.mark.parametrize("length", range(2, 17, 2))
    def test_every_up_start_balanced_path(self, length):
        for p in balanced_up_start(length):
            assert decompose(p) == reference_decompose(p)

    @pytest.mark.parametrize("text", ["", "U", "D", "UU", "DU", "UDD", "DUUD"])
    def test_rejections(self, text):
        p = parse_path(text)
        assert outcome(decompose, p) == outcome(reference_decompose, p)

    @pytest.mark.parametrize("length", [1000, 4876, 16000])
    def test_long_paths(self, length):
        rng = random.Random(length)
        paths = [parse_path("UUD" * (length // 4) + "D" * (length // 4))]
        for _ in range(3):
            steps = [1, -1] * (length // 2)
            rng.shuffle(steps)
            p = LatticePath(steps)
            # the up-start one of p and its mirror, and the other one rejected
            paths += [p, reflect_all(p)]
        for p in paths:
            assert outcome(decompose, p) == outcome(reference_decompose, p)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 4095, 4096])
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_many_peak_families(self, a, k):
        # (U^a D^(a-1))^k D^k: k peaks for a > 1, each later uprun one step
        # and each segment 2a - 2 steps, the last k + a - 1; a = 1 is U^k D^k
        p = parse_path(("U" * a + "D" * (a - 1)) * k + "D" * k)
        assert len(decompose(p).parts) == (k if a > 1 else 1)
        # the down-start mirror is rejected by both
        for q in (p, reflect_all(p)):
            assert outcome(decompose, q) == outcome(reference_decompose, q)
