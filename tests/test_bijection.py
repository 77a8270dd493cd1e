import ast
import inspect
import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckflip import (
    Direction,
    LatticePath,
    NotBalancedError,
    NotUnbalancedError,
    OddLengthError,
    PathClass,
    PreconditionError,
    classify,
    compose_law_check,
    concat,
    errors,
    format_path,
    max_height,
    parse_path,
    phi,
    phi_inverse,
    reflect_all,
    unrank,
    verify_roundtrip,
)
from dyckflip.bijection import phi_inverse_rows, phi_rows
import peak_reference
from peak_reference import reference_decompose, reference_phi, reference_phi_inverse


def paths_of_class(length, cls):
    for code in range(1 << length):
        p = unrank(length, code)
        if classify(p) is cls:
            yield p


def all_balanced(length):
    for ups in combinations(range(length), length // 2):
        steps = [-1] * length
        for j in ups:
            steps[j] = 1
        yield LatticePath(tuple(steps))


def all_up_unbalanced(length):
    # depth-first over prefixes that stay strictly above the baseline
    def extend(prefix, h):
        if len(prefix) == length:
            yield LatticePath(prefix)
            return
        for s in (1, -1):
            if h + s > 0:
                yield from extend(prefix + (s,), h + s)

    yield from extend((), 0)


def balanced_paths(draw_length=12):
    # shuffled multisets of n ups and n downs: exactly the balanced paths
    return st.integers(0, draw_length // 2).flatmap(
        lambda n: st.permutations([1] * n + [-1] * n).map(lambda s: LatticePath(tuple(s)))
    )


class TestPhiExamples:
    def test_smallest(self):
        assert format_path(phi(parse_path("UD"))[0]) == "UU"

    def test_worked_example_with_trace(self):
        image, trace = phi(parse_path("UDUUDD"))
        assert format_path(image) == "UUDUUU"
        assert trace.b_points == ((4, 2), (1, 1))
        assert trace.g_points[0] == (6, 4)
        assert trace.reflection_lines == (2, 1)
        assert trace.direction is Direction.FORWARD
        assert not trace.conjugated
        assert image.end_height == 4 == 2 * max_height(parse_path("UDUUDD"))[0]

    def test_down_start_conjugation(self):
        image, trace = phi(parse_path("DU"))
        assert format_path(image) == "DD"
        assert trace.conjugated

    def test_input_dipping_below_zero(self):
        assert format_path(phi(parse_path("UDDU"))[0]) == "UUUD"

    def test_empty(self):
        image, trace = phi(LatticePath(()))
        assert image == LatticePath(())
        assert trace.b_points == ()

    def test_rejects_unbalanced(self):
        with pytest.raises(NotBalancedError):
            phi(parse_path("UUDU"))


class TestPhiInverseExamples:
    def test_smallest(self):
        assert format_path(phi_inverse(parse_path("UU"))[0]) == "UD"

    def test_worked_example_touch_exclusion(self):
        pre, trace = phi_inverse(parse_path("UUDUUU"))
        assert format_path(pre) == "UDUUDD"
        # crossings at 4 then 1; the touch of level 2 at index 2 is skipped
        assert [i for i, _ in trace.b_points] == [4, 1]
        assert trace.reflection_lines == (2, 1)
        assert trace.g_points == ((6, 4), (3, 1))

    def test_against_forward_map(self):
        assert format_path(phi_inverse(parse_path("UUUD"))[0]) == "UDDU"
        assert format_path(phi(parse_path("UDDU"))[0]) == "UUUD"

    def test_down_unbalanced_conjugation(self):
        pre, trace = phi_inverse(parse_path("DD"))
        assert format_path(pre) == "DU"
        assert trace.conjugated

    def test_rejects_balanced(self):
        with pytest.raises(NotUnbalancedError):
            phi_inverse(parse_path("UDUD"))

    def test_rejects_other_class(self):
        with pytest.raises(NotUnbalancedError):
            phi_inverse(parse_path("UDDD"))

    @pytest.mark.parametrize("length", range(2, 15, 2))
    def test_rejection_names_the_class(self, length):
        for cls in (PathClass.BALANCED, PathClass.OTHER):
            for p in paths_of_class(length, cls):
                with pytest.raises(NotUnbalancedError) as exc:
                    phi_inverse(p)
                assert str(exc.value) == f"input path is {cls.value}, expected unbalanced"

    def test_rejects_odd_length(self):
        with pytest.raises(OddLengthError):
            phi_inverse(parse_path("UUU"))


class TestRoundtrip:
    @pytest.mark.parametrize("text", ["UDUD", "UUDU", "UUDD"])
    def test_examples(self, text):
        assert verify_roundtrip(parse_path(text))

    def test_other_class_rejected(self):
        with pytest.raises(NotUnbalancedError):
            verify_roundtrip(parse_path("UDD"))

    @given(balanced_paths())
    def test_random_balanced(self, p):
        assert verify_roundtrip(p)

    @pytest.mark.parametrize("length", range(2, 13, 2))
    def test_exhaustive_bijectivity(self, length):
        images = set()
        count = 0
        for p in paths_of_class(length, PathClass.BALANCED):
            image, _ = phi(p)
            assert classify(image) in (
                PathClass.UP_UNBALANCED,
                PathClass.DOWN_UNBALANCED,
            )
            assert image.length == p.length
            assert phi_inverse(image)[0] == p
            images.add(image.steps)
            count += 1
        unbalanced = set(
            p.steps
            for cls in (PathClass.UP_UNBALANCED, PathClass.DOWN_UNBALANCED)
            for p in paths_of_class(length, cls)
        )
        assert len(images) == count
        assert images == unbalanced


class TestInvariants:
    @pytest.mark.parametrize("length", range(2, 11, 2))
    def test_endpoint_law_and_class_mapping(self, length):
        for p in paths_of_class(length, PathClass.BALANCED):
            image, _ = phi(p)
            if p.steps[0] == 1:
                assert classify(image) is PathClass.UP_UNBALANCED
                top = max_height(p)[0]
                assert image.end_height == 2 * top
                up_steps = sum(1 for s in image.steps if s == 1)
                assert up_steps == length // 2 + top
            else:
                assert classify(image) is PathClass.DOWN_UNBALANCED

    @given(balanced_paths())
    def test_commutes_with_baseline_reflection(self, p):
        assert phi(reflect_all(p))[0] == reflect_all(phi(p)[0])

    @pytest.mark.parametrize("length", [2, 4, 6, 8])
    def test_inverse_commutes_with_baseline_reflection(self, length):
        for cls in (PathClass.UP_UNBALANCED, PathClass.DOWN_UNBALANCED):
            for p in paths_of_class(length, cls):
                assert phi_inverse(reflect_all(p))[0] == reflect_all(phi_inverse(p)[0])

    @pytest.mark.parametrize("length", range(2, 11, 2))
    def test_trace_consistency(self, length):
        for p in paths_of_class(length, PathClass.BALANCED):
            if p.steps[0] != 1:
                continue
            _, forward = phi(p)
            d = reference_decompose(p)
            assert forward.reflection_lines == tuple(reversed(d.peak_heights))
            image, _ = phi(p)
            _, inverse = phi_inverse(image)
            assert inverse.b_points == forward.b_points

    @pytest.mark.parametrize("length", range(0, 13, 2))
    def test_fast_step_variants_agree(self, length):
        # each kernel maps every path of its domain at once, as one array, so
        # a row that depends on another row shows up against the single call
        def rows(paths):
            return np.array([p.steps for p in paths], dtype=np.int8).reshape(len(paths), length)

        balanced = list(paths_of_class(length, PathClass.BALANCED))
        images, kept, _ = phi_rows(rows(balanced))
        assert [tuple(r) for r in images.tolist()] == [phi(p)[0].steps for p in balanced]
        # the inverse keeps the steps the forward map kept, which the trace needs
        pre, pre_kept, _ = phi_inverse_rows(images)
        assert (pre == rows(balanced)).all() and (pre_kept == kept).all()
        unbalanced = [
            p
            for cls in (PathClass.UP_UNBALANCED, PathClass.DOWN_UNBALANCED)
            for p in paths_of_class(length, cls)
        ]
        pre, _, _ = phi_inverse_rows(rows(unbalanced))
        assert [tuple(r) for r in pre.tolist()] == [phi_inverse(p)[0].steps for p in unbalanced]


UNBALANCED = (PathClass.UP_UNBALANCED, PathClass.DOWN_UNBALANCED)


def _unbalanced_mask(paths):
    # the paths go through the kernel as one array, so a row's mask that
    # depended on another row would show
    rows = np.array([p.steps for p in paths], dtype=np.int8).reshape(len(paths), -1)
    return phi_inverse_rows(rows)[2].tolist()


class TestUnbalancedMask:
    # phi_inverse_rows marks the rows it may invert; classify is the reference

    @pytest.mark.parametrize("length", range(2, 15, 2))
    def test_every_code(self, length):
        # every class, and both first steps of each
        paths = [unrank(length, code) for code in range(1 << length)]
        assert _unbalanced_mask(paths) == [classify(p) in UNBALANCED for p in paths]

    @pytest.mark.parametrize("seed", range(6))
    def test_long_rows(self, seed):
        rng = random.Random(seed)
        steps = [1, -1] * rng.randint(500, 8000)
        rng.shuffle(steps)
        balanced = LatticePath(steps)
        image = phi(balanced)[0]
        many_peak = phi(parse_path("UUD" * 4000 + "D" * 4000))[0]
        walk = LatticePath(rng.choice((1, -1)) for _ in steps)
        paths = [balanced, image, reflect_all(image), many_peak, reflect_all(many_peak), walk]
        # the same paths with U, D for their first two steps: back at 0 at
        # vertex 2, whatever follows
        paths += [concat(parse_path("UD"), LatticePath._trusted(p._buf[2:])) for p in paths[1:]]
        for p in paths:
            assert _unbalanced_mask([p]) == [classify(p) in UNBALANCED]


class TestComposeLaw:
    def test_hand_example(self):
        assert compose_law_check(parse_path("UD"), parse_path("UD"))
        assert format_path(phi(parse_path("UDUD"))[0]) == "UUDU"
        assert format_path(
            concat(phi(parse_path("UD"))[0], reflect_all(parse_path("UD")))
        ) == "UUDU"

    def test_taller_first_part(self):
        assert compose_law_check(parse_path("UUDD"), parse_path("UD"))

    def test_empty_second_part(self):
        assert compose_law_check(parse_path("UD"), LatticePath(()))

    def test_precondition_errors(self):
        with pytest.raises(PreconditionError, match="^t1 must be nonempty$"):
            compose_law_check(LatticePath(()), parse_path("UD"))
        with pytest.raises(PreconditionError, match="^t1 must start with an upstep$"):
            compose_law_check(parse_path("DU"), parse_path("UD"))
        with pytest.raises(PreconditionError, match="^t1 must be balanced$"):
            compose_law_check(parse_path("UU"), parse_path("UD"))
        with pytest.raises(PreconditionError, match="^t2 must not be higher than t1$"):
            compose_law_check(parse_path("UD"), parse_path("UUDD"))
        with pytest.raises(PreconditionError, match="^t2 must be balanced$"):
            compose_law_check(parse_path("UD"), parse_path("UU"))

    def test_exhaustive_small(self):
        balanced = {
            L: list(paths_of_class(L, PathClass.BALANCED)) for L in range(0, 7, 2)
        }
        for L1 in (2, 4, 6):
            for t1 in balanced[L1]:
                if t1.steps[0] != 1:
                    continue
                m1 = max_height(t1)[0]
                for L2 in (0, 2, 4, 6):
                    for t2 in balanced[L2]:
                        if max_height(t2)[0] <= m1:
                            assert compose_law_check(t1, t2)


# --- differential tests against the paper's construction ---


def _trace_fields(trace):
    return trace.b_points, trace.g_points, trace.reflection_lines, trace.conjugated


class TestAgainstPeakConstruction:
    @pytest.mark.parametrize("length", range(2, 17, 2))
    def test_phi_exhaustive(self, length):
        count = 0
        for p in all_balanced(length):
            image, trace = phi(p)
            ref_image, ref_fields = reference_phi(p)
            assert image == ref_image
            assert _trace_fields(trace) == ref_fields
            count += 1
        assert count == comb(length, length // 2)

    @pytest.mark.parametrize("length", range(2, 17, 2))
    def test_phi_inverse_exhaustive(self, length):
        count = 0
        for q in all_up_unbalanced(length):
            for p in (q, reflect_all(q)):
                pre, trace = phi_inverse(p)
                ref_pre, ref_fields = reference_phi_inverse(p)
                assert pre == ref_pre
                assert _trace_fields(trace) == ref_fields
            count += 1
        assert 2 * count == comb(length, length // 2)

    def test_oracle_imports_no_package_function(self):
        # the oracle may name the types it compares against, the error
        # classes and the byte constants; a function of the package would
        # let a fault in it pass both sides of the tests above
        allowed = {"LatticePath", "Segment", "SegmentKind", "Decomposition", "UP_BYTE", "DOWN_BYTE"}
        allowed.update(n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception))
        names = []
        for node in ast.walk(ast.parse(inspect.getsource(peak_reference))):
            if isinstance(node, ast.Import):
                # a whole module, which is none of the allowed names
                names += [a.name for a in node.names if a.name.split(".")[0] == "dyckflip"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dyckflip":
                names += [a.name for a in node.names]
        assert "LatticePath" in names
        assert sorted(set(names) - allowed) == []


# Each strategy draws one seed for a random.Random rather than drawing
# Hypothesis randomness per swap or step, which can overrun Hypothesis's
# data budget on paths this long (FailedHealthCheck data_too_large).
@st.composite
def long_balanced(draw):
    n = draw(st.integers(500, 5000))
    steps = [1] * n + [-1] * n
    random.Random(draw(st.integers(0, 2**64 - 1))).shuffle(steps)
    return LatticePath(tuple(steps))


@st.composite
def long_up_unbalanced(draw):
    length = 2 * draw(st.integers(500, 5000))
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    steps = [1]
    h = 1
    for _ in range(length - 1):
        s = rng.choice((1, -1)) if h > 1 else 1
        steps.append(s)
        h += s
    return LatticePath(tuple(steps))


class TestLongPaths:
    @pytest.mark.parametrize("shape", ["peak", "level", "random"])
    def test_past_int16(self, shape):
        # an image ends at twice its path's peak: U^40000 D^40000 and
        # U^20000 (DU)^15000 D^20000 climb to 40,000 and 20,000, and a
        # shuffled (UD)^35000 lifted by U^17000 ... D^17000 past 17,000, so
        # each image climbs past 32,767, where int16 heights wrap
        if shape == "peak":
            steps = [1] * 40000 + [-1] * 40000
        elif shape == "level":
            steps = [1] * 20000 + [-1, 1] * 15000 + [-1] * 20000
        else:
            steps = [1, -1] * 35000
            random.Random(0).shuffle(steps)
            steps = [1] * 17000 + steps + [-1] * 17000
        p = LatticePath(tuple(steps))
        image, _ = phi(p)
        assert image.end_height > 32767
        assert classify(image) in (PathClass.UP_UNBALANCED, PathClass.DOWN_UNBALANCED)
        assert phi_inverse(image)[0] == p
        if shape == "level":
            # after its peak the image U^m (UD)^r U^m comes back to level
            # M = m, half its end height, r times; none of those steps is kept
            assert image == parse_path("U" * 20000 + "UD" * 15000 + "U" * 20000)

    @settings(max_examples=20, deadline=None)
    @given(long_balanced())
    def test_balanced(self, p):
        image, trace = phi(p)
        assert phi_inverse(image)[0] == p
        if p.steps[0] == 1:
            assert classify(image) is PathClass.UP_UNBALANCED
            assert image.end_height == 2 * max_height(p)[0]
            assert reference_decompose(p).peak_indices == tuple(i for i, _ in reversed(trace.b_points))
        else:
            assert classify(image) is PathClass.DOWN_UNBALANCED
            assert image.end_height == -2 * max_height(reflect_all(p))[0]

    @settings(max_examples=20, deadline=None)
    @given(long_up_unbalanced())
    def test_unbalanced(self, q):
        for p in (q, reflect_all(q)):
            pre, _ = phi_inverse(p)
            assert classify(pre) is PathClass.BALANCED
            assert pre.steps[0] == p.steps[0]
            assert phi(pre)[0] == p


def fresh_class(p):
    """The class of p as a scan finds it, on a copy that holds no memo."""
    return classify(LatticePath._trusted(bytes(p._buf)))


def assert_handover(p):
    """Run phi and phi_inverse, each on its own copy of p with no class
    memo. A map that succeeds leaves both classes on its input and output,
    each the one a scan finds; a map that raises leaves the input's class
    to the scan."""
    want = fresh_class(p)
    for f in (phi, phi_inverse):
        q = LatticePath._trusted(p._buf)
        try:
            out = f(q)[0]
        except (NotBalancedError, NotUnbalancedError, OddLengthError):
            assert classify(q) is want
            continue
        want_out = fresh_class(out)
        if q.length:
            # read off the memos themselves: an unset one raises, so
            # classify on either path does no scan
            assert (q._cls, out._cls) == (want, want_out)
        assert (classify(q), classify(out)) == (want, want_out)


class TestClassHandover:
    # phi and phi_inverse record the classes of their input and output;
    # a fresh classify on a copy is the reference

    @pytest.mark.parametrize("length", range(0, 17, 2))
    def test_phi_rows_marks_balanced_rows(self, length):
        paths = [unrank(length, code) for code in range(1 << length)]
        rows = np.frombuffer(b"".join(p._buf for p in paths), np.int8).reshape(len(paths), length)
        assert phi_rows(rows)[2].tolist() == [p.end_height == 0 for p in paths]

    @pytest.mark.parametrize("length", [*range(0, 15, 2), *range(1, 12, 2)])
    def test_every_code(self, length):
        for code in range(1 << length):
            assert_handover(unrank(length, code))

    def test_both_domains_at_16(self):
        # every path of length 16 that one of the maps accepts, and that
        # the other rejects
        for p in all_balanced(16):
            assert_handover(p)
        for q in all_up_unbalanced(16):
            assert_handover(q)
            assert_handover(reflect_all(q))

    @pytest.mark.parametrize("k", [1, 2, 3, 1000, 4000])
    def test_many_peak_family(self, k):
        # (UUD)^k D^k, its image and their mirrors: up to 16,000 steps
        p = parse_path("UUD" * k + "D" * k)
        image = phi(p)[0]
        for q in (p, image, reflect_all(p), reflect_all(image)):
            assert_handover(q)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8000), st.integers(0, 2**64 - 1))
    def test_long_paths(self, n, seed):
        # a balanced path of up to 16,000 steps, its image, their mirrors,
        # and a walk of the same length, which is most often Other
        rng = random.Random(seed)
        steps = [1] * n + [-1] * n
        rng.shuffle(steps)
        p = LatticePath(steps)
        image = phi(p)[0]
        walk = LatticePath(rng.choice((1, -1)) for _ in steps)
        for q in (p, image, reflect_all(p), reflect_all(image), walk, LatticePath(steps[1:])):
            assert_handover(q)
