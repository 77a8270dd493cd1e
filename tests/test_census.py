import dataclasses
import json
import sys
import tracemalloc
from collections import Counter
from math import comb

import numpy as np
import pytest

from dyckflip import (
    CensusReport,
    IdentityReport,
    LatticePath,
    OddLengthError,
    PathClass,
    RangeError,
    all_paths,
    binomial,
    census,
    classify,
    concat,
    enumerate_class,
    format_path,
    identity,
    identity_lhs,
    last_zero_touch,
    parse_path,
    path,
    split_at_last_zero,
    unrank,
    verify_bijection,
    verify_identity,
)
from peak_reference import reference_last_zero_touch


def pascal(n, k):
    # independent recurrence oracle for the binomial coefficient
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row[k]


class TestBinomial:
    def test_examples(self):
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1
        assert binomial(40, 20) == 137846528820 == pascal(40, 20)

    @pytest.mark.parametrize("n", range(0, 25))
    def test_matches_pascal_recurrence(self, n):
        for k in range(n + 1):
            assert binomial(n, k) == pascal(n, k)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            binomial(2, 3)
        with pytest.raises(RangeError):
            binomial(2, -1)
        with pytest.raises(RangeError):
            binomial(-1, 0)


class TestSplitting:
    def test_last_zero_touch_examples(self):
        assert last_zero_touch(parse_path("UDUU")) == 2
        assert last_zero_touch(parse_path("UUUU")) == 0
        assert last_zero_touch(parse_path("UDUD")) == 4
        assert last_zero_touch(LatticePath(())) == 0

    def test_split_examples(self):
        pre, suf = split_at_last_zero(parse_path("UDUU"))
        assert (format_path(pre), format_path(suf)) == ("UD", "UU")
        assert split_at_last_zero(parse_path("UUUU")) == (
            LatticePath(()),
            parse_path("UUUU"),
        )
        assert split_at_last_zero(parse_path("UDUD")) == (
            parse_path("UDUD"),
            LatticePath(()),
        )

    def test_odd_length_rejected(self):
        with pytest.raises(OddLengthError):
            split_at_last_zero(parse_path("UDU"))

    @pytest.mark.parametrize("length", range(0, 17, 2))
    def test_split_is_a_bijection(self, length):
        seen = set()
        for code in range(1 << length):
            p = unrank(length, code)
            pre, suf = split_at_last_zero(p)
            assert classify(pre) is PathClass.BALANCED
            assert classify(suf) in (
                PathClass.BALANCED,  # only when empty
                PathClass.UP_UNBALANCED,
                PathClass.DOWN_UNBALANCED,
            )
            if classify(suf) is PathClass.BALANCED:
                assert suf.length == 0
            assert concat(pre, suf) == p
            seen.add((pre.steps, suf.steps))
        assert len(seen) == 1 << length


def reference_states(length):
    """The states of `length` steps, (height, last vertex at 0), with their
    numbers of paths: a recursion kept apart from the library's."""
    counts = Counter({(0, 0): 1})
    for t in range(1, length + 1):
        following = Counter()
        for (h, z), m in counts.items():
            for g in (h - 1, h + 1):
                following[g, t if g == 0 else z] += m
        counts = following
    return counts


def reference_half_stats(bits, code):
    """The end height of the path of a code of `bits` steps, and its lowest
    and highest height after its start, 127 and -127 if it has none."""
    h = unrank(bits, code).heights
    return h[-1], min(h[1:], default=127), max(h[1:], default=-127)


class TestLastZeroWalk:
    @pytest.mark.parametrize("length", range(0, 17))
    def test_matches_per_path_reference(self, length):
        # every code of a half of up to 16 steps, the longest low half at
        # the default chunk size, in rank order
        expected = [reference_half_stats(length, code) for code in range(1 << length)]
        stats = census._half_stats(length)
        assert all(s.dtype == np.int8 and len(s) == 1 << length for s in stats)
        assert list(zip(*(s.tolist() for s in stats))) == expected

    @pytest.mark.parametrize("length", range(0, 25))
    def test_tally_counts_the_walks_bytes(self, length):
        # the tally counts each path's last vertex at 0, odd lengths
        # included: per path up to 16 steps, and past them, where every
        # path would take too long, by the states of a recursion kept here
        if length <= 16:
            counts = Counter(reference_last_zero_touch(unrank(length, code).steps) for code in range(1 << length))
        else:
            counts = Counter()
            for (_, vertex), m in reference_states(length).items():
                counts[vertex] += m
        assert sum(counts.values()) == 1 << length
        assert identity._last_zero_tally(length) == [counts[v] for v in range(length + 1)]

    def test_state_counts_cover_every_path(self):
        # each of the 2^t paths of t steps is in one state after its t
        # steps; the states and their counts are those of a recursion over
        # (height, last vertex at 0) kept apart here
        for t in range(31):
            states = identity._states(t)
            assert sum(states.values()) == 1 << t
            assert states == reference_states(t)

    def test_low_bits_floor_bounds_the_runs(self, monkeypatch):
        # however small the chunk size, k is at least half the length, so
        # no length up to 30 leaves more than 2^15 runs
        for chunk in (1, 2):
            monkeypatch.setattr(census, "_CHUNK", chunk)
            for length in range(31):
                assert 1 << (length - census._low_bits(length)) <= 1 << 15

    def test_chunk_lives_with_the_walk(self):
        # the run length is the census's alone: a stale patch of
        # identity._CHUNK then raises, where it would otherwise leave the
        # census's runs as they were
        assert not hasattr(identity, "_CHUNK")

    @pytest.mark.parametrize("length", range(17, 31))
    def test_tables_match_per_path_reference_past_one_run(self, length):
        # a whole census of 2^30 codes takes seconds; the two halves'
        # tables give any code's class, here single codes and windows
        # across the ends of runs, which are 2^16 codes long at the default
        # chunk size
        rng = np.random.default_rng(length)
        k = census._low_bits(length)
        assert k == 16
        codes = [0, (1 << length) - 1, *rng.integers(0, 1 << length, 300).tolist()]
        for high in rng.integers(1, 1 << (length - k), 5).tolist():
            codes += range((high << k) - 40, (high << k) + 40)
        low, high = census._half_stats(k), census._half_stats(length - k)
        for code in codes:
            lo, hi = code & ((1 << k) - 1), code >> k
            assert tuple(s[lo] for s in low) == reference_half_stats(k, lo)
            assert tuple(s[hi] for s in high) == reference_half_stats(length - k, hi)
        if length <= 24:
            # the class each code is listed under is classify's
            wanted = np.array(codes, dtype=np.int32)
            listed = {}
            for cls in PathClass:
                for run in census._class_codes(length, cls):
                    listed.update(dict.fromkeys(run[np.isin(run, wanted)].tolist(), cls))
            assert listed == {code: classify(unrank(length, code)) for code in codes}


class TestEnumerateClass:
    def test_examples(self):
        assert {format_path(p) for p in enumerate_class(2, PathClass.BALANCED)} == {
            "UD",
            "DU",
        }
        assert {format_path(p) for p in enumerate_class(2, PathClass.UP_UNBALANCED)} == {
            "UU"
        }
        up4 = {format_path(p) for p in enumerate_class(4, PathClass.UP_UNBALANCED)}
        assert up4 == {"UUUU", "UUUD", "UUDU"}

    def test_rank_order_and_completeness(self):
        paths = list(enumerate_class(3))
        assert len(paths) == 8
        assert [format_path(p) for p in paths[:2]] == ["DDD", "UDD"]

    def test_range_error(self):
        with pytest.raises(RangeError):
            next(enumerate_class(31))

    def test_class_filter_must_be_a_path_class(self):
        # a class's name or value is not its member: it raises on the first
        # path drawn, as the range check does, and lists no class's paths
        for cls in ("Balanced", "BALANCED", 0):
            paths = enumerate_class(4, cls)
            with pytest.raises(ValueError, match=rf"^class filter must be None or a PathClass, got {cls!r}$"):
                next(paths)

    @pytest.mark.parametrize("length", range(0, 15))
    def test_matches_classify_filter(self, length):
        # per-path reference that does not use the census's tables
        paths = list(all_paths(length))
        classes = [classify(p) for p in paths]
        for cls in (None, *PathClass):
            expected = [p for p, c in zip(paths, classes) if cls is None or c is cls]
            assert list(enumerate_class(length, cls)) == expected

    @pytest.mark.parametrize("length", [15, 16, 17, 24, 25, 30])
    def test_rows_match_unrank_past_two_bytes(self, length):
        # the census's lengths go to 30: codes of up to four bytes
        rng = np.random.default_rng(length)
        codes = [0, 1, (1 << length) - 1, *rng.integers(0, 1 << length, 200).tolist()]
        rows = path.unrank_rows(np.array(codes, dtype=np.int32), length)
        assert rows.dtype == np.int8
        assert [tuple(row) for row in rows.tolist()] == [unrank(length, c).steps for c in codes]

    def test_chunk_determinism(self, monkeypatch):
        outputs = []
        for chunk in (7, 8, 40, 1 << 16):
            monkeypatch.setattr(census, "_CHUNK", chunk)
            outputs.append([list(enumerate_class(10, cls)) for cls in (None, *PathClass)])
        assert all(out == outputs[0] for out in outputs)

    @pytest.mark.parametrize("length", range(2, 13, 2))
    def test_class_counts(self, length):
        n = length // 2
        balanced = sum(1 for _ in enumerate_class(length, PathClass.BALANCED))
        up = sum(1 for _ in enumerate_class(length, PathClass.UP_UNBALANCED))
        down = sum(1 for _ in enumerate_class(length, PathClass.DOWN_UNBALANCED))
        assert balanced == binomial(2 * n, n)
        assert up == down == binomial(2 * n, n) // 2
        assert up + down == balanced


class TestClassCodes:
    @pytest.mark.parametrize("length", range(0, 17))
    def test_classes_partition_each_run(self, monkeypatch, length):
        # per-path reference that does not use the census's tables
        classes = [classify(unrank(length, code)) for code in range(1 << length)]
        for chunk in (1, 2, 7, 8, 40, census._CHUNK):
            monkeypatch.setattr(census, "_CHUNK", chunk)
            run = 1 << census._low_bits(length)
            runs = [(lo, run) for lo in range(0, 1 << length, run)]
            readers = zip(*(census._class_codes(length, cls) for cls in (None, *PathClass)), strict=True)
            for (lo, size), (every, *by_class) in zip(runs, readers, strict=True):
                # every code once, and each class's codes in rank order;
                # together the classes hold each code of the run once
                run = list(range(lo, lo + size))
                assert every.tolist() == run
                assert sorted(code for codes in by_class for code in codes.tolist()) == run
                for cls, codes in zip(PathClass, by_class):
                    assert codes.tolist() == sorted(codes.tolist())
                    assert all(classes[code] is cls for code in codes.tolist())

    def test_no_run_array_kept_across_the_yield(self):
        # while a run is read, the generator holds at most the low half's
        # tables, which serve every run, and no mask or code range of the run
        runs = census._class_codes(20, PathClass.OTHER)
        next(runs)
        arrays = {name for name, value in runs.gi_frame.f_locals.items() if isinstance(value, np.ndarray)}
        assert arrays <= {"end", "low", "high", "above", "below"}


def _copy_row_0_into_row_1(phi_rows):
    """A forward map whose second image repeats the first of the same call."""

    def stub(rows):
        image = phi_rows(rows)[0].copy()
        image[1] = image[0]
        return image, None

    return stub


def _repeat_first_image(phi_rows):
    """A forward map whose first image of every call is that of the first call."""
    firsts = []

    def stub(rows):
        image = phi_rows(rows)[0].copy()
        firsts.append(image[0].copy())
        image[0] = firsts[0]
        return image, None

    return stub


class TestVerifyBijection:
    def test_n1(self):
        report = verify_bijection(1)
        assert report.balanced_count == 2
        assert report.unbalanced_count == 2
        assert report.bijection_ok
        assert report.roundtrip_failures == ()

    def test_n2(self):
        report = verify_bijection(2)
        assert report.balanced_count == report.unbalanced_count == 6
        assert report.bijection_ok
        assert report.ok

    def test_corrupted_phi_detected(self, monkeypatch):
        # constant-image stub: collides and never covers the codomain
        monkeypatch.setattr(census, "phi_rows", lambda rows: (np.ones_like(rows), None))
        report = verify_bijection(2)
        assert not report.bijection_ok
        assert report.roundtrip_failures

    def test_image_not_unbalanced_reported(self, monkeypatch):
        # the identity sends every balanced path to a balanced one, which
        # has no preimage under the inverse
        monkeypatch.setattr(census, "phi_rows", lambda rows: (rows, None))
        report = verify_bijection(2)
        assert not report.bijection_ok
        assert report.roundtrip_failures == tuple(
            code for code in range(16) if bin(code).count("1") == 2
        )

    @pytest.mark.parametrize("chunk", [8, 1 << 16])
    @pytest.mark.parametrize("n", [2, 3])
    def test_image_touching_zero_mid_path_reported(self, monkeypatch, n, chunk):
        # each image is U, D, then the image of the rest of its path, so it
        # is back at 0 at vertex 2; inverting it anyway gives back the paths
        # that start D, U, so a test of the end height alone misses those
        orig = census.phi_rows

        def stub(rows):
            ud = np.tile(np.array([1, -1], dtype=np.int8), (len(rows), 1))
            return np.hstack([ud, orig(rows[:, 2:])[0]]), None

        monkeypatch.setattr(census, "_CHUNK", chunk)
        monkeypatch.setattr(census, "phi_rows", stub)
        report = verify_bijection(n)
        assert not report.bijection_ok
        assert report.roundtrip_failures == tuple(
            code for code in range(1 << 2 * n) if bin(code).count("1") == n
        )

    @pytest.mark.parametrize(
        "wrong_length",
        [
            lambda image: np.hstack([image, np.ones((len(image), 2), dtype=np.int8)]),
            lambda image: image[:, :-2],
            lambda image: image[:-1],
        ],
        ids=["longer", "shorter", "fewer-rows"],
    )
    def test_image_of_other_length_reported(self, monkeypatch, wrong_length):
        # an image of another length has no code among the 2^(2n) paths, and
        # a missing row leaves the rows unpaired with their paths
        orig = census.phi_rows
        monkeypatch.setattr(census, "phi_rows", lambda rows: (wrong_length(orig(rows)[0]), None))
        report = verify_bijection(2)
        assert not report.bijection_ok
        assert report.roundtrip_failures == (3, 5, 6, 9, 10, 12)

    @pytest.mark.parametrize(
        "chunk, make_stub, failures",
        [(1 << 16, _copy_row_0_into_row_1, (5,)), (8, _repeat_first_image, (9,))],
        ids=["same-chunk", "earlier-chunk"],
    )
    def test_collision_caught_by_round_trip(self, monkeypatch, chunk, make_stub, failures):
        # the balanced codes of n = 2 are 3, 5, 6 | 9, 10, 12 in chunks of 8;
        # a path whose image repeats an earlier one maps back to that one
        monkeypatch.setattr(census, "_CHUNK", chunk)
        monkeypatch.setattr(census, "phi_rows", make_stub(census.phi_rows))
        report = verify_bijection(2)
        assert not report.bijection_ok
        assert report.roundtrip_failures == failures

    def test_memory_bounded_by_chunk(self):
        # n = 11 sweeps 16x the paths of n = 9 in chunks of the same size
        peaks = []
        for n in (9, 11):
            tracemalloc.start()
            try:
                verify_bijection(n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_peak_memory(self):
        # beyond one run's round trip, the sweep holds the low half's five
        # one-byte tables and the run's int32 codes; the high half's tables
        # and the Python objects fit in 64 KiB. Both peaks hold numpy's own
        # work arrays, so the bound does not depend on numpy's version. A
        # run's class masks kept while the run is mapped add 0.28 MB.
        length = 20
        largest = max(census._class_codes(length, PathClass.BALANCED), key=len)
        peaks = []
        for sweep in (lambda: verify_bijection(length // 2), lambda: census._round_trip_failures(largest, length)):
            sweep()  # imports and first-call caches outside the trace
            tracemalloc.start()
            try:
                sweep()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        held = 5 << census._low_bits(length)
        assert peaks[0] - peaks[1] < held + 4 * len(largest) + (1 << 16), peaks

    def test_chunk_determinism(self, monkeypatch):
        reports = []
        for chunk in (7, 8, 40, 1 << 16):
            monkeypatch.setattr(census, "_CHUNK", chunk)
            reports.append(verify_bijection(4).to_kv())
        assert len(set(reports)) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_classify(self, n):
        # per-path reference that does not use the census's tables
        classes = Counter(classify(p) for p in all_paths(2 * n))
        report = verify_bijection(n)
        assert report.balanced_count == classes[PathClass.BALANCED]
        assert report.unbalanced_count == (
            classes[PathClass.UP_UNBALANCED] + classes[PathClass.DOWN_UNBALANCED]
        )

    @pytest.mark.parametrize("n", range(1, identity.MAX_BIJECTION_N + 1))
    def test_counts_match_the_tally(self, n):
        # the balanced paths decoded and mapped, and the unbalanced ones the
        # state tally counts at vertex 0, are the tally's two ends
        tally = identity._last_zero_tally(2 * n)
        report = verify_bijection(n)
        assert (report.balanced_count, report.unbalanced_count) == (tally[2 * n], tally[0])

    def test_unbalanced_count_is_the_tallys(self, monkeypatch):
        # a tally one path over at vertex 0: the sweep reports that count,
        # apart from the balanced paths it maps, and the verdict fails
        def tally(length):
            counts = identity._last_zero_tally(length)
            return [counts[0] + 1, *counts[1:]]

        monkeypatch.setattr(census, "_last_zero_tally", tally)
        report = verify_bijection(3)
        assert (report.balanced_count, report.unbalanced_count) == (20, 21)
        assert report.roundtrip_failures == ()
        assert not report.bijection_ok and not report.ok

    def test_range_errors(self):
        with pytest.raises(RangeError):
            verify_bijection(0)
        with pytest.raises(RangeError):
            verify_bijection(99)

    def test_largest_n_in_range(self, monkeypatch):
        # the range check alone: a census that yields no run sweeps nothing
        monkeypatch.setattr(census, "_class_codes", lambda length, cls: iter(()))
        assert verify_bijection(identity.MAX_BIJECTION_N).n == identity.MAX_BIJECTION_N
        with pytest.raises(RangeError):
            verify_bijection(identity.MAX_BIJECTION_N + 1)


class TestVerifyIdentity:
    def test_arithmetic_n2(self):
        report = verify_identity(2, "arithmetic")
        assert report.identity_lhs == 1 * 6 + 2 * 2 + 6 * 1 == 16
        assert report.identity_rhs == 16
        assert report.ok

    def test_n0(self):
        assert verify_identity(0).identity_lhs == 1

    def test_structural_n3(self):
        report = verify_identity(3, "structural")
        assert report.structural_tallies == (20, 12, 12, 20)
        assert report.identity_lhs == 64
        assert report.tally_mismatches == ()
        assert report.ok

    def test_report_classes(self):
        # the identity checks return a named tuple, the sweep a dataclass
        for mode in ("arithmetic", "structural"):
            report = verify_identity(2, mode)
            assert type(report) is IdentityReport and not dataclasses.is_dataclass(report)
        report = verify_bijection(2)
        assert type(report) is CensusReport
        assert not dataclasses.replace(report, roundtrip_failures=(3,)).ok

    def test_report_is_immutable(self):
        report = verify_identity(2, "arithmetic")
        with pytest.raises(AttributeError):
            report.n = 3
        with pytest.raises(AttributeError):
            report.extra = 1
        assert report == report._replace(n=2) and report != report._replace(n=3)

    def test_report_repr(self):
        report = verify_identity(3, "structural")._replace(elapsed=0.5)
        assert repr(report) == (
            "IdentityReport(n=3, total_paths=64, balanced_count=20, unbalanced_count=20, "
            "identity_lhs=64, identity_rhs=64, bijection_ok=True, roundtrip_failures=(), "
            "elapsed=0.5, structural_tallies=(20, 12, 12, 20), tally_mismatches=())"
        )

    @pytest.mark.parametrize("n", range(0, 7))
    def test_modes_agree(self, n):
        a = verify_identity(n, "arithmetic")
        s = verify_identity(n, "structural")
        assert a.identity_lhs == s.identity_lhs == a.identity_rhs

    @pytest.mark.parametrize("n", range(0, 8))
    def test_structural_tallies_match_split(self, n):
        # per-path reference that does not use the state recursion
        tally = Counter(len(split_at_last_zero(p)[0]) // 2 for p in all_paths(2 * n))
        expected = tuple(tally[i] for i in range(n + 1))
        assert verify_identity(n, "structural").structural_tallies == expected

    def test_structural_chunk_determinism(self, monkeypatch):
        # the structural check reads its tally off the state recursion
        # alone: no per-code table, so no run length, reaches it
        expected = [verify_identity(n, "structural").to_kv() for n in range(9)]

        def per_code(*args):
            raise AssertionError("the structural check reads the census's runs")

        monkeypatch.setattr(census, "_class_codes", per_code)
        monkeypatch.setattr(census, "_low_bits", per_code)
        assert [verify_identity(n, "structural").to_kv() for n in range(9)] == expected

    def test_structural_at_the_cap(self):
        report = verify_identity(identity.MAX_STRUCTURAL_N, "structural")
        assert report.ok and report.tally_mismatches == ()

    def test_structural_peak_memory(self):
        # at the top n the tally keeps nothing per path, of which there are
        # 2^30, and no table: the peak, about 57 KB, is the state
        # recursion's two dicts of at most 241 states
        verify_identity(1, "structural")  # imports outside the trace
        tracemalloc.start()
        try:
            verify_identity(identity.MAX_STRUCTURAL_N, "structural")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 << 10, peak

    def test_identity_lhs_matches_brute_sum(self):
        # the central binomials off one pass down Pascal's triangle, as pascal builds it
        central, row = [], [1]
        for m in range(602):
            if m % 2 == 0:
                central.append(row[m // 2])
            row = [a + b for a, b in zip([0] + row, row + [0])]
        for n in range(0, 301):
            brute = sum(central[i] * central[n - i] for i in range(n + 1))
            assert identity_lhs(n) == brute == 4**n

    def test_identity_lhs_matches_direct_sum_at_large_n(self):
        # every term of the sum, on both sides of the middle term, for odd
        # and even n; the central binomials come off their own recurrence
        # c(i+1) = c(i) 2(2i+1) / (i+1), checked against math.comb, which
        # would take about a minute for all of them
        central = [1]
        for i in range(identity.MAX_ARITHMETIC_N):
            central.append(central[i] * 2 * (2 * i + 1) // (i + 1))
        for i in (1, 2, 299, 4000, 4001, identity.MAX_ARITHMETIC_N):
            assert central[i] == comb(2 * i, i)
        for n in (4000, 4001, 9999, identity.MAX_ARITHMETIC_N):
            assert identity_lhs(n) == sum(central[i] * central[n - i] for i in range(n + 1)), n

    @pytest.mark.parametrize("n", [7143, identity.MAX_ARITHMETIC_N])
    def test_identity_lhs_past_int_digit_limit(self, n):
        # 4^7143 is the first power of 4 with more than 4300 digits
        assert identity_lhs(n) == 4**n

    def test_range_errors(self):
        with pytest.raises(RangeError):
            verify_identity(-1)
        with pytest.raises(RangeError):
            verify_identity(identity.MAX_STRUCTURAL_N + 1, "structural")
        with pytest.raises(RangeError):
            verify_identity(2, "bogus")


class TestReportSerialization:
    def test_kv_fields(self):
        text = verify_bijection(2).to_kv()
        keys = [line.split("=", 1)[0] for line in text.strip().splitlines()]
        assert keys == [
            "n",
            "total_paths",
            "balanced_count",
            "unbalanced_count",
            "identity_lhs",
            "identity_rhs",
            "bijection_ok",
            "roundtrip_failures",
            "ok",
        ]
        # elapsed is in the JSON form only, so reports compare byte-for-byte
        assert isinstance(verify_bijection(2).to_json_dict()["elapsed"], float)

    def test_kv_past_int_digit_limit(self):
        # 4^7200 has 4335 digits, more than the interpreter turns into text
        # by default; the report prints them all and leaves the limit as it was
        big = 4**7200
        report = CensusReport(
            n=7200,
            total_paths=big,
            balanced_count=1,
            unbalanced_count=1,
            identity_lhs=big,
            identity_rhs=big,
            bijection_ok=True,
            roundtrip_failures=(),
            elapsed=0.0,
        )
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        fields = dict(line.split("=", 1) for line in report.to_kv().splitlines())
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        with identity.exact_int_str():
            assert fields["identity_lhs"] == fields["total_paths"] == str(big)

    def test_identity_and_bijection_reports_print_alike(self):
        fields = dict(
            n=3,
            total_paths=64,
            balanced_count=20,
            unbalanced_count=20,
            identity_lhs=64,
            identity_rhs=64,
            bijection_ok=True,
            roundtrip_failures=(),
            elapsed=0.5,
        )
        for extra in ({}, {"structural_tallies": (20, 12, 12, 20)}, {"roundtrip_failures": (7,)}):
            a, b = IdentityReport(**{**fields, **extra}), CensusReport(**{**fields, **extra})
            assert (a.ok, a.to_kv(), a.to_json_dict()) == (b.ok, b.to_kv(), b.to_json_dict())

    def test_json_roundtrips_kv_fields(self):
        report = verify_identity(4, "structural")
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["identity_lhs"] == report.identity_lhs
        assert data["structural_tallies"] == list(report.structural_tallies)
        assert data["ok"] is True
