import itertools
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import agrees_at_shift, naive_border_lengths, shift_witness_overlap
from subwordcount.overlap import _failure_function, can_overlap, is_self_intersecting


patterns = st.lists(st.integers(0, 4), min_size=1, max_size=6).map(tuple)
# over two symbols long borders are common
binary_patterns = st.lists(st.integers(0, 1), min_size=1, max_size=8).map(tuple)


class TestBorderProfile:
    """A pattern's borders as the package reads them: its failure function,
    whose last value is the longest border, and ``is_self_intersecting``."""

    def test_known_profiles(self):
        assert _failure_function("abab") == [0, 0, 1, 2]
        assert _failure_function("aaaa") == [0, 1, 2, 3]
        assert _failure_function("abc") == [0, 0, 0]
        assert _failure_function("abacaba") == [0, 0, 1, 0, 1, 2, 3]

    def test_single_symbol_has_no_proper_border(self):
        assert _failure_function((0,)) == [0]
        assert not is_self_intersecting((0,))

    def test_accepts_lists(self):
        assert is_self_intersecting([0, 1, 0])
        assert can_overlap([0, 1], (1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_self_intersecting(())
        with pytest.raises(ValueError):
            can_overlap((), (0,))

    def test_long_patterns_take_one_linear_pass(self):
        # comparing the prefix and suffix slices of every length would
        # copy billions of symbols here
        borderless = (0,) + (1,) * 99_999
        periodic = (0, 1) * 50_000
        start = time.perf_counter()
        assert not is_self_intersecting(borderless)
        assert is_self_intersecting(periodic)
        assert time.perf_counter() - start < 5

    @given(patterns)
    def test_matches_naive_slice_scan(self, pattern):
        # every value, not only the last: the overlap scan reads them all
        assert _failure_function(pattern) == [
            max(naive_border_lengths(pattern[: i + 1]), default=0) for i in range(len(pattern))
        ]

    @given(st.one_of(patterns, binary_patterns))
    @example((0, 1, 0, 1, 0))
    @example((0, 0, 0, 0))
    @example((1, 0, 1, 1, 0, 1))
    def test_borders_are_the_shifts_where_a_pattern_meets_itself(self, pattern):
        # a border of length n - s is the pattern agreeing with itself
        # shifted by s, for a nonzero shift s that still overlaps
        assert is_self_intersecting(pattern) == any(
            agrees_at_shift(pattern, pattern, shift) for shift in range(1, len(pattern))
        )


class TestSelfIntersection:
    def test_examples(self):
        assert is_self_intersecting("aba")
        assert is_self_intersecting("aa")
        assert not is_self_intersecting("atg")
        assert not is_self_intersecting("abc")
        assert not is_self_intersecting("a")

    @given(patterns)
    def test_agrees_with_border_existence(self, pattern):
        assert is_self_intersecting(pattern) == bool(naive_border_lengths(pattern))


class TestCanOverlap:
    def test_containment_counts(self):
        assert can_overlap("ab", "xaby")
        assert can_overlap("xaby", "ab")

    def test_suffix_prefix_counts(self):
        assert can_overlap("ab", "ba")  # suffix b meets prefix b
        assert can_overlap("ab", "ca")  # suffix a of ca meets prefix a of ab

    def test_independent_pair(self):
        assert not can_overlap("atg", "cgt")
        assert not can_overlap((0,), (1,))

    def test_symmetric(self):
        assert can_overlap("aab", "ab") == can_overlap("ab", "aab")

    def test_pattern_overlaps_itself(self):
        assert can_overlap("abc", "abc")

    def test_exhaustive_against_shift_witness(self):
        # all ordered pairs of patterns of length <= 4 over three symbols,
        # which include every pair over two
        pool = [
            p
            for length in (1, 2, 3, 4)
            for p in itertools.product(range(3), repeat=length)
        ]
        for a in pool:
            for b in pool:
                assert can_overlap(a, b) == shift_witness_overlap(a, b), (a, b)

    def test_long_patterns_take_linear_time(self):
        # trying every shift copies the shared slices at 200,000 shifts here
        ones_then_zero = (0,) + (1,) * 99_999
        ones_then_two = (1,) * 99_999 + (2,)
        two_then_ones = (2,) + (1,) * 99_999
        start = time.perf_counter()
        assert can_overlap(ones_then_zero, ones_then_two)  # the runs of ones meet
        assert not can_overlap(ones_then_zero, two_then_ones)
        assert time.perf_counter() - start < 5

    @given(patterns, patterns)
    def test_random_pairs_against_shift_witness(self, a, b):
        assert can_overlap(a, b) == shift_witness_overlap(a, b)
