import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_occurrences
from subwordcount import BudgetExceededError, ProblemInstance, core, enumerate_count
from subwordcount.enumeration import occurrence_profile_counts
from subwordcount.overlap import can_overlap, is_self_intersecting


def product_loop_profiles(q, t, patterns):
    """The definitional reference: every word from ``itertools.product``,
    every pattern counted in it by ``count_occurrences``."""
    histogram = {}
    for word in itertools.product(range(q), repeat=t):
        profile = tuple(count_occurrences(word, pattern) for pattern in patterns)
        histogram[profile] = histogram.get(profile, 0) + 1
    return histogram


def random_instances(count, seed):
    """(q, t, patterns) with q 2-5, t 0-7, q ** t <= 4096 and 1-3 distinct
    patterns of length 1 to t + 2; half of them draw their symbols from
    {0, 1} only, so borders and overlaps are common."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        q, t = rng.randint(2, 5), rng.randint(0, 7)
        if q**t > 4096:
            continue
        width = rng.choice([2, q])
        d, patterns = rng.randint(1, 3), set()
        while len(patterns) < d:
            length = rng.randint(1, t + 2)
            patterns.add(tuple(rng.randrange(width) for _ in range(length)))
        cases.append((q, t, sorted(patterns)))
    return cases


REFERENCE_CASES = random_instances(200, 20261019)


class TestCountOccurrences:
    def test_overlapping_occurrences_count(self):
        assert count_occurrences("aaaaa", "aa") == 4
        assert count_occurrences("ababa", "aba") == 2

    def test_no_occurrence(self):
        assert count_occurrences("abc", "d") == 0
        assert count_occurrences("ab", "abc") == 0

    def test_whole_word(self):
        assert count_occurrences("abc", "abc") == 1

    def test_empty_word(self):
        assert count_occurrences((), (0,)) == 0

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            count_occurrences("abc", "")

    def test_integer_sequences(self):
        assert count_occurrences((0, 1, 0, 1, 0), (0, 1, 0)) == 2


class TestEnumerateCount:
    def test_known_small_case(self):
        inst = ProblemInstance.from_pairs(2, 4, [((0, 1), 1)])
        assert enumerate_count(inst) == 10

    def test_two_patterns(self):
        inst = ProblemInstance.from_pairs(3, 4, [((0, 1), 1), ((2, 1), 1)])
        assert enumerate_count(inst) == 2

    def test_zero_length_word(self):
        assert enumerate_count(ProblemInstance.from_pairs(2, 0, [((0,), 0)])) == 1
        assert enumerate_count(ProblemInstance.from_pairs(2, 0, [((0,), 1)])) == 0

    def test_infeasible_requirement_counts_zero(self):
        inst = ProblemInstance.from_pairs(2, 3, [((0, 1), 4)])
        assert enumerate_count(inst) == 0

    def test_self_intersecting_patterns_are_fine(self):
        # length-4 words over {0,1} with 00 exactly twice: 0001 and 1000
        # (0000 has three overlapping occurrences, so it does not qualify)
        inst = ProblemInstance.from_pairs(2, 4, [((0, 0), 2)])
        assert enumerate_count(inst) == 2

    def test_guard_refusal(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_STEP_BUDGET", 10**6)
        inst = ProblemInstance.from_pairs(2, 30, [((0, 1), 1)])
        refused = "enumeration refused: 2**30 words of 31 steps each pass the budget of 1000000"
        with pytest.raises(BudgetExceededError, match=f"^{re.escape(refused)}$"):
            enumerate_count(inst)

    def test_guard_is_exact_at_the_boundary(self, monkeypatch):
        # 2**10 words of 11 steps each: 11,264 steps
        inst = ProblemInstance.from_pairs(2, 10, [((0, 1), 1)])
        monkeypatch.setattr(core, "DEFAULT_STEP_BUDGET", 2**10 * 11)
        assert enumerate_count(inst) == 165  # 1^a 0^b 1^c 0^d, b, c >= 1
        monkeypatch.setattr(core, "DEFAULT_STEP_BUDGET", 2**10 * 11 - 1)
        with pytest.raises(BudgetExceededError):
            enumerate_count(inst)

    def test_guard_counts_the_one_empty_word(self, monkeypatch):
        inst = ProblemInstance.from_pairs(2, 0, [((0,), 0)])
        monkeypatch.setattr(core, "DEFAULT_STEP_BUDGET", 1)
        assert enumerate_count(inst) == 1
        monkeypatch.setattr(core, "DEFAULT_STEP_BUDGET", 0)
        with pytest.raises(BudgetExceededError):
            enumerate_count(inst)

    def test_guard_refuses_without_computing_the_full_power(self):
        class NoPower(int):
            def __pow__(self, other, modulo=None):
                raise AssertionError("the guard must not compute q ** t")

        inst = ProblemInstance.from_pairs(NoPower(36), 10**7, [((0, 1, 1), 1)])
        with pytest.raises(BudgetExceededError):
            enumerate_count(inst)
        with pytest.raises(BudgetExceededError):
            occurrence_profile_counts(NoPower(36), 10**7, [(0,)])

    def test_no_recursion_limit_overflows_the_walk(self):
        # lowering the limit two at a time until setrecursionlimit itself
        # refuses, the call completes and then may fail before the walk; it
        # completes below depth + t, so the walk makes no nested call per symbol
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        t, default, outcomes, lowest = 16, sys.getrecursionlimit(), "", None
        try:
            for limit in range(depth + 40, 0, -2):
                try:
                    sys.setrecursionlimit(limit)
                except RecursionError:  # the limit is below the current depth
                    break
                try:
                    histogram = occurrence_profile_counts(2, t, [(0, 1)])
                except RecursionError:
                    outcomes += "E"
                else:
                    assert sum(histogram.values()) == 2**t
                    outcomes += "O"
                    lowest = limit
        finally:
            sys.setrecursionlimit(default)
        assert re.fullmatch("O+E*", outcomes), outcomes
        assert lowest < depth + t, (lowest, depth)


class TestOccurrenceProfileCounts:
    def test_profiles_partition_the_word_set(self):
        hist = occurrence_profile_counts(2, 6, [(0, 1), (1, 0)])
        assert sum(hist.values()) == 2**6
        assert all(len(profile) == 2 for profile in hist)

    def test_matches_enumerate_count_per_cell(self):
        hist = occurrence_profile_counts(3, 5, [(0, 1)])
        for x in range(5):
            inst = ProblemInstance.from_pairs(3, 5, [((0, 1), x)])
            assert hist.get((x,), 0) == enumerate_count(inst)

    def test_guard_refusal(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_STEP_BUDGET", 10**6)
        with pytest.raises(BudgetExceededError):
            occurrence_profile_counts(2, 40, [(0,)])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            occurrence_profile_counts(1, 4, [(0,)])
        with pytest.raises(ValueError):
            occurrence_profile_counts(2, -1, [(0,)])

    @pytest.mark.parametrize(
        "patterns",
        [[(5,)], [(0, 2)], [(0,), (0,)], [()], [(0, -1)]],
        ids=["outside-alphabet", "symbol-equal-to-q", "duplicate", "empty", "negative"],
    )
    def test_rejects_the_patterns_an_instance_rejects(self, patterns):
        with pytest.raises(ValueError):
            ProblemInstance.from_pairs(2, 3, [(p, 0) for p in patterns])
        with pytest.raises(ValueError):
            occurrence_profile_counts(2, 3, patterns)

    @given(
        st.integers(2, 3),
        st.integers(0, 7),
        st.lists(
            st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
            min_size=1,
            max_size=2,
            unique=True,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, q, t, patterns):
        # clamping can make two patterns equal; keep one of each
        patterns = list(dict.fromkeys(tuple(min(s, q - 1) for s in p) for p in patterns))
        hist = occurrence_profile_counts(q, t, patterns)
        assert sum(hist.values()) == q**t


class TestAgainstTheProductLoop:
    def test_cases_hold_bordered_overlapping_and_long_patterns(self):
        patterns = [(t, p) for _, t, ps in REFERENCE_CASES for p in ps]
        assert sum(is_self_intersecting(p) for _, p in patterns) >= 50
        assert sum(len(p) > t for t, p in patterns) >= 50
        pairs = [pair for _, _, ps in REFERENCE_CASES for pair in itertools.combinations(ps, 2)]
        assert sum(can_overlap(a, b) for a, b in pairs) >= 50

    def test_profiles_match_the_product_loop(self):
        rng = random.Random(7)
        for q, t, patterns in REFERENCE_CASES:
            histogram = occurrence_profile_counts(q, t, patterns)
            assert histogram == product_loop_profiles(q, t, patterns), (q, t, patterns)
            profile = rng.choice(sorted(histogram))
            inst = ProblemInstance.from_pairs(q, t, list(zip(patterns, profile)))
            assert enumerate_count(inst) == histogram[profile], (q, t, patterns, profile)
            absent = ProblemInstance.from_pairs(q, t, [(p, t + 1) for p in patterns])
            assert enumerate_count(absent) == 0
