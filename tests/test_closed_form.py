import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import borderless_patterns, independent_pattern_pairs
from subwordcount import (
    BudgetExceededError,
    NotApplicableError,
    ProblemInstance,
    closed_form,
    count_multi,
    count_single,
    dp_count,
    enumerate_count,
    validate_instance,
)
from subwordcount.closed_form import iter_copy_counts


class TestCountSingle:
    def test_known_values(self):
        assert count_single(2, 4, 2, 1).total == 10
        assert count_single(2, 2, 2, 0).total == 3
        assert count_single(2, 2, 2, 1).total == 1

    def test_infeasible_count_is_zero_with_no_terms(self):
        breakdown = count_single(3, 5, 2, 3)
        assert breakdown.total == 0
        assert breakdown.terms == ()

    def test_zero_length_word(self):
        assert count_single(4, 0, 3, 0).total == 1
        assert count_single(4, 0, 3, 1).total == 0

    def test_term_indices_and_signs(self):
        breakdown = count_single(2, 6, 2, 1)
        indices = [ix for ix, _ in breakdown.terms]
        assert indices == [(1,), (2,), (3,)]
        values = [v for _, v in breakdown.terms]
        # leading term positive, signs alternating from there
        assert values[0] > 0
        assert all((v > 0) == (i % 2 == 0) for i, v in enumerate(values) if v != 0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            count_single(1, 4, 2, 1)
        with pytest.raises(ValueError):
            count_single(2, -1, 2, 1)
        with pytest.raises(ValueError):
            count_single(2, 4, 0, 1)
        with pytest.raises(ValueError):
            count_single(2, 4, 2, -1)

    @given(st.integers(2, 3), st.integers(0, 8), st.integers(1, 3), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, q, t, a, x):
        # ones ending in a zero: borderless at every length, two symbols suffice
        pattern = (1,) * (a - 1) + (0,)
        inst = ProblemInstance.from_pairs(q, t, [(pattern, x)])
        assert count_single(q, t, a, x).total == enumerate_count(inst)

    @given(st.integers(2, 5), st.integers(0, 20), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_all_words_over_all_required_counts(self, q, t, a):
        total = sum(count_single(q, t, a, x).total for x in range(t // a + 1))
        assert total == q**t


class TestCountMulti:
    def test_two_patterns_small(self):
        inst = ProblemInstance.from_pairs(3, 4, [((0, 1), 1), ((2, 1), 1)])
        assert count_multi(inst).total == 2

    def test_mixed_pattern_lengths(self):
        inst = ProblemInstance.from_pairs(3, 4, [((0,), 1), ((1, 2), 1)])
        assert count_multi(inst).total == 12

    def test_rejects_self_intersecting_pattern(self):
        inst = ProblemInstance.from_pairs(2, 6, [((0, 1, 0), 1)])
        with pytest.raises(NotApplicableError) as excinfo:
            count_multi(inst)
        assert excinfo.value.report.per_pattern_self_intersection == (True,)

    def test_rejects_overlapping_pair(self):
        inst = ProblemInstance.from_pairs(3, 6, [((0, 1), 1), ((1, 2), 1)])
        with pytest.raises(NotApplicableError) as excinfo:
            count_multi(inst)
        assert excinfo.value.report.cross_overlap_pairs == ((0, 1),)

    def test_infeasible_requirements_count_zero(self):
        inst = ProblemInstance.from_pairs(3, 4, [((0, 1), 1), ((2, 1), 4)])
        assert count_multi(inst).total == 0
        assert count_multi(inst).terms == ()

    def test_term_indices_are_full_tuples(self):
        inst = ProblemInstance.from_pairs(4, 8, [((0, 1), 1), ((2, 3), 1)])
        breakdown = count_multi(inst)
        assert all(len(ix) == 2 for ix, _ in breakdown.terms)
        assert breakdown.total == enumerate_count(inst)

    @given(st.integers(2, 3), st.integers(0, 10), st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_single_pattern_reduction(self, q, t, a, x):
        pattern = (1,) * (a - 1) + (0,)
        inst = ProblemInstance.from_pairs(q, t, [(pattern, x)])
        assert count_multi(inst).total == count_single(q, t, a, x).total

    def test_matches_enumeration_on_independent_pairs(self):
        checked = 0
        for a, b in independent_pattern_pairs(4, 2):
            inst = ProblemInstance.from_pairs(4, 5, [(a, 1), (b, 1)])
            assert count_multi(inst).total == enumerate_count(inst), (a, b)
            checked += 1
        assert checked >= 3


@st.composite
def disjoint_instances(draw):
    """Instances of 1 to 4 patterns of lengths 1 to 4, each starting with
    its own head symbol and going on over filler symbols no pattern
    starts with, so no pattern has a border and no two can overlap."""
    patterns = draw(st.integers(1, 4))
    q = patterns + draw(st.integers(1, 2))
    pairs = []
    for head in range(patterns):
        length = draw(st.integers(1, 4))
        fillers = st.integers(patterns, q - 1)
        tail = draw(st.lists(fillers, min_size=length - 1, max_size=length - 1))
        pairs.append(((head, *tail), draw(st.integers(0, 2))))
    return ProblemInstance.from_pairs(q, draw(st.integers(0, 12)), pairs)


class TestCollapsedTotal:
    """The total, by the layer sum or the coefficient recurrence, against
    the per-tuple reference sum and the automaton oracle, two values
    computed without it, and the two evaluators against each other."""

    @given(disjoint_instances())
    # t = 0 with nothing required, t = 0 with a copy required, copies that
    # do not fit, and four patterns of lengths 1 to 4
    @example(ProblemInstance.from_pairs(5, 0, [((0,), 0), ((1, 3), 0), ((2, 3, 4), 0)]))
    @example(ProblemInstance.from_pairs(5, 0, [((0, 3), 1)]))
    @example(ProblemInstance.from_pairs(6, 7, [((0, 4), 2), ((1, 5, 4, 4), 1)]))
    @example(
        ProblemInstance.from_pairs(
            6, 12, [((0,), 0), ((1, 4), 2), ((2, 4, 5), 0), ((3, 5, 5, 4), 1)]
        )
    )
    # every symbol a length-1 pattern, so no symbol fills a gap (totals 3
    # and 0); the drawn instances always keep a filler symbol and never
    # reach it
    @example(ProblemInstance.from_pairs(2, 3, [((0,), 1), ((1,), 2)]))
    @example(ProblemInstance.from_pairs(2, 4, [((0,), 1), ((1,), 2)]))
    # long words: one pattern at a wide alphabet, and three distinct lengths
    @example(ProblemInstance.from_pairs(36, 1000, [((0, 1, 1), 1)]))
    @example(
        ProblemInstance.from_pairs(
            8, 60, [((0, 3, 3), 1), ((1, 3, 4, 4), 2), ((2, 4, 3, 5, 5), 0)]
        )
    )
    # layers with interior zeros, cut at the free length: lengths {1, 5}
    # and {2, 7} at t = 30 to 60
    @example(ProblemInstance.from_pairs(4, 30, [((0,), 2), ((1, 3, 3, 3, 3), 1)]))
    @example(ProblemInstance.from_pairs(4, 60, [((0,), 0), ((1, 3, 2, 2, 3), 2)]))
    @example(ProblemInstance.from_pairs(3, 31, [((0, 2), 1), ((1, 2, 2, 2, 2, 2, 2), 1)]))
    @example(ProblemInstance.from_pairs(3, 60, [((0, 2), 3), ((1, 2, 2, 2, 2, 2, 2), 0)]))
    # free = 0 exactly, and free < 0
    @example(ProblemInstance.from_pairs(3, 7, [((0, 2), 1), ((1, 2, 2, 2, 2), 1)]))
    @example(ProblemInstance.from_pairs(3, 6, [((0, 2), 1), ((1, 2, 2, 2, 2), 1)]))
    # one symbol required t times (total 1) and t - 1 times (total t); an
    # instance needs q >= 2, so this is the nearest to q = 1
    @example(ProblemInstance.from_pairs(2, 9, [((0,), 9)]))
    @example(ProblemInstance.from_pairs(2, 9, [((0,), 8)]))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_tuple_sum_and_automaton(self, inst):
        assert validate_instance(inst).is_formula_applicable
        total = count_multi(inst).total
        assert total == sum(value for _, value in closed_form.per_tuple_terms(inst))
        assert total == dp_count(inst)

    @given(
        st.lists(st.integers(1, 8), min_size=1, max_size=2, unique=True),
        st.lists(st.integers(0, 3), min_size=2, max_size=2),
        st.integers(2, 5),
        st.integers(0, 90),
    )
    @example([1, 5], [1, 1], 2, 45)
    @example([2, 7], [0, 2], 3, 90)
    @settings(max_examples=150, deadline=None)
    def test_sparse_layers_match_per_tuple_sum(self, lengths, required, fillers, t):
        # distinct lengths up to 8, so layers have gaps and long words cut
        # them; each pattern is its own head symbol then filler symbols
        pairs = [
            ((head,) + (len(lengths),) * (length - 1), x)
            for head, (length, x) in enumerate(zip(lengths, required))
        ]
        inst = ProblemInstance.from_pairs(len(lengths) + fillers, t, pairs)
        total = count_multi(inst).total
        assert total == sum(value for _, value in closed_form.per_tuple_terms(inst))
        if t <= 30:
            assert total == dp_count(inst)

    def test_mixed_lengths_take_the_recurrence(self, monkeypatch):
        # lengths 3 and 4 at t = 300: the coefficient recurrence, once, and
        # never the layer sum; the total is still the per-tuple sum
        inst = ProblemInstance.from_pairs(8, 300, [((0, 2, 2), 1), ((1, 2, 2, 2), 2)])
        calls = []
        for name in ("_collapsed_total", "_recurrence_total"):
            real = getattr(closed_form, name)
            monkeypatch.setattr(
                closed_form, name, lambda i, name=name, real=real: calls.append(name) or real(i)
            )
        total = count_multi(inst).total
        assert calls == ["_recurrence_total"]
        assert total == sum(value for _, value in closed_form.per_tuple_terms(inst))

    @staticmethod
    def _layer_work(monkeypatch, q, t, pairs):
        """The instance, and the comb calls and powers of q its layer sum
        makes: q is an int whose ``**`` records each exponent."""
        powers, combs = [], []

        class Base(int):
            def __pow__(self, exponent):
                powers.append(exponent)
                return int(self) ** exponent

        def comb(n, k):
            combs.append((n, k))
            return math.comb(n, k)

        monkeypatch.setattr(closed_form, "comb", comb)
        inst = ProblemInstance.from_pairs(Base(q), t, pairs)
        return inst, powers, combs

    def test_one_length_takes_two_combs_per_layer(self, monkeypatch):
        # three length-3 patterns at t = 300: per layer J, from free // 3
        # down to 0, C(X + J + g, g) and C(X + J, X), g = free - 3 J; past
        # the breakdown's cap, so the recurrence checks the total
        pairs = [((0, 3, 3), 1), ((1, 3, 3), 0), ((2, 3, 3), 2)]
        inst, powers, combs = self._layer_work(monkeypatch, 5, 300, pairs)
        total = count_multi(inst).total
        free = 300 - 3 * 3
        assert combs == [
            pair
            for j in range(free // 3, -1, -1)
            for pair in ((3 + j + free - 3 * j, free - 3 * j), (3 + j, 3))
        ]
        assert powers == [free % 3, 3]
        assert total == closed_form._recurrence_total(inst)

    def test_one_pattern_work_is_two_powers_and_two_combs_per_copy_count(self, monkeypatch):
        # the longest benchmark CLI row: q ** g is stepped by q ** 3 from
        # layer to layer, so the whole sum takes two powers of q, and each
        # copy count J takes the paper's two binomials
        inst, powers, combs = self._layer_work(monkeypatch, 36, 3855, [((0, 1, 1), 1)])
        total = count_multi(inst).total
        free = 3855 - 3
        assert powers == [free % 3, 3]
        assert combs == [
            pair
            for j in range(free // 3, -1, -1)
            for pair in ((1 + j + free - 3 * j, free - 3 * j), (1 + j, 1))
        ]
        assert total == closed_form._recurrence_total(inst)

    @given(
        st.integers(1, 3),
        st.integers(1, 30),
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
        st.integers(0, 4),
        st.integers(0, 500),
    )
    # every symbol a length-1 pattern, so D(z) = 1 and no symbol fills a gap
    @example(2, 1, [1, 2, 0], 0, 3)
    @example(1, 30, [0, 0, 0], 1, 500)
    @example(2, 5, [1, 1, 0], 1, 13)  # free = 3 < a: one layer
    @example(1, 4, [2, 0, 0], 1, 8)  # free = 0
    @example(3, 2, [3, 3, 3], 1, 10)  # free < 0
    @example(1, 2, [1, 0, 0], 2, 101)  # d = 1: the sign flips every layer
    @example(2, 3, [0, 0, 0], 1, 50)  # X = 0
    @example(3, 1, [0, 1, 2], 2, 40)  # a = 1 with filler symbols
    @settings(max_examples=100, deadline=None)
    def test_layer_sum_and_recurrence_agree_on_one_length(self, d, length, required, fillers, t):
        # each pattern is its own head symbol then filler symbols, so all
        # are borderless and no two overlap; t reaches past what the
        # per-tuple sum lists quickly, so each evaluator checks the other
        assume(fillers or length == 1)
        pairs = [((head,) + (d,) * (length - 1), required[head]) for head in range(d)]
        inst = ProblemInstance.from_pairs(max(2, d + fillers), t, pairs)
        assert validate_instance(inst).is_formula_applicable
        assert closed_form._collapsed_total(inst) == closed_form._recurrence_total(inst)

    def test_total_never_walks_copy_count_tuples(self, monkeypatch):
        def walked(*args):
            raise AssertionError("copy-count tuples walked")

        inst = ProblemInstance.from_pairs(6, 40, [((0, 3), 2), ((1, 4, 4), 1), ((2, 5, 3, 3), 0)])
        expected = count_multi(inst).total
        monkeypatch.setattr(closed_form, "iter_copy_counts", walked)
        breakdown = count_multi(inst)
        assert breakdown.total == expected
        with pytest.raises(AssertionError, match="walked"):
            breakdown.terms

    def test_terms_past_the_cell_cap_are_refused_on_every_read(self):
        # 300 one-symbol patterns at t = 2: 45,451 tuples of 300 indices and
        # the 5 decimal digits of 300 ** 2, past the 10**7 cells the cap allows
        inst = ProblemInstance.from_pairs(300, 2, [((s,), 0) for s in range(300)])
        breakdown = count_multi(inst)
        for _ in range(2):
            with pytest.raises(BudgetExceededError, match="breakdown refused"):
                breakdown.terms

    def test_breakdowns_past_the_cell_cap_compare_without_listing_terms(self):
        inst = ProblemInstance.from_pairs(300, 2, [((s,), 0) for s in range(300)])
        assert count_multi(inst) == count_multi(inst)
        same = ProblemInstance.from_pairs(300, 2, [((s,), 0) for s in range(300)])
        assert count_multi(inst) == count_multi(same)

    def test_breakdowns_of_other_instances_past_the_cell_cap_are_unequal_unread(self):
        # every word holds some symbol, so all three totals are 0, and
        # listing any of their terms is refused
        pairs = [((s,), 0) for s in range(300)]
        names = tuple(f"s{s}" for s in range(300))
        short = count_multi(ProblemInstance.from_pairs(300, 2, pairs))
        longer = count_multi(ProblemInstance.from_pairs(300, 3, pairs))
        named = count_multi(ProblemInstance.from_pairs(300, 2, pairs, symbol_names=names))
        assert short.total == longer.total == named.total == 0
        assert short != longer
        assert short != named

    def test_total_memory_stays_small_on_the_longest_cli_row(self):
        # the longest benchmark CLI row: the total's working set is a few
        # tens of kB; one big integer kept per free position (3,853 of
        # them) would take over 5 MB
        inst = ProblemInstance.from_pairs(36, 3855, [((0, 1, 1), 1)])
        tracemalloc.start()
        try:
            count_multi(inst).total
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_recurrence_memory_stays_small_on_long_mixed_lengths(self):
        # lengths 3 and 4 at t = 4000: the recurrence keeps a window of four
        # coefficients; keeping every one of the ~4,000 would take megabytes
        inst = ProblemInstance.from_pairs(4, 4000, [((0, 2, 2), 1), ((1, 2, 2, 2), 1)])
        tracemalloc.start()
        try:
            count_multi(inst).total
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def odometer_copy_counts(word_length, specs):
    """The reference walker: an odometer that steps back over every
    trailing position, one at a time, to find one with room."""
    lengths = [len(pattern) for pattern, _ in specs]
    minimums = [count for _, count in specs]
    copies = list(minimums)
    free = word_length - sum(a * i for a, i in zip(lengths, copies))
    while free >= 0:
        yield tuple(copies)
        position = len(copies) - 1
        while position >= 0 and lengths[position] > free:
            free += lengths[position] * (copies[position] - minimums[position])
            copies[position] = minimums[position]
            position -= 1
        if position < 0:
            return
        copies[position] += 1
        free -= lengths[position]


class TestIterCopyCounts:
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_the_odometer_walk(self, mixed):
        rng = random.Random(int(mixed))
        for _ in range(1000):
            d = rng.randint(1, 7)
            if mixed:
                lengths = [rng.randint(1, 5) for _ in range(d)]
            else:
                lengths = [rng.randint(1, 3)] * d
            specs = [((0,) * a, rng.randint(0, 2)) for a in lengths]
            t = rng.randint(0, 20)
            assert list(iter_copy_counts(t, specs)) == list(odometer_copy_counts(t, specs))

    def test_single_pattern_range(self):
        specs = (((0, 1), 2),)
        assert list(iter_copy_counts(9, specs)) == [(2,), (3,), (4,)]

    def test_two_patterns_lexicographic_and_feasible(self):
        specs = (((0, 1), 1), ((2, 3), 1))
        tuples = list(iter_copy_counts(7, specs))
        assert tuples == sorted(tuples)
        for i1, i2 in tuples:
            assert i1 >= 1 and i2 >= 1
            assert 2 * i1 + 2 * i2 <= 7
        assert (1, 1) in tuples and (2, 1) in tuples

    def test_empty_when_infeasible(self):
        specs = (((0, 1, 2), 4),)
        assert list(iter_copy_counts(5, specs)) == []

    def test_more_patterns_than_the_recursion_limit(self):
        # one walk level per pattern would pass Python's 1,000-frame limit
        specs = tuple(((s,), 0) for s in range(1200))
        tuples = list(iter_copy_counts(1, specs))
        assert len(tuples) == 1201
        assert tuples == sorted(tuples)
        assert tuples[0] == (0,) * 1200 and tuples[-1] == (1,) + (0,) * 1199

    def test_no_specs_rejected(self):
        with pytest.raises(ValueError):
            list(iter_copy_counts(5, ()))


def test_borderless_pattern_helper_is_sound():
    # helper sanity: generated patterns really have no borders
    pats = borderless_patterns(3, 3)
    assert (0, 1) in pats and (0, 1, 1) in pats
    assert (0, 1, 0) not in pats and (0, 0) not in pats
