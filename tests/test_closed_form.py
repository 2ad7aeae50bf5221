import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import all_patterns, borderless_patterns, independent_pattern_pairs
from subwordcount import (
    DEFAULT_STEP_BUDGET,
    BudgetExceededError,
    NotApplicableError,
    ProblemInstance,
    automaton,
    closed_form,
    count_multi,
    count_single,
    dp_count,
    enumerate_count,
    validate_instance,
)
from subwordcount.closed_form import iter_copy_counts, multinomial
from subwordcount.overlap import can_overlap, is_self_intersecting


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

    def test_pattern_longer_than_the_word_stays_small(self):
        # it occurs 0 times whatever its length, so the stand-in stops one
        # symbol past the word; built at full length it would hold 10**7
        # symbols and their failure function, hundreds of MB
        tracemalloc.start()
        try:
            breakdown = count_single(2, 5, 10**7, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert breakdown.total == 32
        assert breakdown.terms == count_single(2, 5, 6, 0).terms == (((0,), 32),)

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

    @pytest.mark.parametrize(
        "inst",
        [
            # one length, free = 10 - 18, and lengths 2 and 5, free = 6 - 7
            ProblemInstance.from_pairs(4, 10, [((0, 3), 3), ((1, 3), 3), ((2, 3), 3)]),
            ProblemInstance.from_pairs(3, 6, [((0, 2), 1), ((1, 2, 2, 2, 2), 1)]),
        ],
    )
    def test_infeasible_instance_reaches_no_evaluator(self, monkeypatch, inst):
        def evaluated(*args):
            raise AssertionError("evaluator called")

        monkeypatch.setattr(closed_form, "_layer_sum", evaluated)
        monkeypatch.setattr(closed_form, "_recurrence", evaluated)
        assert count_multi(inst).total == 0

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


class TestStepBudget:
    """``count_multi`` refuses before ``multinomial`` and either evaluator
    once the evaluator's steps pass ``DEFAULT_STEP_BUDGET``."""

    def test_one_constant_bounds_the_closed_form_and_the_automaton(self):
        assert closed_form.DEFAULT_STEP_BUDGET is automaton.DEFAULT_STEP_BUDGET
        assert automaton.DEFAULT_STEP_BUDGET is DEFAULT_STEP_BUDGET

    @pytest.mark.parametrize(
        "inst, steps",
        [
            # one length 2, free = 20 - 2: 18 // 2 + 1 layers
            (ProblemInstance.from_pairs(2, 20, [((0, 1), 1)]), 10),
            # three of length 3, free = 40 - 9: 31 // 3 + 1 layers
            (
                ProblemInstance.from_pairs(5, 40, [((0, 3, 3), 1), ((1, 3, 3), 0), ((2, 3, 3), 2)]),
                11,
            ),
            # lengths 1 and 3, free = 30 - 4: 26 steps of 2 + 1 products
            (ProblemInstance.from_pairs(4, 30, [((0,), 1), ((1, 2, 2), 1)]), 78),
        ],
    )
    def test_the_bound_is_exact(self, monkeypatch, inst, steps):
        expected = dp_count(inst)
        monkeypatch.setattr(closed_form, "DEFAULT_STEP_BUDGET", steps)
        assert count_multi(inst).total == expected

        def unreached(*args):
            raise AssertionError("ran past the refusal")

        for name in ("multinomial", "_layer_sum", "_recurrence"):
            monkeypatch.setattr(closed_form, name, unreached)
        monkeypatch.setattr(closed_form, "DEFAULT_STEP_BUDGET", steps - 1)
        refused = f"^closed form refused: .* needs {steps} steps"
        with pytest.raises(BudgetExceededError, match=refused):
            count_multi(inst)


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
        for name in ("_layer_sum", "_recurrence"):
            real = getattr(closed_form, name)
            monkeypatch.setattr(
                closed_form, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
            )
        total = count_multi(inst).total
        assert calls == ["_recurrence"]
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
        # three length-3 patterns at t = 300: per layer J, from 0 up to
        # free // 3, C(X + J + g, g) and C(X + J, X), g = free - 3 J; Horner's
        # rule in q ** 3 takes that power first and q ** (free % 3) last.
        # The prefactor multinomial((1, 0, 2)) then telescopes as C(1, 1)
        # C(1, 0) C(3, 2).  Past the breakdown's cap, so the recurrence
        # checks the total
        pairs = [((0, 3, 3), 1), ((1, 3, 3), 0), ((2, 3, 3), 2)]
        inst, powers, combs = self._layer_work(monkeypatch, 5, 300, pairs)
        total = count_multi(inst).total
        free = 300 - 3 * 3
        assert combs == [
            pair
            for j in range(free // 3 + 1)
            for pair in ((3 + j + free - 3 * j, free - 3 * j), (3 + j, 3))
        ] + [(1, 1), (1, 0), (3, 2)]
        assert powers == [3, free % 3]
        assert total == multinomial((1, 0, 2)) * closed_form._recurrence(5, free, (3, 3, 3), 3)

    def test_one_pattern_work_is_two_powers_and_two_combs_per_copy_count(self, monkeypatch):
        # the longest benchmark CLI row: the sum is Horner's rule in q ** 3,
        # so the whole sum takes two powers of q, and each copy count J, in
        # increasing order, takes the paper's two binomials; the prefactor
        # multinomial((1,)) is C(1, 1)
        inst, powers, combs = self._layer_work(monkeypatch, 36, 3855, [((0, 1, 1), 1)])
        total = count_multi(inst).total
        free = 3855 - 3
        assert powers == [3, free % 3]
        assert combs == [
            pair
            for j in range(free // 3 + 1)
            for pair in ((1 + j + free - 3 * j, free - 3 * j), (1 + j, 1))
        ] + [(1, 1)]
        assert total == multinomial((1,)) * closed_form._recurrence(36, free, (3,), 1)

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
    @example(1, 2, [1, 0, 0], 2, 101)  # d = 1: the sign flips every layer
    @example(2, 3, [0, 0, 0], 1, 50)  # X = 0
    @example(3, 1, [0, 1, 2], 2, 40)  # a = 1 with filler symbols
    # d = 2 and d = 3 over 130 to 150 layers: the scale steps by -d each layer
    @example(2, 3, [1, 2, 0], 1, 400)
    @example(3, 2, [0, 1, 1], 2, 300)
    @settings(max_examples=100, deadline=None)
    def test_layer_sum_and_recurrence_agree_on_one_length(self, d, length, required, fillers, t):
        # each pattern is its own head symbol then filler symbols, so all
        # are borderless and no two overlap; t reaches past what the
        # per-tuple sum lists quickly, so each evaluator checks the other;
        # count_multi answers free < 0 before either runs
        assume(fillers or length == 1)
        free = t - length * sum(required)
        assume(free >= 0)
        pairs = [((head,) + (d,) * (length - 1), required[head]) for head in range(d)]
        inst = ProblemInstance.from_pairs(max(2, d + fillers), t, pairs)
        assert validate_instance(inst).is_formula_applicable
        q, x = inst.alphabet_size, sum(required)
        assert closed_form._layer_sum(q, free, length, d, x) == closed_form._recurrence(
            q, free, inst.pattern_lengths, x
        )

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


def defined_copy_counts(word_length, specs):
    """The feasible tuples by definition, sharing no loop with the walker:
    each count i_1 from x_1 up to as many copies as fit, followed by every
    feasible tuple of the other patterns in the length left over.
    Lexicographic by construction."""
    if not specs:
        return [()]
    (pattern, x), rest = specs[0], specs[1:]
    a = len(pattern)
    return [
        (i,) + tail
        for i in range(x, word_length // a + 1)
        for tail in defined_copy_counts(word_length - a * i, rest)
    ]


@st.composite
def moment_shapes(draw):
    """(q, t, lengths): 1-3 pattern lengths at t from 100 to 1,500, each
    with room for at most about 10 copies, so the requirement vectors stay
    few; all lengths are one length half the time (the layer sum) and mixed
    otherwise (the recurrence)."""
    t = draw(st.integers(100, 1500))
    copies = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))
    if draw(st.booleans()):
        copies = [copies[0]] * len(copies)
    return len(copies) + draw(st.integers(1, 3)), t, [t // c for c in copies]


class TestBinomialMoments:
    """Summed over every requirement vector x and weighted by C(x_p, k),
    the counts count words with k marked occurrences of pattern p.  Marked
    copies of a borderless pattern cannot overlap, so there are
    C(t - k a_p + k, k) q ** (t - k a_p) of them: q ** t at k = 0.  Exact
    values with no oracle, so both evaluators are checked at word lengths
    past what enumeration and the per-tuple sum reach."""

    @given(moment_shapes())
    # a length-1 pattern beside a length-3 one: P_1 meets the q term at k = 1
    @example((4, 200, [1, 3]))
    # three patterns of one length: the layer sum's scale steps by -3
    @example((5, 1500, [100, 100, 100]))
    @settings(max_examples=50, deadline=None)
    def test_moments_over_every_requirement_vector(self, shape):
        q, t, lengths = shape
        d = len(lengths)
        # each pattern is its own head symbol then filler symbols d, so all
        # are borderless and no two overlap
        patterns = [(head,) + (d,) * (a - 1) for head, a in enumerate(lengths)]
        moments = [[0, 0, 0] for _ in patterns]
        for required in itertools.product(*(range(t // a + 1) for a in lengths)):
            if sum(a * x for a, x in zip(lengths, required)) > t:
                continue
            total = count_multi(ProblemInstance.from_pairs(q, t, zip(patterns, required))).total
            for moment, x in zip(moments, required):
                for k in range(3):
                    moment[k] += math.comb(x, k) * total
        for moment, a in zip(moments, lengths):
            marked = [
                math.comb(t - k * a + k, k) * q ** (t - k * a) if k * a <= t else 0
                for k in range(3)
            ]
            assert moment == marked, a


class TestIterCopyCounts:
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_the_definition(self, mixed):
        rng = random.Random(int(mixed))
        for _ in range(1000):
            d = rng.randint(1, 7)
            if mixed:
                lengths = [rng.randint(1, 5) for _ in range(d)]
            else:
                lengths = [rng.randint(1, 3)] * d
            specs = [((0,) * a, rng.randint(0, 2)) for a in lengths]
            t = rng.randint(0, 20)
            assert list(iter_copy_counts(t, specs)) == defined_copy_counts(t, specs)

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

    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3)), min_size=1, max_size=4),
        st.integers(0, 60),
        st.sampled_from([0, 5, 100, 10**9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_tuple_count_equals_the_walk_without_walking(self, lengths_counts, t, cap):
        # patterns on disjoint symbols; the tuples depend only on lengths and counts
        pairs, used = [], 0
        for length, x in lengths_counts:
            pairs.append((tuple(range(used, used + length)), x))
            used += length
        instance = ProblemInstance.from_pairs(max(used, 2), t, pairs)
        listed = sum(1 for _ in iter_copy_counts(t, instance.specs))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(closed_form, "iter_copy_counts", None)
            counted = closed_form._copy_count_tuples(instance, cap)
        assert counted == min(listed, cap + 1)


def test_borderless_pattern_helper_is_sound():
    # helper sanity: generated patterns really have no borders
    pats = borderless_patterns(3, 3)
    assert (0, 1) in pats and (0, 1, 1) in pats
    assert (0, 1, 0) not in pats and (0, 0) not in pats
    # the slicing definitions select what the package's overlap tests select
    for q in (1, 2, 3):
        for max_length in (1, 2, 3):
            pool = [p for p in all_patterns(q, max_length) if not is_self_intersecting(p)]
            assert borderless_patterns(q, max_length) == pool
            assert list(independent_pattern_pairs(q, max_length)) == [
                (a, b) for a, b in itertools.combinations(pool, 2) if not can_overlap(a, b)
            ]
