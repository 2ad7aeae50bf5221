import dataclasses
import decimal
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import naive_border_lengths, shift_witness_overlap
from subwordcount import (
    NotApplicableError,
    ProblemInstance,
    ValidationReport,
    count_multi,
    count_single,
    validate_instance,
)
from subwordcount import closed_form
from subwordcount.core import CountBreakdown
from subwordcount.enumeration import occurrence_profile_counts

# each validated entry point, built from valid defaults, with its integer fields
SINGLE_ARGS = {"alphabet_size": 2, "word_length": 4, "pattern_length": 2, "required_count": 1}
INTEGER_FIELDS = {
    "ProblemInstance": (
        lambda alphabet_size=2, word_length=4: ProblemInstance(
            alphabet_size, word_length, (((0, 1), 1),)
        ),
        ("alphabet_size", "word_length"),
    ),
    "from_pairs": (
        lambda required_count=1: ProblemInstance.from_pairs(2, 4, [((0, 1), required_count)]),
        ("required_count",),
    ),
    "count_single": (lambda **kw: count_single(**{**SINGLE_ARGS, **kw}), tuple(SINGLE_ARGS)),
    # enumeration's histogram takes raw ints and checks them by building a
    # ProblemInstance; a one-symbol pattern so that True, read as 1, would
    # otherwise pass as a valid size
    "occurrence_profile_counts": (
        lambda alphabet_size=2, word_length=3: occurrence_profile_counts(
            alphabet_size, word_length, [(0,)]
        ),
        ("alphabet_size", "word_length"),
    ),
}


@pytest.mark.parametrize(
    "entry, field, value",
    [
        (entry, field, value)
        for entry, (_, fields) in INTEGER_FIELDS.items()
        for field in fields
        for value in (10.5, True, "3")
    ],
)
def test_non_int_values_rejected_with_type_error(entry, field, value):
    build, _ = INTEGER_FIELDS[entry]
    build()  # the defaults are valid
    with pytest.raises(TypeError):
        build(**{field: value})


# specs that are not a (pattern, count) pair with a sequence as its pattern
NOT_PAIRS = [5, None, ((0, 1),), ((0, 1), 1, 1), (5, 1)]


def one_pattern(pattern, count=1):
    return ProblemInstance(3, 6, [(pattern, count)])


class TestPattern:
    """The pattern half of a spec, as ``ProblemInstance`` checks it."""

    def test_coerces_to_tuple(self):
        assert one_pattern([0, 1, 2]).patterns == ((0, 1, 2),)

    def test_length(self):
        assert one_pattern((0, 1)).pattern_lengths == (2,)
        assert one_pattern([0, 1, 2, 0]).pattern_lengths == (4,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            one_pattern(())

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            one_pattern((0, -1))
        with pytest.raises(ValueError):
            one_pattern((0, "a"))
        with pytest.raises(ValueError):
            one_pattern((True, 0))


class TestPatternSpec:
    """A (pattern, count) pair, as ``ProblemInstance`` checks and stores it."""

    def test_coerces_raw_sequence(self):
        inst = ProblemInstance(3, 6, [[[0, 1], 2]])
        assert inst.specs == (((0, 1), 2),)
        assert type(inst.specs[0]) is tuple and type(inst.specs[0][0]) is tuple

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            one_pattern((0, 1), -1)


class TestProblemInstance:
    def test_from_pairs(self):
        inst = ProblemInstance.from_pairs(4, 10, [((0, 1), 2), ((2, 3), 1)])
        assert len(inst.specs) == 2
        assert inst.pattern_lengths == (2, 2)
        assert inst.required_counts == (2, 1)
        assert inst.minimum_occupancy == 2 * 2 + 2 * 1

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(ValueError):
            ProblemInstance.from_pairs(1, 4, [((0,), 1)])

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            ProblemInstance.from_pairs(2, -1, [((0,), 1)])

    def test_rejects_empty_specs(self):
        with pytest.raises(ValueError):
            ProblemInstance.from_pairs(2, 4, [])

    def test_rejects_symbol_outside_alphabet(self):
        with pytest.raises(ValueError):
            ProblemInstance.from_pairs(2, 4, [((0, 2), 1)])

    def test_rejects_duplicate_patterns(self):
        with pytest.raises(ValueError):
            ProblemInstance.from_pairs(3, 4, [((0, 1), 1), ((0, 1), 2)])

    def test_zero_length_word_allowed(self):
        inst = ProblemInstance.from_pairs(2, 0, [((0,), 0)])
        assert inst.word_length == 0

    def test_symbol_names_checked(self):
        ProblemInstance.from_pairs(2, 4, [((0, 1), 1)], symbol_names=("a", "b"))
        with pytest.raises(ValueError):
            ProblemInstance.from_pairs(2, 4, [((0, 1), 1)], symbol_names=("a",))
        with pytest.raises(ValueError):
            ProblemInstance.from_pairs(2, 4, [((0, 1), 1)], symbol_names=("a", "a"))
        with pytest.raises(ValueError):
            ProblemInstance.from_pairs(2, 4, [((0, 1), 1)], symbol_names=("a", ""))

    def test_infeasible_occupancy_is_not_an_error(self):
        inst = ProblemInstance.from_pairs(2, 3, [((0, 1), 5)])
        assert inst.minimum_occupancy == 10

    @pytest.mark.parametrize("spec", NOT_PAIRS)
    def test_a_spec_that_is_not_a_pair_names_the_pair_form(self, spec):
        with pytest.raises(TypeError, match=r"\(pattern, count\) pair"):
            ProblemInstance.from_pairs(2, 4, [spec])

    def test_symbols_are_checked_before_the_pattern_is_hashed(self):
        with pytest.raises(ValueError, match="nonnegative integers"):
            ProblemInstance.from_pairs(2, 4, [([0, [1]], 1)])


# one fault each, injected into a valid 5-symbol instance: every bad
# symbol raises ValueError, a bad count the error listed with it
BAD_SYMBOLS = st.one_of(
    st.integers(max_value=-1),
    st.integers(5, 10**30),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.lists(st.integers(0, 1), max_size=2),
)
BAD_COUNTS = {
    "bool": (st.booleans(), TypeError),
    "float": (st.floats(allow_nan=False), TypeError),
    "string": (st.text(max_size=2), TypeError),
    "negative": (st.integers(max_value=-1), ValueError),
}


@st.composite
def valid_pairs(draw):
    """Up to four distinct patterns over a 5-symbol alphabet, with counts."""
    pattern = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple)
    patterns = draw(st.lists(pattern, min_size=1, max_size=4, unique=True))
    return [(p, draw(st.integers(0, 3))) for p in patterns]


@st.composite
def faulty_pairs(draw):
    pairs = draw(valid_pairs())
    at = draw(st.integers(0, len(pairs) - 1))
    pattern, count = pairs[at]
    fault = draw(st.sampled_from(["symbol", "count", "empty", "duplicate", "not a pair"]))
    if fault == "symbol":
        symbols = list(pattern)
        symbols[draw(st.integers(0, len(symbols) - 1))] = draw(BAD_SYMBOLS)
        pairs[at], error = (symbols, count), ValueError
    elif fault == "count":
        values, error = BAD_COUNTS[draw(st.sampled_from(sorted(BAD_COUNTS)))]
        pairs[at] = (pattern, draw(values))
    elif fault == "empty":
        pairs[at], error = (draw(st.sampled_from([(), []])), count), ValueError
    elif fault == "duplicate":
        pairs.insert(draw(st.integers(0, len(pairs))), (list(pattern), 0))
        error = ValueError
    else:
        pairs[at], error = draw(st.sampled_from(NOT_PAIRS)), TypeError
    return pairs, error


@settings(max_examples=300)
@given(faulty_pairs())
def test_each_bad_spec_raises_its_error(case):
    pairs, error = case
    with pytest.raises(error):
        ProblemInstance(5, 6, pairs)


@settings(max_examples=100)
@given(valid_pairs())
def test_list_and_tuple_spellings_build_one_instance(pairs):
    as_tuples = ProblemInstance(5, 6, tuple(pairs))
    as_lists = ProblemInstance(5, 6, [[list(p), x] for p, x in pairs])
    assert as_tuples.specs == tuple(pairs)
    assert as_lists == as_tuples and hash(as_lists) == hash(as_tuples)
    # a breakdown compares its arguments, so the two spellings give equal breakdowns
    reference = closed_form.per_tuple_terms
    assert CountBreakdown(0, reference, (as_lists,)) == CountBreakdown(0, reference, (as_tuples,))


class TestCountBreakdown:
    def test_from_terms_sums(self):
        b = CountBreakdown.from_terms([((2,), 12), ((3,), -2)])
        assert b.total == 10

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            CountBreakdown.from_terms([((0,), -3)])

    def test_empty_terms_total_zero(self):
        assert CountBreakdown.from_terms([]).total == 0

    def test_total_must_match_terms(self):
        b = CountBreakdown(5, lambda: (((2,), 12), ((3,), -2)))
        with pytest.raises(ValueError):
            b.terms

    def test_deferred_terms_disagreeing_with_the_total_raise_on_first_read(self):
        b = CountBreakdown(10, lambda: [((1,), 9)])
        assert b.total == 10
        with pytest.raises(ValueError):
            b.terms

    def test_terms_are_computed_once(self):
        calls = []

        def reference():
            calls.append(1)
            return [([2], 12), ([3], -2)]

        b = CountBreakdown(10, reference)
        assert calls == []
        assert b.terms == (((2,), 12), ((3,), -2))
        assert b.terms is b.terms
        assert calls == [1]
        assert b.terms == CountBreakdown.from_terms([((2,), 12), ((3,), -2)]).terms

    def test_repr_hash_and_unequal_totals_leave_the_reference_unread(self):
        def reference():
            raise AssertionError("the per-tuple reference must not run")

        b = CountBreakdown(10, reference)
        assert repr(b) == "CountBreakdown(total=10)"
        assert hash(b) == hash(CountBreakdown.from_terms([((0,), 10)]))
        assert b != CountBreakdown(11, reference)
        assert b != CountBreakdown.from_terms([((0,), 11)])

    def test_breakdowns_of_one_source_are_equal_unread(self):
        def reference(n):
            raise AssertionError("the per-tuple reference must not run")

        a = CountBreakdown(10, reference, ((0, 1),))
        assert a == CountBreakdown(10, reference, ((0, 1),))
        assert a != CountBreakdown(11, reference, ((0, 1),))

    def test_breakdowns_of_other_sources_compare_terms(self):
        def reference(n):
            return [((n,), 10)]

        a = CountBreakdown(10, reference, (0,))
        assert a != CountBreakdown(10, reference, (1,))
        assert a.terms == CountBreakdown(10, lambda: [((0,), 10)]).terms
        assert a.terms == CountBreakdown.from_terms([((0,), 10)]).terms
        assert a.terms == (((0,), 10),)

    def test_breakdowns_of_other_arguments_are_unequal_unread(self):
        def reference(n):
            raise AssertionError("the per-tuple reference must not run")

        a = CountBreakdown(10, reference, (0,))
        assert a != CountBreakdown(10, reference, (1,))
        assert a != CountBreakdown.from_terms([((0,), 10)])

    def test_repr_shows_totals_past_the_int_digit_limit(self):
        b = count_single(36, 3000, 3, 2)
        text = repr(b)
        head = "CountBreakdown(total="
        assert text.startswith(head) and text.endswith(")")
        digits = text[len(head) : -1]
        assert len(digits) > 4300
        assert decimal.Decimal(digits) == b.total

    def test_equal_totals_still_compare_terms(self):
        a = CountBreakdown.from_terms([((0,), 10)])
        b = CountBreakdown.from_terms([((1,), 10)])
        assert a != b
        assert hash(a) == hash(b)

    def test_constructor_rejects_a_negative_total(self):
        with pytest.raises(ValueError):
            CountBreakdown(-1, lambda: [((0,), -1)])

    def test_one_constructor_whose_fields_are_the_total_and_the_source(self, monkeypatch):
        assert [f.name for f in dataclasses.fields(CountBreakdown)] == ["total", "reference", "args"]
        assert not hasattr(CountBreakdown, "deferred")
        inst = ProblemInstance.from_pairs(4, 8, [((0, 1), 1), ((2, 3), 2)])
        total = count_multi(inst).total

        def refuse(*args):
            raise AssertionError("comparing breakdowns must not walk copy-count tuples")

        monkeypatch.setattr(closed_form, "iter_copy_counts", refuse)
        assert count_multi(inst) == CountBreakdown(total, closed_form.per_tuple_terms, (inst,))

    def test_immutable(self):
        b = CountBreakdown.from_terms([((2,), 12)])
        with pytest.raises(AttributeError):
            b.total = 13
        with pytest.raises(AttributeError):
            b.terms = ()


class TestValidateInstance:
    def test_applicable_instance(self):
        inst = ProblemInstance.from_pairs(4, 10, [((0, 3, 2), 1), ((1, 2, 3), 1)])
        report = validate_instance(inst)
        assert report.is_formula_applicable
        assert report.per_pattern_self_intersection == (False, False)
        assert report.cross_overlap_pairs == ()

    def test_flags_self_intersection(self):
        inst = ProblemInstance.from_pairs(2, 6, [((0, 1, 0), 1)])
        report = validate_instance(inst)
        assert not report.is_formula_applicable
        assert report.per_pattern_self_intersection == (True,)

    def test_flags_overlapping_pair(self):
        inst = ProblemInstance.from_pairs(3, 6, [((0, 1), 1), ((1, 2), 1)])
        report = validate_instance(inst)
        assert not report.is_formula_applicable
        assert report.cross_overlap_pairs == ((0, 1),)

    def test_applicability_is_derived_from_the_findings(self):
        assert ValidationReport((False, False), ()).is_formula_applicable
        assert not ValidationReport((True, False), ()).is_formula_applicable
        assert not ValidationReport((False, False), ((0, 1),)).is_formula_applicable
        with pytest.raises(TypeError):
            ValidationReport((True,), (), True)  # no stored flag to contradict them

    def test_many_patterns_on_distinct_symbols_validate_quickly(self):
        # 719,400 pairs, none sharing a symbol, so no pair reads one pattern into the other
        inst = ProblemInstance.from_pairs(1200, 1, [((s,), 0) for s in range(1200)])
        start = time.perf_counter()
        report = validate_instance(inst)
        assert time.perf_counter() - start < 0.5
        assert report.is_formula_applicable

    @given(
        st.integers(2, 6).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.lists(
                    st.lists(st.integers(0, q - 1), min_size=1, max_size=4).map(tuple),
                    min_size=1,
                    max_size=6,
                    unique=True,
                ),
            )
        )
    )
    @example((6, [(0, 1), (2, 3), (1, 2), (4,), (5, 4, 5)]))
    @settings(max_examples=100, deadline=None)
    def test_pairs_equal_an_all_pairs_overlap_check(self, q_patterns):
        q, patterns = q_patterns
        report = validate_instance(ProblemInstance.from_pairs(q, 4, [(p, 1) for p in patterns]))
        every_pair = tuple(
            (i, j)
            for i in range(len(patterns))
            for j in range(i + 1, len(patterns))
            if shift_witness_overlap(patterns[i], patterns[j])
        )
        assert report.cross_overlap_pairs == every_pair
        assert report.per_pattern_self_intersection == tuple(
            bool(naive_border_lengths(p)) for p in patterns
        )

    @given(
        st.one_of(st.just(2), st.integers(3, 5)).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.lists(
                    st.lists(st.integers(0, q - 1), min_size=1, max_size=9).map(tuple),
                    min_size=1,
                    max_size=6,
                    unique=True,
                ),
            )
        )
    )
    # over two symbols long borders and long overlaps are common
    @example((2, [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1), (1, 1, 1, 0, 1, 1)]))
    @example((3, [(0, 1, 2), (1, 2), (2, 0, 1, 2, 0), (0,)]))
    # shared symbols, but neither first symbol occurs in the other pattern
    @example((4, [(0, 1, 2), (3, 2, 1)]))
    # the second pattern occurs inside the first
    @example((4, [(0, 1, 2, 3), (1, 2)]))
    # the second pattern's first symbol is only the first pattern's last
    @example((4, [(0, 1, 2), (2, 3)]))
    @settings(max_examples=200, deadline=None)
    def test_flags_and_pairs_equal_the_definitions(self, q_patterns):
        # a border is a prefix equal to a suffix of its length, and two
        # patterns overlap when some relative placement agrees on every
        # position they share
        q, patterns = q_patterns
        report = validate_instance(ProblemInstance.from_pairs(q, 4, [(p, 1) for p in patterns]))
        assert report.per_pattern_self_intersection == tuple(
            bool(naive_border_lengths(p)) for p in patterns
        )
        assert report.cross_overlap_pairs == tuple(
            (i, j)
            for i in range(len(patterns))
            for j in range(i + 1, len(patterns))
            if shift_witness_overlap(patterns[i], patterns[j])
        )

    def test_error_carries_report(self):
        inst = ProblemInstance.from_pairs(2, 6, [((0, 0), 1)])
        report = validate_instance(inst)
        err = NotApplicableError(report)
        assert err.report is report
        assert "self-intersecting" in str(err)
