import decimal
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subwordcount import (
    NotApplicableError,
    Pattern,
    PatternSpec,
    ProblemInstance,
    ValidationReport,
    count_single,
    validate_instance,
)
from subwordcount.automaton import build_automaton
from subwordcount.core import CountBreakdown
from subwordcount.enumeration import occurrence_profile_counts
from subwordcount.overlap import can_overlap

# each validated entry point, built from valid defaults, with its integer fields
SINGLE_ARGS = {"alphabet_size": 2, "word_length": 4, "pattern_length": 2, "required_count": 1}
INTEGER_FIELDS = {
    "ProblemInstance": (
        lambda alphabet_size=2, word_length=4: ProblemInstance(
            alphabet_size, word_length, (PatternSpec((0, 1), 1),)
        ),
        ("alphabet_size", "word_length"),
    ),
    "PatternSpec": (
        lambda required_count=1: PatternSpec((0, 1), required_count),
        ("required_count",),
    ),
    "count_single": (lambda **kw: count_single(**{**SINGLE_ARGS, **kw}), tuple(SINGLE_ARGS)),
    # the oracle entry points that take raw ints; a one-symbol pattern so
    # that True, read as 1, would otherwise pass as a valid size
    "occurrence_profile_counts": (
        lambda alphabet_size=2, word_length=3: occurrence_profile_counts(
            alphabet_size, word_length, [(0,)]
        ),
        ("alphabet_size", "word_length"),
    ),
    "build_automaton": (
        lambda alphabet_size=2: build_automaton(alphabet_size, [(0,)]),
        ("alphabet_size",),
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


class TestPattern:
    def test_coerces_to_tuple(self):
        assert Pattern([0, 1, 2]).symbols == (0, 1, 2)

    def test_length(self):
        p = Pattern((0, 1))
        assert p.length == 2
        assert len(p) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Pattern(())

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            Pattern((0, -1))
        with pytest.raises(ValueError):
            Pattern((0, "a"))
        with pytest.raises(ValueError):
            Pattern((True, 0))


class TestPatternSpec:
    def test_coerces_raw_sequence(self):
        spec = PatternSpec((0, 1), 2)
        assert isinstance(spec.pattern, Pattern)
        assert spec.pattern.symbols == (0, 1)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            PatternSpec((0, 1), -1)


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


class TestCountBreakdown:
    def test_from_terms_sums(self):
        b = CountBreakdown.from_terms([((2,), 12), ((3,), -2)])
        assert b.total == 10

    def test_total_must_match_terms(self):
        with pytest.raises(ValueError):
            CountBreakdown(5, (((2,), 12), ((3,), -2)))

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            CountBreakdown.from_terms([((0,), -3)])

    def test_empty_terms_total_zero(self):
        assert CountBreakdown.from_terms([]).total == 0

    def test_deferred_terms_disagreeing_with_the_total_raise_on_first_read(self):
        b = CountBreakdown.deferred(10, lambda: [((1,), 9)])
        assert b.total == 10
        with pytest.raises(ValueError):
            b.terms

    def test_deferred_terms_are_computed_once(self):
        calls = []

        def reference():
            calls.append(1)
            return [([2], 12), ([3], -2)]

        b = CountBreakdown.deferred(10, reference)
        assert calls == []
        assert b.terms == (((2,), 12), ((3,), -2))
        assert b.terms is b.terms
        assert calls == [1]
        assert b.terms == CountBreakdown.from_terms([((2,), 12), ((3,), -2)]).terms

    def test_repr_hash_and_unequal_totals_leave_the_reference_unread(self):
        def reference():
            raise AssertionError("the per-tuple reference must not run")

        b = CountBreakdown.deferred(10, reference)
        assert repr(b) == "CountBreakdown(total=10)"
        assert hash(b) == hash(CountBreakdown.from_terms([((0,), 10)]))
        assert b != CountBreakdown.deferred(11, reference)
        assert b != CountBreakdown.from_terms([((0,), 11)])

    def test_deferred_breakdowns_of_one_source_are_equal_unread(self):
        def reference(n):
            raise AssertionError("the per-tuple reference must not run")

        a = CountBreakdown.deferred(10, reference, (0, 1))
        assert a == CountBreakdown.deferred(10, reference, (0, 1))
        assert a != CountBreakdown.deferred(11, reference, (0, 1))

    def test_deferred_breakdowns_of_other_sources_compare_terms(self):
        def reference(n):
            return [((n,), 10)]

        a = CountBreakdown.deferred(10, reference, 0)
        assert a != CountBreakdown.deferred(10, reference, 1)
        assert a.terms == CountBreakdown.deferred(10, lambda: [((0,), 10)]).terms
        assert a.terms == CountBreakdown.from_terms([((0,), 10)]).terms
        assert a.terms == (((0,), 10),)

    def test_deferred_breakdowns_of_other_arguments_are_unequal_unread(self):
        def reference(n):
            raise AssertionError("the per-tuple reference must not run")

        a = CountBreakdown.deferred(10, reference, 0)
        assert a != CountBreakdown.deferred(10, reference, 1)
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

    def test_deferred_negative_total_rejected(self):
        with pytest.raises(ValueError):
            CountBreakdown.deferred(-1, lambda: [((0,), -1)])

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
        # 719,400 pairs, none sharing a symbol, so none runs can_overlap
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
        inst = ProblemInstance.from_pairs(q, 4, [(p, 1) for p in patterns])
        every_pair = tuple(
            (i, j)
            for i in range(len(patterns))
            for j in range(i + 1, len(patterns))
            if can_overlap(patterns[i], patterns[j])
        )
        assert validate_instance(inst).cross_overlap_pairs == every_pair

    def test_error_carries_report(self):
        inst = ProblemInstance.from_pairs(2, 6, [((0, 0), 1)])
        report = validate_instance(inst)
        err = NotApplicableError(report)
        assert err.report is report
        assert "self-intersecting" in str(err)
