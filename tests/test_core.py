import pytest

from subwordcount import (
    CountBreakdown,
    NotApplicableError,
    Pattern,
    PatternSpec,
    ProblemInstance,
    count_single,
    validate_instance,
)

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
        assert inst.pattern_count == 2
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

    def test_error_carries_report(self):
        inst = ProblemInstance.from_pairs(2, 6, [((0, 0), 1)])
        report = validate_instance(inst)
        err = NotApplicableError(report)
        assert err.report is report
        assert "self-intersecting" in str(err)
