"""When the closed form applies, and what happens when it does not.

The summation assumes that placed pattern copies never share positions:
no pattern may overlap a shifted copy of itself (no borders), and no two
patterns may overlap each other.  Validation checks exactly that and
explains any rejection.  The oracles have no such restriction, so
rejected instances can still be counted, just not in closed form.
"""

from subwordcount import (
    NotApplicableError,
    ProblemInstance,
    count_multi,
    dp_count,
    enumerate_count,
    validate_instance,
)
from subwordcount.overlap import can_overlap, is_self_intersecting

# A border is a proper prefix that is also a suffix.  ABAB has one of
# length 2, so two copies can overlap: ABABAB holds it at positions 0 and 2.
for word in ("abab", "aaaa", "abc", "abacaba"):
    print(f"does {word!r} have a border? {is_self_intersecting(word)}")
print()

# Cross-overlap: a suffix of one pattern is a prefix of the other, or one
# contains the other.
print("can ab and ba overlap?", can_overlap("ab", "ba"))  # yes: aba
print("can atg and cgt overlap?", can_overlap("atg", "cgt"))  # no shared layout
print()

# Validation reports per-pattern and per-pair findings.
bad = ProblemInstance.from_pairs(3, 10, [((0, 1, 0), 1), ((0, 1), 1), ((1, 2), 1)])
report = validate_instance(bad)
print("self-intersecting flags:", report.per_pattern_self_intersection)
print("overlapping pairs:      ", report.cross_overlap_pairs)
print("closed form applicable: ", report.is_formula_applicable)
print()

# The closed form refuses such instances rather than producing a wrong number.
try:
    count_multi(bad)
except NotApplicableError as err:
    print("count_multi said no:", err)
print()

# The oracles still answer, and agree with each other.
smaller = ProblemInstance.from_pairs(2, 12, [((0, 0), 2)])  # bordered pattern
print("length-12 binary words with 00 exactly twice (overlaps and all):")
print(f"  enumeration {enumerate_count(smaller)}, automaton {dp_count(smaller)}")
