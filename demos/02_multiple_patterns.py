"""Several patterns at once, each with its own required count.

The multi-pattern count runs over tuples of copy counts, one per pattern,
and interleaves the placements with a multinomial.  It needs the patterns
to be mutually non-overlapping: no pattern may contain another, and no
suffix of one may be a prefix of another.  ATG and CGT qualify.
"""

from subwordcount import ProblemInstance, count_multi, dp_count

ACGT = tuple("ACGT")
ATG = (0, 3, 2)
CGT = (1, 2, 3)

# length-200 DNA strings with ATG exactly 10 times and CGT exactly 8 times
inst = ProblemInstance.from_pairs(4, 200, [(ATG, 10), (CGT, 8)], symbol_names=ACGT)
breakdown = count_multi(inst)
print("length-200 ACGT words, ATG x10 and CGT x8:")
print(f"  {breakdown.total}")
print(f"  ({len(str(breakdown.total))} digits, {len(breakdown.terms)} summation terms)")
print()

# The summation indices are copy-count tuples (copies of ATG, copies of CGT).
print("a few of the signed terms:")
for indices, value in breakdown.terms[:3]:
    print(f"  copies={indices}  {value:+}")
print()

# The automaton oracle recomputes the count without the closed form:
# it moves word-count mass symbol by symbol through a pattern-matching
# automaton, from both ends of the word until the halves meet, tracking
# per-pattern tallies.  Exact integers throughout.
oracle = dp_count(inst)
print(f"automaton oracle agrees: {oracle == breakdown.total}")
print()

# Patterns of different lengths mix freely.
mixed = ProblemInstance.from_pairs(4, 30, [((0,), 3), ((1, 2, 3), 2)], symbol_names=ACGT)
print("length-30 words, A exactly 3 times and CGT exactly twice:")
print(f"  closed form {count_multi(mixed).total}, automaton {dp_count(mixed)}")
