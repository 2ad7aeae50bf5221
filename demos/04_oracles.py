"""The two independent oracles, and the guards that keep them honest.

Enumeration is the semantic ground truth: walk every word, count
occurrences, compare.  The automaton oracle gets identical answers by
pushing word-count mass through a pattern-matching automaton, which
scales to word lengths enumeration cannot touch.  Both refuse oversized
jobs explicitly instead of running forever.
"""

import time

from subwordcount import BudgetExceededError, ProblemInstance, dp_count, enumerate_count
from subwordcount.automaton import build_automaton, count_matches

inst = ProblemInstance.from_pairs(3, 9, [((0, 1), 1), ((2, 1), 2)])

start = time.perf_counter()
brute = enumerate_count(inst)  # 3**9 = 19683 words
brute_time = time.perf_counter() - start

start = time.perf_counter()
clever = dp_count(inst)
clever_time = time.perf_counter() - start

print(f"enumeration: {brute}  ({brute_time * 1000:.1f} ms)")
print(f"automaton:   {clever}  ({clever_time * 1000:.1f} ms)")
print()

# The automaton itself is a small reusable object: one state per pattern
# prefix, sparse transition rows (a symbol absent from a row leads back
# to the root), and emit sets.  Scanning a word gives per-pattern counts.
auto = build_automaton(3, [(0, 1), (2, 1)])
word = (0, 1, 2, 1, 0, 1, 2, 1, 1)
print(f"automaton has {auto.state_count} states")
print(f"occurrences of 01 and 21 in {word}: {count_matches(auto, word)}")
print()

# Oversized jobs are refused, not attempted.  Enumeration guards on the
# number of words; the distribution sweep guards on its step bound.
huge = ProblemInstance.from_pairs(4, 200, [((0, 1, 2), 5)])
try:
    enumerate_count(huge)
except BudgetExceededError as err:
    print(err)

print("automaton handles it: ", len(str(dp_count(huge))), "digit count")

try:
    dp_count(huge, step_budget=1000)
except BudgetExceededError as err:
    print(err)
