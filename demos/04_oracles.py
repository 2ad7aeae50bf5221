"""The two independent oracles, and the budget that keeps them honest.

Enumeration is the semantic ground truth: walk every word, count
occurrences, compare.  The automaton oracle gets identical answers by
pushing word-count mass through a pattern-matching automaton, which
scales to word lengths enumeration cannot touch.  Both refuse oversized
jobs explicitly instead of running forever, against the one step budget
the closed form refuses against too.
"""

import time

from subwordcount import BudgetExceededError, ProblemInstance, dp_count, enumerate_count
from subwordcount.automaton import build_automaton

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

# The automaton itself is a small object: one state per pattern prefix,
# each with a sparse transition row (a symbol absent from the row leads
# back to the root, state 0) and the patterns that end on entering it.
auto = build_automaton(3, [(0, 1), (2, 1)])
print(f"automaton for 01 and 21 has {auto.state_count} states")
for state, (row, emits) in enumerate(zip(auto.goto, auto.emits)):
    print(f"  state {state}: goto {dict(sorted(row.items()))}, emits {list(emits)}")
print()

# Oversized jobs are refused, not attempted, against one step budget.
# Enumeration counts q**t words of t + 1 steps each; the distribution
# sweep counts the slots it would move.
huge = ProblemInstance.from_pairs(4, 200, [((0, 1, 2), 5)])
try:
    enumerate_count(huge)
except BudgetExceededError as err:
    print(err)

print("automaton handles it: ", len(str(dp_count(huge))), "digit count")

# Past DEFAULT_STEP_BUDGET the sweep is refused before anything is built:
# 10**8 symbols, 10 state successors and 6 tallies of 012 (0 to 5) make
# 6 * 10**9 steps.
start = time.perf_counter()
try:
    dp_count(ProblemInstance.from_pairs(4, 10**8, [((0, 1, 2), 5)]))
except BudgetExceededError as err:
    print(err, f"({(time.perf_counter() - start) * 1000:.1f} ms)")
