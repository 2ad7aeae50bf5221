"""Polynomial meets exponential: timing the three counting methods.

Enumeration cost is q**t, so each +2 in word length multiplies its wall
time by q**2 (16x for DNA).  The closed form evaluates a summation of
O(t**2 / a_min) terms, a_min the shortest pattern length: polynomial in
t, with big-integer arithmetic on top.
Word lengths to sweep may be given as arguments:

    python demos/05_benchmark.py 8 10 12
"""

import sys
import time

from subwordcount import ProblemInstance, count_multi, dp_count, enumerate_count

PATTERN = (0, 1, 1)  # borderless; content is irrelevant to the timings
SWEEP = tuple(int(arg) for arg in sys.argv[1:]) or (8, 10, 12)


def clock(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


print(f"{'t':>6} {'closed form':>14} {'automaton':>14} {'enumeration':>14}")
for t in SWEEP:
    inst = ProblemInstance.from_pairs(4, t, [(PATTERN, 2)])
    closed, closed_s = clock(lambda: count_multi(inst).total)
    dp, dp_s = clock(lambda: dp_count(inst))
    brute, brute_s = clock(lambda: enumerate_count(inst))
    assert closed == dp == brute
    print(f"{t:>6} {closed_s:>13.4f}s {dp_s:>13.4f}s {brute_s:>13.4f}s")

# Enumeration is already out past its guard; the other two keep going.
print()
for t in (100, 500, 2000):
    inst = ProblemInstance.from_pairs(4, t, [(PATTERN, 2)])
    closed, closed_s = clock(lambda: count_multi(inst).total)
    line = f"{t:>6} {closed_s:>13.4f}s"
    if t <= 500:
        dp, dp_s = clock(lambda: dp_count(inst))
        assert closed == dp
        line += f" {dp_s:>13.4f}s"
    line += f"   ({len(str(closed))} digits)"
    print(line)
