"""Closed-form counts of words containing patterns exact numbers of times.

The count is a finite signed summation over feasible copy-count tuples.
The term for copy counts (i_1 .. i_d) places that many copies of each
pattern and multiplies

  * q ** g ways to fill the g unoccupied positions, where g is the word
    length minus the positions the copies occupy,
  * the multiset coefficient assigning those g positions to the gaps
    around the placed copies (i_1 + .. + i_d copies leave that many
    gaps plus one),
  * one binomial per pattern choosing which copies are the required ones,
  * the multinomial interleaving copies of distinct patterns,

with sign (-1) ** (total copies - total required copies), which makes the
leading term positive and the signed sum collapse to the exact count.

There are about t ** d tuples for d patterns, so the one engine,
``count_multi``, sums them grouped instead.  Writing i_p = x_p + j_p for
required counts x_p, every tuple with the same J = sum j_p and
L = sum a_p j_p (a_p the pattern lengths) has the same g and gap factor,
and the multinomial times the binomials is
C(X + J, X) * multinomial(x) * multinomial(j), X = sum x_p.  Summed over
the tuples of one (J, L), multinomial(j) is the coefficient of y ** L in
P(y) ** J, P(y) = sum_p y ** a_p.  So the total is a sum of layers

  multinomial(x) * sum over J of (-1) ** J * C(X + J, X) *
      sum over L of [y ** L] P ** J * w_J(free - L)

with free = t - sum a_p x_p and w_J(g) = q ** g * C(X + J + g, g), the
coefficient of z ** g in (1 - q z) ** -(X + J + 1).  That is
O(t ** 2 / a_min) (J, L) terms whatever d is.  Within a layer L runs
over J * a_min .. J * a_max, cut at free, so g runs over consecutive
values, and w_J(g + 1) = w_J(g) * q * (X + J + g + 1) / (g + 1) exactly:
each layer computes one power of q and one ``multichoose``, at its
smallest g, and reaches every other term by one small-ratio step.  A
layer with one L, as every layer of a one-pattern or equal-length
instance has, takes no step.  ``per_tuple_terms`` evaluates the
summation tuple by tuple; it is the reference, run only when a
breakdown's ``terms`` are read, and that read checks its sum against the
total.  It and ``count --breakdown`` first pass ``require_listable``,
the one bound on a breakdown's size.

The arithmetic sees pattern lengths only.  Whether it is the *right*
arithmetic for an instance depends on the patterns having no borders and
no cross overlaps; ``count_multi`` checks that through
``require_applicable``.  ``count_single`` is its one-pattern case, run on
a borderless stand-in pattern of the requested length.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from math import comb, floor, log10
from typing import Iterator, Sequence

from .combinatorics import binomial, multichoose, multinomial
from .core import (
    BudgetExceededError,
    CountBreakdown,
    NotApplicableError,
    PatternSpec,
    ProblemInstance,
    require_int,
    validate_instance,
)

# most cells a breakdown lists: per tuple, d indices and the digits of q ** t
BREAKDOWN_CELL_CAP = 10**7


def count_single(
    alphabet_size: int,
    word_length: int,
    pattern_length: int,
    required_count: int,
) -> CountBreakdown:
    """Count words containing one borderless pattern exactly
    ``required_count`` times.

    The one-pattern case of ``count_multi``: the sum sees pattern lengths
    only, so any borderless pattern of the given length stands in.  The
    breakdown carries one signed term per copy count from
    ``required_count`` up to ``word_length // pattern_length``; an empty
    range yields total 0.
    """
    require_int("pattern_length", pattern_length, 1)
    pattern = (0,) + (1,) * (pattern_length - 1)
    return count_multi(
        ProblemInstance.from_pairs(alphabet_size, word_length, [(pattern, required_count)])
    )


def count_multi(instance: ProblemInstance) -> CountBreakdown:
    """Count words meeting every pattern requirement of ``instance``.

    Validates applicability first and raises ``NotApplicableError``
    (carrying the report) when any pattern self-intersects or any pair of
    distinct patterns can overlap.  An infeasible instance, where the
    required copies cannot all fit, yields total 0 with no terms.

    The total comes from the (J, L) sum.  The breakdown's ``terms`` are
    the per-tuple summation, evaluated on first read and checked against
    the total.
    """
    require_applicable(instance)
    return CountBreakdown(_collapsed_total(instance), per_tuple_terms, (instance,))


def require_applicable(instance: ProblemInstance) -> None:
    """Raise ``NotApplicableError``, carrying the report, unless the closed
    form applies to ``instance``: no pattern self-intersects and no two
    distinct patterns can overlap.  The one applicability gate: the count
    and the CLI both pass through it."""
    report = validate_instance(instance)
    if not report.is_formula_applicable:
        raise NotApplicableError(report)


def require_listable(instance: ProblemInstance) -> None:
    """Raise ``BudgetExceededError`` when the breakdown of ``instance``
    lists more than ``BREAKDOWN_CELL_CAP`` cells, its copy-count tuples
    times (d + the decimal digits of q ** t), or ``NotApplicableError`` in
    its place when the closed form does not apply."""
    d = len(instance.specs)
    digits = _decimal_digits(instance.alphabet_size, instance.word_length)
    limit = BREAKDOWN_CELL_CAP // (d + digits)
    if _copy_count_tuples(instance, limit) > limit:
        require_applicable(instance)
        raise BudgetExceededError(
            f"breakdown refused: more than {limit} copy-count tuples of {d + digits} "
            f"cells each (d = {d} indices and the {digits} decimal digits of q ** t), "
            f"past the cap of {BREAKDOWN_CELL_CAP} cells"
        )


def _copy_count_tuples(instance: ProblemInstance, cap: int) -> int:
    """How many copy-count tuples a breakdown of ``instance`` lists,
    counted no further than cap + 1."""
    return sum(1 for _ in islice(iter_copy_counts(instance.word_length, instance.specs), cap + 1))


def _decimal_digits(q: int, t: int) -> int:
    """Decimal digits of q ** t, from t * log10(q) (float rounding aside)."""
    return floor(t * log10(q)) + 1


def _collapsed_total(instance: ProblemInstance) -> int:
    """The summation over copy-count tuples, grouped by (J, L) as the
    module docstring derives, one layer J at a time.

    ``power`` holds [y ** L] P(y) ** J for L from J * a_min up to
    J * a_max, cut at the free length: the positions left once the
    required copies are placed.  Layer J is the sum over its L of that
    coefficient times the fill weight w(g) = q ** g * C(X + J + g, g),
    g = free - L.  The weight is computed once, at the layer's smallest
    g, and stepped exactly, w(g + 1) = w(g) * q * (X + J + g + 1) // (g + 1),
    towards smaller L, and never past the layer's last entry.
    """
    q = instance.alphabet_size
    required = instance.required_counts
    required_total = sum(required)
    free = instance.word_length - instance.minimum_occupancy
    if free < 0:
        return 0
    shortest = min(instance.pattern_lengths)
    # P(y) / y ** a_min as (exponent, patterns of that length) pairs
    offsets = [(a - shortest, n) for a, n in Counter(instance.pattern_lengths).items()]
    spread = max(instance.pattern_lengths) - shortest

    total = 0
    power = [1]
    lowest = 0  # J * a_min, the L of power[0]
    extra_copies = 0  # J
    while power:
        placed = required_total + extra_copies
        unoccupied = free - lowest - len(power) + 1
        weight = q**unoccupied * multichoose(placed + 1, unoccupied)
        row = power[-1] * weight
        for coefficient in power[-2::-1]:
            unoccupied += 1
            weight = weight * (q * (placed + unoccupied)) // unoccupied
            if coefficient:
                row += coefficient * weight
        row *= binomial(placed, required_total)
        total += -row if extra_copies % 2 else row
        lowest += shortest
        following = [0] * min(len(power) + spread, free - lowest + 1)
        for index, coefficient in enumerate(power):
            if coefficient:
                for offset, patterns in offsets:
                    if index + offset < len(following):
                        following[index + offset] += coefficient * patterns
        power = following
        extra_copies += 1
    return multinomial(required) * total


def per_tuple_terms(instance: ProblemInstance) -> Iterator[tuple[tuple[int, ...], int]]:
    """The paper's summation, one signed term per feasible copy-count
    tuple in lexicographic order: the reference ``count_multi`` checks
    its total against when its terms are read.

    Evaluated with ``math.comb`` alone, so nothing it does passes through
    the combinatorics helpers the total is computed with.  Refuses through
    ``require_listable`` before the first term.
    """
    require_listable(instance)
    q, t = instance.alphabet_size, instance.word_length
    lengths = instance.pattern_lengths
    required = instance.required_counts
    required_total = sum(required)
    for copies in iter_copy_counts(t, instance.specs):
        copies_total = sum(copies)
        unoccupied = t - sum(a * i for a, i in zip(lengths, copies))
        value = q**unoccupied * comb(copies_total + unoccupied, unoccupied)
        placed = 0
        for i, x in zip(copies, required):
            placed += i
            value *= comb(placed, i) * comb(i, x)
        if (copies_total - required_total) % 2:
            value = -value
        yield copies, value


def iter_copy_counts(
    word_length: int, specs: Sequence[PatternSpec]
) -> Iterator[tuple[int, ...]]:
    """Yield every feasible copy-count tuple in lexicographic order.

    A tuple (i_1 .. i_d) is feasible when each i_p is at least the
    required count of pattern p and the copies fit, i.e. the sum of
    length_p * i_p is at most ``word_length``.  The sequence is finite and
    may be empty.

    Each step is an odometer's: one more copy at the last position with
    room, every later position back at its minimum.  The positions above
    their minimum are kept on a stack: while the free length is below the
    shortest pattern no position at its minimum has room, so the walk
    goes straight to the last raised one.
    """
    if not specs:
        raise ValueError("specs must be nonempty")
    lengths = [spec.pattern.length for spec in specs]
    minimums = [spec.required_count for spec in specs]
    shortest = min(lengths)
    copies = list(minimums)  # the first tuple: every count at its minimum
    raised: list[int] = []  # the positions above their minimum, in increasing order
    free = word_length - sum(a * i for a, i in zip(lengths, copies))
    while free >= 0:
        yield tuple(copies)
        position = len(copies) - 1
        while position >= 0 and lengths[position] > free:
            if free < shortest:
                # no position has room until a raised one goes back
                if not raised:
                    return
                position = raised[-1]
            if raised and raised[-1] == position:
                raised.pop()
                free += lengths[position] * (copies[position] - minimums[position])
                copies[position] = minimums[position]
            position -= 1
        if position < 0:
            return
        copies[position] += 1
        free -= lengths[position]
        if not raised or raised[-1] != position:
            raised.append(position)
