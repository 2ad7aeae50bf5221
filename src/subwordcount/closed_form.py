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
``count_multi``, never walks them.  Summed, the tuples give one
coefficient of a rational function (the Goulden-Jackson cluster series
with one-copy clusters; Goulden & Jackson 1979, Noonan & Zeilberger 1999):

  count = multinomial(x) * [z ** free] D(z) ** -(X + 1),
  D(z) = 1 - q z + P(z),  P(z) = sum_p z ** a_p,

with x_p the required counts, X = sum x_p, a_p the pattern lengths and
free = t - sum a_p x_p.  ``count_multi`` evaluates it one of two ways,
picked by how many distinct pattern lengths the instance has:

  * mixed lengths: the coefficient recurrence.  F = D ** -(X + 1) has
    D F' = -(X + 1) D' F, so n F_n = -sum_k D_k (n + X k) F_(n - k), with
    every division exact.  That is free * (distinct lengths + 1)
    big-by-small products, whatever d is, over a window of the last
    max(a_p) coefficients.
  * one length a: the layer sum.  Writing i_p = x_p + j_p, the tuples with
    J = sum j_p share one term, so the count is
    multinomial(x) * sum over J of (-d) ** J * C(X + J, X) * q ** g *
    C(X + J + g, g), g = free - a J: free // a + 1 terms.  Walked from the
    top layer down, g grows by a, so each term costs one product by
    q ** a, one exact division of the sign-and-scale (-d) ** J and two
    ``math.comb`` calls.

The layer sum has free / a terms against the recurrence's free steps, so
it wins on long patterns and loses on short ones.  At q = 4, t = 4000,
x = 2 (x86_64, CPython 3.11) one length-3 pattern takes 60 ms by the
layer sum and 5.1 ms by the recurrence, a length-9 one about 5.2 ms by
either, and a length-200 one 0.04 ms against 4.4 ms.  With mixed lengths
the layer sum would need every L = sum a_p j_p of a layer, up to
J (a_max - a_min) + 1 terms, so it is quadratic in t: lengths 3 and 4 at
q = 4, t = 4000 took 1.9 s that way and take 7 ms by the recurrence.
Two long, nearly equal lengths are the one mixed shape measured slower:
(50, 51) took 4.0 ms by the layer sum and take 6.4 ms.  Short one-length
patterns still take the layer sum, though the recurrence is faster there.
``per_tuple_terms`` evaluates the summation tuple by tuple; it is the
reference, run only when a breakdown's ``terms`` are read, and that read
checks its sum against the total.  It and ``count --breakdown`` first
pass ``require_listable``, the one bound on a breakdown's size.

The arithmetic sees pattern lengths only.  Whether it is the *right*
arithmetic for an instance depends on the patterns having no borders and
no cross overlaps; ``count_multi`` checks that through
``require_applicable``.  ``count_single`` is its one-pattern case, run on
a borderless stand-in pattern of the requested length.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import islice
from math import comb, floor, log10
from typing import Iterator, Sequence

# binomial and multichoose are not called here; the timing harness's tracer
# wraps closed_form.binomial and closed_form.multichoose (its FOLDED table)
from .combinatorics import binomial, multichoose, multinomial  # noqa: F401
from .core import (
    BudgetExceededError,
    CountBreakdown,
    NotApplicableError,
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

    The total is multinomial(x) * [z ** free] (1 - q z + P(z)) ** -(X + 1),
    the module docstring's identity.  An instance with more than one
    distinct pattern length takes the O(free) coefficient recurrence; one
    whose patterns share one length a takes the layer sum of free // a + 1
    terms, faster from about a = 9 on and slower below (the module
    docstring gives the timings).  The breakdown's ``terms`` are the
    per-tuple summation, evaluated on first read and checked against the
    total.
    """
    require_applicable(instance)
    one_length = len(set(instance.pattern_lengths)) == 1
    total = _collapsed_total(instance) if one_length else _recurrence_total(instance)
    return CountBreakdown(total, per_tuple_terms, (instance,))


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
        if limit:
            what = f"more than {limit} copy-count tuples of {d + digits} cells each"
        else:
            what = f"one copy-count tuple alone lists {d + digits} cells"
        raise BudgetExceededError(
            f"breakdown refused: {what} (d = {d} indices and the {digits} decimal "
            f"digits of q ** t), past the cap of {BREAKDOWN_CELL_CAP} cells"
        )


def _copy_count_tuples(instance: ProblemInstance, cap: int) -> int:
    """How many copy-count tuples a breakdown of ``instance`` lists,
    counted no further than cap + 1."""
    return sum(1 for _ in islice(iter_copy_counts(instance.word_length, instance.specs), cap + 1))


def _decimal_digits(q: int, t: int) -> int:
    """Decimal digits of q ** t, from t * log10(q) (float rounding aside)."""
    return floor(t * log10(q)) + 1


def _collapsed_total(instance: ProblemInstance) -> int:
    """The summation over copy-count tuples of an instance whose patterns
    all have one length a, one layer J at a time.

    With d patterns, [y ** (a J)] P(y) ** J = d ** J, so layer J is the one
    term (-1) ** J * d ** J * C(X + J, X) * q ** g * C(X + J + g, g),
    g = free - a J, for J from 0 to free // a.

    The layers run from J = free // a down to 0, so g grows by a at each
    step: q ** g is one product by q ** a and (-d) ** J one exact division
    by -d, and each layer takes its two binomials from ``math.comb``.
    """
    free = instance.word_length - instance.minimum_occupancy
    if free < 0:
        return 0
    q = instance.alphabet_size
    required = instance.required_counts
    required_total = sum(required)
    length = instance.pattern_lengths[0]
    d = len(required)
    top = free // length
    power = q ** (free - length * top)  # q ** g, g growing by a as J falls
    step = q**length
    scale = (-d) ** top  # (-d) ** J
    total = 0
    for extra_copies in range(top, -1, -1):
        unoccupied = free - length * extra_copies
        placed = required_total + extra_copies
        weight = power * comb(placed + unoccupied, unoccupied)
        total += weight * (scale * comb(placed, required_total))
        if extra_copies:
            power *= step
            scale //= -d
    return multinomial(required) * total


def _recurrence_total(instance: ProblemInstance) -> int:
    """multinomial(x) * [z ** free] D(z) ** -(X + 1), D = 1 - q z + P(z),
    by the coefficient recurrence the module docstring derives.

    Keeps a window of the last max(a_p) coefficients, not all of them, and
    makes free * (distinct lengths + 1) big-by-small products; every
    division is exact.
    """
    free = instance.word_length - instance.minimum_occupancy
    if free < 0:
        return 0
    lengths = instance.pattern_lengths
    required_total = sum(instance.required_counts)
    denominator = Counter(lengths)  # D_k for k >= 1
    denominator[1] -= instance.alphabet_size
    steps = list(denominator.items())
    width = max(lengths)
    # F_{n - width} .. F_{n - 1}, coefficients below z ** 0 being 0
    window = deque([0] * (width - 1) + [1], maxlen=width)
    for n in range(1, free + 1):
        weighted = 0
        for k, d_k in steps:
            weighted += d_k * (n + required_total * k) * window[-k]
        window.append(-weighted // n)
    return multinomial(instance.required_counts) * window[-1]


def per_tuple_terms(instance: ProblemInstance) -> Iterator[tuple[tuple[int, ...], int]]:
    """The paper's summation, one signed term per feasible copy-count
    tuple in lexicographic order: the reference ``count_multi`` checks
    its total against when its terms are read.

    Evaluated with ``math.comb`` alone, term by term, so it shares no loop
    with the evaluators the total is computed with.  Refuses through
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
    word_length: int, specs: Sequence[tuple[Sequence[int], int]]
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
    lengths = [len(pattern) for pattern, _ in specs]
    minimums = [count for _, count in specs]
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
