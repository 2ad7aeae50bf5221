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
free = t - sum a_p x_p.  ``count_multi`` reads the instance, answers 0
when free < 0 and multiplies by multinomial(x), once each.  In between it
evaluates the bare coefficient [z ** free] D(z) ** -(X + 1) one of two
ways, picked by how many distinct pattern lengths the instance has; each
evaluator takes numbers, not an instance:

  * mixed lengths: the coefficient recurrence.  F = D ** -(X + 1) has
    D F' = -(X + 1) D' F, so with P_k the number of patterns of length k,
    n F_n = q (n + X) F_(n - 1) - sum_k P_k (n + X k) F_(n - k), with
    every division exact.  That is free * (distinct lengths + 1)
    big-by-small products, whatever d is, over a window of the last
    max(a_p) coefficients.
  * one length a: the layer sum.  Writing i_p = x_p + j_p, the tuples with
    J = sum j_p share one term, so the count is
    multinomial(x) * sum over J of (-d) ** J * C(X + J, X) * q ** g *
    C(X + J + g, g), g = free - a J: free // a + 1 terms.  Walked from
    J = 0 up, g falls by a, so the terms are summed by Horner's rule in
    q ** a: each layer multiplies the running sum by q ** a and adds its
    term, two ``math.comb`` calls times the sign-and-scale (-d) ** J,
    stepped by one product by -d.  No layer multiplies two big numbers;
    q ** (free mod a) multiplies the sum once at the end.

Each evaluator's work is known before it starts, so ``count_multi``
refuses with ``BudgetExceededError`` when it would pass
``DEFAULT_STEP_BUDGET`` steps.  Both engines refuse through one check,
``core.require_budget``, so the automaton oracle shares the budget and
its message.

The layer sum has free / a terms against the recurrence's free steps, so
it wins on long patterns and loses on short ones.  At q = 4, t = 4000,
x = 2 (x86_64, CPython 3.11, best of 5) one length-3 pattern takes 54 ms
by the layer sum and 4.5 ms by the recurrence, lengths 8 and 9 take 5.6
and 4.3 ms against 4.6 ms, and a length-200 one 0.03 ms against 3.8 ms.
With mixed lengths the layer sum would need every L = sum a_p j_p of a
layer, up to J (a_max - a_min) + 1 terms, so it is quadratic in t:
lengths 3 and 4 at q = 4, t = 4000 took 1.9 s that way and take 5.6 ms
by the recurrence.
Two long, nearly equal lengths are the one mixed shape measured slower:
(50, 51) took 4.0 ms by the layer sum and take 5.3 ms.  Short one-length
patterns still take the layer sum, though the recurrence is faster there.
``per_tuple_terms`` evaluates the summation tuple by tuple; it is the
reference, run only when a breakdown's ``terms`` are read, and that read
checks its sum against the total.  It and ``count --breakdown`` first
pass ``require_listable``, the one bound on a breakdown's size.

The arithmetic sees pattern lengths only.  Whether it is the *right*
arithmetic for an instance depends on the patterns having no borders and
no cross overlaps; ``count_multi`` checks that through
``require_applicable``.  ``count_single`` is its one-pattern case, run on
a borderless stand-in pattern of the requested length, or of one symbol
past the word when that is shorter.
"""

from __future__ import annotations

import decimal
from collections import deque
from math import comb
from typing import Iterator, Sequence

# binomial and multichoose are not called here; the timing harness's tracer
# wraps closed_form.binomial and closed_form.multichoose (its FOLDED table)
from .combinatorics import binomial, multichoose  # noqa: F401
from .core import (
    BudgetExceededError,
    CountBreakdown,
    NotApplicableError,
    ProblemInstance,
    decimal_string,
    require_budget,
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
    only, so any borderless pattern of the given length stands in.  One
    longer than the word occurs 0 times whatever its length, so the
    stand-in stops one symbol past the word.  The breakdown carries one
    signed term per copy count from ``required_count`` up to
    ``word_length // pattern_length``; an empty range yields total 0.
    """
    require_int("pattern_length", pattern_length, 1)
    require_int("word_length", word_length, 0)
    pattern = (0,) + (1,) * (min(pattern_length, word_length + 1) - 1)
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
    the module docstring's identity.  This function answers the infeasible
    zero and applies multinomial(x); an evaluator, run only when free >= 0,
    returns the bare coefficient.  An instance with more than one
    distinct pattern length takes the O(free) coefficient recurrence; one
    whose patterns share one length a takes the layer sum of free // a + 1
    terms, faster from about a = 9 on and slower below (the module
    docstring gives the timings).  Before either evaluator runs, raises
    ``BudgetExceededError`` when its steps, free // a + 1 layers or
    free * (distinct lengths + 1) products, pass ``DEFAULT_STEP_BUDGET``.
    The breakdown's ``terms`` are the per-tuple summation, evaluated on
    first read and checked against the total.
    """
    require_applicable(instance)
    free = instance.word_length - instance.minimum_occupancy
    if free < 0:
        return CountBreakdown(0, per_tuple_terms, (instance,))
    q = instance.alphabet_size
    lengths = instance.pattern_lengths
    distinct = len(set(lengths))
    required = instance.required_counts
    required_total = sum(required)
    if distinct == 1:
        require_budget("closed form refused: the layer sum", free // lengths[0] + 1)
        coefficient = _layer_sum(q, free, lengths[0], len(lengths), required_total)
    else:
        require_budget("closed form refused: the recurrence", free * (distinct + 1))
        coefficient = _recurrence(q, free, lengths, required_total)
    return CountBreakdown(multinomial(required) * coefficient, per_tuple_terms, (instance,))


def multinomial(parts: Sequence[int]) -> int:
    """(sum of parts)! / product(part!) via a telescoping binomial product.

    The telescoping form keeps every intermediate no larger than the final
    result, which matters when the parts are large.
    """
    if not parts:
        raise ValueError("parts must be nonempty")
    total = 0
    out = 1
    for part in parts:
        total += part
        out *= comb(total, part)
    return out


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
    t = instance.word_length
    # log10 q > 1/4, so from t = 4 * cap on the digits of q ** t alone pass
    # the cap: a feasible instance, which lists a tuple, is refused uncounted
    if t >= 4 * BREAKDOWN_CELL_CAP:
        if _copy_count_tuples(instance, 0):
            require_applicable(instance)
            raise BudgetExceededError(
                f"breakdown refused: one copy-count tuple alone lists the more than "
                f"{BREAKDOWN_CELL_CAP} decimal digits of q ** t at t = {decimal_string(t)}"
            )
        return
    digits = _decimal_digits(instance.alphabet_size, t)
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
    counted no further than cap + 1, without walking them.

    Writing i_p = x_p + j_p, the tuples are the j >= 0 with
    sum a_p j_p <= free, and their number is [z ** free] of
    1 / ((1 - z) prod_p (1 - z ** a_p)): one strided prefix-sum pass per
    pattern over free + 1 slots, each value capped at cap + 1.  The
    copies of the shortest pattern alone make free // min(a_p) + 1
    tuples, so past the cap that answers first and the slots number at
    most cap * min(a_p).
    """
    free = instance.word_length - instance.minimum_occupancy
    if free < 0:
        return 0
    lengths = instance.pattern_lengths
    if free // min(lengths) >= cap:
        return cap + 1
    counts = [1] * (free + 1)  # [z ** n] 1 / (1 - z)
    for length in lengths:
        for n in range(length, free + 1):
            counts[n] = min(counts[n] + counts[n - length], cap + 1)
    return counts[free]


def _decimal_digits(q: int, t: int) -> int:
    """Decimal digits of q ** t, floor(t * log10(q)) + 1, with no float.

    t * log10(q) is taken in ``decimal``, its precision doubled until it
    is exact, as it is when t is 0 or q a power of 10, or its fractional
    part is farther from 0 and 1 than its two roundings can move it.
    Since log10(q) is irrational otherwise, the loop ends.
    """
    with decimal.localcontext(decimal.Context(prec=20)) as context:
        while True:
            product = t * decimal.Decimal(q).log10()
            slack = product.scaleb(2 - context.prec)  # ten times both roundings
            if not (t and context.flags[decimal.Inexact]) or slack < product % 1 < 1 - slack:
                return int(product) + 1
            context.prec *= 2


def _layer_sum(q: int, free: int, length: int, d: int, required_total: int) -> int:
    """[z ** free] D(z) ** -(X + 1) for d patterns that all have one length
    a = ``length``, one layer J at a time; X is ``required_total`` and
    free >= 0.

    With d patterns, [y ** (a J)] P(y) ** J = d ** J, so layer J is the one
    term (-1) ** J * d ** J * C(X + J, X) * q ** g * C(X + J + g, g),
    g = free - a J, for J from 0 to free // a.

    The layers run upward from J = 0 to free // a and are summed by
    Horner's rule in q ** a, since g falls by a from one layer to the
    next; q ** (free mod a) multiplies the sum once at the end.  Each
    layer takes two ``math.comb`` calls and multiplies only by small
    numbers: the running sum by q ** a, the big binomial by the rest of
    its term, and the sign-and-scale (-d) ** J by -d, which for d = 1
    leaves it +1 or -1.
    """
    step = q**length
    scale = 1  # (-d) ** J
    total = 0
    for extra_copies in range(free // length + 1):
        unoccupied = free - length * extra_copies
        placed = required_total + extra_copies
        layer = comb(placed + unoccupied, unoccupied) * (scale * comb(placed, required_total))
        total = total * step + layer
        scale *= -d
    return q ** (free % length) * total


def _recurrence(q: int, free: int, lengths: Sequence[int], required_total: int) -> int:
    """[z ** free] D(z) ** -(X + 1), D = 1 - q z + P(z), X the
    ``required_total`` and free >= 0, by the coefficient recurrence the
    module docstring derives:
    n F_n = q (n + X) F_(n - 1) - sum_k P_k (n + X k) F_(n - k), P_k the
    number of patterns of length k.

    Keeps a window of the last max(a_p) coefficients, not all of them, and
    makes free * (distinct lengths + 1) big-by-small products: the
    alphabet's term once per step, then one per distinct length.  Every
    division is exact.
    """
    patterns_of_length: dict[int, int] = {}  # P_k
    for k in lengths:
        patterns_of_length[k] = patterns_of_length.get(k, 0) + 1
    # P_k (n + X k) F_(n - k) is (P_k n + P_k X k) * window[-k]
    steps = [(-k, p_k, p_k * required_total * k) for k, p_k in patterns_of_length.items()]
    width = max(lengths)
    # F_{n - width} .. F_{n - 1}, coefficients below z ** 0 being 0
    window = deque([0] * (width - 1) + [1], maxlen=width)
    for n in range(1, free + 1):
        weighted = q * (n + required_total) * window[-1]
        for back, p_k, p_k_x_k in steps:
            weighted -= (p_k * n + p_k_x_k) * window[back]
        window.append(weighted // n)
    return window[-1]


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

    Each step is an odometer's: every trailing position with no room goes
    back to its minimum, and the first position that fits takes one more
    copy.
    """
    if not specs:
        raise ValueError("iter_copy_counts needs at least one pattern")
    lengths = [len(pattern) for pattern, _ in specs]
    minimums = [count for _, count in specs]
    copies = list(minimums)  # the first tuple: every count at its minimum
    free = word_length - sum(a * i for a, i in zip(lengths, copies))
    while free >= 0:
        yield tuple(copies)
        position = len(copies) - 1
        while position >= 0 and lengths[position] > free:
            free += lengths[position] * (copies[position] - minimums[position])
            copies[position] = minimums[position]
            position -= 1
        if position < 0:
            return
        copies[position] += 1
        free -= lengths[position]
