"""Closed-form counts of words containing patterns exact numbers of times.

One engine, ``count_multi``, evaluates a finite signed summation over
feasible copy-count tuples.  The term for copy counts (i_1 .. i_d) places
that many copies of each pattern and multiplies

  * q ** g ways to fill the g unoccupied positions, where g is the word
    length minus the positions the copies occupy,
  * the multiset coefficient assigning those g positions to the gaps
    around the placed copies (i_1 + .. + i_d copies leave that many
    gaps plus one),
  * one binomial per pattern choosing which copies are the required ones,
  * the multinomial interleaving copies of distinct patterns,

with sign (-1) ** (total copies - total required copies), which makes the
leading term positive and the signed sum collapse to the exact count.

The arithmetic sees pattern lengths only.  Whether it is the *right*
arithmetic for an instance depends on the patterns having no borders and
no cross overlaps; ``count_multi`` checks that through
``validate_instance``.  ``count_single`` is its one-pattern case, run on
a borderless stand-in pattern of the requested length.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .combinatorics import binomial, multichoose, multinomial
from .core import (
    CountBreakdown,
    NotApplicableError,
    PatternSpec,
    ProblemInstance,
    require_int,
    validate_instance,
)


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
    """
    report = validate_instance(instance)
    if not report.is_formula_applicable:
        raise NotApplicableError(report)

    lengths = instance.pattern_lengths
    required = instance.required_counts
    required_total = sum(required)

    terms = []
    for copies in iter_copy_counts(instance.word_length, instance.specs):
        copies_total = sum(copies)
        unoccupied = instance.word_length - sum(
            a * i for a, i in zip(lengths, copies)
        )
        value = (
            instance.alphabet_size**unoccupied
            * multichoose(copies_total + 1, unoccupied)
            * multinomial(copies)
        )
        for i, x in zip(copies, required):
            value *= binomial(i, i - x)
        if (copies_total - required_total) % 2:
            value = -value
        terms.append((copies, value))
    return CountBreakdown.from_terms(terms)


def iter_copy_counts(
    word_length: int, specs: Sequence[PatternSpec]
) -> Iterator[tuple[int, ...]]:
    """Yield every feasible copy-count tuple in lexicographic order.

    A tuple (i_1 .. i_d) is feasible when each i_p is at least the
    required count of pattern p and the copies fit, i.e. the sum of
    length_p * i_p is at most ``word_length``.  The sequence is finite and
    may be empty.
    """
    if not specs:
        raise ValueError("specs must be nonempty")
    lengths = [spec.pattern.length for spec in specs]
    minimums = [spec.required_count for spec in specs]

    def walk(position: int, remaining: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if position == len(lengths):
            yield tuple(prefix)
            return
        length = lengths[position]
        for copies in range(minimums[position], remaining // length + 1):
            prefix.append(copies)
            yield from walk(position + 1, remaining - length * copies, prefix)
            prefix.pop()

    yield from walk(0, word_length, [])
