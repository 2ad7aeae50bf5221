"""Brute-force ground truth: enumerate every word and count matches.

Nothing here is clever on purpose.  Every other counting path in the
package is checked against this module, so it favors being obviously
correct over being fast.  A depth-first walk extends a prefix a symbol
at a time and compares the word's last len(p) symbols with each pattern
p at each new position, so every start position of every word is
checked against the definition, with no automaton and no pruning.  The
walk keeps its own stack of prefixes, so no word is too long for it.

The guard, ``DEFAULT_GUARD``, is a word-count budget, not a time
budget, so refusal is deterministic and machine independent.  The walk
reads it when it runs, as ``core.require_budget`` reads the step budget.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from .core import BudgetExceededError, ProblemInstance, decimal_string

# most words the walk enumerates before it refuses
DEFAULT_GUARD = 10**8


def enumerate_count(instance: ProblemInstance) -> int:
    """Exact number of words whose occurrence counts all match, read from
    the occurrence-profile histogram of every word of the instance's length.

    Accepts any pattern set, including self-intersecting and overlapping
    ones; this is the semantic ground truth.  Refuses instances with more
    than ``DEFAULT_GUARD`` words, which signals the caller to use the
    automaton oracle instead.
    """
    q, t = instance.alphabet_size, instance.word_length
    histogram = occurrence_profile_counts(q, t, instance.patterns)
    return histogram.get(instance.required_counts, 0)


def occurrence_profile_counts(
    alphabet_size: int, word_length: int, patterns: Sequence
) -> dict[tuple[int, ...], int]:
    """Histogram of per-pattern occurrence profiles over all words.

    The value at profile (c_1 .. c_d) is the number of words in which
    pattern p occurs exactly c_p times for every p.  The profiles
    partition the word set, so the values sum to alphabet_size ** word_length.
    Each entry equals ``enumerate_count`` for the corresponding instance.
    Sizes and patterns are checked as ``ProblemInstance`` checks them, so
    an empty pattern list, an empty pattern, a symbol outside the alphabet
    or a repeated pattern raises ValueError.  More than ``DEFAULT_GUARD``
    words raise ``BudgetExceededError``.
    """
    instance = ProblemInstance(alphabet_size, word_length, [(p, 0) for p in patterns])
    # Multiply one symbol at a time and stop once past the guard: the full
    # power q**t of a huge word length would take seconds just to compute.
    # The guard is checked before the first symbol too: t = 0 has one word.
    words = 1
    for _ in range(word_length + 1):
        if words > DEFAULT_GUARD:
            raise BudgetExceededError(
                f"enumeration refused: {decimal_string(alphabet_size)}**"
                f"{decimal_string(word_length)} words exceed the guard of "
                f"{decimal_string(DEFAULT_GUARD)}"
            )
        words *= alphabet_size
    # word[start:] is the word's last len(pattern) symbols
    windows = [(pattern, -len(pattern)) for pattern in instance.patterns]
    histogram: dict[tuple[int, ...], int] = {}
    stack = [((), (0,) * len(windows))]
    while stack:
        prefix, counts = stack.pop()
        if len(prefix) == word_length:
            histogram[counts] = histogram.get(counts, 0) + 1
            continue
        for symbol in range(alphabet_size):
            word = prefix + (symbol,)
            ended = [word[start:] == pattern for pattern, start in windows]
            stack.append((word, tuple(map(add, counts, ended)) if True in ended else counts))
    return histogram
