"""Brute-force ground truth: enumerate every word and count matches.

Nothing here is clever on purpose.  Every other counting path in the
package is checked against this module, so it favors being obviously
correct over being fast.  A depth-first walk extends a prefix a symbol
at a time and compares the word's last len(p) symbols with each pattern
p at each new position, so every start position of every word is
checked against the definition, with no automaton and no pruning.

The guard is a word-count budget, not a time budget, so refusal is
deterministic and machine independent.
"""

from __future__ import annotations

import sys
from operator import add
from typing import Sequence

from .core import BudgetExceededError, ProblemInstance

DEFAULT_GUARD = 10**8


def count_occurrences(word: Sequence, pattern: Sequence) -> int:
    """Occurrences of ``pattern`` in ``word`` at every start position,
    overlapping occurrences included."""
    target = tuple(getattr(pattern, "symbols", pattern))
    if not target:
        raise ValueError("pattern must be nonempty")
    text = tuple(word)
    window = len(target)
    return sum(
        1 for start in range(len(text) - window + 1) if text[start : start + window] == target
    )


def enumerate_count(instance: ProblemInstance, guard: int = DEFAULT_GUARD) -> int:
    """Exact number of words whose occurrence counts all match, read from
    the occurrence-profile histogram of every word of the instance's length.

    Accepts any pattern set, including self-intersecting and overlapping
    ones; this is the semantic ground truth.  Refuses instances with more
    than ``guard`` words, or words too long for the recursion limit, which
    signals the caller to use the automaton oracle instead.
    """
    q, t = instance.alphabet_size, instance.word_length
    histogram = occurrence_profile_counts(q, t, instance.patterns, guard)
    return histogram.get(instance.required_counts, 0)


def occurrence_profile_counts(
    alphabet_size: int, word_length: int, patterns: Sequence, guard: int = DEFAULT_GUARD
) -> dict[tuple[int, ...], int]:
    """Histogram of per-pattern occurrence profiles over all words.

    The value at profile (c_1 .. c_d) is the number of words in which
    pattern p occurs exactly c_p times for every p.  The profiles
    partition the word set, so the values sum to alphabet_size ** word_length.
    Each entry equals ``enumerate_count`` for the corresponding instance.
    Sizes and patterns are checked as ``ProblemInstance`` checks them, so
    an empty pattern list, an empty pattern, a symbol outside the alphabet
    or a repeated pattern raises ValueError.
    """
    pairs = [(getattr(p, "symbols", p), 0) for p in patterns]
    instance = ProblemInstance.from_pairs(alphabet_size, word_length, pairs)
    # Multiply one symbol at a time and stop once past the guard: the full
    # power q**t of a huge word length would take seconds just to compute.
    # The guard is checked before the first symbol too: t = 0 has one word.
    words = 1
    for _ in range(word_length + 1):
        if words > guard:
            raise BudgetExceededError(
                f"enumeration refused: {alphabet_size}**{word_length} words exceed "
                f"the guard of {guard}"
            )
        words *= alphabet_size
    # extend recurses once per symbol on top of the frames already on the
    # stack.  C calls between those frames count against the recursion limit
    # too, and the frames do not show them, so keep 50 levels spare.
    depth, frame = word_length + 50, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    if depth > sys.getrecursionlimit():
        raise BudgetExceededError(
            f"enumeration refused: a word length of {word_length} needs more nested "
            f"calls than the recursion limit of {sys.getrecursionlimit()} allows"
        )
    # word[start:] is the word's last len(pattern) symbols
    windows = [(pattern.symbols, -pattern.length) for pattern in instance.patterns]
    histogram: dict[tuple[int, ...], int] = {}

    def extend(prefix: tuple[int, ...], counts: tuple[int, ...]) -> None:
        last = len(prefix) + 1 == word_length
        for symbol in range(alphabet_size):
            word = prefix + (symbol,)
            ended = [word[start:] == pattern for pattern, start in windows]
            counts_here = tuple(map(add, counts, ended)) if True in ended else counts
            if last:
                histogram[counts_here] = histogram.get(counts_here, 0) + 1
            else:
                extend(word, counts_here)

    if word_length == 0:
        return {(0,) * len(windows): 1}
    extend((), (0,) * len(windows))
    return histogram
