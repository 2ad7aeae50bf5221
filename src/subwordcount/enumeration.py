"""Brute-force ground truth: enumerate every word and count matches.

Nothing here is clever on purpose.  Every other counting path in the
package is checked against this module, so it favors being obviously
correct over being fast.  Words are generated as odometer sequences over
symbol indices; no word set is ever materialized.

The guard is a word-count budget, not a time budget, so refusal is
deterministic and machine independent.
"""

from __future__ import annotations

import itertools
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


def _check_guard(alphabet_size: int, word_length: int, guard: int) -> None:
    # Multiply one symbol at a time and stop once past the guard: the full
    # power q**t of a huge word length would take seconds just to compute.
    words = 1
    for _ in range(word_length):
        words *= alphabet_size
        if words > guard:
            raise BudgetExceededError(
                f"enumeration refused: {alphabet_size}**{word_length} words exceed "
                f"the guard of {guard}"
            )


def enumerate_count(instance: ProblemInstance, guard: int = DEFAULT_GUARD) -> int:
    """Exact number of words whose occurrence counts all match, found by
    checking every word of the instance's length.

    Accepts any pattern set, including self-intersecting and overlapping
    ones; this is the semantic ground truth.  Refuses instances with more
    than ``guard`` words, which signals the caller to use the automaton
    oracle instead.
    """
    _check_guard(instance.alphabet_size, instance.word_length, guard)
    patterns = [spec.pattern.symbols for spec in instance.specs]
    required = [spec.required_count for spec in instance.specs]
    matched = 0
    for word in itertools.product(range(instance.alphabet_size), repeat=instance.word_length):
        for pattern, want in zip(patterns, required):
            if count_occurrences(word, pattern) != want:
                break
        else:
            matched += 1
    return matched


def occurrence_profile_counts(
    alphabet_size: int,
    word_length: int,
    patterns: Sequence,
    guard: int = DEFAULT_GUARD,
) -> dict[tuple[int, ...], int]:
    """Histogram of per-pattern occurrence profiles over all words.

    The value at profile (c_1 .. c_d) is the number of words in which
    pattern p occurs exactly c_p times for every p.  The profiles
    partition the word set, so the values sum to alphabet_size ** word_length.
    Each entry equals ``enumerate_count`` for the corresponding instance;
    computing them in one sweep just shares the enumeration.  Sizes and
    patterns are checked as ``ProblemInstance`` checks them, so an empty
    pattern list, an empty pattern, a symbol outside the alphabet or a
    repeated pattern raises ValueError.
    """
    instance = ProblemInstance.from_pairs(
        alphabet_size, word_length, [(getattr(p, "symbols", p), 0) for p in patterns]
    )
    _check_guard(alphabet_size, word_length, guard)
    targets = [pattern.symbols for pattern in instance.patterns]
    histogram: dict[tuple[int, ...], int] = {}
    for word in itertools.product(range(alphabet_size), repeat=word_length):
        profile = tuple(count_occurrences(word, target) for target in targets)
        histogram[profile] = histogram.get(profile, 0) + 1
    return histogram
