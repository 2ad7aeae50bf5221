"""Shared generators and reference helpers for the test suite."""

import itertools
from typing import Sequence

from subwordcount.overlap import can_overlap, is_self_intersecting


def all_patterns(alphabet_size: int, max_length: int) -> list[tuple[int, ...]]:
    """Every pattern of length 1..max_length over range(alphabet_size),
    shortest first, lexicographic within a length."""
    out = []
    for length in range(1, max_length + 1):
        out.extend(itertools.product(range(alphabet_size), repeat=length))
    return out


def borderless_patterns(alphabet_size: int, max_length: int) -> list[tuple[int, ...]]:
    return [p for p in all_patterns(alphabet_size, max_length) if not is_self_intersecting(p)]


def independent_pattern_pairs(alphabet_size: int, max_length: int):
    """Unordered pairs of distinct borderless patterns that cannot overlap."""
    pool = borderless_patterns(alphabet_size, max_length)
    for a, b in itertools.combinations(pool, 2):
        if not can_overlap(a, b):
            yield a, b


def count_occurrences(word: Sequence, pattern: Sequence) -> int:
    """Occurrences of ``pattern`` in ``word`` at every start position,
    overlapping occurrences included."""
    target = tuple(pattern)
    if not target:
        raise ValueError("pattern must be nonempty")
    text = tuple(word)
    window = len(target)
    return sum(
        1 for start in range(len(text) - window + 1) if text[start : start + window] == target
    )
