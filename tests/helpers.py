"""Shared generators and reference helpers for the test suite."""

import itertools
from typing import Sequence


def all_patterns(alphabet_size: int, max_length: int) -> list[tuple[int, ...]]:
    """Every pattern of length 1..max_length over range(alphabet_size),
    shortest first, lexicographic within a length."""
    out = []
    for length in range(1, max_length + 1):
        out.extend(itertools.product(range(alphabet_size), repeat=length))
    return out


def naive_border_lengths(seq) -> frozenset[int]:
    """Lengths of the proper borders of ``seq``: each k, 0 < k < len(seq),
    whose k-prefix equals its k-suffix, found by slicing."""
    seq = tuple(seq)
    return frozenset(
        k for k in range(1, len(seq)) if seq[:k] == seq[len(seq) - k :]
    )


def agrees_at_shift(a, b, shift) -> bool:
    """Whether b, placed ``shift`` positions after the start of a, matches
    a symbol by symbol on every position the two share."""
    lo = max(0, shift)
    hi = min(len(a), shift + len(b))
    return all(a[i] == b[i - shift] for i in range(lo, hi))


def shift_witness_overlap(a, b) -> bool:
    """Overlap oracle: try every relative placement of the two patterns
    and test whether they agree on the shared positions.  A shift where
    they agree yields a word containing both with a common position."""
    a, b = tuple(a), tuple(b)
    return any(agrees_at_shift(a, b, shift) for shift in range(-(len(b) - 1), len(a)))


def borderless_patterns(alphabet_size: int, max_length: int) -> list[tuple[int, ...]]:
    """Every pattern of ``all_patterns`` with no proper border."""
    return [p for p in all_patterns(alphabet_size, max_length) if not naive_border_lengths(p)]


def independent_pattern_pairs(alphabet_size: int, max_length: int):
    """Unordered pairs of distinct borderless patterns that cannot overlap."""
    pool = borderless_patterns(alphabet_size, max_length)
    for a, b in itertools.combinations(pool, 2):
        if not shift_witness_overlap(a, b):
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
