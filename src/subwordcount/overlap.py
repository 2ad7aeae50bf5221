"""Border structure of patterns and overlap compatibility between them.

A border of a word is a proper nonempty prefix that is also a suffix.  A
pattern with a border can overlap a shifted copy of itself, and a pair of
patterns that can share a word position breaks the occupancy bookkeeping
the closed-form counts rely on.  The checks here are the gatekeepers for
formula applicability.

Borders come from one failure-function pass, linear in the pattern
length.  Two patterns overlap when some relative placement agrees on
every position they share, and ``can_overlap`` tries each placement, so
it compares at most len(first) * len(second) symbol pairs.

All functions accept either a ``core.Pattern`` or any plain sequence whose
elements compare by equality, so tests can use strings directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class BorderProfile:
    """All proper nonempty border lengths of one pattern."""

    pattern_length: int
    border_lengths: frozenset[int]


def _symbols(pattern) -> tuple:
    symbols = tuple(getattr(pattern, "symbols", pattern))
    if not symbols:
        raise ValueError("pattern must be nonempty")
    return symbols


def _failure_function(seq: Sequence) -> list[int]:
    """fail[i] = length of the longest proper border of seq[:i + 1]."""
    fail = [0] * len(seq)
    k = 0
    for i in range(1, len(seq)):
        while k > 0 and seq[i] != seq[k]:
            k = fail[k - 1]
        if seq[i] == seq[k]:
            k += 1
        fail[i] = k
    return fail


def border_profile(pattern) -> BorderProfile:
    """Find every k with 0 < k < len(pattern) such that the length-k prefix
    equals the length-k suffix.

    One failure-function pass; the border lengths are the chain of failure
    values starting from the whole pattern.
    """
    seq = _symbols(pattern)
    fail = _failure_function(seq)
    lengths = set()
    k = fail[-1]
    while k > 0:
        lengths.add(k)
        k = fail[k - 1]
    return BorderProfile(len(seq), frozenset(lengths))


def is_self_intersecting(pattern) -> bool:
    """True when the pattern has any proper nonempty border."""
    return bool(border_profile(pattern).border_lengths)


def can_overlap(first, second) -> bool:
    """True when occurrences of the two patterns can share a word position.

    Placing ``second`` at shift s against ``first`` shares the positions
    lo..hi-1 of ``first``, lo = max(0, s) and hi = min(len(first),
    s + len(second)); every s from 1 - len(second) to len(first) - 1
    shares at least one.  The two overlap when some shift agrees on all
    the positions it shares.  That covers one pattern containing the
    other and a proper suffix of either equalling a prefix of the other.
    Symmetric in its arguments.  A pattern overlaps itself at shift 0.
    """
    a = _symbols(first)
    b = _symbols(second)
    for shift in range(1 - len(b), len(a)):
        lo, hi = max(0, shift), min(len(a), shift + len(b))
        if a[lo:hi] == b[lo - shift : hi - shift]:
            return True
    return False
