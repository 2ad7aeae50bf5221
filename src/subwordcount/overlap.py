"""Border structure of patterns and overlap compatibility between them.

A border of a word is a proper nonempty prefix that is also a suffix.  A
pattern with a border can overlap a shifted copy of itself, and a pair of
patterns that can share a word position breaks the occupancy bookkeeping
the closed-form counts rely on.  The checks here are the gatekeepers for
formula applicability.

Everything here runs on one failure function per pattern (the
Knuth-Morris-Pratt table; Knuth, Morris & Pratt 1977), linear in the
pattern length.  Borders are the chain of its values.  Two patterns
overlap when some relative placement agrees on every position they
share: ``_reads_into`` scans each pattern through the other's failure
function, as the KMP matcher does, so an overlap check is linear in the
two lengths.  ``core.validate_instance`` computes each pattern's failure
function once and reuses it for every pair.

All functions accept any sequence whose elements compare by equality,
so tests can use strings directly.
"""

from __future__ import annotations

from typing import Sequence


def _symbols(pattern) -> tuple:
    symbols = tuple(pattern)
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


def border_profile(pattern) -> frozenset[int]:
    """Every k with 0 < k < len(pattern) such that the length-k prefix
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
    return frozenset(lengths)


def is_self_intersecting(pattern) -> bool:
    """True when the pattern has any proper nonempty border, that is when
    its longest border is nonempty."""
    return _failure_function(_symbols(pattern))[-1] > 0


def _reads_into(y: Sequence, fail_y: Sequence[int], x: Sequence) -> bool:
    """True when y occurs in x, or a nonempty suffix of x is a prefix of y.

    Scans x once through y's failure function ``fail_y``: after each
    symbol, k is the longest suffix read so far that is a prefix of y.
    """
    k, n = 0, len(y)
    for s in x:
        while k and s != y[k]:
            k = fail_y[k - 1]
        if s == y[k]:
            k += 1
            if k == n:
                return True
    return k > 0


def can_overlap(first, second) -> bool:
    """True when occurrences of the two patterns can share a word position.

    That is when one pattern contains the other or a proper suffix of
    either equals a prefix of the other: each pattern is read into the
    other through ``_reads_into``.  Symmetric in its arguments.  A pattern
    overlaps itself.
    """
    a = _symbols(first)
    b = _symbols(second)
    return _reads_into(b, _failure_function(b), a) or _reads_into(a, _failure_function(a), b)
