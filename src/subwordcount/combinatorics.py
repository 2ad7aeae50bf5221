"""Exact binomial primitives on arbitrary-precision integers.

Nothing in the package calls them: the closed form takes its binomials
from ``math.comb`` and defines its own ``multinomial``.  ``closed_form``
imports both names only because the timing harness's tracer wraps
``closed_form.binomial`` and ``closed_form.multichoose`` (perfbench's
FOLDED table).  This module keeps only those pins and goes with them once
that harness reads only the public API (ROADMAP direction 7).

Out-of-range binomials are 0 rather than errors.  Everything returns
exact Python ints, never floats.
"""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multichoose(n: int, k: int) -> int:
    """Ways to distribute k indistinguishable items among n categories.

    Equals C(n + k - 1, k).  multichoose(n, 0) = 1 for every n >= 0, the
    empty assignment, and multichoose(0, k) = 0 for k > 0.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if k == 0:
        return 1
    if n == 0:
        return 0
    return math.comb(n + k - 1, k)

