"""Exact combinatorial primitives on arbitrary-precision integers.

Out-of-range binomials are 0 rather than errors.  The closed form passes
only in-range arguments; ``alternating_binomial_sum`` is the one caller
that relies on the convention, for its boundary terms.  Everything
returns exact Python ints, never floats.

The closed form calls ``multichoose`` and ``binomial`` once per copy-count
layer J, not once per (J, L) term: within a layer it steps the fill
weight from term to term by an exact small ratio.
"""

from __future__ import annotations

import math
from typing import Sequence


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
        if part < 0:
            raise ValueError("parts must be >= 0")
        total += part
        out *= math.comb(total, part)
    return out


def alternating_binomial_sum(j: int, m: int, n: int, k: int) -> int:
    """Closed form of sum_{i=j}^{m} (-1)**i * C(n, k - i).

    The alternating sum telescopes down to its two boundary terms,
    (-1)**j * C(n-1, k-j) + (-1)**m * C(n-1, k-m-1), under the
    out-of-range-is-zero binomial convention.  Requires j <= m and n >= 0;
    the degenerate n = 0 row is evaluated directly.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if j > m:
        raise ValueError("j must be <= m")
    if n == 0:
        # only the i = k term survives, since C(0, r) = 1 iff r = 0
        if j <= k <= m:
            return -1 if k % 2 else 1
        return 0
    sign_j = -1 if j % 2 else 1
    sign_m = -1 if m % 2 else 1
    return sign_j * binomial(n - 1, k - j) + sign_m * binomial(n - 1, k - m - 1)
