"""Exact combinatorial primitives on arbitrary-precision integers.

Out-of-range binomials are 0 rather than errors, though the closed form
passes only in-range arguments.  Everything returns exact Python ints,
never floats.

The closed form calls only ``multinomial``, once per count, for the
prefactor multinomial(x); its layer sum takes its binomials from
``math.comb`` directly.  ``binomial`` and ``multichoose`` are kept for
their tests and the timing harness's tracer.
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
