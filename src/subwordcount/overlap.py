"""Border and overlap checks on single patterns and pairs.

``core`` holds the rules themselves (the failure function and the pair
rule ``core._overlap``) and ``core.validate_instance`` runs them on an
instance; nothing in the package calls this module.  It keeps only the
two names the timing harness's tracer wraps (perfbench's SPANNED
table), each one line over ``core``'s helpers, and goes with them once
that harness reads only the public API (ROADMAP direction 7).

Both functions accept any sequence whose elements compare by equality,
so tests can use strings directly.
"""

from __future__ import annotations

from .core import _failure_function, _overlap


def _symbols(pattern) -> tuple:
    symbols = tuple(pattern)
    if not symbols:
        raise ValueError("pattern must be nonempty")
    return symbols


def is_self_intersecting(pattern) -> bool:
    """True when the pattern has any proper nonempty border, that is when
    its longest border is nonempty."""
    return _failure_function(_symbols(pattern))[-1] > 0


def can_overlap(first, second) -> bool:
    """True when occurrences of the two patterns can share a word position:
    ``core._overlap`` on their failure functions.  Symmetric in its
    arguments.  A pattern overlaps itself."""
    a, b = _symbols(first), _symbols(second)
    return _overlap(a, _failure_function(a), b, _failure_function(b))
