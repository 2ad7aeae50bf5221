"""Exact counting of fixed-length words by prescribed pattern occurrences.

The closed-form counter ``count_multi`` evaluates a signed summation
that is polynomial in the word length, and ``count_single`` is its
one-pattern case; the two oracles (``enumerate_count``, ``dp_count``)
recompute the same numbers by exhaustive enumeration and by
automaton-based mass propagation.  The closed form requires patterns
with no self-intersection and no pairwise overlap; ``validate_instance``
checks that, and the oracles do not care.  An instance is a
``ProblemInstance`` of plain (pattern, count) pairs, each pattern a
tuple of symbols; beside these the package exports only the two errors.
Every engine takes only the instance and refuses past one step budget,
``core.DEFAULT_STEP_BUDGET``, read when it runs, so setting
``subwordcount.core.DEFAULT_STEP_BUDGET`` changes the limit of all three.
``CountBreakdown`` (``subwordcount.core``) and the other internals
import from their modules.
"""

from .automaton import dp_count
from .closed_form import count_multi, count_single
from .core import (
    BudgetExceededError,
    NotApplicableError,
    ProblemInstance,
    ValidationReport,
    validate_instance,
)
from .enumeration import enumerate_count

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "NotApplicableError",
    "ProblemInstance",
    "ValidationReport",
    "count_multi",
    "count_single",
    "dp_count",
    "enumerate_count",
    "validate_instance",
    "__version__",
]
