"""Exact counting of fixed-length words by prescribed pattern occurrences.

The closed-form counter ``count_multi`` evaluates a signed summation
that is polynomial in the word length, and ``count_single`` is its
one-pattern case; the two oracles (``enumerate_count``, ``dp_count``)
recompute the same numbers by exhaustive enumeration and by
automaton-based mass propagation.  The closed form requires patterns
with no self-intersection and no pairwise overlap; ``validate_instance``
checks that, and the oracles do not care.
"""

from .automaton import (
    DEFAULT_STEP_BUDGET,
    MatchAutomaton,
    TallyGraph,
    advance_distribution,
    build_automaton,
    count_matches,
    dp_count,
    tally_graph,
)
from .closed_form import count_multi, count_single
from .combinatorics import (
    alternating_binomial_sum,
    binomial,
    multichoose,
    multinomial,
)
from .core import (
    BudgetExceededError,
    CountBreakdown,
    NotApplicableError,
    Pattern,
    PatternSpec,
    ProblemInstance,
    ValidationReport,
    validate_instance,
)
from .enumeration import (
    DEFAULT_GUARD,
    count_occurrences,
    enumerate_count,
    occurrence_profile_counts,
)
from .overlap import border_profile, can_overlap, is_self_intersecting

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CountBreakdown",
    "DEFAULT_GUARD",
    "DEFAULT_STEP_BUDGET",
    "MatchAutomaton",
    "NotApplicableError",
    "Pattern",
    "PatternSpec",
    "ProblemInstance",
    "TallyGraph",
    "ValidationReport",
    "advance_distribution",
    "alternating_binomial_sum",
    "binomial",
    "border_profile",
    "build_automaton",
    "can_overlap",
    "count_matches",
    "count_multi",
    "count_occurrences",
    "count_single",
    "dp_count",
    "enumerate_count",
    "is_self_intersecting",
    "multichoose",
    "multinomial",
    "occurrence_profile_counts",
    "tally_graph",
    "validate_instance",
    "__version__",
]
