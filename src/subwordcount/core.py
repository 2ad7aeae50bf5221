"""Domain types for exact pattern-occurrence counting problems.

A problem instance fixes an alphabet size q, a word length t, and plain
(pattern, count) pairs: each pattern is a tuple of symbols, each count
the number of times it must occur.  Symbols are plain integers in
``range(q)``; optional symbol names are cosmetic and never enter any
computation.  ``ProblemInstance`` is the one place input values are
checked.

This module also holds the applicability rules ``validate_instance``
runs.  A border of a word is a proper nonempty prefix that is also a
suffix; a pattern with a border can overlap a shifted copy of itself,
and two patterns that can share a word position break the occupancy
bookkeeping the closed form relies on.  Both are read from one failure
function per pattern (the Knuth-Morris-Pratt table; Knuth, Morris &
Pratt 1977), linear in the pattern length: its last value is the
longest border.  ``_reads_into`` scans one pattern through the other's
failure function, as the KMP matcher does, and ``_overlap``, the pair
rule, reads each pattern of a pair into the other, so a pair check is
linear in the two lengths.  The rules accept any sequences whose
elements compare by equality.

Everything is immutable after construction and every function is pure, so
unrestricted concurrent use is safe.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

# most steps an oracle or the closed form takes before it refuses
DEFAULT_STEP_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """A computation refused an instance because its work bound was exceeded."""


class NotApplicableError(ValueError):
    """The closed form was asked for an instance outside its domain.

    Carries the ``ValidationReport`` that explains which patterns
    self-intersect and which pairs can overlap.
    """

    def __init__(self, report: "ValidationReport"):
        problems = []
        flagged = [i for i, f in enumerate(report.per_pattern_self_intersection) if f]
        if flagged:
            problems.append(f"self-intersecting patterns at {flagged}")
        if report.cross_overlap_pairs:
            problems.append(f"overlapping pattern pairs {list(report.cross_overlap_pairs)}")
        super().__init__("closed form not applicable: " + "; ".join(problems))
        self.report = report


def decimal_string(n: int) -> str:
    """Decimal digits of ``n`` at any size: ``str(int)`` refuses past the
    interpreter's digit limit, ``Decimal`` converts exactly without it."""
    return str(decimal.Decimal(n))


def require_int(name: str, value, minimum: int) -> None:
    """Raise TypeError unless ``value`` is an int (bool excluded), and
    ValueError when it is below ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


@dataclass(frozen=True)
class ProblemInstance:
    """One counting problem: alphabet, word length, pattern requirements.

    ``specs`` holds (pattern, required count) pairs, each pattern a
    nonempty tuple of symbols in ``range(alphabet_size)``.  Any sequences
    may be passed; they are stored as tuples, so list and tuple spellings
    of one instance are equal.  Every value is checked here, once: a size,
    length or count that is not an int (or is a bool), or a spec that is
    not a pair, raises TypeError; an empty, out-of-range or repeated
    pattern, a negative count or a bad symbol name raises ValueError.
    """

    alphabet_size: int
    word_length: int
    specs: tuple[tuple[tuple[int, ...], int], ...]
    symbol_names: tuple[str, ...] | None = None

    def __post_init__(self):
        require_int("alphabet_size", self.alphabet_size, 2)
        require_int("word_length", self.word_length, 0)
        specs = []
        seen: set[tuple[int, ...]] = set()
        for spec in self.specs:
            try:
                pattern, count = spec
                pattern = tuple(pattern)
            except (TypeError, ValueError):
                raise TypeError(
                    f"each spec must be a (pattern, count) pair with a sequence of "
                    f"symbols as its pattern, got {spec!r}"
                ) from None
            if not pattern:
                raise ValueError("pattern must be nonempty")
            for s in pattern:
                if not isinstance(s, int) or isinstance(s, bool) or s < 0:
                    raise ValueError(f"pattern symbols must be nonnegative integers, got {s!r}")
            if max(pattern) >= self.alphabet_size:
                raise ValueError(
                    f"pattern {pattern} uses symbols outside the "
                    f"{self.alphabet_size}-symbol alphabet"
                )
            # hashed only once every symbol is known to be an int
            if pattern in seen:
                raise ValueError(f"duplicate pattern {pattern}")
            seen.add(pattern)
            require_int("required_count", count, 0)
            specs.append((pattern, count))
        if not specs:
            raise ValueError("at least one pattern spec is required")
        object.__setattr__(self, "specs", tuple(specs))
        if self.symbol_names is not None:
            names = tuple(self.symbol_names)
            object.__setattr__(self, "symbol_names", names)
            if len(names) != self.alphabet_size:
                raise ValueError("symbol_names must list one name per alphabet symbol")
            if any(not isinstance(n, str) or not n for n in names):
                raise ValueError("symbol names must be nonempty strings")
            if len(set(names)) != len(names):
                raise ValueError("symbol names must be distinct")

    @classmethod
    def from_pairs(
        cls,
        alphabet_size: int,
        word_length: int,
        pairs: Iterable[tuple[Sequence[int], int]],
        symbol_names: Sequence[str] | None = None,
    ) -> "ProblemInstance":
        """Build an instance from (symbol sequence, required count) pairs."""
        return cls(alphabet_size, word_length, pairs, symbol_names)

    @property
    def patterns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(pattern for pattern, _ in self.specs)

    @property
    def pattern_lengths(self) -> tuple[int, ...]:
        return tuple(len(pattern) for pattern, _ in self.specs)

    @property
    def required_counts(self) -> tuple[int, ...]:
        return tuple(count for _, count in self.specs)

    @property
    def minimum_occupancy(self) -> int:
        """Positions consumed when every pattern occurs its required number
        of times.  Larger than word_length means the count is 0, which is
        not an error."""
        return sum(len(pattern) * count for pattern, count in self.specs)


@dataclass(frozen=True, repr=False)
class CountBreakdown:
    """Exact total plus the source of its signed summation terms.

    ``terms`` holds one entry per feasible copy-count tuple, in
    lexicographic order; the total is their exact integer sum.  The
    terms are ``reference(*args)``: the first read of ``terms`` calls it,
    raises ValueError unless the terms sum to the total, and caches
    them.  ``reference`` must give equal terms for equal arguments.
    ``from_terms`` builds a breakdown from listed terms.  Equality
    compares total, reference and args, never terms: breakdowns from one
    reference on equal arguments are equal, other sources differ even
    where the terms agree.  Hashing and ``repr`` see the total only.
    Instances are immutable; two threads reading ``terms`` at once may
    both compute it, to the same value.
    """

    total: int
    reference: Callable[..., Iterable[tuple[tuple[int, ...], int]]] = field(hash=False)
    args: tuple = field(default=(), hash=False)

    def __post_init__(self):
        if self.total < 0:
            raise ValueError("negative total: formula applied outside its domain")

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[tuple[int, ...], int]]) -> "CountBreakdown":
        """The breakdown whose total is the sum of ``terms``."""
        terms = _term_tuple(terms)
        return cls(sum(value for _, value in terms), _term_tuple, (terms,))

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        terms = _term_tuple(self.reference(*self.args))
        if self.total != sum(value for _, value in terms):
            raise ValueError("the terms do not sum to the total")
        return terms

    def __repr__(self):
        return f"CountBreakdown(total={decimal_string(self.total)})"


def _term_tuple(terms) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple((tuple(index), value) for index, value in terms)


@dataclass(frozen=True)
class ValidationReport:
    """Applicability findings for one instance.

    The closed form applies exactly when no pattern self-intersects and no
    pair of distinct patterns can overlap.  Infeasibly large minimum
    occupancy is deliberately not flagged: the formulas return 0 there.
    """

    per_pattern_self_intersection: tuple[bool, ...]
    cross_overlap_pairs: tuple[tuple[int, int], ...]

    @property
    def is_formula_applicable(self) -> bool:
        return not any(self.per_pattern_self_intersection) and not self.cross_overlap_pairs


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


def _overlap(x: Sequence, fail_x: Sequence[int], y: Sequence, fail_y: Sequence[int]) -> bool:
    """True when occurrences of nonempty x and y can share a word position.

    That is when one contains the other or a nonempty proper suffix of
    either equals a prefix of the other: each is read into the other
    through its failure function.  y occurs in x, or starts on a suffix
    of x, only if its first symbol occurs in x, so a read whose first
    symbol is absent is skipped.  Symmetric in the two patterns; a
    pattern overlaps itself.
    """
    return (y[0] in x and _reads_into(y, fail_y, x)) or (x[0] in y and _reads_into(x, fail_x, y))


def validate_instance(instance: ProblemInstance) -> ValidationReport:
    """Check whether the closed-form counts apply to ``instance``.

    Flags every pattern with a nonempty border, and every pair of distinct
    patterns whose occurrences could share a position in some word
    (``_overlap``).  Same-pattern adjacency is governed purely by the
    self-intersection flag, so pairs compare distinct patterns only.
    Each pattern's failure function is computed once: its last value is
    the longest border, and every pair reuses it.  Validation never
    fails; it reports.
    """
    pats = instance.patterns
    fails = [_failure_function(p) for p in pats]
    pairs = []
    for i, x in enumerate(pats):
        for j in range(i + 1, len(pats)):
            if _overlap(x, fails[i], pats[j], fails[j]):
                pairs.append((i, j))
    return ValidationReport(tuple(fail[-1] > 0 for fail in fails), tuple(pairs))
