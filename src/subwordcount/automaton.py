"""Multi-pattern matching automaton and a counting oracle built on it.

The automaton has one state per distinct pattern prefix and a dense
transition table: reading symbol c in the state of prefix w moves to the
state of the longest suffix of w + c that is a pattern prefix.  So
running a word through it visits, at each position, the state of the
longest pattern prefix ending there, and a state emits every pattern
that is a suffix of its prefix, which reports every pattern occurrence
exactly once.  The table is filled shortest prefix first, each row from
rows already filled, in time proportional to states times alphabet size.

``dp_count`` pushes word-count mass through the automaton instead of
individual words, tracking per-pattern occurrence tallies capped one
above the target so that all overshoot pools in a single bucket.  Mass
moves once per distinct successor state, weighted by how many symbols
lead there, rather than once per symbol: on a wide alphabet most symbols
fall back to the same state.  It agrees with brute-force enumeration on
every instance small enough to check both ways, while scaling to word
lengths enumeration cannot touch.  All mass bookkeeping is exact integer
arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import BudgetExceededError, ProblemInstance, require_int

DEFAULT_STEP_BUDGET = 10**9


@dataclass(frozen=True)
class MatchAutomaton:
    """Dense pattern-matching automaton over integer symbols.

    States are the distinct pattern prefixes, numbered shortest first and,
    among prefixes of one length, in the order of the first pattern that
    has each, so the empty prefix is state 0.

    Attributes:
        alphabet_size: number of symbols; transitions cover 0..alphabet_size-1.
        goto: goto[state][symbol] is the state of the longest suffix of
            the state's prefix plus the symbol that is a pattern prefix,
            defined for every pair.
        emits: emits[state] lists, in increasing order, the indices of the
            patterns that are suffixes of the state's prefix.
        pattern_count: number of patterns the automaton was built from.
        successors: successors[state] lists (next state, symbol count)
            pairs, one per distinct next state in goto[state]; the counts
            sum to alphabet_size.
    """

    alphabet_size: int
    goto: tuple[tuple[int, ...], ...]
    emits: tuple[tuple[int, ...], ...]
    pattern_count: int
    successors: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def state_count(self) -> int:
        return len(self.goto)


def build_automaton(alphabet_size: int, patterns: Sequence) -> MatchAutomaton:
    """Build the matching automaton for a pattern collection.

    Accepts Pattern objects or raw symbol sequences.  Patterns must be
    nonempty and use symbols below alphabet_size.
    """
    require_int("alphabet_size", alphabet_size, 1)
    targets = [tuple(getattr(p, "symbols", p)) for p in patterns]
    for target in targets:
        if not target:
            raise ValueError("patterns must be nonempty")
        if any(not (0 <= s < alphabet_size) for s in target):
            raise ValueError(f"pattern {target!r} uses symbols outside the alphabet")

    # Trie over the patterns, read one depth at a time, so a prefix's
    # state number is below those of all longer prefixes.
    children: list[dict[int, int]] = [{}]
    reached = [0] * len(targets)  # state of each pattern's prefix read so far
    unread = list(range(len(targets)))  # patterns longer than depth
    depth = 0
    while unread:
        for index in unread:
            below = children[reached[index]]
            symbol = targets[index][depth]
            if symbol not in below:
                below[symbol] = len(children)
                children.append({})
            reached[index] = below[symbol]
        depth += 1
        unread = [i for i in unread if len(targets[i]) > depth]
    ends: list[list[int]] = [[] for _ in children]  # patterns equal to each prefix
    for index, state in enumerate(reached):
        ends[state].append(index)

    # within[w] is the state of the longest proper suffix of prefix w that
    # is a pattern prefix.  Reading c in w leads to w + c when that is a
    # prefix and otherwise where c leads from within[w]; and within[w + c]
    # is where c leads from within[w], or the root when w is empty.  Both
    # look up only shorter prefixes, whose rows come first.
    within = [0] * len(children)
    goto: list[tuple[int, ...]] = []
    emits: list[tuple[int, ...]] = []
    for state, below in enumerate(children):
        fallback = goto[within[state]] if state else (0,) * alphabet_size
        goto.append(tuple(below.get(c, fallback[c]) for c in range(alphabet_size)))
        emits.append(tuple(sorted(ends[state] + list(emits[within[state]] if state else ()))))
        for symbol, child in below.items():
            within[child] = fallback[symbol]
    return MatchAutomaton(
        alphabet_size=alphabet_size,
        goto=tuple(goto),
        emits=tuple(emits),
        pattern_count=len(targets),
        successors=tuple(tuple(Counter(row).items()) for row in goto),
    )


def count_matches(automaton: MatchAutomaton, word: Sequence[int]) -> tuple[int, ...]:
    """Per-pattern occurrence counts for one word, via a single scan."""
    counts = [0] * automaton.pattern_count
    state = 0
    for symbol in word:
        state = automaton.goto[state][symbol]
        for index in automaton.emits[state]:
            counts[index] += 1
    return tuple(counts)


def advance_distribution(
    automaton: MatchAutomaton,
    distribution: dict[tuple[int, tuple[int, ...]], int],
    caps: Sequence[int],
) -> dict[tuple[int, tuple[int, ...]], int]:
    """Extend every tracked word by one symbol.

    Keys are (state, tallies) pairs; values are how many words of the
    current length land there.  Tallies saturate at caps, so each step
    multiplies the total mass by exactly alphabet_size.
    """
    successor: dict[tuple[int, tuple[int, ...]], int] = {}
    for (state, tallies), mass in distribution.items():
        for nxt, symbols in automaton.successors[state]:
            emitted = automaton.emits[nxt]
            if emitted:
                bumped = list(tallies)
                for index in emitted:
                    if bumped[index] < caps[index]:
                        bumped[index] += 1
                key = (nxt, tuple(bumped))
            else:
                key = (nxt, tallies)
            successor[key] = successor.get(key, 0) + mass * symbols
    return successor


def dp_count(instance: ProblemInstance, step_budget: int = DEFAULT_STEP_BUDGET) -> int:
    """Exact number of words meeting every required occurrence count,
    computed by mass propagation rather than word enumeration.

    Like the brute-force oracle this accepts any pattern set; overlapping
    and self-intersecting patterns are handled by the automaton itself.
    Tallies are capped one above each requirement: a word that overshoots
    can never recover, so everything past the requirement is pooled.

    Raises BudgetExceededError when the sweep's predicted move count,
    word_length * (distinct successors summed over states) * tally-domain
    size, exceeds ``step_budget``.  It bounds the moves actually made,
    since a state holds at most one key per point of the tally domain.
    """
    automaton = build_automaton(instance.alphabet_size, instance.patterns)
    required = list(instance.required_counts)
    caps = [x + 1 for x in required]
    predicted_steps = instance.word_length * sum(map(len, automaton.successors))
    for cap in caps:
        predicted_steps *= cap + 1  # the tally domain
    if predicted_steps > step_budget:
        raise BudgetExceededError(
            f"distribution sweep needs about {predicted_steps} steps, "
            f"over the budget of {step_budget}"
        )
    start = (0, tuple(0 for _ in required))
    distribution = {start: 1}
    for _ in range(instance.word_length):
        distribution = advance_distribution(automaton, distribution, caps)
    goal = tuple(required)
    return sum(mass for (_, tallies), mass in distribution.items() if tallies == goal)
