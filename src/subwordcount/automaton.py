"""Multi-pattern matching automaton and a counting oracle built on it.

The automaton is the classic trie-with-fallback construction: one state
per distinct pattern prefix, a dense transition table, and suffix links
computed breadth first.  Running a word through it visits, at each
position, the state for the longest pattern prefix ending there, and the
emit sets report every pattern occurrence exactly once.

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

from collections import Counter, deque
from dataclasses import dataclass
from typing import Sequence

from .core import BudgetExceededError, ProblemInstance

DEFAULT_STEP_BUDGET = 10**9


@dataclass(frozen=True)
class MatchAutomaton:
    """Dense pattern-matching automaton over integer symbols.

    Attributes:
        alphabet_size: number of symbols; transitions cover 0..alphabet_size-1.
        goto: goto[state][symbol] is the next state, defined for every pair.
        fail: fail[state] is the longest proper suffix state (0 for the root).
        emits: emits[state] lists indices of patterns ending at the state,
            including those reached through suffix links.
        pattern_count: number of patterns the automaton was built from.
        successors: successors[state] lists (next state, symbol count)
            pairs, one per distinct next state in goto[state]; the counts
            sum to alphabet_size.
    """

    alphabet_size: int
    goto: tuple[tuple[int, ...], ...]
    fail: tuple[int, ...]
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
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be >= 1")
    targets = [tuple(getattr(p, "symbols", p)) for p in patterns]
    for target in targets:
        if not target:
            raise ValueError("patterns must be nonempty")
        if any(not (0 <= s < alphabet_size) for s in target):
            raise ValueError(f"pattern {target!r} uses symbols outside the alphabet")

    # Trie construction; state 0 is the empty prefix.
    children: list[dict[int, int]] = [{}]
    terminal: list[set[int]] = [set()]
    for index, target in enumerate(targets):
        state = 0
        for symbol in target:
            nxt = children[state].get(symbol)
            if nxt is None:
                nxt = len(children)
                children[state][symbol] = nxt
                children.append({})
                terminal.append(set())
            state = nxt
        terminal[state].add(index)

    # Breadth-first suffix links, densified transitions, emit closure.
    state_total = len(children)
    fail = [0] * state_total
    goto = [[0] * alphabet_size for _ in range(state_total)]
    for symbol, child in children[0].items():
        goto[0][symbol] = child
    queue = deque(children[0].values())
    while queue:
        state = queue.popleft()
        terminal[state] |= terminal[fail[state]]
        for symbol in range(alphabet_size):
            child = children[state].get(symbol)
            if child is None:
                goto[state][symbol] = goto[fail[state]][symbol]
            else:
                fail[child] = goto[fail[state]][symbol]
                goto[state][symbol] = child
                queue.append(child)

    return MatchAutomaton(
        alphabet_size=alphabet_size,
        goto=tuple(tuple(row) for row in goto),
        fail=tuple(fail),
        emits=tuple(tuple(sorted(t)) for t in terminal),
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
