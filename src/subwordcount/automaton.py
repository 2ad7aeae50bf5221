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
individual words.  It builds the tally graph once: the product of the
automaton's states and the per-pattern occurrence tallies, with no node
past a requirement, since a word that overshoots can never meet it and
its mass is simply dropped.  Each edge groups the symbols that lead from
a state to one successor state, so on a wide alphabet, where most
symbols fall back to the same state, mass moves once per successor
rather than once per symbol.  The graph is then swept word_length times
over a plain list of masses.  It agrees with brute-force enumeration on
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


@dataclass(frozen=True)
class TallyGraph:
    """The product of a matching automaton and per-pattern occurrence
    tallies, limited to tallies within the requirements.

    Attributes:
        alphabet_size: number of symbols of the automaton it was built from.
        nodes: the (state, tallies) pairs reachable from (0, zeros) within
            the build depth without any tally passing its requirement,
            numbered in breadth-first discovery order, so node 0 is the start.
        edges: edges[node] lists (next node, symbol count) pairs, one per
            entry of the automaton's successors of the node's state whose
            emitted patterns keep every tally within its requirement.
            Nodes first reached at the build depth have no edges.
    """

    alphabet_size: int
    nodes: tuple[tuple[int, tuple[int, ...]], ...]
    edges: tuple[tuple[tuple[int, int], ...], ...]


def tally_graph(automaton: MatchAutomaton, required: Sequence[int], depth: int) -> TallyGraph:
    """Build the tally graph of ``automaton`` for the required occurrence
    counts, expanding breadth-first from (0, zeros) ``depth`` times.

    A move that would take a tally past its requirement gets no edge: a
    word that overshoots can never meet the requirement again.  The graph
    has at most state_count * prod(x + 1) nodes, each with at most as many
    edges as its state has distinct successors.  ``required`` holds one
    count per pattern of the automaton.
    """
    required = tuple(required)
    if len(required) != automaton.pattern_count:
        raise ValueError("required must hold one count per pattern")
    for x in required:
        require_int("required count", x, 0)
    start = (0, (0,) * len(required))
    nodes = [start]
    number = {start: 0}
    edges: list[tuple[tuple[int, int], ...]] = []
    for _ in range(depth):
        layer = nodes[len(edges) :]  # not yet expanded: all first reached at this depth
        if not layer:
            break
        for state, tallies in layer:
            out = []
            for nxt, symbols in automaton.successors[state]:
                emitted = automaton.emits[nxt]
                if emitted:
                    if any(tallies[p] == required[p] for p in emitted):
                        continue  # overshoots a requirement
                    bumped = list(tallies)
                    for p in emitted:
                        bumped[p] += 1
                    key = (nxt, tuple(bumped))
                else:
                    key = (nxt, tallies)
                target = number.setdefault(key, len(nodes))
                if target == len(nodes):
                    nodes.append(key)
                out.append((target, symbols))
            edges.append(tuple(out))
    edges.extend(() for _ in range(len(nodes) - len(edges)))
    return TallyGraph(automaton.alphabet_size, tuple(nodes), tuple(edges))


def advance_distribution(graph: TallyGraph, masses: Sequence[int]) -> list[int]:
    """Extend every tracked word by one symbol.

    ``masses[node]`` is how many words of the current length end on that
    graph node; the result holds the same for words one symbol longer,
    dropping every word that overshoots a requirement.
    """
    following = [0] * len(masses)
    for mass, out in zip(masses, graph.edges):
        if mass:
            for target, symbols in out:
                following[target] += mass * symbols
    return following


def dp_count(instance: ProblemInstance, step_budget: int = DEFAULT_STEP_BUDGET) -> int:
    """Exact number of words meeting every required occurrence count,
    computed by mass propagation rather than word enumeration.

    Like the brute-force oracle this accepts any pattern set; overlapping
    and self-intersecting patterns are handled by the automaton itself.
    The tally graph is built once and swept word_length times; mass that
    would take a tally past its requirement is dropped, since such a word
    can never meet it.

    Raises BudgetExceededError, before building the graph, when the
    predicted work, word_length * (distinct successors summed over states)
    * prod(x + 1) over the required counts x, exceeds ``step_budget``.  It
    bounds the edges the build makes and the moves every step makes, since
    each state is in at most prod(x + 1) nodes, one per tally vector.
    """
    automaton = build_automaton(instance.alphabet_size, instance.patterns)
    required = instance.required_counts
    predicted_steps = instance.word_length * sum(map(len, automaton.successors))
    for x in required:
        predicted_steps *= x + 1  # the tally domain
    if predicted_steps > step_budget:
        raise BudgetExceededError(
            f"distribution sweep needs about {predicted_steps} steps, "
            f"over the budget of {step_budget}"
        )
    graph = tally_graph(automaton, required, instance.word_length)
    masses = [1] + [0] * (len(graph.nodes) - 1)
    for _ in range(instance.word_length):
        masses = advance_distribution(graph, masses)
    return sum(mass for mass, (_, tallies) in zip(masses, graph.nodes) if tallies == required)
