"""Multi-pattern matching automaton and a counting oracle built on it.

The automaton has one state per distinct pattern prefix: reading symbol
c in the state of prefix w moves to the state of the longest suffix of
w + c that is a pattern prefix.  So running a word through it visits, at
each position, the state of the longest pattern prefix ending there, and
a state emits every pattern that is a suffix of its prefix, which
reports every pattern occurrence exactly once.  A symbol no pattern
holds leads every state to the root, so a state's row keeps only the
other symbols.  Rows are filled shortest prefix first, each from rows
already filled, in time proportional to states times the symbols the
patterns use; the alphabet size enters only as a count.

``dp_count`` counts words by moving word-count mass through the
automaton instead of individual words.  States with equal successor
rows, the same next states on the same numbers of symbols, count alike,
so one pass over the rows folds each set of them into one node; every
leaf of the prefix trie has its fallback state's row and folds into
that state's node.  Each node holds one int that packs the masses of all
prod(x + 1) tally vectors within the requirements, one fixed-width slot
per vector, the vectors read in mixed radix; a word that overshoots a
requirement can never meet it, so it has no slot and its mass is
dropped.  The moves are built once: each groups the symbols that lead
from a node to one successor node with one set of emitted patterns, so
on a wide alphabet, where most symbols fall back to the same state,
mass moves once per successor rather than once per symbol.  A move
masks off the slots whose tallies its emitted patterns would take past
a requirement and shifts the rest up by those patterns' strides, so one
step is one big-int move per edge, whatever the number of tally vectors.

The sweep meets in the middle, one step function run over the graph and
over its transpose, which lists each move at the node it leads to,
pointing back at the node it leaves.  The front half pushes mass from
the empty prefix over the graph for t // 2 steps, extending words at
their end.  The back half pushes from every node over the transpose for
the other t - t // 2, extending words at their start, since a symbol put
in front of a word read from a move's target emits what the move emits;
so each node ends with the mass of the words read from it.  No slot of
either half exceeds q ** (t - t // 2), so the slots are half as wide as
a single sweep of t steps would need, and every move works on ints half
as long.  A word is a front half and a back half meeting at a node with
tallies c and x - c, and x - c is c's slot mirrored, so the count is one
sum of slot products per node, with no convolution.  It agrees with
brute-force enumeration on every instance small enough to check both
ways, while scaling to word lengths enumeration cannot touch.  All mass
bookkeeping is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .core import ProblemInstance, require_budget


@dataclass(frozen=True)
class MatchAutomaton:
    """A pattern-matching automaton over integer symbols.

    States are the distinct pattern prefixes, numbered shortest first and,
    among prefixes of one length, in the order of the first pattern that
    has each, so the empty prefix is state 0.

    Attributes:
        alphabet_size: number of symbols; transitions cover 0..alphabet_size-1.
        goto: goto[state] maps a symbol to the state of the longest suffix
            of the state's prefix plus the symbol that is a pattern prefix,
            for the symbols that do not lead to the root, state 0.
        emits: emits[state] lists, in increasing order, the indices of the
            patterns that are suffixes of the state's prefix.
        successors: successors[state] lists (next state, symbol count)
            pairs, one per distinct next state, in increasing order; the
            counts sum to alphabet_size.
    """

    alphabet_size: int
    goto: tuple[dict[int, int], ...]
    emits: tuple[tuple[int, ...], ...]
    successors: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def state_count(self) -> int:
        return len(self.goto)


def build_automaton(alphabet_size: int, patterns: Sequence) -> MatchAutomaton:
    """Build the matching automaton for a pattern collection.

    Patterns are any symbol sequences, nonempty and with symbols below
    alphabet_size.  Nothing here checks that: the caller, ``dp_count``,
    passes the fields of a ``ProblemInstance``, which checked them when it
    was built.
    """
    targets = [tuple(p) for p in patterns]

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
    goto: list[dict[int, int]] = []
    emits: list[tuple[int, ...]] = []
    successors: list[tuple[tuple[int, int], ...]] = []
    for state, below in enumerate(children):
        fallback = goto[within[state]] if state else {}
        row = {**fallback, **below}
        goto.append(row)
        emits.append(tuple(sorted(ends[state] + list(emits[within[state]] if state else ()))))
        for symbol, child in below.items():
            within[child] = fallback.get(symbol, 0)
        # a state but the root is entered only on its prefix's last symbol;
        # the symbols the row lacks lead to the root
        moves = [(nxt, 1) for nxt in sorted(row.values())]
        if len(row) < alphabet_size:
            moves.insert(0, (0, alphabet_size - len(row)))
        successors.append(tuple(moves))
    return MatchAutomaton(
        alphabet_size=alphabet_size,
        goto=tuple(goto),
        emits=tuple(emits),
        successors=tuple(successors),
    )


@dataclass(frozen=True)
class TallyGraph:
    """The automaton's moves on packed occurrence tallies, over its states
    with duplicates folded.

    States whose successor rows are equal count alike: they move to the
    same states, which emit the same patterns, on the same numbers of
    symbols.  Each set of such states is one node, and mass that enters
    any of them enters the node, with the patterns the state entered
    emits.  Every leaf of the prefix trie, the full match of a pattern
    that no other pattern extends, has the row of its fallback state and
    folds into that state's node.

    A node's mass is one int of ``slots`` fixed-width slots, one per
    tally vector within the requirements.  Vector (c_0, ..., c_{d-1}) is
    slot sum(c_p * stride_p), read in mixed radix with stride_p =
    prod(x_r + 1 for r < p), and occupies bits slot * width up to
    (slot + 1) * width, so the all-zero vector is slot 0 and the required
    one is the top slot.

    Attributes:
        alphabet_size: number of symbols of the automaton it was built from.
        slots: prod(x + 1) over the required counts x.
        width: bits per slot: the whole bytes that hold q ** word_length,
            the most a slot, or a slot times a symbol count before the
            last step, can reach, so no slot carries into the next.
        node_of: node_of[state] is the node of each automaton state; nodes
            are numbered in order of their first state, so state 0, the
            empty prefix, is node 0.
        moves: moves[node] lists (next node, symbol count, keep mask,
            shift) tuples read off the successors of the node's first
            state, one per distinct (next node, emitted patterns) pair,
            except those that emit a pattern required 0 times.  The mask
            zeroes the slots where an emitted pattern already meets its
            requirement, whose mass would overshoot, and the shift, the
            emitted patterns' summed strides times the width, takes every
            other slot to the one with each emitted tally one higher.
            In the transpose the same moves are listed at the node each
            leads to, and point back at the node it leaves.
    """

    alphabet_size: int
    slots: int
    width: int
    node_of: tuple[int, ...]
    moves: tuple[tuple[tuple[int, int, int, int], ...], ...]


def tally_graph(automaton: MatchAutomaton, required: Sequence[int], word_length: int) -> TallyGraph:
    """Fold ``automaton``'s duplicate states and precompute the packed
    moves of the nodes for the required occurrence counts, with slots wide
    enough for words of ``word_length``.

    The fold is one pass over the successor rows, keyed by the row, so it
    costs no more than the rows themselves.  It is not iterated:
    refining the fold until it stops changing costs up to states squared
    times the alphabet size on long patterns.  Each pattern's keep mask repeats a
    block of bytes, so it costs time linear in its size, and a move's mask
    is the AND of the masks of the patterns it emits.  ``required`` holds
    one nonnegative int per pattern of the automaton, and ``word_length``
    is a nonnegative int.  Nothing here checks that: the caller,
    ``dp_count``, passes the fields of a ``ProblemInstance``, which checked
    them when it was built.
    """
    # no slot, and no slot times a symbol count before the last step,
    # exceeds q ** word_length, so whole bytes holding it never carry
    slot_bytes = ((automaton.alphabet_size**word_length).bit_length() + 7) // 8
    width = 8 * slot_bytes
    strides = []
    slots = 1
    for x in required:
        strides.append(slots)
        slots *= x + 1
    # pattern p's tally is below x_p on the first stride_p * x_p slots of
    # every run of stride_p * (x_p + 1)
    keeps = [
        int.from_bytes(
            (b"\xff" * (stride * x * slot_bytes) + bytes(stride * slot_bytes))
            * (slots // (stride * (x + 1))),
            "little",
        )
        for stride, x in zip(strides, required)
    ]
    node_by_row: dict[tuple[tuple[int, int], ...], int] = {}  # node of each distinct row
    node_of = tuple(node_by_row.setdefault(row, len(node_by_row)) for row in automaton.successors)
    packed = {}  # (mask, shift) by emitted patterns
    moves = []
    for row in node_by_row:  # the first state's row of each node, in node order
        out: dict[tuple[int, tuple[int, ...]], int] = {}  # symbols by (next node, emitted)
        for nxt, symbols in row:
            key = node_of[nxt], automaton.emits[nxt]
            out[key] = out.get(key, 0) + symbols
        kept = []
        for (node, emitted), symbols in out.items():
            if emitted not in packed:
                mask = (1 << (slots * width)) - 1
                for p in emitted:
                    mask &= keeps[p]
                packed[emitted] = mask, width * sum(strides[p] for p in emitted)
            mask, shift = packed[emitted]
            if mask:
                kept.append((node, symbols, mask, shift))
        moves.append(tuple(kept))
    return TallyGraph(automaton.alphabet_size, slots, width, node_of, tuple(moves))


def advance_distribution(graph: TallyGraph, masses: Sequence[int]) -> list[int]:
    """Extend every tracked word by one symbol: push each node's mass
    along its moves, dropping every word that overshoots a requirement.

    Over the tally graph, ``masses[node]`` packs, slot by slot, how many
    words lead from the empty prefix's node to that node with each tally
    vector, and words grow at their end.  Over its transpose, it packs how
    many words read from that node make each tally vector, and words grow
    at their start.
    """
    following = [0] * len(masses)
    for mass, out in zip(masses, graph.moves):
        if mass:
            for nxt, symbols, mask, shift in out:
                # shift 0: nothing emitted, and the mask keeps every slot
                moved = (mass & mask) << shift if shift else mass
                if symbols > 1:
                    moved *= symbols
                # a node's first mass is stored as is, since 0 + moved copies it
                held = following[nxt]
                following[nxt] = held + moved if held else moved
    return following


def _join_halves(graph: TallyGraph, front: Sequence[int], back: Sequence[int]) -> int:
    """The number of words made of a front half and a back half, met at
    some node, whose tallies add up to the requirements.

    The back half's tallies must make up x - c where the front's are c,
    and x - c is the slot mirrored from c's, slots - 1 minus it, since
    the mixed-radix slot number is linear in the vector.  A back int
    written big-endian lists its slots in that mirrored order.
    """
    step = graph.width // 8
    size = graph.slots * step
    count = 0
    for head, tail in zip(front, back):
        if head and tail:
            heads = head.to_bytes(size, "little")
            tails = tail.to_bytes(size, "big")
            count += sum(
                int.from_bytes(heads[k : k + step], "little")
                * int.from_bytes(tails[k : k + step], "big")
                for k in range(0, size, step)
            )
    return count


def dp_count(instance: ProblemInstance) -> int:
    """Exact number of words meeting every required occurrence count,
    computed by mass propagation rather than word enumeration.

    Like the brute-force oracle this accepts any pattern set; overlapping
    and self-intersecting patterns are handled by the automaton itself.
    The sweep meets in the middle on the folded tally graph, each step one
    ``advance_distribution``.  The front half pushes mass from the empty
    prefix over the graph for t // 2 steps; the back half pushes from
    every node over the graph's transpose, built once, for the remaining
    steps, so each node collects the mass of the words read from it.
    Neither half holds more than q ** (t - t // 2) in a slot, so the slots
    are half as wide as one sweep of t steps needs, and every big-int move
    costs about half as much.  Mass that would take a tally past its
    requirement is dropped, since such a word can never meet it.  The
    count joins the halves at each node, front slot by mirrored back slot.
    A requirement past the t - len + 1 occurrences a word of length t has
    room for gives 0 before anything is built or the budget is checked,
    however large the requirement.

    Otherwise raises BudgetExceededError, before building the moves, when
    the predicted work, word_length * (distinct successors summed over
    states) * prod(x + 1) over the required counts x, exceeds
    ``DEFAULT_STEP_BUDGET``, through ``core.require_budget``, the check
    the closed form refuses through too.  The prediction is an upper
    bound on the slots the two halves move: t steps between them, at most
    one move per distinct successor of each state in each, each carrying
    prod(x + 1) slots, and folding only removes moves.
    """
    required = instance.required_counts
    t = instance.word_length
    if any(x > max(0, t - a + 1) for a, x in zip(instance.pattern_lengths, required)):
        return 0  # more occurrences than a word of length t has room for
    automaton = build_automaton(instance.alphabet_size, instance.patterns)
    predicted_steps = t * sum(map(len, automaton.successors))
    for x in required:
        predicted_steps *= x + 1  # the tally domain
    require_budget("automaton refused: the distribution sweep", predicted_steps)
    half = t // 2
    graph = tally_graph(automaton, required, t - half)
    front = [1] + [0] * (len(graph.moves) - 1)  # the empty word, at node 0
    for _ in range(half):
        front = advance_distribution(graph, front)
    into: list[list[tuple[int, int, int, int]]] = [[] for _ in graph.moves]
    for node, out in enumerate(graph.moves):
        for nxt, symbols, mask, shift in out:
            into[nxt].append((node, symbols, mask, shift))
    transpose = replace(graph, moves=tuple(map(tuple, into)))
    back = [1] * len(graph.moves)  # the empty word read from each node, in slot 0
    for _ in range(t - half):
        back = advance_distribution(transpose, back)
    return _join_halves(graph, front, back)
