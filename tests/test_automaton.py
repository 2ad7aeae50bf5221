import itertools
import time
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subwordcount.automaton as automaton_module
import subwordcount.core as core_module
from subwordcount import (
    BudgetExceededError,
    ProblemInstance,
    count_multi,
    dp_count,
    enumerate_count,
)
from subwordcount.automaton import (
    TallyGraph,
    advance_distribution,
    build_automaton,
    tally_graph,
)
from subwordcount.enumeration import occurrence_profile_counts


def walk(automaton, word, start=0):
    state = start
    for symbol in word:
        state = automaton.goto[state].get(symbol, 0)
    return state


def patterns_over(q, max_size):
    """Distinct patterns of length 1-3 drawn from the whole alphabet."""
    pattern = st.lists(st.integers(0, q - 1), min_size=1, max_size=3).map(tuple)
    return st.lists(pattern, min_size=1, max_size=max_size, unique=True)


def ends_with(word, tail):
    return len(tail) <= len(word) and word[len(word) - len(tail) :] == tail


def pattern_sets_with_words(max_q):
    """(q, patterns, word) with the word glued from patterns and single
    symbols, so that it holds pattern occurrences, overlapping ones
    included."""

    def with_word(q_patterns):
        q, patterns = q_patterns
        piece = st.sampled_from(patterns + [(s,) for s in range(q)])
        word = st.lists(piece, max_size=6).map(lambda pieces: sum(pieces, ()))
        return st.tuples(st.just(q), st.just(patterns), word)

    return st.integers(1, max_q).flatmap(
        lambda q: st.tuples(st.just(q), patterns_over(q, 3))
    ).flatmap(with_word)


def predicted_moves(instance):
    """The move bound dp_count checks against its step budget."""
    auto = build_automaton(instance.alphabet_size, instance.patterns)
    predicted = instance.word_length * sum(len(moves) for moves in auto.successors)
    for x in instance.required_counts:
        predicted *= x + 1  # tallies run 0..x
    return predicted


def tally_vectors(required):
    """Every tally vector within the requirements, in slot order: read in
    mixed radix, the first pattern's tally varies fastest."""
    ranges = [range(x + 1) for x in reversed(required)]
    return [tuple(reversed(v)) for v in itertools.product(*ranges)]


def unpack(graph, mass):
    """The slot masses packed in one state's int."""
    assert mass >> (graph.slots * graph.width) == 0  # nothing past the top slot
    full = (1 << graph.width) - 1
    return [(mass >> (k * graph.width)) & full for k in range(graph.slots)]


def sweep(automaton, required, t):
    """The packed moves for words of length t and, before and after each of
    its t steps, every node's slot masses: one sweep from the empty
    prefix, with slots as wide as q ** t."""
    graph = tally_graph(automaton, required, t)
    masses = [1] + [0] * (len(graph.moves) - 1)
    steps = [[unpack(graph, mass) for mass in masses]]
    for _ in range(t):
        masses = advance_distribution(graph, masses)
        steps.append([unpack(graph, mass) for mass in masses])
    return graph, steps


def stepped_graphs(instance):
    """dp_count's value and the graph of each advance_distribution call it
    makes, in call order."""
    graphs = []
    step = automaton_module.advance_distribution

    def counted(graph, masses):
        graphs.append(graph)
        return step(graph, masses)

    with mock.patch.object(automaton_module, "advance_distribution", counted):
        value = dp_count(instance)
    return value, graphs


def pulled(graph, masses):
    """One step at the start of every word, written as a pull: each
    node's moves, applied to the mass of the node each leads to, summed."""
    totals = []
    for out in graph.moves:
        total = 0
        for nxt, symbols, mask, shift in out:
            total += ((masses[nxt] & mask) << shift) * symbols
        totals.append(total)
    return totals


def slot_totals(masses):
    """Mass in each slot, summed over the nodes."""
    return [sum(column) for column in zip(*masses)]


def expected_moves(auto, node_of, state, required):
    """(next node, symbol count, emitted patterns) for the moves of the
    state's node, read off the state's own successors: grouped by next
    node and emitted patterns in order of first appearance, without those
    that emit a pattern required 0 times."""
    grouped = {}
    for nxt, symbols in auto.successors[state]:
        key = node_of[nxt], auto.emits[nxt]
        grouped[key] = grouped.get(key, 0) + symbols
    return [
        (node, symbols, emitted)
        for (node, emitted), symbols in grouped.items()
        if all(required[p] for p in emitted)
    ]


@st.composite
def borderless_disjoint_sets(draw):
    """(q, patterns): 1-3 patterns of length 1-3 with no symbol used twice,
    so no pattern has a border and no two can share a position."""
    q = draw(st.integers(2, 36))
    symbols = draw(st.permutations(range(q)))
    patterns = []
    used = 0
    for _ in range(draw(st.integers(1, 3))):
        if used == q:
            break
        length = draw(st.integers(1, min(3, q - used)))
        patterns.append(tuple(symbols[used : used + length]))
        used += length
    return q, patterns


class TestBuildAutomaton:
    def test_trie_size_two_disjoint_patterns(self):
        auto = build_automaton(4, [(0, 1), (2, 3)])
        # root plus two states per pattern
        assert auto.state_count == 5

    def test_shared_prefixes_share_states(self):
        auto = build_automaton(2, [(0, 0), (0, 1)])
        assert auto.state_count == 4

    def test_emits_at_pattern_ends(self):
        auto = build_automaton(2, [(0, 1)])
        end = walk(auto, (0, 1))
        assert auto.emits[end] == (0,)
        assert auto.emits[0] == ()

    def test_emit_closure_through_suffix_links(self):
        # after reading 001 both patterns 001 and 01 end
        auto = build_automaton(2, [(0, 0, 1), (0, 1)])
        end = walk(auto, (0, 0, 1))
        assert auto.emits[end] == (0, 1)

    def test_fallback_transitions_reuse_matched_suffix(self):
        auto = build_automaton(2, [(0, 1)])
        # reading 0 0 must stay on the prefix 0, not fall to the root
        assert walk(auto, (0, 0)) == walk(auto, (0,))

    def test_emit_sets_match_suffix_relation(self):
        patterns = [(0, 1), (1, 1, 0), (1,)]
        auto = build_automaton(3, patterns)
        # every automaton state is reachable as some pattern prefix
        prefixes = {()}
        for p in patterns:
            for k in range(1, len(p) + 1):
                prefixes.add(p[:k])
        assert len(prefixes) == auto.state_count
        for prefix in prefixes:
            state = walk(auto, prefix)
            expected = tuple(
                sorted(
                    i
                    for i, p in enumerate(patterns)
                    if len(p) <= len(prefix) and prefix[len(prefix) - len(p) :] == p
                )
            )
            assert auto.emits[state] == expected, prefix

    @given(st.integers(1, 6).flatmap(lambda q: st.tuples(st.just(q), patterns_over(q, 3))))
    @example((2, [(0, 0), (0, 0, 0)]))  # self-intersecting, one a prefix of the other
    @example((3, [(0, 1, 0), (1, 0), (2,)]))  # overlapping pairs
    @example((1, [(0,)]))
    @settings(max_examples=80, deadline=None)
    def test_successors_group_each_goto_row(self, q_patterns):
        q, patterns = q_patterns
        auto = build_automaton(q, patterns)
        assert len(auto.successors) == auto.state_count
        for state, row in enumerate(auto.goto):
            dense = [row.get(c, 0) for c in range(q)]
            assert dict(auto.successors[state]) == Counter(dense)
            assert sum(symbols for _, symbols in auto.successors[state]) == q

    @given(pattern_sets_with_words(4))
    @example((2, [(0, 0), (0, 0, 0)], (0, 0, 0, 0, 1, 0, 0)))  # bordered, one a prefix of the other
    @example((3, [(0, 1, 0), (1, 0), (2,)], (0, 1, 0, 1, 0, 2, 1, 0)))  # overlapping pairs
    @example((2, [(0, 1, 1), (1, 1, 0)], (0, 1, 1, 0, 1, 1)))
    # a wide alphabet, with symbols no pattern holds
    @example((10**6, [(0, 1), (1, 0, 1)], (0, 1, 999_999, 1, 0, 1, 0, 1, 3, 0, 1)))
    @settings(max_examples=80, deadline=None)
    def test_state_is_the_longest_suffix_that_is_a_pattern_prefix(self, q_patterns_word):
        q, patterns, word = q_patterns_word
        auto = build_automaton(q, patterns)
        prefixes = {(): None}  # distinct pattern prefixes, in first-seen order
        for p in patterns:
            for k in range(1, len(p) + 1):
                prefixes.setdefault(p[:k])
        # numbered shortest first, ties in first-seen order
        state_of = {w: i for i, w in enumerate(sorted(prefixes, key=len))}
        assert auto.state_count == len(state_of)
        for end in range(len(word) + 1):
            read = word[:end]
            longest = max((w for w in state_of if ends_with(read, w)), key=len)
            state = walk(auto, read)
            assert state == state_of[longest], read
            ending = tuple(i for i, p in enumerate(patterns) if ends_with(read, p))
            assert auto.emits[state] == ending, read

    def test_rows_hold_only_the_symbols_the_patterns_use(self):
        q = 10**6
        auto = build_automaton(q, [(0, 1)])
        assert auto.state_count == 3
        for state, row in enumerate(auto.goto):
            assert set(row) <= {0, 1}
            assert sum(symbols for _, symbols in auto.successors[state]) == q
        assert walk(auto, (5, 0, 7, 0, 0, 1)) == 2


class TestAdvanceDistribution:
    def test_mass_multiplies_by_alphabet_size(self):
        # no word of length <= 5 holds three copies of 01, so nothing is dropped
        _, steps = sweep(build_automaton(3, [(0, 1)]), [2], 5)
        for k, masses in enumerate(steps):
            assert sum(slot_totals(masses)) == 3**k

    def test_mass_past_a_requirement_is_dropped(self):
        _, steps = sweep(build_automaton(1, [(0,)]), [2], 3)
        held = {v: mass for v, mass in zip(tally_vectors([2]), slot_totals(steps[2])) if mass}
        assert held == {(2,): 1}
        assert not any(map(any, steps[3]))

    @given(
        st.integers(2, 4).flatmap(lambda q: st.tuples(st.just(q), patterns_over(q, 3))),
        st.integers(0, 6),
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    @example((2, [(0, 0), (0, 0, 0)]), 6, [2, 1, 0])  # bordered, one a prefix of the other
    @example((3, [(0, 1, 0), (1, 0), (2,)]), 6, [1, 2, 1])  # overlapping pairs
    @example((2, [(0, 1), (1, 0)]), 6, [0, 0, 0])
    @settings(max_examples=60, deadline=None)
    def test_mass_counts_the_words_within_every_requirement(self, q_patterns, t, counts):
        # slot by slot: each tally vector holds exactly the words with that profile
        q, patterns = q_patterns
        required = counts[: len(patterns)]
        vectors = tally_vectors(required)
        _, steps = sweep(build_automaton(q, patterns), required, t)
        for n, masses in enumerate(steps):
            profiles = occurrence_profile_counts(q, n, patterns)
            assert slot_totals(masses) == [profiles.get(v, 0) for v in vectors], n


class TestTallyGraph:
    @given(
        st.integers(1, 5).flatmap(lambda q: st.tuples(st.just(q), patterns_over(q, 3))),
        st.integers(0, 40),
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    @example((2, [(0, 0), (0, 0, 0)]), 40, [3, 2, 0])
    @example((3, [(0, 1, 0), (1, 0), (2,)]), 40, [3, 3, 3])
    @settings(max_examples=60, deadline=None)
    def test_nodes_stay_within_the_requirements(self, q_patterns, t, counts):
        # a node is a state and a tally vector, that is one slot of a state's
        # mass; every slot a move keeps lands on a vector within the requirements
        q, patterns = q_patterns
        required = counts[: len(patterns)]
        auto = build_automaton(q, patterns)
        graph = tally_graph(auto, required, t)
        vectors = tally_vectors(required)
        slot_of = {v: k for k, v in enumerate(vectors)}
        assert graph.alphabet_size == q
        assert graph.slots == len(vectors)
        assert graph.width % 8 == 0 and graph.width >= (q**t).bit_length()
        assert len(graph.node_of) == auto.state_count
        assert len(graph.moves) == len(set(graph.node_of))
        full = (1 << graph.width) - 1
        for state, node in enumerate(graph.node_of):
            # every state, folded or not, gets the moves of its own row
            out = graph.moves[node]
            allowed = expected_moves(auto, graph.node_of, state, required)
            assert [(nxt, symbols) for nxt, symbols, _, _ in out] == [
                (nxt, symbols) for nxt, symbols, _ in allowed
            ]
            for (_, _, mask, shift), (_, _, emitted) in zip(out, allowed):
                assert mask >> (graph.slots * graph.width) == 0
                assert shift % graph.width == 0
                for k, v in enumerate(vectors):
                    kept = (mask >> (k * graph.width)) & full
                    if all(v[p] < required[p] for p in emitted):
                        assert kept == full
                        bumped = tuple(c + (p in emitted) for p, c in enumerate(v))
                        assert k + shift // graph.width == slot_of[bumped]
                    else:
                        assert kept == 0

    @given(st.integers(1, 5).flatmap(lambda q: st.tuples(st.just(q), patterns_over(q, 3))))
    @example((2, [(0, 0), (0, 0, 0)]))  # 000 has the row of 00
    @example((2, [(0, 1, 0, 1)]))  # bordered: 0101 has the row of 01
    @example((3, [(0, 1), (2, 1)]))  # both full matches have the root's row
    @settings(max_examples=80, deadline=None)
    def test_folded_states_share_their_representatives_row(self, q_patterns):
        q, patterns = q_patterns
        auto = build_automaton(q, patterns)
        node_of = tally_graph(auto, [1] * len(patterns), 3).node_of
        first = {}  # each node's first state, its representative
        for state, node in enumerate(node_of):
            first.setdefault(node, state)
        assert list(first) == list(range(len(first)))  # numbered by first state
        for state, node in enumerate(node_of):
            assert auto.successors[state] == auto.successors[first[node]]
            # the fold is one pass, but it misses no two equal rows
            for other in range(state):
                if auto.successors[other] == auto.successors[state]:
                    assert node_of[other] == node
        prefixes = {p[:k] for p in patterns for k in range(len(p) + 1)}
        for p in patterns:
            if not any(o != p and o[: len(p)] == p for o in patterns):  # a leaf
                # its row is its fallback's: the longest proper suffix that is a prefix
                fallback = max((p[k:] for k in range(1, len(p) + 1) if p[k:] in prefixes), key=len)
                assert node_of[walk(auto, p)] == node_of[walk(auto, fallback)]

    def test_full_match_of_a_borderless_pattern_folds_into_the_root(self):
        auto = build_automaton(4, [(0, 1, 2)])
        graph = tally_graph(auto, [1], 5)
        assert graph.node_of == (0, 1, 2, 0)
        # reading 2 after 01 returns to the root's node, emitting the pattern
        assert [(nxt, symbols) for nxt, symbols, _, _ in graph.moves[2]] == [(0, 2), (1, 1), (0, 1)]
        assert [shift for nxt, _, _, shift in graph.moves[2] if nxt == 0] == [0, graph.width]

    def test_short_words_with_large_counts_are_counted_quickly(self):
        # no word of length t holds more than t - len + 1 copies of a pattern,
        # so both are 0 without packing 41^3 or 6001^2 tally vectors per state
        instances = [
            ProblemInstance.from_pairs(4, 5, [((0, 1), 40), ((1, 2), 40), ((2, 3), 40)]),
            ProblemInstance.from_pairs(2, 1, [((0,), 6000), ((1,), 6000)]),
        ]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert [dp_count(inst) for inst in instances] == [0, 0]
            assert time.perf_counter() - start < 1
            assert tracemalloc.get_traced_memory()[1] < 10**6
        finally:
            tracemalloc.stop()
        assert [enumerate_count(inst) for inst in instances] == [0, 0]


class TestDpCount:
    def test_known_small_case(self):
        inst = ProblemInstance.from_pairs(2, 4, [((0, 1), 1)])
        assert dp_count(inst) == 10

    def test_zero_length_word(self):
        assert dp_count(ProblemInstance.from_pairs(2, 0, [((0,), 0)])) == 1
        assert dp_count(ProblemInstance.from_pairs(2, 0, [((0,), 1)])) == 0

    def test_more_occurrences_than_room_gives_0_before_the_budget(self, monkeypatch):
        # 10**8 copies of ab cannot fit in 5 symbols, where the budget
        # would predict about 3 * 10**9 steps
        inst = ProblemInstance.from_pairs(2, 5, [((0, 1), 10**8)])
        assert dp_count(inst) == 0
        monkeypatch.setattr(core_module, "DEFAULT_STEP_BUDGET", 0)
        with mock.patch.object(automaton_module, "build_automaton", side_effect=AssertionError):
            assert dp_count(inst) == 0

    def test_handles_self_intersecting_patterns(self):
        inst = ProblemInstance.from_pairs(2, 4, [((0, 0), 2)])
        assert dp_count(inst) == 2

    def test_handles_overlapping_pairs(self):
        inst = ProblemInstance.from_pairs(2, 5, [((0, 1), 1), ((1, 0), 1)])
        assert dp_count(inst) == enumerate_count(inst)

    def test_budget_refusal(self, monkeypatch):
        inst = ProblemInstance.from_pairs(4, 1000, [((0, 1, 2), 5)])
        monkeypatch.setattr(core_module, "DEFAULT_STEP_BUDGET", 100)
        with pytest.raises(BudgetExceededError):
            dp_count(inst)

    def test_budget_counts_every_symbol_the_sweep_tries(self, monkeypatch):
        # the four states have 2, 3, 3 and 2 distinct successors, so
        # t * successors * domain = 10 * 10 * 2 = 200 moves at most
        inst = ProblemInstance.from_pairs(4, 10, [((0, 1, 2), 1)])
        expected = enumerate_count(inst)  # before the budget, which enumeration shares
        monkeypatch.setattr(core_module, "DEFAULT_STEP_BUDGET", 199)
        with pytest.raises(BudgetExceededError):
            dp_count(inst)
        monkeypatch.setattr(core_module, "DEFAULT_STEP_BUDGET", 200)
        assert dp_count(inst) == expected

    def test_budget_is_exact_at_the_boundary(self, monkeypatch):
        inst = ProblemInstance.from_pairs(5, 7, [((0, 1, 0), 1), ((1, 1), 2)])
        predicted = predicted_moves(inst)
        expected = enumerate_count(inst)  # before the budget, which enumeration shares
        monkeypatch.setattr(core_module, "DEFAULT_STEP_BUDGET", predicted)
        assert dp_count(inst) == expected
        monkeypatch.setattr(core_module, "DEFAULT_STEP_BUDGET", predicted - 1)
        with pytest.raises(BudgetExceededError):
            dp_count(inst)

    @pytest.mark.parametrize(
        "inst",
        [
            ProblemInstance.from_pairs(4, 10, [((0, 1, 2), 1)]),
            ProblemInstance.from_pairs(2, 12, [((0, 0), 3), ((0, 1, 0), 1)]),
            ProblemInstance.from_pairs(36, 40, [((0, 1, 2), 1), ((3, 4, 5), 0), ((6, 7, 8), 1)]),
        ],
    )
    def test_budget_bounds_the_moves_the_sweep_makes(self, inst):
        # each move carries every slot of its state's mass
        auto = build_automaton(inst.alphabet_size, inst.patterns)
        graph, steps = sweep(auto, inst.required_counts, inst.word_length)
        moves = sum(
            len(graph.moves[state])
            for masses in steps[:-1]
            for state, slots in enumerate(masses)
            if any(slots)
        )
        assert 0 < moves * graph.slots <= predicted_moves(inst)
        assert sum(map(len, graph.moves)) * graph.slots <= predicted_moves(inst)  # the build
        # dp_count's two halves: the front's first t // 2 steps, from the
        # nodes holding mass, and t - t // 2 back steps over every node
        half = inst.word_length // 2
        front = sum(
            len(graph.moves[node])
            for masses in steps[:half]
            for node, slots in enumerate(masses)
            if any(slots)
        )
        back = (inst.word_length - half) * sum(map(len, graph.moves))
        assert (front + back) * graph.slots <= predicted_moves(inst)

    def test_both_halves_step_through_advance_distribution(self):
        # t // 2 front steps over the graph, then t - t // 2 back steps over
        # its transpose: the same nodes, slots and width
        inst = ProblemInstance.from_pairs(3, 7, [((0, 1, 0), 1), ((1, 1), 2)])
        value, graphs = stepped_graphs(inst)
        assert value == enumerate_count(inst)
        assert len(graphs) == 7
        front, back = graphs[0], graphs[-1]
        assert all(g is front for g in graphs[:3]) and all(g is back for g in graphs[3:])
        assert isinstance(back, TallyGraph) and back is not front
        same = ("alphabet_size", "slots", "width", "node_of")
        assert [getattr(back, f) for f in same] == [getattr(front, f) for f in same]

    @given(
        st.integers(2, 4).flatmap(lambda q: st.tuples(st.just(q), patterns_over(q, 3))),
        st.integers(4, 6),
        st.lists(st.integers(0, 2), min_size=3, max_size=3),
        st.lists(st.one_of(st.just(0), st.integers()), min_size=1, max_size=8),
    )
    @example((2, [(0, 0), (0, 0, 0)]), 5, [2, 1, 0], [-1, 0])  # bordered, one a prefix of the other
    @example((3, [(0, 1, 0), (1, 0), (2,)]), 6, [1, 2, 1], [-1])  # overlapping pairs
    @settings(max_examples=60, deadline=None)
    def test_a_push_over_the_transpose_is_a_pull_over_the_graph(self, q_patterns, t, counts, fill):
        # node by node, on masses that fit the slots (-1 fills every bit), zeros included
        q, patterns = q_patterns
        inst = ProblemInstance.from_pairs(q, t, list(zip(patterns, counts)))
        _, graphs = stepped_graphs(inst)
        front, back = graphs[0], graphs[-1]
        top = (1 << (front.slots * front.width)) - 1
        masses = [fill[k % len(fill)] & top for k in range(len(front.moves))]
        assert advance_distribution(back, masses) == pulled(front, masses)

    def test_wide_alphabet_over_budget_is_refused_quickly(self):
        # the automaton's rows hold only the symbols its patterns use, so
        # a million-symbol alphabet costs nothing before the budget check
        inst = ProblemInstance.from_pairs(10**6, 10**6, [((0, 1), 1000)])
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            dp_count(inst)
        assert time.perf_counter() - start < 0.05

    def test_long_pattern_over_budget_is_refused_quickly(self):
        # the automaton costs states * alphabet size to build, so the
        # budget check that follows it comes after little work
        pattern = tuple(1 + i % 35 for i in range(3000))
        inst = ProblemInstance.from_pairs(36, 10**6, [(pattern, 1)])
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            dp_count(inst)
        assert time.perf_counter() - start < 5

    @given(
        st.integers(2, 5).flatmap(lambda q: st.tuples(st.just(q), patterns_over(q, 2))),
        st.integers(0, 6),
        st.lists(st.integers(0, 2), min_size=2, max_size=2),
    )
    @example((3, [(0, 1), (1, 0)]), 6, [1, 1])  # overlapping pair
    @example((4, [(2, 2), (2, 3, 2)]), 6, [2, 1])  # both self-intersecting, overlapping
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_enumeration_over_the_whole_alphabet(self, q_patterns, t, counts):
        q, patterns = q_patterns
        inst = ProblemInstance.from_pairs(q, t, list(zip(patterns, counts)))
        assert dp_count(inst) == enumerate_count(inst)

    @pytest.mark.parametrize(
        "inst",
        [
            ProblemInstance.from_pairs(36, 180, [((0, 1, 2), 2), ((3, 4, 5), 1)]),
            ProblemInstance.from_pairs(26, 150, [((0, 1, 2), 1), ((3, 4, 5), 0), ((6, 7, 8), 1)]),
        ],
    )
    def test_agrees_with_closed_form_on_long_wide_alphabet_words(self, inst):
        assert dp_count(inst) == count_multi(inst).total

    @pytest.mark.parametrize("required", [0, 1])
    def test_slots_use_their_full_width(self, required):
        # most of the 36^100 words of each half avoid 012, so a half's
        # zero-tally slot needs every bit of q^(t - t // 2): a slot any
        # narrower carries into the next one
        inst = ProblemInstance.from_pairs(36, 200, [((0, 1, 2), required)])
        for t in (100, 200):
            avoiding = count_multi(ProblemInstance.from_pairs(36, t, [((0, 1, 2), 0)])).total
            assert avoiding.bit_length() == (36**t).bit_length()
        assert dp_count(inst) == count_multi(inst).total

    @given(
        borderless_disjoint_sets(),
        st.integers(0, 150),
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    @example((36, [(0, 1, 2)]), 0, [0, 0, 0])
    @example((36, [(0, 1, 2)]), 0, [1, 0, 0])
    @example((3, [(0,), (1,), (2,)]), 9, [3, 3, 3])  # all length 1: every symbol is a pattern
    @example((4, [(0,), (1,)]), 150, [3, 2, 0])
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_closed_form_at_full_slot_width(self, q_patterns, t, counts):
        q, patterns = q_patterns
        inst = ProblemInstance.from_pairs(q, t, list(zip(patterns, counts)))
        assert dp_count(inst) == count_multi(inst).total

    @given(
        # q ** t stays within 20,000 words, so enumeration is quick
        st.sampled_from([(2, 12), (3, 9), (4, 7)]).flatmap(
            lambda q_most: st.tuples(
                st.just(q_most[0]), patterns_over(q_most[0], 3), st.integers(0, q_most[1])
            )
        ),
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    @example((2, [(0, 1, 0, 1)], 5), [2, 0, 0])  # the second copy straddles the split
    @example((2, [(0, 1, 0, 1)], 6), [2, 0, 0])
    @example((2, [(0, 1, 0, 1)], 6), [1, 0, 0])
    @example((4, [(0, 3, 2), (1, 2, 3)], 7), [1, 1, 0])  # the ACGT flagship's ATG and CGT
    @example((2, [(0, 0), (0, 1, 0)], 11), [3, 2, 0])  # bordered, shared prefix
    @example((3, [(0, 1), (1, 0), (0, 1, 1)], 9), [2, 2, 1])  # overlapping pairs
    @example((2, [(0,), (1,)], 0), [0, 0, 0])
    @example((2, [(0,), (1,)], 1), [1, 0, 0])
    @example((2, [(0, 1)], 1), [0, 0, 0])
    @settings(max_examples=80, deadline=None)
    def test_meets_in_the_middle_bit_exactly(self, q_patterns_t, counts):
        # two half sweeps on half-width slots == one full sweep == every word
        q, patterns, t = q_patterns_t
        required = counts[: len(patterns)]
        inst = ProblemInstance.from_pairs(q, t, list(zip(patterns, required)))
        graph, steps = sweep(build_automaton(q, patterns), required, t)
        top = sum(slots[graph.slots - 1] for slots in steps[-1])
        assert dp_count(inst) == top == enumerate_count(inst)

    def test_flagship_meets_in_the_middle_bit_exactly(self):
        # ACGT words of length 200 with ATG 10 times and CGT 8 times
        inst = ProblemInstance.from_pairs(4, 200, [((0, 3, 2), 10), ((1, 2, 3), 8)])
        graph, steps = sweep(build_automaton(4, inst.patterns), inst.required_counts, 200)
        top = sum(slots[graph.slots - 1] for slots in steps[-1])
        assert dp_count(inst) == top == count_multi(inst).total

    @given(
        st.integers(2, 4).flatmap(
            lambda q: st.tuples(
                st.just(q), st.lists(st.integers(0, q - 1), min_size=1, max_size=7).map(tuple)
            )
        ),
        st.integers(40, 120),
    )
    @example((2, (0, 0, 0, 0)), 120)  # every shift a border
    @example((2, (0, 1, 0, 1)), 100)  # border 01
    @example((2, (0, 1, 0)), 80)  # border 0
    @example((2, (0, 1, 1, 0, 1, 1, 0)), 60)  # borders 0 and 0110
    @settings(max_examples=6, deadline=None)
    def test_moments_over_every_required_count(self, q_pattern, t):
        # summed over every x, the counts give all q ** t words, and
        # weighted by x they give the words with one marked occurrence:
        # (t - a + 1) q ** (t - a), bordered patterns included
        q, pattern = q_pattern
        a = len(pattern)
        counts = [
            dp_count(ProblemInstance.from_pairs(q, t, [(pattern, x)])) for x in range(t - a + 2)
        ]
        assert sum(counts) == q**t
        assert sum(x * c for x, c in enumerate(counts)) == (t - a + 1) * q ** (t - a)

    def test_moments_of_an_overlapping_pair(self):
        # 010 and 10 overlap both ways; the moments hold for each pattern
        t = 16
        patterns = [(0, 1, 0), (1, 0)]
        moments = [0, 0, 0]  # k = 0, then k = 1 on each pattern
        for required in itertools.product(range(t - 1), range(t)):
            count = dp_count(ProblemInstance.from_pairs(2, t, list(zip(patterns, required))))
            moments[0] += count
            moments[1] += required[0] * count
            moments[2] += required[1] * count
        assert moments == [2**t, (t - 2) * 2 ** (t - 3), (t - 1) * 2 ** (t - 2)]

    @given(
        st.integers(2, 3),
        st.integers(0, 7),
        st.lists(
            st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        st.lists(st.integers(0, 2), min_size=2, max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_enumeration(self, q, t, patterns, counts):
        pairs = [(p, x) for p, x in zip(patterns, counts)]
        inst = ProblemInstance.from_pairs(q, t, pairs)
        assert dp_count(inst) == enumerate_count(inst)
