"""End-to-end acceptance checks.

One test per promised capability, each ending in a single pass/fail line
with its measured evidence.  Counting results are compared bit-exact;
the two runtime checks use deliberately loose wall-time tolerances
because the claim under test is polynomial-versus-exponential shape,
not constants.
"""

import itertools
import random
import time

from helpers import borderless_patterns, independent_pattern_pairs
from subwordcount import (
    ProblemInstance,
    closed_form,
    count_multi,
    count_single,
    dp_count,
    enumerate_count,
)
from subwordcount.enumeration import occurrence_profile_counts


def conclude(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_01_single_pattern_counts_match_exhaustive_enumeration():
    # every q in {2,3}, borderless pattern of length <= 3, t <= 10,
    # and required count from 0 to t // length: bit-exact agreement
    checked = 0
    for q in (2, 3):
        for pattern in borderless_patterns(q, 3):
            a = len(pattern)
            for t in range(11):
                # one enumeration sweep per (q, pattern, t) serves every x
                histogram = occurrence_profile_counts(q, t, [pattern])
                for x in range(t // a + 1):
                    expected = histogram.get((x,), 0)
                    got = count_single(q, t, a, x).total
                    assert got == expected, (q, pattern, t, x, got, expected)
                    checked += 1
    # the histogram is the same enumeration loop; pin the equivalence
    for q, t, pattern, x in [(2, 6, (0, 1), 1), (3, 7, (0, 1, 2), 0), (2, 9, (1, 1, 0), 2)]:
        inst = ProblemInstance.from_pairs(q, t, [(pattern, x)])
        histogram = occurrence_profile_counts(q, t, [pattern])
        assert histogram.get((x,), 0) == enumerate_count(inst)
    conclude(1, True, f"{checked} (q, pattern, t, x) combinations, bit-exact")


def _two_pattern_cases():
    """(q, t, a, x1, b, x2) for distinct applicable two-pattern spec sets."""
    count_cycle = [(1, 1), (2, 1), (1, 2), (0, 2), (3, 1), (2, 2)]
    cases = []
    seen = set()
    for q, t, quota in ((2, 9, 6), (3, 9, 13), (4, 8, 13)):
        pairs = list(independent_pattern_pairs(q, 3))
        taken = 0
        for (a, b), (x1, x2) in zip(pairs * len(count_cycle), itertools.cycle(count_cycle)):
            if taken >= quota:
                break
            if len(a) * x1 + len(b) * x2 > t:
                continue
            key = (q, t, frozenset({(a, x1), (b, x2)}))
            if key in seen:
                continue
            seen.add(key)
            cases.append((q, t, a, x1, b, x2))
            taken += 1
    return cases


def test_02_two_pattern_counts_match_exhaustive_enumeration():
    cases = _two_pattern_cases()
    assert len(cases) >= 30, f"only {len(cases)} distinct applicable spec sets found"
    for q, t, a, x1, b, x2 in cases:
        inst = ProblemInstance.from_pairs(q, t, [(a, x1), (b, x2)])
        got = count_multi(inst).total
        expected = enumerate_count(inst)
        assert got == expected, (q, t, a, x1, b, x2, got, expected)
    conclude(2, True, f"{len(cases)} distinct applicable 2-pattern spec sets, bit-exact")


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_03_acgt_motif_instance_closed_form_matches_automaton():
    # ACGT alphabet, word length 100, motif ATG required exactly 5 times
    inst = ProblemInstance.from_pairs(4, 100, [((0, 3, 2), 5)], symbol_names=tuple("ACGT"))
    closed, closed_time = _timed(lambda: count_single(4, 100, 3, 5).total)
    oracle, oracle_time = _timed(lambda: dp_count(inst))
    ok = closed == oracle and closed_time < 1.0 and oracle_time < 1.0
    conclude(
        3,
        ok,
        f"{len(str(closed))}-digit count, closed {closed_time:.3f}s, "
        f"automaton {oracle_time:.3f}s, equal={closed == oracle}",
    )


def test_04_large_alphabet_instance_closed_form_matches_automaton():
    # 26 letters, word length 12, motif SEC required exactly twice;
    # 26**12 words put enumeration far out of reach, the automaton does not care
    sec = (18, 4, 2)
    inst = ProblemInstance.from_pairs(26, 12, [(sec, 2)])
    closed, closed_time = _timed(lambda: count_single(26, 12, 3, 2).total)
    oracle, oracle_time = _timed(lambda: dp_count(inst))
    ok = closed == oracle and closed_time < 1.0 and oracle_time < 1.0
    conclude(
        4,
        ok,
        f"count {closed}, closed {closed_time:.3f}s, automaton {oracle_time:.3f}s, "
        f"equal={closed == oracle}",
    )


def test_05_long_word_two_motif_instance_closed_form_matches_automaton():
    # ACGT, word length 200, ATG exactly 10 times and CGT exactly 8 times
    inst = ProblemInstance.from_pairs(
        4, 200, [((0, 3, 2), 10), ((1, 2, 3), 8)], symbol_names=tuple("ACGT")
    )
    closed, closed_time = _timed(lambda: count_multi(inst).total)
    oracle, oracle_time = _timed(lambda: dp_count(inst))
    ok = closed == oracle and closed_time + oracle_time < 30.0
    conclude(
        5,
        ok,
        f"{len(str(closed))}-digit count, combined {closed_time + oracle_time:.3f}s, "
        f"equal={closed == oracle}",
    )


def test_06_alphanumeric_instance_closed_form_matches_automaton():
    # 36 alphanumeric symbols, word length 16, abc twice and 123 once
    names = tuple("abcdefghijklmnopqrstuvwxyz0123456789")
    inst = ProblemInstance.from_pairs(
        36, 16, [((0, 1, 2), 2), ((27, 28, 29), 1)], symbol_names=names
    )
    closed, closed_time = _timed(lambda: count_multi(inst).total)
    oracle, oracle_time = _timed(lambda: dp_count(inst))
    ok = closed == oracle and closed_time + oracle_time < 5.0
    conclude(
        6,
        ok,
        f"count {closed}, combined {closed_time + oracle_time:.3f}s, "
        f"equal={closed == oracle}",
    )


def test_07_counts_over_all_requirements_sum_to_all_words():
    checked = 0
    for q in (2, 3, 4):
        for a in (1, 2, 3):
            for t in range(13):
                total = sum(count_single(q, t, a, x).total for x in range(t // a + 1))
                assert total == q**t, (q, a, t, total)
                checked += 1
    conclude(7, True, f"{checked} (q, a, t) partitions sum to q**t exactly")


def test_08_multi_pattern_engine_reduces_to_single_pattern_engine():
    checked = 0
    for q in (2, 3):
        for pattern in borderless_patterns(q, 3):
            a = len(pattern)
            for t in range(11):
                for x in range(t // a + 1):
                    inst = ProblemInstance.from_pairs(q, t, [(pattern, x)])
                    assert count_multi(inst).total == count_single(q, t, a, x).total
                    checked += 1
    conclude(8, True, f"{checked} one-pattern instances, both engines bit-exact equal")


def test_10_polynomial_vs_exponential_runtime_separation():
    _, closed_time = _timed(lambda: count_single(4, 2000, 3, 2).total)
    closed_ok = closed_time < 5.0

    pattern = (0, 1, 2)
    times = {}
    # the best of three at the two shorter lengths, whose runs take tens of
    # milliseconds, so one stall cannot read as slower growth
    for t, runs in ((8, 3), (10, 3), (12, 1)):
        inst = ProblemInstance.from_pairs(4, t, [(pattern, 2)])
        times[t] = min(_timed(lambda: enumerate_count(inst))[1] for _ in range(runs))
    growth_1 = times[10] / times[8]
    growth_2 = times[12] / times[10]
    growth_ok = growth_1 >= 8.0 and growth_2 >= 8.0
    conclude(
        10,
        closed_ok and growth_ok,
        f"closed form t=2000 in {closed_time:.3f}s; enumeration growth "
        f"x{growth_1:.1f} then x{growth_2:.1f} per +2 in t",
    )


def test_11_oracles_agree_on_adversarial_and_random_instances():
    fixed = [
        (2, 10, [((0, 0), 2)]),
        (2, 8, [((0, 1, 0), 1)]),
        (2, 9, [((0, 1), 1), ((1, 0), 1)]),
        (2, 8, [((0, 0), 1), ((0, 0, 0), 1)]),
        (3, 7, [((0, 1), 2), ((1, 2), 0)]),
        (2, 6, [((0, 1, 0, 1), 1)]),
        (4, 5, [((0, 1, 2, 3, 0), 1)]),
        (2, 12, [((0,), 6), ((1,), 6)]),
    ]
    cases = [ProblemInstance.from_pairs(q, t, pairs) for q, t, pairs in fixed]

    rng = random.Random(20260817)
    while len(cases) < 100:
        q = rng.choice([2, 3, 4, 5])
        budget = 10**6 if len(cases) % 8 == 0 else 10**5
        t_cap = 1
        while q ** (t_cap + 1) <= budget:
            t_cap += 1
        t = rng.randint(1, t_cap)
        d = rng.randint(1, 3)
        patterns = set()
        while len(patterns) < d:
            length = rng.randint(1, 4)
            patterns.add(tuple(rng.randrange(q) for _ in range(length)))
        pairs = [(p, rng.randint(0, 3)) for p in sorted(patterns)]
        cases.append(ProblemInstance.from_pairs(q, t, pairs))

    for inst in cases:
        assert inst.alphabet_size**inst.word_length <= 10**6
        enum = enumerate_count(inst)
        dp = dp_count(inst)
        assert enum == dp, (inst, enum, dp)
    conclude(
        11,
        True,
        f"{len(cases)} instances ({len(fixed)} adversarial, {100 - len(fixed)} random), "
        "both oracles bit-exact equal",
    )


def test_12_collapsed_total_matches_per_tuple_sum_and_automaton():
    # the total that count_multi returns, multinomial(x) times one coefficient
    # from the layer sum or the recurrence, against two values computed
    # without it: the per-tuple reference sum and the automaton oracle, on
    # the instances of criteria 2 to 6 (the ACGT flagship among them)
    names = tuple("abcdefghijklmnopqrstuvwxyz0123456789")
    corpus = [
        ProblemInstance.from_pairs(q, t, [(a, x1), (b, x2)])
        for q, t, a, x1, b, x2 in _two_pattern_cases()
    ]
    corpus += [
        ProblemInstance.from_pairs(4, 100, [((0, 3, 2), 5)], symbol_names=tuple("ACGT")),
        ProblemInstance.from_pairs(26, 12, [((18, 4, 2), 2)]),
        ProblemInstance.from_pairs(
            4, 200, [((0, 3, 2), 10), ((1, 2, 3), 8)], symbol_names=tuple("ACGT")
        ),
        ProblemInstance.from_pairs(
            36, 16, [((0, 1, 2), 2), ((27, 28, 29), 1)], symbol_names=names
        ),
    ]
    tuples = 0
    for inst in corpus:
        breakdown = count_multi(inst)
        terms = list(closed_form.per_tuple_terms(inst))
        tuples += len(terms)
        assert breakdown.total == sum(value for _, value in terms), inst
        assert breakdown.total == dp_count(inst), inst
        assert breakdown.terms == tuple(terms)
    conclude(
        12,
        True,
        f"{len(corpus)} instances ({tuples} copy-count tuples), closed-form total equals "
        f"the per-tuple sum and the automaton, bit-exact",
    )
