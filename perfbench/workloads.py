"""Seeded inputs, callers and reference checks for the benchmark workloads.

Standard library only.  The package under test is never imported here:
``build`` and the callers receive its modules from ``run.py``, which
checks that they come from the checkout's ``src/``.

Every workload is a table of 25 rows.  A row fixes what sets the cost of
a call: alphabet size, pattern lengths, required counts and word length.
The seed picks what does not: pattern content and the call order.  A
pass calls every row once, so the mix of cheap and expensive calls is the
same for every seed and every pass, and the run-to-run spread stays small.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("closed-multi", "cli-long-single", "oracle-dp")

# Each table row fixes what sets the cost of a call; word lengths were
# picked once so that the rows' costs rise geometrically, which keeps
# p50 and p90 on one row each whatever the seed.

# count_multi on 2-4 patterns, about 5 to 250 ms and 1e3 to 4e4 terms per
# call: (alphabet size, pattern lengths, required counts, word length).
CLOSED_SLOTS = (
    (4, (3, 3), (1, 0), 129),
    (6, (3, 3, 4), (0, 2, 1), 67),
    (16, (3, 3, 3, 3), (0, 1, 0, 1), 42),
    (12, (3, 4), (1, 1), 192),
    (16, (3, 3, 3), (1, 0, 2), 72),
    (12, (3, 3, 3, 4), (1, 0, 1, 0), 49),
    (4, (3, 3), (2, 1), 219),
    (6, (3, 3, 4), (1, 1, 0), 89),
    (8, (3, 3, 3, 3), (0, 1, 0, 1), 51),
    (12, (3, 4), (0, 2), 300),
    (16, (3, 3, 3), (2, 1, 1), 102),
    (20, (3, 3, 3, 4), (1, 0, 1, 0), 62),
    (4, (3, 3, 3), (1, 0, 2), 111),
    (12, (3, 3, 3, 4), (1, 0, 1, 0), 66),
    (8, (3, 3, 3), (2, 1, 1), 124),
    (20, (3, 3, 3, 4), (1, 0, 1, 0), 72),
    (16, (3, 3, 3), (1, 0, 2), 132),
    (12, (3, 3, 3, 4), (1, 0, 1, 0), 76),
    (4, (3, 3, 3), (2, 1, 1), 148),
    (20, (3, 3, 3, 4), (1, 0, 1, 0), 84),
    (8, (3, 3, 3), (1, 0, 2), 159),
    (12, (3, 3, 3, 4), (1, 0, 1, 0), 93),
    (16, (3, 3, 3), (2, 1, 1), 184),
    (20, (3, 3, 3, 4), (1, 0, 1, 0), 101),
)

# cli count on one pattern: (alphabet size, pattern length, required
# count, word length).  Counts have 300 to 4,100 digits, except the last
# five rows, whose counts (4,700 to 6,000 digits) are past the 4,300-digit
# int-to-str limit.
CLI_SLOTS = (
    (4, 3, 1, 500),
    (20, 4, 3, 364),
    (26, 5, 0, 602),
    (36, 3, 2, 473),
    (4, 4, 2, 947),
    (20, 5, 0, 1117),
    (26, 3, 3, 880),
    (36, 4, 1, 1157),
    (4, 5, 1, 1723),
    (20, 3, 3, 1156),
    (26, 4, 0, 1585),
    (36, 5, 2, 2006),
    (4, 3, 2, 1750),
    (20, 4, 0, 2013),
    (26, 5, 3, 2596),
    (36, 3, 1, 1867),
    (4, 4, 1, 2871),
    (20, 5, 3, 3151),
    (26, 3, 0, 2392),
    (36, 4, 2, 2634),
    (20, 5, 2, 4143),
    (26, 4, 0, 3792),
    (36, 4, 3, 3855),
    (20, 3, 1, 3657),
    (36, 3, 1, 3855),
)

# dp_count on 1-3 motifs, about 10 to 330 ms per call: (alphabet size,
# motif lengths, required counts, word length).
ORACLE_SLOTS = (
    (4, (4,), (6,), 166),
    (4, (3, 3), (0, 1), 178),
    (4, (3,), (10,), 155),
    (20, (3,), (1,), 180),
    (36, (3,), (0,), 186),
    (26, (3,), (1,), 232),
    (20, (4,), (2,), 205),
    (4, (3, 3), (2, 2), 164),
    (26, (4,), (2,), 177),
    (4, (3, 4), (3, 2), 138),
    (36, (4,), (2,), 208),
    (20, (3, 3), (0, 1), 194),
    (36, (3, 3), (0, 0), 194),
    (4, (3, 3, 3), (1, 1, 1), 150),
    (20, (3, 3), (1, 1), 168),
    (36, (3, 3), (1, 0), 163),
    (4, (3, 3, 4), (2, 1, 1), 153),
    (20, (3, 4), (2, 1), 166),
    (26, (4, 4), (1, 1), 184),
    (36, (3, 4), (1, 1), 182),
    (20, (3, 3, 3), (1, 0, 1), 160),
    (36, (3, 3), (2, 2), 175),
    (26, (3, 3, 3), (1, 0, 1), 147),
    (36, (3, 3, 3), (1, 1, 1), 109),
)

# ACGT words of length 200 with ATG exactly 10 times and CGT exactly 8.
FLAGSHIP = (4, 200, (((0, 3, 2), 10), ((1, 2, 3), 8)), tuple("ACGT"))

DEFAULT_SYMBOLS = "abcdefghijklmnopqrstuvwxyz0123456789"


@dataclass(frozen=True)
class Spec:
    """One generated input as plain data: the seed's whole contribution."""

    q: int
    t: int
    pairs: tuple[tuple[tuple[int, ...], int], ...]
    names: tuple[str, ...] | None = None
    via: str = "api"  # cli only: "inline" flags or an "input" document


@dataclass(frozen=True)
class Case:
    spec: Spec
    instance: object  # subwordcount.core.ProblemInstance
    argv: tuple[str, ...] = ()


# -- applicability, checked independently of subwordcount.overlap ---------


def _aligns(a, b, shift):
    """True when b placed ``shift`` positions after a agrees with a on at
    least one shared position and on every shared position."""
    lo, hi = max(0, shift), min(len(a), shift + len(b))
    return lo < hi and all(a[i] == b[i - shift] for i in range(lo, hi))


def is_borderless(p):
    return not any(_aligns(p, p, s) for s in range(1, len(p)))


def can_share_position(a, b):
    return any(_aligns(a, b, s) for s in range(1 - len(b), len(a)))


def _patterns(rng, q, lengths):
    """Random borderless, pairwise non-overlapping patterns with distinct
    first symbols, so that no two share a prefix and the matching
    automaton has the same number of states for every seed."""
    for _ in range(1000):  # restart when earlier picks leave no room
        chosen = []
        for length in lengths:
            for _ in range(200):
                p = tuple(rng.randrange(q) for _ in range(length))
                if is_borderless(p) and all(
                    p[0] != c[0] and not can_share_position(p, c) for c in chosen
                ):
                    chosen.append(p)
                    break
            else:
                break
        else:
            return chosen
    raise RuntimeError(f"no patterns of lengths {lengths} fit over {q} symbols")


# -- generation -----------------------------------------------------------


def generate(workload, seed):
    """The specs for one run, in call order.  Same seed, same specs."""
    rng = random.Random(f"{workload}:{seed}")
    specs = {
        "closed-multi": _closed_multi,
        "cli-long-single": _cli_long_single,
        "oracle-dp": _oracle_dp,
    }[workload](rng)
    rng.shuffle(specs)
    return specs


def _closed_multi(rng):
    q, t, pairs, names = FLAGSHIP
    specs = [Spec(q, t, pairs, names)]
    for q, lengths, required, t in CLOSED_SLOTS:
        specs.append(Spec(q, t, tuple(zip(_patterns(rng, q, lengths), required))))
    return specs


def _cli_long_single(rng):
    specs = []
    for k, (q, length, required, t) in enumerate(CLI_SLOTS):
        (pattern,) = _patterns(rng, q, [length])
        via = ("inline", "input")[k % 2]
        specs.append(Spec(q, t, ((pattern, required),), via=via))
    return specs


def _oracle_dp(rng):
    q, t, pairs, names = FLAGSHIP
    specs = [Spec(q, t, pairs, names)]
    for q, lengths, required, t in ORACLE_SLOTS:
        specs.append(Spec(q, t, tuple(zip(_patterns(rng, q, lengths), required))))
    return specs


def size_summary(cases, pkg):
    """Ranges of q, t, d and summation terms, and the share of counts past
    4,300 digits."""
    specs = [case.spec for case in cases]
    past = sum(1 for s in specs if s.t * math.log10(s.q) > 4300)

    def span(values):
        return f"{min(values)}..{max(values)}"

    terms = [
        sum(1 for _ in pkg.closed_form.iter_copy_counts(c.spec.t, c.instance.specs)) for c in cases
    ]
    return (
        f"q {span([s.q for s in specs])}, t {span([s.t for s in specs])}, "
        f"d {span([len(s.pairs) for s in specs])}, terms {span(terms)}, "
        f"share past the digit limit {past / len(specs):.2f} ({past} of {len(specs)})"
    )


# -- building inputs for the package --------------------------------------


def build(specs, pkg, workdir):
    """Instances for every spec; argv (and documents in ``workdir``) for
    cli specs."""
    cases = []
    for k, spec in enumerate(specs):
        instance = pkg.core.ProblemInstance.from_pairs(spec.q, spec.t, spec.pairs, spec.names)
        argv = ()
        if spec.via == "inline":
            ((pattern, count),) = spec.pairs
            body = "".join(DEFAULT_SYMBOLS[s] for s in pattern)
            argv = ("count", "--q", str(spec.q), "--t", str(spec.t), "--pattern", f"{body}={count}")
        elif spec.via == "input":
            path = Path(workdir) / f"instance-{k:02d}.json"
            document = {
                "alphabet": {"size": spec.q},
                "length": spec.t,
                "patterns": [{"pattern": list(p), "count": x} for p, x in spec.pairs],
            }
            path.write_text(json.dumps(document), encoding="utf-8")
            argv = ("count", "--input", str(path))
        cases.append(Case(spec, instance, argv))
    return cases


# -- calling the package and checking what it returned --------------------


class CallFailed(Exception):
    """A cli call returned a nonzero exit code."""


def caller(workload, pkg):
    """Function running one case through the package's public entry point.

    Module attributes are looked up on every call, so the traced run's
    wrappers take effect without a second code path here.
    """
    if workload == "closed-multi":
        return lambda case: pkg.closed_form.count_multi(case.instance).total
    if workload == "oracle-dp":
        return lambda case: pkg.automaton.dp_count(case.instance)

    def run_cli(case):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(list(case.argv))
        if code != 0:
            raise CallFailed(f"exit code {code}: {err.getvalue().strip()[:200]}")
        return out.getvalue()

    return run_cli


def reference(workload, pkg, case):
    """The count by a method independent of the one under test."""
    if workload == "oracle-dp":
        return pkg.closed_form.count_multi(case.instance).total
    return pkg.automaton.dp_count(case.instance)


def parse_decimal(text):
    """Exact int from a decimal string of any length, without lifting the
    interpreter's int/str digit limit: the limit is process-wide and would
    hide the failure past 4,300 digits that the cli workload reports."""
    if not isinstance(text, str) or not text.isascii() or not text.isdigit():
        raise ValueError(f"not a decimal count: {text[:40]!r}")
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def count_of(workload, output):
    """The count as an int, and its number of decimal digits."""
    if workload != "cli-long-single":
        return output, None
    text = json.loads(output)["count"]
    return parse_decimal(text), len(text)
