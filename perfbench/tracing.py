"""Spans around the calls into each module of the package, from outside it.

``Tracer.installed`` swaps module-level names (the ones other modules call
through) for timing wrappers and puts the originals back on exit.  Nothing
inside the package changes.  A span records a name, start, end, parent
span and the id of the benchmark call it belongs to; spans stay in memory
until ``write`` puts them in a JSON-lines file.

The combinatorics primitives run hundreds of thousands of times per call,
so they are folded: instead of one span per call, the enclosing span keeps
a call count and the summed time per folded name.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

# (module, attribute, span name) for every wrapped binding.  Each module
# holds its own binding of an imported name, so each binding is wrapped.
SPANNED = (
    ("cli", "main", "cli"),
    ("cli", "count_multi", "closed_form"),
    ("cli", "count_single", "closed_form"),
    ("closed_form", "count_multi", "closed_form"),
    ("closed_form", "count_single", "closed_form"),
    ("cli", "validate_instance", "core.validate"),
    ("closed_form", "validate_instance", "core.validate"),
    ("overlap", "is_self_intersecting", "overlap"),
    ("overlap", "can_overlap", "overlap"),
    ("automaton", "dp_count", "automaton"),
    ("automaton", "build_automaton", "automaton.build"),
    ("automaton", "advance_distribution", "automaton.sweep"),
)
FOLDED = (
    ("closed_form", "binomial", "combinatorics"),
    ("closed_form", "multichoose", "combinatorics"),
    ("closed_form", "multinomial", "combinatorics"),
)


class Span:
    __slots__ = ("id", "name", "parent", "call", "start", "end", "attrs", "folded")

    def __init__(self, id, name, parent, call):
        self.id, self.name, self.parent, self.call = id, name, parent, call
        self.start = self.end = 0.0
        self.attrs = {}
        self.folded = {}  # name -> [calls, seconds]

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "call": self.call,
            "start": self.start,
            "end": self.end,
            **self.attrs,
            **({"folded": self.folded} if self.folded else {}),
        }


def _attrs(name, args, result):
    """Counters read off a finished span's arguments and result."""
    if name == "closed_form":
        values = [value for _, value in result.terms]
        bits = max((abs(v).bit_length() for v in values), default=0)
        return {"terms": len(values), "term_bits": bits}
    if name == "automaton":
        instance = args[0]
        domain = 1
        for x in instance.required_counts:
            domain *= x + 2  # tallies capped at x + 1, so x + 2 values
        return {"t": instance.word_length, "domain": domain}
    if name == "automaton.build":
        return {"states": result.state_count}
    if name == "automaton.sweep":
        automaton, distribution = args[0], args[1]
        return {
            "keys": len(distribution),
            "keys_out": len(result),
            "moves": len(distribution) * automaton.alphabet_size,
        }
    if name == "cli":
        return {"exit": result}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.call = None  # id of the benchmark call in progress

    def _span(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1].id if tracer.stack else None
            span = Span(len(tracer.spans), name, parent, tracer.call)
            tracer.spans.append(span)
            tracer.stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
            span.attrs.update(_attrs(name, args, result))
            return result

        return traced

    def _fold(self, name, fn):
        stack = self.stack

        def traced(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                entry = stack[-1].folded.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed

        return traced

    @contextlib.contextmanager
    def installed(self, pkg):
        """Wrap every listed binding of ``pkg``'s modules, restore on exit."""
        saved = []
        breakdown = pkg.core.CountBreakdown
        original_from_terms = breakdown.__dict__["from_terms"]
        try:
            for table, wrap in ((SPANNED, self._span), (FOLDED, self._fold)):
                for module_name, attr, span_name in table:
                    module = getattr(pkg, module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrap(span_name, original))
            # CountBreakdown construction and its re-sum, reached through
            # the class, so the classmethod itself is wrapped.
            timed = self._span("core.breakdown", original_from_terms.__func__)
            breakdown.from_terms = classmethod(timed)
            yield self
        finally:
            breakdown.from_terms = original_from_terms
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def layer_metrics(spans, digits_max, overhead_ratio):
    """Per-layer totals over every span of a traced pass, plus the most
    digits of a count the cli returned and the tracing overhead (traced
    over untraced throughput), which the caller measures.

    Self time is a span's duration minus the time its direct child spans
    and folded calls cover.
    """
    child_s = {}
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] = child_s.get(span.parent, 0.0) + span.seconds

    def of(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.seconds for s in of(name))

    def self_time(name):
        return sum(
            s.seconds - child_s.get(s.id, 0.0) - sum(f[1] for f in s.folded.values())
            for s in of(name)
        )

    folded = [f for s in spans for f in s.folded.values()]
    closed = of("closed_form")
    cli = of("cli")
    dp = of("automaton")
    builds = of("automaton.build")
    sweeps = of("automaton.sweep")
    states_of = {b.parent: b.attrs["states"] for b in builds}
    predicted = sum(
        s.attrs["t"] * states_of[s.id] * s.attrs["domain"] for s in dp if "t" in s.attrs
    )
    moves = sum(s.attrs["moves"] for s in sweeps)
    cli_failed = [s for s in cli if "raised" in s.attrs or s.attrs.get("exit")]
    return {
        "closed_form.calls": (len(closed), "count"),
        "closed_form.s": (total("closed_form"), "s"),
        "closed_form.self_s": (self_time("closed_form"), "s"),
        "closed_form.terms": (sum(s.attrs.get("terms", 0) for s in closed), "count"),
        "closed_form.term_bits_max": (
            max((s.attrs.get("term_bits", 0) for s in closed), default=0),
            "bits",
        ),
        "combinatorics.calls": (sum(f[0] for f in folded), "count"),
        "combinatorics.s": (sum(f[1] for f in folded), "s"),
        "core.breakdown_calls": (len(of("core.breakdown")), "count"),
        "core.breakdown_s": (total("core.breakdown"), "s"),
        "core.validate_calls": (len(of("core.validate")), "count"),
        "core.validate_s": (total("core.validate"), "s"),
        "overlap.calls": (len(of("overlap")), "count"),
        "overlap.s": (total("overlap"), "s"),
        "cli.calls": (len(cli), "count"),
        "cli.s": (total("cli"), "s"),
        "cli.self_s": (self_time("cli"), "s"),
        "cli.failures": (len(cli_failed), "count"),
        "cli.failures_raised": (sum(1 for s in cli if "raised" in s.attrs), "count"),
        "cli.failures_exit_nonzero": (sum(1 for s in cli if s.attrs.get("exit")), "count"),
        "automaton.calls": (len(dp), "count"),
        "automaton.s": (total("automaton"), "s"),
        "automaton.build_s": (total("automaton.build"), "s"),
        "automaton.states": (sum(states_of.values()), "count"),
        "automaton.sweep_s": (total("automaton.sweep"), "s"),
        "automaton.keys_total": (sum(s.attrs["keys"] for s in sweeps), "count"),
        "automaton.keys_peak": (
            max((max(s.attrs["keys"], s.attrs["keys_out"]) for s in sweeps), default=0),
            "count",
        ),
        "automaton.moves": (moves, "count"),
        "automaton.budget_predicted": (predicted, "count"),
        "automaton.budget_ratio": (moves / predicted if predicted else 0.0, "ratio"),
        "cli.count_digits_max": (digits_max, "digits"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
