"""Command line interface: count, verify, validate, and bench.

Every subcommand reads its instance the same way: ``--input FILE`` with a
JSON instance document, or the inline flags ``--q``/``--alphabet``, ``--t``
and ``--pattern STR=COUNT``, which become the same document.  ``bench``
times the instance once per ``--t`` given; the others use the last one.

Exit codes are a contract shared by every subcommand:

  0  success, and all computed values agree
  1  malformed input (bad flags, unreadable or unwritable file, bad document)
  2  the closed form does not apply to the instance
  3  two counting methods disagreed (the headline failure mode)
  4  refused because a work guard was exceeded: an oracle's guard or
     budget, or the breakdown's cap on its cells, copy-count tuples times
     the pattern count plus the decimal digits of q ** t

Counts are serialized as decimal strings, never JSON numbers, because the
values routinely exceed what a double can represent faithfully.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import statistics
import sys
import time
from typing import Callable, Sequence

from .automaton import dp_count
# count_single is not called here; perfbench/tracing.py wraps cli.count_single
from .closed_form import BREAKDOWN_CELL_CAP, count_multi, count_single  # noqa: F401
from .closed_form import require_applicable, require_listable
from .core import (
    BudgetExceededError,
    NotApplicableError,
    ProblemInstance,
    ValidationReport,
    decimal_string,
    validate_instance,
)
from .enumeration import DEFAULT_GUARD, enumerate_count

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_APPLICABLE = 2
EXIT_DISAGREE = 3
EXIT_REFUSED = 4

# symbol universe for string patterns when no alphabet is declared
DEFAULT_SYMBOLS = "abcdefghijklmnopqrstuvwxyz0123456789"

# Every counting method as (instance, guard) -> count.  The lambdas look the
# functions up when called, so rebinding a name in this module reaches them.
METHODS: dict[str, Callable[[ProblemInstance, int], int]] = {
    "closed_form": lambda instance, guard: count_multi(instance).total,
    "enumeration": lambda instance, guard: enumerate_count(instance, guard),
    "automaton": lambda instance, guard: dp_count(instance),
}
# the METHODS entries each verify --oracle choice runs after the closed form
_ORACLES = {
    "enum": ("enumeration",),
    "automaton": ("automaton",),
    "both": ("enumeration", "automaton"),
}


class DocumentError(ValueError):
    """An instance document or inline flag set could not be parsed."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is taken, so reroute
    # every parse failure through DocumentError and exit 1 instead.
    def error(self, message):
        raise DocumentError(message)


def parse_document(document) -> ProblemInstance:
    """Build a ProblemInstance from a parsed JSON instance document.

    The document holds an alphabet (either {"size": q} or {"symbols":
    [...]}), a word length, and a pattern list of {"pattern": ..,
    "count": ..} entries.  String patterns are tokenized one declared
    symbol per character; alphabets with multi-character symbol names
    must give patterns as index lists.  Only the document's shape is
    checked here; ``ProblemInstance`` checks every value.
    """
    if not isinstance(document, dict):
        raise DocumentError("document must be a JSON object")
    for field in ("alphabet", "length", "patterns"):
        if field not in document:
            raise DocumentError(f"document is missing the {field!r} field")

    size, symbol_names = _parse_alphabet(document["alphabet"])
    lookup = _symbol_lookup(size, symbol_names)
    raw_patterns = document["patterns"]
    if not isinstance(raw_patterns, list):
        raise DocumentError("patterns must be a list")
    pairs = []
    for entry in raw_patterns:
        if not isinstance(entry, dict) or "pattern" not in entry or "count" not in entry:
            raise DocumentError(
                'each pattern entry must be {"pattern": string or index list, "count": n}'
            )
        pairs.append((_parse_pattern_body(entry["pattern"], lookup), entry["count"]))

    try:
        return ProblemInstance.from_pairs(size, document["length"], pairs, symbol_names)
    except (TypeError, ValueError) as exc:
        raise DocumentError(str(exc)) from exc


def _parse_alphabet(alphabet) -> tuple[int, tuple[str, ...] | None]:
    if isinstance(alphabet, dict) and "symbols" in alphabet:
        symbols = alphabet["symbols"]
        if not isinstance(symbols, list) or any(not isinstance(s, str) for s in symbols):
            raise DocumentError("alphabet symbols must be a list of strings")
        return len(symbols), tuple(symbols)
    if isinstance(alphabet, dict) and "size" in alphabet:
        size = alphabet["size"]
        if not isinstance(size, int):
            raise DocumentError("alphabet size must be an integer")
        return size, None
    raise DocumentError('alphabet must be {"size": q} or {"symbols": [...]}')


def _symbol_lookup(size: int, symbol_names: tuple[str, ...] | None) -> dict[str, int] | None:
    """Character-to-index map for tokenizing string patterns, or None when
    string patterns cannot be accepted."""
    if symbol_names is None and size <= len(DEFAULT_SYMBOLS):
        symbol_names = DEFAULT_SYMBOLS[:size]
    if symbol_names is None or any(len(name) != 1 for name in symbol_names):
        return None
    return {name: i for i, name in enumerate(symbol_names)}


def _parse_pattern_body(raw, lookup: dict[str, int] | None) -> tuple:
    if isinstance(raw, list):
        return tuple(raw)
    if not isinstance(raw, str):
        raise DocumentError("a pattern must be a string or an index list")
    if lookup is None:
        raise DocumentError(
            "string patterns need single-character symbols, at most "
            f"{len(DEFAULT_SYMBOLS)} of them when unnamed; use index lists"
        )
    for ch in raw:
        if ch not in lookup:
            raise DocumentError(f"pattern character {ch!r} is not an alphabet symbol")
    return tuple(lookup[ch] for ch in raw)


def report_to_document(report: ValidationReport) -> dict:
    return {
        "self_intersecting": [bool(flag) for flag in report.per_pattern_self_intersection],
        "overlapping_pairs": [list(pair) for pair in report.cross_overlap_pairs],
        "applicable": report.is_formula_applicable,
    }


def _instance_from_args(args, length: int | None = None) -> ProblemInstance:
    """The instance the flags describe: the ``--input`` document, or the
    inline flags at word length ``length`` (by default the last ``--t``)."""
    inline_used = args.pattern or any(f is not None for f in (args.q, args.t, args.alphabet))
    if args.input is not None:
        if inline_used:
            raise DocumentError("--input excludes the inline instance flags")
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, UnicodeDecodeError) as exc:
            raise DocumentError(f"cannot read {args.input}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # bad JSON, nesting too deep, or an integer past the str digit limit
            raise DocumentError(f"{args.input} is not a usable JSON document: {exc}") from exc
        return parse_document(document)
    if not inline_used:
        raise DocumentError("give --input FILE or the inline flags --q/--t/--pattern")
    return parse_document(_document_from_flags(args, length))


def _document_from_flags(args, length: int | None) -> dict:
    """The instance document the inline flags describe, at word length
    ``length`` or else the last ``--t``."""
    if args.t is None:
        raise DocumentError("--t is required")
    if not args.pattern:
        raise DocumentError("at least one --pattern STR=COUNT is required")
    if args.alphabet is not None:
        if args.q is not None and args.q != len(args.alphabet):
            raise DocumentError(
                f"--q {args.q} contradicts the {len(args.alphabet)}-symbol --alphabet"
            )
        alphabet: dict = {"symbols": list(args.alphabet)}
    elif args.q is None:
        raise DocumentError("give --q N or --alphabet SYMBOLS")
    elif args.q > len(DEFAULT_SYMBOLS):
        raise DocumentError(
            f"--q {args.q} exceeds the {len(DEFAULT_SYMBOLS)} unnamed symbols a..z0..9: "
            "name them with --alphabet, or give index-list patterns in an --input document"
        )
    else:
        alphabet = {"size": args.q}
    patterns = []
    for item in args.pattern:
        text, sep, count_text = item.rpartition("=")
        if not sep or not text:
            raise DocumentError(f"--pattern needs the form STR=COUNT, got {item!r}")
        try:
            count = int(count_text)
        except ValueError:
            raise DocumentError(f"required count {count_text!r} is not an integer") from None
        patterns.append({"pattern": text, "count": count})
    return {
        "alphabet": alphabet,
        "length": args.t[-1] if length is None else length,
        "patterns": patterns,
    }


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path or 'stdout'}: {exc}") from exc


def _cmd_count(args) -> int:
    instance = _instance_from_args(args)
    if args.breakdown:
        # refuse before the total, which alone takes seconds on long words
        require_listable(instance)
    breakdown = count_multi(instance)
    payload: dict = {"count": decimal_string(breakdown.total), "method": "closed_form"}
    if args.breakdown:
        try:
            terms = breakdown.terms  # the per-tuple reference, checked against the total
        except ValueError as exc:
            print(f"closed-form engines disagree: {exc}", file=sys.stderr)
            return EXIT_DISAGREE
        payload["terms"] = [
            {"indices": list(indices), "value": decimal_string(value)} for indices, value in terms
        ]
    _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = _instance_from_args(args)
    values = {}
    for name in ("closed_form", *_ORACLES[args.oracle]):
        values[name] = METHODS[name](instance, args.guard)
    agree = len(set(values.values())) == 1
    payload = {
        "values": {name: decimal_string(value) for name, value in values.items()},
        "agree": agree,
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK if agree else EXIT_DISAGREE


def _cmd_validate(args) -> int:
    instance = _instance_from_args(args)
    report = validate_instance(instance)
    _emit(json.dumps(report_to_document(report), indent=2), args.output)
    return EXIT_OK if report.is_formula_applicable else EXIT_NOT_APPLICABLE


def _cmd_bench(args) -> int:
    # one instance per --t; without --t (an --input document) just the one
    instances = [_instance_from_args(args, t) for t in args.t or [None]]
    methods = list(dict.fromkeys(args.method or ["closed_form"]))
    if "closed_form" in methods:
        # refuse before timing anything; the patterns, hence the report, are the same at every --t
        require_applicable(instances[0])

    rows = []
    for instance in instances:
        t = instance.word_length
        seen: dict[str, int] = {}
        for method in methods:
            durations = []
            try:
                for _ in range(args.reps):
                    start = time.perf_counter()
                    value = METHODS[method](instance, args.guard)
                    durations.append(time.perf_counter() - start)
            except BudgetExceededError as exc:
                print(f"skipped t={t}: {exc}", file=sys.stderr)
                continue
            seen[method] = value
            rows.append(
                {
                    "method": method,
                    "q": instance.alphabet_size,
                    "t": t,
                    "pattern_lengths": list(instance.pattern_lengths),
                    "required_counts": list(instance.required_counts),
                    "wall_seconds": statistics.median(durations),
                    "count_digits": len(decimal_string(value)),
                }
            )
        if len(set(seen.values())) > 1:
            detail = ", ".join(f"{m}={decimal_string(v)}" for m, v in sorted(seen.items()))
            print(f"methods disagree at t={t}: {detail}", file=sys.stderr)
            return EXIT_DISAGREE

    _emit(_render_bench(rows, as_json=args.json), args.output)
    for method in methods:
        if all(row["method"] != method for row in rows):
            print(f"{method} refused every instance", file=sys.stderr)
            return EXIT_REFUSED
    return EXIT_OK


def _render_bench(rows: list[dict], as_json: bool) -> str:
    if as_json:
        return json.dumps({"rows": rows}, indent=2)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["method", "q", "t", "pattern_lengths", "required_counts", "wall_seconds", "count_digits"]
    )
    for row in rows:
        writer.writerow(
            [
                row["method"],
                row["q"],
                row["t"],
                "+".join(str(a) for a in row["pattern_lengths"]),
                "+".join(str(x) for x in row["required_counts"]),
                f"{row['wall_seconds']:.6f}",
                row["count_digits"],
            ]
        )
    return buffer.getvalue()


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type for an integer flag that must be >= ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports bad text as "invalid int value"
    return parse


@functools.cache
def _build_parser() -> _Parser:
    """The command line parser, built on first use and shared by every
    later ``main`` call: building it costs over ten parses.  Sharing is
    safe because parsing leaves it unchanged: each parse starts a fresh
    namespace from the defaults, appended flags default to None, and
    ``_Parser.error`` raises where argparse would exit."""
    parser = _Parser(
        prog="subwordcount",
        description=(
            "Count words of a fixed length over a finite alphabet that contain "
            "given patterns exactly prescribed numbers of times."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    instance_flags = _Parser(add_help=False)
    instance_flags.add_argument("--input", metavar="FILE", help="JSON instance document")
    instance_flags.add_argument("--q", type=int, metavar="N", help="alphabet size")
    instance_flags.add_argument(
        "--t",
        type=int,
        action="append",
        metavar="N",
        help="word length; bench times each one given, the other commands use the last",
    )
    instance_flags.add_argument(
        "--pattern",
        action="append",
        metavar="STR=COUNT",
        help="pattern and its required occurrence count; repeatable",
    )
    instance_flags.add_argument(
        "--alphabet",
        metavar="SYMBOLS",
        help="alphabet as a string of distinct symbol characters",
    )

    output_flag = _Parser(add_help=False)
    output_flag.add_argument("--output", metavar="FILE", help="write output here, not stdout")

    guard_flag = _Parser(add_help=False)
    guard_flag.add_argument(
        "--guard",
        type=_int_at_least(0),
        default=DEFAULT_GUARD,
        metavar="N",
        help="enumeration refuses instances with more than N words",
    )

    count_p = sub.add_parser(
        "count",
        parents=[instance_flags, output_flag],
        help="evaluate the closed-form count",
    )
    count_p.add_argument(
        "--breakdown",
        action="store_true",
        help=(
            f"include every signed summation term (refused past {BREAKDOWN_CELL_CAP} cells: "
            "copy-count tuples times the pattern count plus the digits of q ** t)"
        ),
    )

    verify_p = sub.add_parser(
        "verify",
        parents=[instance_flags, output_flag, guard_flag],
        help="check the closed form against independent oracles",
    )
    verify_p.add_argument(
        "--oracle",
        choices=list(_ORACLES),
        default="both",
        help="which oracle(s) to run (default: both)",
    )

    sub.add_parser(
        "validate",
        parents=[instance_flags, output_flag],
        help="report whether the closed form applies to the instance",
    )

    bench_p = sub.add_parser(
        "bench",
        parents=[instance_flags, output_flag, guard_flag],
        help="time counting methods on the instance, once per --t",
    )
    bench_p.add_argument("--json", action="store_true", help="JSON output, not CSV")
    bench_p.add_argument(
        "--method",
        action="append",
        choices=list(METHODS),
        help="counting method to time; repeatable (default: closed_form)",
    )
    bench_p.add_argument(
        "--reps",
        type=_int_at_least(1),
        default=3,
        metavar="N",
        help="repetitions per timing (median wins)",
    )
    return parser


_COMMANDS = {
    "count": _cmd_count,
    "verify": _cmd_verify,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help; bad flags raise DocumentError instead
            return exc.code
        return _COMMANDS[args.command](args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotApplicableError as exc:
        print(json.dumps(report_to_document(exc.report), indent=2), file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except BudgetExceededError as exc:
        print(exc, file=sys.stderr)  # the message says what refused
        return EXIT_REFUSED


def console_main() -> None:
    status = main()
    try:
        if sys.stdout is not None:  # without a stdout, argparse's help went to stderr
            sys.stdout.flush()  # argparse's help text, or what a failed write left buffered
    except OSError as exc:
        if status == EXIT_OK:  # help text; main has reported a failed write already
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
            status = EXIT_INPUT
        # the interpreter flushes stdout again on exit; let that flush succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    console_main()
