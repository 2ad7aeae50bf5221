"""Command line interface: count, verify, validate, and bench.

Exit codes are a contract shared by every subcommand:

  0  success, and all computed values agree
  1  malformed input (bad flags, unreadable file, bad document)
  2  the closed form does not apply to the instance
  3  two counting methods disagreed (the headline failure mode)
  4  an oracle refused the instance because a work guard was exceeded

Counts are serialized as decimal strings, never JSON numbers, because the
values routinely exceed what a double can represent faithfully.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import statistics
import sys
import time
from typing import Callable, Sequence

from .automaton import dp_count
# count_single is not called here; perfbench/tracing.py wraps cli.count_single
from .closed_form import count_multi, count_single  # noqa: F401
from .core import (
    BudgetExceededError,
    NotApplicableError,
    ProblemInstance,
    ValidationReport,
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

BENCH_METHODS = ("closed_form", "enumeration", "automaton")


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
    if symbol_names is None:
        if size > len(DEFAULT_SYMBOLS):
            return None
        return {ch: i for i, ch in enumerate(DEFAULT_SYMBOLS[:size])}
    if any(len(name) != 1 for name in symbol_names):
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


def instance_to_document(instance: ProblemInstance) -> dict:
    """Serialize an instance back to document form.

    Inverse of parse_document up to canonical form: parsing the result
    reproduces the instance, and re-serializing changes nothing.
    """
    names = instance.symbol_names
    if names is None:
        alphabet: dict = {"size": instance.alphabet_size}
        as_string = None
    else:
        alphabet = {"symbols": list(names)}
        as_string = names if all(len(n) == 1 for n in names) else None
    patterns = []
    for spec in instance.specs:
        if as_string is not None:
            body: object = "".join(as_string[s] for s in spec.pattern.symbols)
        else:
            body = list(spec.pattern.symbols)
        patterns.append({"pattern": body, "count": spec.required_count})
    return {"alphabet": alphabet, "length": instance.word_length, "patterns": patterns}


def report_to_document(report: ValidationReport) -> dict:
    return {
        "self_intersecting": [bool(flag) for flag in report.per_pattern_self_intersection],
        "overlapping_pairs": [list(pair) for pair in report.cross_overlap_pairs],
        "applicable": report.is_formula_applicable,
    }


def _instance_from_args(args) -> ProblemInstance:
    inline_used = (
        args.q is not None
        or args.t is not None
        or args.pattern
        or args.alphabet is not None
    )
    if args.input is not None:
        if inline_used:
            raise DocumentError("--input excludes the inline instance flags")
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as exc:
            raise DocumentError(f"cannot read {args.input}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DocumentError(f"{args.input} is not valid JSON: {exc}") from exc
        return parse_document(document)
    if not inline_used:
        raise DocumentError("give --input FILE or the inline flags --q/--t/--pattern")
    return parse_document(_document_from_flags(args))


def _document_from_flags(args) -> dict:
    """The instance document the inline flags describe."""
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
    return {"alphabet": alphabet, "length": args.t, "patterns": patterns}


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _decimal(n: int) -> str:
    """Decimal digits of ``n`` at any size: ``str(int)`` refuses past the
    interpreter's digit limit, ``Decimal`` converts exactly without it."""
    return str(decimal.Decimal(n))


def _not_applicable(report: ValidationReport) -> int:
    print(json.dumps(report_to_document(report), indent=2), file=sys.stderr)
    return EXIT_NOT_APPLICABLE


def _cmd_count(args) -> int:
    instance = _instance_from_args(args)
    try:
        breakdown = count_multi(instance)
    except NotApplicableError as exc:
        return _not_applicable(exc.report)
    payload: dict = {"count": _decimal(breakdown.total), "method": "closed_form"}
    if args.breakdown:
        payload["terms"] = [
            {"indices": list(indices), "value": _decimal(value)}
            for indices, value in breakdown.terms
        ]
    _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = _instance_from_args(args)
    try:
        values = {"closed_form": count_multi(instance).total}
    except NotApplicableError as exc:
        return _not_applicable(exc.report)
    oracles: list[tuple[str, Callable[[], int]]] = []
    if args.oracle in ("enum", "both"):
        oracles.append(("enumeration", lambda: enumerate_count(instance, args.guard)))
    if args.oracle in ("automaton", "both"):
        oracles.append(("automaton", lambda: dp_count(instance)))
    for name, run in oracles:
        try:
            values[name] = run()
        except BudgetExceededError as exc:
            print(f"{name} refused: {exc}", file=sys.stderr)
            return EXIT_REFUSED
    agree = len(set(values.values())) == 1
    payload = {
        "values": {name: _decimal(value) for name, value in values.items()},
        "agree": agree,
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK if agree else EXIT_DISAGREE


def _cmd_validate(args) -> int:
    instance = _instance_from_args(args)
    report = validate_instance(instance)
    _emit(json.dumps(report_to_document(report), indent=2), args.output)
    return EXIT_OK if report.is_formula_applicable else EXIT_NOT_APPLICABLE


def synthesized_instance(
    alphabet_size: int, word_length: int, lengths: Sequence[int], required: Sequence[int]
) -> ProblemInstance:
    """Benchmark instance with one borderless pattern per requested length.

    Pattern j is symbol 2j followed by copies of symbol 2j+1, so patterns
    use pairwise disjoint symbols and the closed form always applies.
    Needs an alphabet of at least twice the pattern count.
    """
    if len(lengths) != len(required):
        raise DocumentError("one required count per pattern length is needed")
    if 2 * len(lengths) > alphabet_size:
        raise DocumentError(
            f"{len(lengths)} benchmark patterns need an alphabet of at least "
            f"{2 * len(lengths)} symbols, got {alphabet_size}"
        )
    pairs = []
    for j, (length, want) in enumerate(zip(lengths, required)):
        if length < 1:
            raise DocumentError("pattern lengths must be >= 1")
        pairs.append(((2 * j,) + (2 * j + 1,) * (length - 1), want))
    try:
        return ProblemInstance.from_pairs(alphabet_size, word_length, pairs)
    except (TypeError, ValueError) as exc:
        raise DocumentError(str(exc)) from exc


def _bench_runner(method: str, instance: ProblemInstance, guard: int) -> Callable[[], int]:
    if method == "closed_form":
        return lambda: count_multi(instance).total
    if method == "enumeration":
        return lambda: enumerate_count(instance, guard)
    return lambda: dp_count(instance)


def _cmd_bench(args) -> int:
    lengths = args.pattern_length or [3]
    required = args.required or [2]
    if len(required) == 1 and len(lengths) > 1:
        required = required * len(lengths)
    methods = []
    for method in args.method or ["closed_form"]:
        if method not in methods:
            methods.append(method)
    if args.reps < 1:
        raise DocumentError("--reps must be >= 1")

    rows = []
    ran = {method: 0 for method in methods}
    for t in args.t:
        instance = synthesized_instance(args.q, t, lengths, required)
        seen: dict[str, int] = {}
        for method in methods:
            run = _bench_runner(method, instance, args.guard)
            durations = []
            value = None
            try:
                for _ in range(args.reps):
                    start = time.perf_counter()
                    value = run()
                    durations.append(time.perf_counter() - start)
            except BudgetExceededError as exc:
                print(f"{method} skipped t={t}: {exc}", file=sys.stderr)
                continue
            ran[method] += 1
            seen[method] = value
            rows.append(
                {
                    "method": method,
                    "q": args.q,
                    "t": t,
                    "pattern_lengths": list(lengths),
                    "required_counts": list(required),
                    "wall_seconds": statistics.median(durations),
                    "count_digits": len(_decimal(value)),
                }
            )
        if len(set(seen.values())) > 1:
            detail = ", ".join(f"{m}={_decimal(v)}" for m, v in sorted(seen.items()))
            print(f"methods disagree at t={t}: {detail}", file=sys.stderr)
            return EXIT_DISAGREE

    _emit(_render_bench(rows, as_json=args.json), args.output)
    for method in methods:
        if ran[method] == 0:
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


def _build_parser() -> _Parser:
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
    instance_flags.add_argument("--t", type=int, metavar="N", help="word length")
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

    output_flags = _Parser(add_help=False)
    output_flags.add_argument("--json", action="store_true", help="JSON output (the default)")
    output_flags.add_argument("--output", metavar="FILE", help="write output here, not stdout")

    count_p = sub.add_parser(
        "count",
        parents=[instance_flags, output_flags],
        help="evaluate the closed-form count",
    )
    count_p.add_argument(
        "--breakdown", action="store_true", help="include every signed summation term"
    )

    verify_p = sub.add_parser(
        "verify",
        parents=[instance_flags, output_flags],
        help="check the closed form against independent oracles",
    )
    verify_p.add_argument(
        "--oracle",
        choices=["enum", "automaton", "both"],
        default="both",
        help="which oracle(s) to run (default: both)",
    )
    verify_p.add_argument(
        "--guard",
        type=int,
        default=DEFAULT_GUARD,
        metavar="N",
        help="enumeration refuses instances with more than N words",
    )

    sub.add_parser(
        "validate",
        parents=[instance_flags, output_flags],
        help="report whether the closed form applies to the instance",
    )

    bench_p = sub.add_parser("bench", help="time counting methods on synthesized instances")
    fmt = bench_p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output")
    fmt.add_argument("--csv", action="store_true", help="CSV output (the default)")
    bench_p.add_argument("--output", metavar="FILE", help="write output here, not stdout")
    bench_p.add_argument("--q", type=int, default=4, metavar="N", help="alphabet size")
    bench_p.add_argument(
        "--t",
        type=int,
        action="append",
        metavar="N",
        required=True,
        help="word length; repeat for a sweep",
    )
    bench_p.add_argument(
        "--pattern-length",
        type=int,
        action="append",
        metavar="N",
        help="length of a synthesized pattern; repeatable (default: one of length 3)",
    )
    bench_p.add_argument(
        "--required",
        type=int,
        action="append",
        metavar="N",
        help="required count per pattern; a single value broadcasts (default: 2)",
    )
    bench_p.add_argument(
        "--method",
        action="append",
        choices=list(BENCH_METHODS),
        help="counting method to time; repeatable (default: closed_form)",
    )
    bench_p.add_argument(
        "--reps", type=int, default=3, metavar="N", help="repetitions per timing (median wins)"
    )
    bench_p.add_argument(
        "--guard",
        type=int,
        default=DEFAULT_GUARD,
        metavar="N",
        help="enumeration refuses instances with more than N words",
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
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())
