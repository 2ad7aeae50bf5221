"""Command line interface: count, verify and validate.

Every subcommand prints one JSON document, to stdout or ``--output FILE``;
``main`` is the one place that writes it.

Every subcommand reads its instance the same way: ``--input FILE`` with a
JSON instance document, or the inline flags ``--q``/``--alphabet``, ``--t``
and ``--pattern STR=COUNT``, which become the same document.

Exit codes are a contract shared by every subcommand:

  0  success, and all computed values agree
  1  malformed input (bad flags, unreadable or unwritable file, bad document)
  2  the closed form does not apply to the instance
  3  two counting methods disagreed (the headline failure mode)
  4  refused because a work guard was exceeded: the closed form past its
     step budget, verify's two oracles both refused, enumeration past its
     guard and the automaton past its budget, or the breakdown's cap on its
     cells, copy-count tuples times the pattern count plus the decimal
     digits of q ** t

Counts are serialized as decimal strings, never JSON numbers, because the
values routinely exceed what a double can represent faithfully.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .automaton import dp_count
# count_single is not called here; the timing harness's tracer wraps cli.count_single
from .closed_form import BREAKDOWN_CELL_CAP, count_multi, count_single  # noqa: F401
from .closed_form import require_listable
from .core import (
    BudgetExceededError,
    NotApplicableError,
    ProblemInstance,
    ValidationReport,
    decimal_string,
    require_int,
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


class DocumentError(ValueError):
    """An instance document or inline flag set could not be parsed."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is taken, so reroute
    # every parse failure through DocumentError and exit 1 instead.
    def error(self, message):
        raise DocumentError(message)

    # argparse drops a failed write of its help; send stdout's through _emit
    def _print_message(self, message, file=None):
        if file is not None and file is sys.stdout:
            _emit(message, None)
        else:
            super()._print_message(message, file)


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
        size, symbol_names = len(symbols), tuple(symbols)
    elif isinstance(alphabet, dict) and "size" in alphabet:
        size, symbol_names = alphabet["size"], None
    else:
        raise DocumentError('alphabet must be {"size": q} or {"symbols": [...]}')
    # checked before string patterns are tokenized over the first q symbols
    try:
        require_int("alphabet_size", size, 2)
    except (TypeError, ValueError) as exc:
        raise DocumentError(str(exc)) from exc
    return size, symbol_names


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
            "string patterns need a one-character name for each symbol, which an unnamed "
            f"alphabet has only up to its {len(DEFAULT_SYMBOLS)} symbols a..z0..9: name the "
            "symbols with --alphabet, or give index-list patterns in an --input document"
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


def _instance_from_args(args) -> ProblemInstance:
    """The instance the flags describe: the ``--input`` document, or the
    inline flags."""
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
    """Write ``text`` to the file ``path``, or else to stdout; the CLI
    writes stdout nowhere else.  A failed write raises DocumentError."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None and sys.stdout is None:  # started with stdout closed (>&-)
        raise DocumentError("cannot write stdout: it is closed")
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path or 'stdout'}: {exc}") from exc


def _cmd_count(args) -> tuple[dict | None, int]:
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
            return None, EXIT_DISAGREE
        payload["terms"] = [
            {"indices": list(indices), "value": decimal_string(value)} for indices, value in terms
        ]
    return payload, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    instance = _instance_from_args(args)
    values = {"closed_form": count_multi(instance).total}
    refusals = []
    oracles = {"enumeration": (enumerate_count, args.guard), "automaton": (dp_count,)}
    for name, (oracle, *bound) in oracles.items():
        try:
            values[name] = oracle(instance, *bound)
        except BudgetExceededError as exc:  # skip this oracle; the other may still run
            refusals.append(str(exc))
    if len(values) == 1:  # main reports both refusals and exits 4
        raise BudgetExceededError("\n".join(refusals))
    sys.stderr.writelines(f"{refusal}\n" for refusal in refusals)
    agree = len(set(values.values())) == 1
    payload = {
        "values": {name: decimal_string(value) for name, value in values.items()},
        "agree": agree,
    }
    return payload, EXIT_OK if agree else EXIT_DISAGREE


def _cmd_validate(args) -> tuple[dict, int]:
    report = validate_instance(_instance_from_args(args))
    status = EXIT_OK if report.is_formula_applicable else EXIT_NOT_APPLICABLE
    return report_to_document(report), status


def _non_negative_int(text: str) -> int:
    """argparse type for an integer flag that must be >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


_non_negative_int.__name__ = "int"  # argparse reports bad text as "invalid int value"


@functools.cache
def _build_parser() -> _Parser:
    """The command line parser, built on first use and shared by every
    later ``main`` call: building it costs about eight parses.  Sharing is
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

    output_flag = _Parser(add_help=False)
    output_flag.add_argument("--output", metavar="FILE", help="write output here, not stdout")

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
        parents=[instance_flags, output_flag],
        help="check the closed form against independent oracles",
    )
    verify_p.add_argument(
        "--guard",
        type=_non_negative_int,
        default=DEFAULT_GUARD,
        metavar="N",
        help="skip enumeration on instances of more than N words (0 always skips it)",
    )

    sub.add_parser(
        "validate",
        parents=[instance_flags, output_flag],
        help="report whether the closed form applies to the instance",
    )
    return parser


# each command returns its JSON document, or None when it reported only on
# stderr, and its exit status; main writes the document
_COMMANDS = {
    "count": _cmd_count,
    "verify": _cmd_verify,
    "validate": _cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help; bad flags raise DocumentError instead
            return exc.code
        payload, status = _COMMANDS[args.command](args)
        if payload is not None:
            _emit(json.dumps(payload, indent=2), args.output)
        return status
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
        if sys.stdout is not None:
            sys.stdout.flush()  # what a failed write left buffered
    except OSError:
        # main has reported the failed write; the interpreter flushes stdout
        # again on exit, so let that flush succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    console_main()
