import contextlib
import decimal
import errno
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subwordcount import ProblemInstance, cli, closed_form, core, count_multi
from subwordcount.cli import (
    EXIT_DISAGREE,
    EXIT_INPUT,
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    EXIT_REFUSED,
    DocumentError,
    main,
    parse_document,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_symbol_patterns(tmp_path, size, length):
    """A document of every one-symbol pattern over a ``size``-symbol
    alphabet, each required 0 times, in words of ``length``."""
    path = tmp_path / "instance.json"
    patterns = [{"pattern": [s], "count": 0} for s in range(size)]
    document = {"alphabet": {"size": size}, "length": length, "patterns": patterns}
    path.write_text(json.dumps(document))
    return str(path)


class TestParseDocument:
    def test_size_alphabet_with_string_patterns(self):
        inst = parse_document(
            {"alphabet": {"size": 3}, "length": 5, "patterns": [{"pattern": "ab", "count": 1}]}
        )
        assert inst.alphabet_size == 3
        assert inst.patterns[0] == (0, 1)
        assert inst.symbol_names is None

    def test_named_alphabet(self):
        inst = parse_document(
            {
                "alphabet": {"symbols": ["A", "C", "G", "T"]},
                "length": 8,
                "patterns": [{"pattern": "ATG", "count": 2}],
            }
        )
        assert inst.alphabet_size == 4
        assert inst.patterns[0] == (0, 3, 2)
        assert inst.symbol_names == ("A", "C", "G", "T")

    def test_index_list_patterns(self):
        inst = parse_document(
            {"alphabet": {"size": 5}, "length": 4, "patterns": [{"pattern": [4, 0], "count": 0}]}
        )
        assert inst.patterns[0] == (4, 0)

    def test_multi_character_symbols_need_index_lists(self):
        document = {
            "alphabet": {"symbols": ["aa", "bb"]},
            "length": 4,
            "patterns": [{"pattern": "aabb", "count": 1}],
        }
        with pytest.raises(DocumentError):
            parse_document(document)
        document["patterns"] = [{"pattern": [0, 1], "count": 1}]
        assert parse_document(document).patterns[0] == (0, 1)

    @pytest.mark.parametrize(
        "document",
        [
            "not a dict",
            {},
            {"alphabet": {"size": 3}, "length": 5},
            {"alphabet": {"size": 3}, "length": 5, "patterns": []},
            {"alphabet": {"size": 1}, "length": 5, "patterns": [{"pattern": "a", "count": 1}]},
            {"alphabet": {}, "length": 5, "patterns": [{"pattern": "a", "count": 1}]},
            {"alphabet": {"size": 3}, "length": -1, "patterns": [{"pattern": "a", "count": 1}]},
            {"alphabet": {"size": 3}, "length": 5, "patterns": [{"pattern": "a", "count": -1}]},
            {"alphabet": {"size": 3}, "length": 5, "patterns": [{"pattern": "a", "count": True}]},
            {"alphabet": {"size": 3}, "length": 5, "patterns": [{"pattern": "z", "count": 1}]},
            {"alphabet": {"size": 3}, "length": 5, "patterns": [{"pattern": [3], "count": 1}]},
            {"alphabet": {"size": 3}, "length": 5, "patterns": [{"pattern": "", "count": 1}]},
            {"alphabet": {"symbols": ["a", "a"]}, "length": 5, "patterns": [{"pattern": "a", "count": 1}]},
            {"alphabet": {"symbols": "ACGT"}, "length": 5, "patterns": [{"pattern": "A", "count": 1}]},
            {"alphabet": {"size": 3}, "length": 5, "patterns": [{"pattern": 5, "count": 1}]},
        ],
    )
    def test_malformed_documents_rejected(self, document):
        with pytest.raises(DocumentError):
            parse_document(document)


class TestDocumentsMatchInstances:
    def test_string_patterns_over_named_symbols(self):
        document = {
            "alphabet": {"symbols": ["A", "C", "G", "T"]},
            "length": 8,
            "patterns": [{"pattern": "ATG", "count": 2}, {"pattern": "CGT", "count": 1}],
        }
        expected = ProblemInstance.from_pairs(
            4, 8, [((0, 3, 2), 2), ((1, 2, 3), 1)], symbol_names=("A", "C", "G", "T")
        )
        assert parse_document(document) == expected

    def test_index_lists_over_a_sized_alphabet(self):
        document = {
            "alphabet": {"size": 5},
            "length": 7,
            "patterns": [{"pattern": [0, 4], "count": 1}, {"pattern": [2], "count": 3}],
        }
        expected = ProblemInstance.from_pairs(5, 7, [((0, 4), 1), ((2,), 3)])
        assert parse_document(document) == expected

    def test_multi_character_names_with_index_lists(self):
        document = {
            "alphabet": {"symbols": ["lo", "hi"]},
            "length": 4,
            "patterns": [{"pattern": [0, 1], "count": 1}],
        }
        expected = ProblemInstance.from_pairs(2, 4, [((0, 1), 1)], symbol_names=("lo", "hi"))
        assert parse_document(document) == expected


class TestCount:
    def test_inline_flags(self, capsys):
        code, out, err = run(capsys, "count", "--q", "2", "--t", "4", "--pattern", "ab=1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {"count": "10", "method": "closed_form"}

    def test_breakdown_terms(self, capsys):
        # every copy-count tuple in lexicographic order, with terms that sum to the count
        two_patterns = [[1, 1], [1, 2], [1, 3], [1, 4], [1, 5], [2, 1], [2, 2], [2, 3], [3, 1]]
        for flags, tuples, count in (
            ("--q 2 --t 6 --pattern ab=1", [[1], [2], [3]], "35"),
            ("--q 3 --t 7 --pattern ab=1 --pattern c=1", two_patterns, "252"),
        ):
            code, out, _ = run(capsys, "count", *flags.split(), "--breakdown")
            assert code == EXIT_OK
            payload = json.loads(out)
            assert [term["indices"] for term in payload["terms"]] == tuples
            assert payload["count"] == count
            assert sum(int(term["value"]) for term in payload["terms"]) == int(count)

    def test_breakdown_whose_terms_disagree_with_the_total_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(closed_form, "per_tuple_terms", lambda instance: [((1,), 1)])
        code, out, err = run(
            capsys, "count", "--q", "2", "--t", "6", "--pattern", "ab=1", "--breakdown"
        )
        assert code == EXIT_DISAGREE
        assert out == ""
        assert "disagree" in err

    def test_breakdown_past_the_tuple_cap_exits_4_quickly(self, capsys, monkeypatch):
        # three length-3 patterns at t=800 list 2,997,411 copy-count tuples
        def walk(instance):
            raise AssertionError("the per-tuple walk started")

        monkeypatch.setattr(closed_form, "per_tuple_terms", walk)
        argv = ["count", "--q", "9", "--t", "800", "--breakdown"]
        for body in ("abc", "def", "ghi"):
            argv += ["--pattern", f"{body}=2"]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_REFUSED
        assert out == ""
        assert "breakdown refused" in err
        # the count alone is still given
        code, out, _ = run(capsys, *[a for a in argv if a != "--breakdown"])
        assert code == EXIT_OK
        assert int(json.loads(out)["count"]) > 0

    def test_breakdown_past_the_digit_cap_exits_4_quickly(self, capsys, monkeypatch):
        # 4,001 tuples times the 7,225 digits of 4 ** 12000; the total alone
        # takes seconds, so the refusal comes before it
        def refused(*args):
            raise AssertionError("counted before refusing")

        monkeypatch.setattr(cli, "count_multi", refused)
        monkeypatch.setattr(closed_form, "per_tuple_terms", refused)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "count", "--q", "4", "--t", "12000", "--pattern", "abc=0", "--breakdown"
        )
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_REFUSED
        assert out == ""
        assert "breakdown refused" in err and "7225 decimal digits" in err

    def test_breakdown_where_one_tuple_passes_the_cap_says_so(self, capsys):
        # one index and the 10,000,001 digits of 10 ** 10**7: past the cap alone
        code, out, err = run(
            capsys, "count", "--q", "10", "--t", "10000000", "--pattern", "ab=0", "--breakdown"
        )
        assert code == EXIT_REFUSED
        assert out == ""
        assert err == (
            "breakdown refused: one copy-count tuple alone lists 10000002 cells (d = 1 "
            "indices and the 10000001 decimal digits of q ** t), past the cap of "
            "10000000 cells\n"
        )

    def test_infeasible_breakdown_past_the_digit_cap_lists_no_term(self, capsys):
        # from t = 4 * 10**7 the digits of q ** t alone pass the cap, but 30
        # million copies of ab do not fit 40 million symbols: nothing to list
        code, out, _ = run(
            capsys, "count", "--q", "2", "--t", "40000000", "--pattern", "ab=30000000",
            "--breakdown",
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"count": "0", "method": "closed_form", "terms": []}

    def test_breakdown_past_a_float_word_length_exits_4(self, capsys):
        # a 401-digit t: t * log10(q) overflows a float, and q ** t has
        # more digits than the cap, so no digit is counted
        t = "1" + "0" * 400
        start = time.perf_counter()
        code, out, err = run(
            capsys, "count", "--q", "2", "--t", t, "--pattern", "ab=0", "--breakdown"
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_REFUSED, "")
        assert err.startswith("breakdown refused") and len(err.splitlines()) == 1
        assert t in err and "Traceback" not in err

    def test_breakdown_under_the_digit_cap_is_listed(self, capsys):
        # 1,001 tuples times the 1,807 digits of 4 ** 3000
        code, out, _ = run(
            capsys, "count", "--q", "4", "--t", "3000", "--pattern", "abc=0", "--breakdown"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [term["indices"] for term in payload["terms"]] == [[i] for i in range(1001)]
        assert sum(int(term["value"]) for term in payload["terms"]) == int(payload["count"])

    @pytest.mark.parametrize("cap, expected", [(9, EXIT_OK), (8, EXIT_REFUSED)])
    def test_breakdown_cell_cap_is_exact(self, capsys, monkeypatch, cap, expected):
        # ab=1 at t=6 lists 3 tuples of 1 index and the 2 digits of 2 ** 6
        monkeypatch.setattr(closed_form, "BREAKDOWN_CELL_CAP", cap)
        code, _, _ = run(
            capsys, "count", "--q", "2", "--t", "6", "--pattern", "ab=1", "--breakdown"
        )
        assert code == expected

    def test_inapplicable_breakdown_past_the_caps_exits_2(self, capsys):
        code, out, _ = run(
            capsys, "count", "--q", "4", "--t", "12000", "--pattern", "aba=0", "--breakdown"
        )
        assert code == EXIT_NOT_APPLICABLE
        assert out == ""

    def test_breakdown_of_1200_patterns_lists_every_term(self, capsys, tmp_path):
        # one copy of one of the 1,200 patterns, or none: 1,201 tuples of 1,200 counts
        path = one_symbol_patterns(tmp_path, 1200, 1)
        code, out, err = run(capsys, "count", "--input", path, "--breakdown")
        assert code == EXIT_OK
        assert "Traceback" not in err
        payload = json.loads(out)
        assert len(payload["terms"]) == 1201
        assert sum(int(term["value"]) for term in payload["terms"]) == int(payload["count"])

    def test_breakdown_of_300_patterns_past_the_cell_cap_exits_4_quickly(
        self, capsys, tmp_path
    ):
        # C(302, 2) = 45,451 tuples at t=2, each of 300 indices and the 5
        # digits of 300 ** 2: under 10**6 tuples, past 10**7 cells
        path = one_symbol_patterns(tmp_path, 300, 2)
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--input", path, "--breakdown")
        assert time.perf_counter() - start < 2
        assert code == EXIT_REFUSED
        assert out == ""
        assert "breakdown refused" in err and "Traceback" not in err

    def test_breakdown_of_1200_patterns_past_the_tuple_cap_exits_4_quickly(
        self, capsys, monkeypatch, tmp_path
    ):
        # C(1203, 3) tuples at t=3, far past the 10**6 cap, with 1,200 levels
        def refused(*args):
            raise AssertionError("counted before refusing")

        monkeypatch.setattr(cli, "count_multi", refused)
        path = one_symbol_patterns(tmp_path, 1200, 3)
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--input", path, "--breakdown")
        assert time.perf_counter() - start < 10
        assert code == EXIT_REFUSED
        assert out == ""
        assert "breakdown refused" in err and "Traceback" not in err

    def test_decimal_digits_of_powers(self):
        for q in range(2, 37):
            for t in (0, 1, 2, 3, 10, 99, 100, 101, 1000, 4000):
                digits = len(decimal.Decimal(q**t).as_tuple().digits)
                assert closed_form._decimal_digits(q, t) == digits

    def test_decimal_digits_beside_a_power_of_10(self):
        # t * log10(q) falls within 10**-15 of an integer here, below a
        # float's resolution: 10**18 - 1 to the 1000th has 18,000 digits
        for q in (10**18 - 1, 10**18, 10**18 + 1):
            for t in (1, 1000, 3001):
                digits = len(decimal.Decimal(q**t).as_tuple().digits)
                assert closed_form._decimal_digits(q, t) == digits

    @given(
        st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=1, max_size=3),
        st.integers(0, 40),
        st.integers(0, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_tuple_count_matches_the_walk(self, lengths_counts, t, cap):
        # patterns on disjoint symbols; the tuples depend only on lengths and counts
        pairs, used = [], 0
        for length, x in lengths_counts:
            pairs.append((tuple(range(used, used + length)), x))
            used += length
        instance = ProblemInstance.from_pairs(max(used, 2), t, pairs)
        listed = sum(1 for _ in closed_form.iter_copy_counts(t, instance.specs))
        assert closed_form._copy_count_tuples(instance, listed) == listed
        counted = closed_form._copy_count_tuples(instance, cap)
        assert counted == listed if listed <= cap else counted > cap

    def test_named_alphabet_flag(self, capsys):
        code, out, _ = run(
            capsys, "count", "--alphabet", "ACGT", "--t", "10", "--pattern", "ATG=1"
        )
        assert code == EXIT_OK
        assert int(json.loads(out)["count"]) > 0

    def test_inline_alphabets_past_the_unnamed_symbols_point_to_alphabet_or_input(self, capsys):
        # inline patterns are strings, so "use index lists" gave no way out
        code, out, err = run(capsys, "count", "--q", "40", "--t", "3", "--pattern", "ab=1")
        assert code == EXIT_INPUT
        assert out == ""
        assert "--alphabet" in err and "--input" in err
        assert "use index lists" not in err

    def test_string_patterns_past_the_unnamed_symbols_give_one_message_inline_and_in_a_document(
        self, capsys, tmp_path
    ):
        path = tmp_path / "instance.json"
        path.write_text(
            json.dumps(
                {
                    "alphabet": {"size": 40},
                    "length": 3,
                    "patterns": [{"pattern": "ab", "count": 1}],
                }
            )
        )
        inline = run(capsys, "count", "--q", "40", "--t", "3", "--pattern", "ab=1")
        document = run(capsys, "count", "--input", str(path))
        assert inline == document
        code, out, err = inline
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "--alphabet" in err and "--input" in err and "Traceback" not in err

    def test_inapplicable_reports_and_exits_2(self, capsys):
        code, out, err = run(capsys, "count", "--q", "2", "--t", "4", "--pattern", "aa=1")
        assert code == EXIT_NOT_APPLICABLE
        assert out == ""
        report = json.loads(err)
        assert report["self_intersecting"] == [True]
        assert report["applicable"] is False

    def test_document_input(self, capsys, tmp_path):
        # a document prints what the inline flags print, multi-character names included
        path = tmp_path / "instance.json"
        sized = {"alphabet": {"size": 2}, "length": 4, "patterns": [{"pattern": "ab", "count": 1}]}
        amino = {
            "alphabet": {"symbols": ["Ala", "Gly", "Ser", "Thr"]},
            "length": 60,
            "patterns": [{"pattern": [0, 3, 2], "count": 2}, {"pattern": [1, 1, 2, 2], "count": 1}],
        }
        for document, flags, count in (
            (sized, "--q 2 --t 4 --pattern ab=1", "10"),
            (
                amino, "--q 4 --t 60 --pattern adc=2 --pattern bbcc=1",
                "37626775448718452584388181775698912",
            ),
        ):
            path.write_text(json.dumps(document))
            from_file = run(capsys, "count", "--input", str(path))
            assert from_file == run(capsys, "count", *flags.split())
            code, out, _ = from_file
            assert code == EXIT_OK
            assert json.loads(out)["count"] == count

    def test_repeated_t_takes_the_last(self, capsys):
        code, out, _ = run(
            capsys, "count", "--q", "2", "--t", "-1", "--t", "4", "--pattern", "ab=1"
        )
        assert code == EXIT_OK
        assert json.loads(out)["count"] == "10"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            "count", "--q", "2", "--t", "4", "--pattern", "ab=1", "--output", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["count"] == "10"

    @pytest.mark.parametrize(
        "argv",
        [
            ("count",),
            ("count", "--q", "2", "--t", "4"),
            ("count", "--q", "2", "--pattern", "ab=1"),
            ("count", "--q", "1", "--t", "4", "--pattern", "aa=1"),
            ("count", "--q", "2", "--t", "4", "--pattern", "ab"),
            ("count", "--q", "2", "--t", "4", "--pattern", "xy=1"),
            ("count", "--q", "2", "--t", "4", "--pattern", "ab=-1"),
            ("count", "--q", "3", "--alphabet", "ab", "--t", "4", "--pattern", "ab=1"),
            ("count", "--alphabet", "aab", "--t", "4", "--pattern", "ab=1"),
            ("count", "--input", "/no/such/file.json"),
            ("count", "--q", "2", "--t", "4", "--pattern", "ab=1", "--csv"),
            ("count", "--q", "2", "--t", "4", "--pattern", "ab=1", "--input", "x.json"),
            ("nonsense",),
            ("verify", "--q", "2", "--t", "4", "--pattern", "ab=1", "--guard", "-1"),
            ("verify", "--q", "2", "--t", "4", "--pattern", "ab=1", "--oracle", "all"),
            ("verify", "--q", "2", "--t", "4", "--pattern", "ab=1", "--oracle", "both"),
            ("validate", "--input", "."),
            ("count", "--q", "2", "--t", "4", "--pattern", "ab=1", "--json"),
            ("bench", "--q", "4", "--t", "4", "--pattern", "abb=2"),  # an unknown command
            ("verify", "--q", "4", "--t", "4", "--t", "-1", "--pattern", "abb=2"),
            ("validate", "--q", "x", "--t", "4", "--pattern", "ab=1"),
            ("count", "--q", "2", "--t", "4.5", "--pattern", "ab=1"),
            ("count", "--q", "2", "--t", "1" * 5000, "--pattern", "ab=1"),
            ("verify", "--q", "2", "--t", "4", "--pattern", "ab=x"),
            ("validate", "--q", "2", "--t", "4", "--pattern", "=1"),
            ("verify", "--q", "2", "--t", "4", "--pattern", "ab=1", "--pattern", "ab=2"),
        ],
    )
    def test_malformed_input_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_alphabet_below_2_symbols_is_reported_as_such(self, capsys, tmp_path):
        document = tmp_path / "instance.json"
        document.write_text(
            json.dumps(
                {"alphabet": {"size": 1}, "length": 4, "patterns": [{"pattern": "ab", "count": 1}]}
            )
        )
        for flags in (["--q", "0"], ["--q", "1"], ["--q", "-3"]):
            code, _, err = run(capsys, "count", *flags, "--t", "4", "--pattern", "ab=1")
            assert (code, err) == (EXIT_INPUT, "error: alphabet_size must be >= 2\n"), flags
        code, _, err = run(capsys, "count", "--input", str(document))
        assert (code, err) == (EXIT_INPUT, "error: alphabet_size must be >= 2\n")

    def test_input_that_is_not_utf8_exits_1(self, capsys, tmp_path):
        path = tmp_path / "instance.json"
        path.write_bytes(b'\xff\xfe{"alphabet": {"size": 2}}')
        code, out, err = run(capsys, "count", "--input", str(path))
        assert code == EXIT_INPUT
        assert "error:" in err

    @pytest.mark.parametrize("command", ["count", "verify", "validate"])
    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,  # too deep for the decoder
            '{"alphabet": {"size": 2}, "length": ' + "1" * 5000 + ', "patterns": []}',
        ],
        ids=["deep_nesting", "int_past_the_digit_limit"],
    )
    def test_input_that_json_cannot_load_exits_1(self, capsys, tmp_path, command, text):
        path = tmp_path / "instance.json"
        path.write_text(text)
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == EXIT_INPUT
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--q", "2", "--t", "4", "--pattern", "ab=1"),
            ("verify", "--q", "2", "--t", "4", "--pattern", "ab=1"),
            ("validate", "--q", "2", "--t", "4", "--pattern", "ab=1"),
            # a failed write exits 1 even where the command would exit 2
            ("validate", "--q", "2", "--t", "4", "--pattern", "aba=1"),
        ],
    )
    def test_output_in_a_missing_directory_exits_1(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "result"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == EXIT_INPUT
        assert "error:" in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("flags", [(), ("--breakdown",)])
    def test_a_failed_write_to_stdout_exits_1(self, capsys, monkeypatch, flags):
        message = "No space left on device"

        class FullStream(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, message)

        monkeypatch.setattr(sys, "stdout", FullStream())
        code = main(["count", "--q", "2", "--t", "4", "--pattern", "ab=1", *flags])
        assert code == EXIT_INPUT
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: cannot write stdout: [Errno {errno.ENOSPC}] {message}"]

    def test_single_pattern_count_runs_engine_and_validation_once(self, capsys, monkeypatch):
        calls = {"count_multi": 0, "validate_instance": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for module in (cli, closed_form):
            for name in calls:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        for flags in ((), ("--breakdown",)):
            calls.update(dict.fromkeys(calls, 0))
            argv = ("count", "--q", "4", "--t", "30", "--pattern", "abc=2", *flags)
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert calls == {"count_multi": 1, "validate_instance": 1}, flags

    @pytest.mark.parametrize("command", ["count", "verify"])
    def test_closed_form_past_its_step_budget_exits_4_at_once(self, capsys, command):
        # 5 * 10**11 + 1 layers of the layer sum; no oracle runs
        start = time.perf_counter()
        argv = (command, "--q", "2", "--t", "1000000000000", "--pattern", "ab=0")
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == EXIT_REFUSED
        assert out == ""
        assert err.startswith("closed form refused") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["count", "verify"])
    def test_inapplicable_past_the_step_budget_exits_2(self, capsys, command):
        argv = (command, "--q", "2", "--t", "1000000000000", "--pattern", "aba=0")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_NOT_APPLICABLE
        assert out == ""
        assert json.loads(err)["self_intersecting"] == [True]

    def test_count_past_the_int_str_digit_limit(self, capsys):
        # 4,668 digits: str(int) refuses past 4,300, the output must not
        code, out, _ = run(capsys, "count", "--q", "36", "--t", "3000", "--pattern", "abc=1")
        assert code == EXIT_OK
        text = json.loads(out)["count"]
        assert len(text) == 4668
        expected = count_multi(ProblemInstance.from_pairs(36, 3000, [((0, 1, 2), 1)])).total
        assert decimal.Decimal(text) == decimal.Decimal(expected)


class TestVerify:
    def test_both_oracles_agree(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--q", "3", "--t", "4",
            "--pattern", "ab=1", "--pattern", "cb=1",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["values"] == {
            "closed_form": "2",
            "enumeration": "2",
            "automaton": "2",
        }

    @pytest.mark.parametrize(
        "flags, words",
        [
            ("--q 4 --t 8 --pattern abb=2", None),
            ("--q 4 --t 60 --pattern abc=1 --pattern dbbb=1", "4**60"),
            ("--q 4 --t 300 --pattern a=2 --pattern bcd=1", "4**300"),
            ("--q 4 --t 400 --pattern abc=3", "4**400"),
            ("--q 5 --t 600 --pattern abc=1 --pattern dee=2", "5**600"),
            ("--q 3 --t 5 --pattern ab=2 --pattern c=2", None),
            ("--alphabet ACGT --t 200 --pattern ATG=10 --pattern CGT=8", "4**200"),
        ],
        ids=[
            "layer-sum-enumerated", "recurrence-lengths-3-and-4",
            "recurrence-length-1-meets-the-q-term", "layer-sum-131-layers",
            "layer-sum-sign-of-two-patterns", "free-below-0", "paper-acgt-past-the-guard",
        ],
    )
    def test_each_evaluator_path_agrees_with_the_oracles(self, capsys, flags, words):
        # words: the q**t words whose t + 1 steps each pass the budget, or
        # None where enumeration runs
        code, out, err = run(capsys, "verify", *flags.split())
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["agree"] is True
        if words is None:
            assert list(payload["values"]) == ["closed_form", "enumeration", "automaton"]
            assert err == ""
        else:
            assert list(payload["values"]) == ["closed_form", "automaton"]
            steps, budget = int(words.split("**")[1]) + 1, core.DEFAULT_STEP_BUDGET
            assert err == (
                f"enumeration refused: {words} words of {steps} steps each pass the budget of "
                f"{budget}\n"
            )

    def test_enumeration_refusal_alone_skips_enumeration(self, capsys, monkeypatch):
        # the closed form's 2 layers and the automaton's 108 predicted steps
        # fit in the budget, enumeration's 2**6 words of 7 steps do not
        monkeypatch.setattr(core, "DEFAULT_STEP_BUDGET", 200)
        code, out, err = run(capsys, "verify", "--q", "2", "--t", "6", "--pattern", "ab=2")
        assert code == EXIT_OK
        assert json.loads(out)["values"] == {"closed_form": "21", "automaton": "21"}
        assert err == "enumeration refused: 2**6 words of 7 steps each pass the budget of 200\n"

    def test_guard_flag_exits_1(self, capsys):
        argv = ("verify", "--q", "2", "--t", "4", "--pattern", "ab=1", "--guard", "0")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: unrecognized arguments: --guard 0\n"

    @pytest.mark.parametrize(
        "guard, old_message", [("-1", "must be >= 0, got -1"), ("x", "invalid int value: 'x'")]
    )
    def test_guard_below_0_or_not_an_int_exits_1(self, capsys, guard, old_message):
        # the values the removed --guard check refused still exit 1, now as
        # an unrecognized flag, and its messages are gone
        argv = ("verify", "--q", "2", "--t", "4", "--pattern", "ab=1", "--guard", guard)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: unrecognized arguments: --guard {guard}\n"
        assert old_message not in err

    def test_guard_refusal_skips_enumeration_with_one_stderr_line(self, capsys):
        code, out, err = run(capsys, "verify", "--q", "4", "--t", "50", "--pattern", "abc=1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert list(payload["values"]) == ["closed_form", "automaton"]
        assert payload["agree"] is True
        assert err == (
            "enumeration refused: 4**50 words of 51 steps each pass the budget of 1000000000\n"
        )

    def test_more_occurrences_than_room_count_0_in_every_method(self, capsys):
        # the automaton gives 0 before checking its budget, which this
        # requirement would exceed
        code, out, _ = run(capsys, "verify", "--q", "2", "--t", "5", "--pattern", "ab=100000000")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["values"] == {"closed_form": "0", "enumeration": "0", "automaton": "0"}
        assert payload["agree"] is True

    def test_automaton_refusal_exits_4(self, capsys, monkeypatch):
        # at the real budget, 4**400 words pass the guard and 6,593,926,400
        # predicted steps the budget
        flags = "--q 4 --t 400 --pattern a=100 --pattern b=100 --pattern c=100"
        real = run(capsys, "verify", *flags.split())
        # the real sweep, with a budget of the closed form's 2 layers, which
        # the automaton's 48 predicted steps and enumeration's 2**4 words of
        # 5 steps pass
        monkeypatch.setattr(core, "DEFAULT_STEP_BUDGET", 2)
        patched = run(capsys, "verify", "--q", "2", "--t", "4", "--pattern", "ab=1")
        for code, out, err in (real, patched):
            assert code == EXIT_REFUSED
            assert out == ""
            assert [line.split(":")[0] for line in err.splitlines()] == [
                "enumeration refused",
                "automaton refused",
            ]
            assert "Traceback" not in err

    def test_automaton_refusal_alone_skips_the_automaton(self, capsys, monkeypatch):
        # the closed form's 1 layer and enumeration's 2**4 words of 5 steps
        # fit in the budget, the automaton's 216 predicted steps do not
        monkeypatch.setattr(core, "DEFAULT_STEP_BUDGET", 100)
        flags = "--q 2 --t 4 --pattern a=2 --pattern b=2"
        code, out, err = run(capsys, "verify", *flags.split())
        assert code == EXIT_OK
        assert json.loads(out)["values"] == {"closed_form": "6", "enumeration": "6"}
        assert err.startswith("automaton refused") and len(err.splitlines()) == 1

    def test_inapplicable_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--q", "2", "--t", "6", "--pattern", "aba=1")
        assert code == EXIT_NOT_APPLICABLE
        assert json.loads(err)["applicable"] is False

    def test_disagreement_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "dp_count", lambda instance: 999)
        code, out, _ = run(capsys, "verify", "--q", "2", "--t", "4", "--pattern", "ab=1")
        assert code == EXIT_DISAGREE
        payload = json.loads(out)
        assert payload["agree"] is False
        assert payload["values"]["automaton"] == "999"


class TestValidate:
    def test_overlapping_pair_rejected(self, capsys):
        # abc and bcd overlap: suffix bc meets prefix bc; b occurs inside abc
        for argv in (
            ("--q", "4", "--t", "9", "--pattern", "abc=1", "--pattern", "bcd=1"),
            ("--q", "3", "--t", "5", "--pattern", "abc=1", "--pattern", "b=1"),
        ):
            code, out, _ = run(capsys, "validate", *argv)
            assert code == EXIT_NOT_APPLICABLE
            assert json.loads(out)["overlapping_pairs"] == [[0, 1]]

    def test_independent_pair_passes(self, capsys):
        code, out, _ = run(
            capsys, "validate", "--alphabet", "ACGT", "--t", "9",
            "--pattern", "ATG=1", "--pattern", "CGT=1",
        )
        assert code == EXIT_OK
        assert json.loads(out)["applicable"] is True

    def test_self_intersection_reported(self, capsys):
        code, out, _ = run(capsys, "validate", "--q", "2", "--t", "4", "--pattern", "aba=2")
        assert code == EXIT_NOT_APPLICABLE
        report = json.loads(out)
        assert report["self_intersecting"] == [True]
        assert report["applicable"] is False


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
valid_documents = st.fixed_dictionaries(
    {
        "alphabet": st.fixed_dictionaries({"size": st.integers(2, 5)})
        | st.fixed_dictionaries(
            {"symbols": st.lists(st.sampled_from("abcdA"), min_size=2, max_size=5, unique=True)}
        ),
        "length": st.integers(0, 12),
        "patterns": st.lists(
            st.fixed_dictionaries(
                {
                    "pattern": st.text("abc", min_size=1, max_size=3)
                    | st.lists(st.integers(0, 2), min_size=1, max_size=3),
                    "count": st.integers(0, 3),
                }
            ),
            min_size=1,
            max_size=3,
        ),
    }
)
# every field valid, out of range, or of any JSON type
noisy_documents = st.fixed_dictionaries(
    {
        "alphabet": st.fixed_dictionaries({"size": st.integers(-1, 40) | json_values})
        | st.fixed_dictionaries({"symbols": st.lists(st.text("abA", max_size=2), max_size=5)})
        | json_values,
        "length": st.integers(-1, 12) | json_values,
        "patterns": st.lists(
            st.fixed_dictionaries(
                {
                    "pattern": st.text("abcAz", max_size=4)
                    | st.lists(st.integers(-1, 5) | json_values, max_size=4)
                    | json_values,
                    "count": st.integers(-1, 3) | json_values,
                }
            )
            | json_values,
            max_size=3,
        )
        | json_values,
    }
)
# mostly well-formed flags, so that every exit code gets reached
alphabet_flags = st.one_of(
    st.integers(2, 5).map(lambda q: ["--q", str(q)]),
    st.lists(st.sampled_from("abcdA"), min_size=2, max_size=5, unique=True).map(
        lambda symbols: ["--alphabet", "".join(symbols)]
    ),
    st.tuples(st.integers(0, 5), st.text("abcdA", max_size=5)).map(
        lambda flags: ["--q", str(flags[0]), "--alphabet", flags[1]]
    ),
    st.just([]),
)
well_formed_patterns = st.tuples(st.text("abc", min_size=1, max_size=3), st.integers(-1, 3)).map(
    "{0[0]}={0[1]}".format
)
pattern_flags = st.lists(well_formed_patterns, min_size=1, max_size=3) | st.lists(
    well_formed_patterns | st.text("abcA=", max_size=4), min_size=1, max_size=3
)


class TestExitContract:
    @given(valid_documents | noisy_documents | json_values)
    @settings(max_examples=400, deadline=None)
    def test_documents_build_an_instance_or_raise_document_error(self, document):
        try:
            instance = parse_document(document)
        except DocumentError:
            return
        assert isinstance(instance, ProblemInstance)

    @given(
        command=st.sampled_from(["count", "validate", "verify"]),
        t=st.integers(-1, 12),
        alphabet=alphabet_flags,
        patterns=pattern_flags,
    )
    @settings(max_examples=150, deadline=None)
    def test_inline_flags_exit_within_the_contract(self, command, t, alphabet, patterns):
        argv = [command, "--t", str(t), *alphabet]
        for pattern in patterns:
            argv += ["--pattern", pattern]
        with (
            # keep enumeration small: 20,000 words of t = 12's 13 steps each
            mock.patch.object(core, "DEFAULT_STEP_BUDGET", 20000 * 13),
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(io.StringIO()),
        ):
            code = main(argv)
        assert code in {EXIT_OK, EXIT_INPUT, EXIT_NOT_APPLICABLE, EXIT_DISAGREE, EXIT_REFUSED}


def run_fresh(module, *argv, stdout=subprocess.PIPE, unbuffered=False, closed_stdout=False):
    """``python -m module argv`` in a new interpreter, on this checkout.

    Its stdout is block-buffered, as from a shell, even where the calling
    environment sets ``PYTHONUNBUFFERED``; ``unbuffered=True`` sets it.
    ``closed_stdout=True`` starts it with fd 1 closed, as a shell's ``>&-`` does.
    """
    src = Path(cli.__file__).resolve().parent.parent
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**env, "PYTHONPATH": str(src)},
        timeout=60,
        preexec_fn=(lambda: os.close(1)) if closed_stdout else None,
    )


class TestSharedParser:
    def test_main_builds_the_parser_once(self, capsys):
        cli._build_parser.cache_clear()
        for _ in range(3):
            run(capsys, "count", "--q", "2", "--t", "4", "--pattern", "ab=1")
        run(capsys, "count", "--no-such-flag")
        assert cli._build_parser.cache_info().misses == 1
        assert cli._build_parser() is cli._build_parser()

    def test_calls_after_a_failed_parse_match_a_fresh_interpreter(self, capsys):
        cli._build_parser.cache_clear()
        assert run(capsys, "verify", "--q", "x", "--t", "4", "--pattern", "ab=1")[0] == EXIT_INPUT
        calls = [
            ["count", "--q", "4", "--t", "7", "--pattern", "ab=1", "--pattern", "cd=0"],
            ["count", "--q", "2", "--t", "7", "--pattern", "aba=1"],
            ["count", "--q", "2", "--t", "5", "--pattern", "ab=1", "--breakdown"],
            ["verify", "--q", "4", "--t", "50", "--pattern", "abc=1"],  # past the budget
            ["validate", "--q", "2", "--t", "6", "--pattern", "aba=2"],
            ["validate", "--alphabet", "ACGT", "--t", "6", "--pattern", "ATG=1"],
        ]
        for argv in calls:
            fresh = run_fresh("subwordcount", *argv)
            assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv

    def test_no_flag_or_default_carries_over_between_calls(self, capsys, monkeypatch, tmp_path):
        output = tmp_path / "first.json"
        first = [
            "verify", "--q", "3", "--t", "4", "--pattern", "ab=1", "--pattern", "cb=1",
            "--output", str(output),
        ]
        second = ["verify", "--q", "3", "--t", "5", "--pattern", "ab=1"]
        code, out, _ = run(capsys, *first)
        assert (code, out) == (EXIT_OK, "")
        assert list(json.loads(output.read_text())["values"]) == [
            "closed_form", "enumeration", "automaton",
        ]

        calls = []
        for name in ("count_multi", "enumerate_count", "dp_count"):
            def spy(instance, method=getattr(cli, name), name=name):
                calls.append((name, len(instance.patterns)))
                return method(instance)

            monkeypatch.setattr(cli, name, spy)
        code, out, _ = run(capsys, *second)
        assert code == EXIT_OK  # an --output left from the first call would empty stdout
        assert list(json.loads(out)["values"]) == ["closed_form", "enumeration", "automaton"]
        assert calls == [("count_multi", 1), ("enumerate_count", 1), ("dp_count", 1)]

        shared = cli._build_parser()
        shared.parse_args(first)
        assert shared.parse_args(second) == cli._build_parser.__wrapped__().parse_args(second)

    def test_help_returns_zero_and_leaves_the_parser_usable(self, capsys):
        for argv, usage in (
            (["--help"], "usage: subwordcount ["),
            (["count", "--help"], "usage: subwordcount count ["),
        ):
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert out.startswith(usage)
        code, out, _ = run(capsys, "--help")
        listed = " ".join(out.split())  # help lines wrap at the terminal width
        for line in (
            "count evaluate the closed-form count",
            "verify check the closed form against independent oracles",
            "validate report whether the closed form applies to the instance",
        ):
            assert line in listed
        code, out, _ = run(capsys, "count", "--q", "2", "--t", "4", "--pattern", "ab=1")
        assert code == EXIT_OK
        assert json.loads(out)["count"] == "10"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--q", "2", "--t", "4", "--pattern", "ab=1"),
        ("count", "--q", "2", "--t", "4", "--pattern", "ab=1", "--breakdown"),
        ("verify", "--q", "2", "--t", "4", "--pattern", "ab=1"),
        ("validate", "--q", "2", "--t", "4", "--pattern", "ab=1"),
    ],
    ids=["count", "breakdown", "verify", "validate"],
)
def test_every_command_prints_one_json_document(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    target = tmp_path / "result.json"
    code, rerun, _ = run(capsys, *argv, "--output", str(target))
    assert (code, rerun) == (EXIT_OK, "")
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("module", ["subwordcount", "subwordcount.cli"])
def test_python_dash_m_runs_the_cli(module):
    result = run_fresh(module, "validate", "--q", "2", "--t", "4", "--pattern", "aba=1")
    assert result.returncode == EXIT_NOT_APPLICABLE
    assert json.loads(result.stdout)["self_intersecting"] == [True]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (("count", "--q", "2", "--t", "4", "--pattern", "ab=1"), False),
        (("count", "--q", "2", "--t", "4", "--pattern", "ab=1", "--breakdown"), False),
        (("--help",), False),
        (("--help",), True),  # argparse's own writer would drop the OSError
    ],
    ids=["count", "breakdown", "help", "help-unbuffered"],
)
def test_stdout_on_a_full_device_exits_1_without_a_traceback(argv, unbuffered):
    # the bytes a failed write leaves buffered must not fail again, with an
    # "Exception ignored" report and status 120, when the interpreter exits
    with open("/dev/full", "w") as full:
        result = run_fresh("subwordcount", *argv, stdout=full, unbuffered=unbuffered)
    assert result.returncode == EXIT_INPUT
    assert result.stderr.startswith("error: cannot write stdout")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


def test_help_without_a_stdout_goes_to_stderr_and_exits_0(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["subwordcount", "count", "--help"])
    monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(SystemExit) as stop:
        cli.console_main()
    assert stop.value.code == EXIT_OK
    assert capsys.readouterr().err.startswith("usage: subwordcount count [")


def test_output_without_a_stdout_exits_1_without_a_traceback(capsys, monkeypatch):
    argv = ["count", "--q", "2", "--t", "4", "--pattern", "ab=1"]
    monkeypatch.setattr(sys, "argv", ["subwordcount", *argv])
    monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(SystemExit) as stop:
        cli.console_main()
    assert stop.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write stdout")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    # a new interpreter whose fd 1 is closed starts with sys.stdout None too
    result = run_fresh("subwordcount", *argv, closed_stdout=True)
    assert result.returncode == EXIT_INPUT
    assert result.stderr == "error: cannot write stdout: it is closed\n"
