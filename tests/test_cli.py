import contextlib
import csv
import decimal
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subwordcount import ProblemInstance, cli, closed_form, count_multi
from subwordcount.cli import (
    EXIT_DISAGREE,
    EXIT_INPUT,
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    EXIT_REFUSED,
    DocumentError,
    instance_to_document,
    main,
    parse_document,
    synthesized_instance,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseDocument:
    def test_size_alphabet_with_string_patterns(self):
        inst = parse_document(
            {"alphabet": {"size": 3}, "length": 5, "patterns": [{"pattern": "ab", "count": 1}]}
        )
        assert inst.alphabet_size == 3
        assert inst.specs[0].pattern.symbols == (0, 1)
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
        assert inst.specs[0].pattern.symbols == (0, 3, 2)
        assert inst.symbol_names == ("A", "C", "G", "T")

    def test_index_list_patterns(self):
        inst = parse_document(
            {"alphabet": {"size": 5}, "length": 4, "patterns": [{"pattern": [4, 0], "count": 0}]}
        )
        assert inst.specs[0].pattern.symbols == (4, 0)

    def test_multi_character_symbols_need_index_lists(self):
        document = {
            "alphabet": {"symbols": ["aa", "bb"]},
            "length": 4,
            "patterns": [{"pattern": "aabb", "count": 1}],
        }
        with pytest.raises(DocumentError):
            parse_document(document)
        document["patterns"] = [{"pattern": [0, 1], "count": 1}]
        assert parse_document(document).specs[0].pattern.symbols == (0, 1)

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
        ],
    )
    def test_malformed_documents_rejected(self, document):
        with pytest.raises(DocumentError):
            parse_document(document)


class TestRoundTrip:
    def test_parse_then_serialize_is_stable(self):
        document = {
            "alphabet": {"symbols": ["A", "C", "G", "T"]},
            "length": 8,
            "patterns": [{"pattern": "ATG", "count": 2}, {"pattern": "CGT", "count": 1}],
        }
        once = instance_to_document(parse_document(document))
        twice = instance_to_document(parse_document(once))
        assert once == twice == document

    def test_instance_survives_the_loop(self):
        inst = ProblemInstance.from_pairs(5, 7, [((0, 4), 1), ((2,), 3)])
        assert parse_document(instance_to_document(inst)) == inst

    def test_multi_character_names_serialize_as_index_lists(self):
        inst = ProblemInstance.from_pairs(2, 4, [((0, 1), 1)], symbol_names=("lo", "hi"))
        document = instance_to_document(inst)
        assert document["patterns"][0]["pattern"] == [0, 1]
        assert parse_document(document) == inst


class TestCount:
    def test_inline_flags(self, capsys):
        code, out, err = run(capsys, "count", "--q", "2", "--t", "4", "--pattern", "ab=1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {"count": "10", "method": "closed_form"}

    def test_breakdown_terms(self, capsys):
        code, out, _ = run(
            capsys, "count", "--q", "2", "--t", "6", "--pattern", "ab=1", "--breakdown"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [term["indices"] for term in payload["terms"]] == [[1], [2], [3]]
        assert sum(int(term["value"]) for term in payload["terms"]) == int(payload["count"])

    def test_named_alphabet_flag(self, capsys):
        code, out, _ = run(
            capsys, "count", "--alphabet", "ACGT", "--t", "10", "--pattern", "ATG=1"
        )
        assert code == EXIT_OK
        assert int(json.loads(out)["count"]) > 0

    def test_inapplicable_reports_and_exits_2(self, capsys):
        code, out, err = run(capsys, "count", "--q", "2", "--t", "4", "--pattern", "aa=1")
        assert code == EXIT_NOT_APPLICABLE
        assert out == ""
        report = json.loads(err)
        assert report["self_intersecting"] == [True]
        assert report["applicable"] is False

    def test_document_input(self, capsys, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(
            json.dumps(
                {
                    "alphabet": {"size": 2},
                    "length": 4,
                    "patterns": [{"pattern": "ab", "count": 1}],
                }
            )
        )
        code, out, _ = run(capsys, "count", "--input", str(path))
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
        ],
    )
    def test_malformed_input_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert "error:" in err

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
        code, out, _ = run(capsys, "count", "--q", "4", "--t", "30", "--pattern", "abc=2")
        assert code == EXIT_OK
        assert calls == {"count_multi": 1, "validate_instance": 1}

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
            "--pattern", "ab=1", "--pattern", "cb=1", "--oracle", "both",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["values"] == {
            "closed_form": "2",
            "enumeration": "2",
            "automaton": "2",
        }

    def test_single_oracle_choice(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--q", "2", "--t", "6", "--pattern", "ab=2", "--oracle", "automaton"
        )
        assert code == EXIT_OK
        assert set(json.loads(out)["values"]) == {"closed_form", "automaton"}

    def test_guard_refusal_exits_4(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--q", "4", "--t", "50", "--pattern", "abc=1",
            "--oracle", "enum", "--guard", "1000",
        )
        assert code == EXIT_REFUSED
        assert "refused" in err

    def test_inapplicable_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--q", "2", "--t", "6", "--pattern", "aba=1")
        assert code == EXIT_NOT_APPLICABLE
        assert json.loads(err)["applicable"] is False

    def test_disagreement_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "dp_count", lambda instance: 999)
        code, out, _ = run(
            capsys, "verify", "--q", "2", "--t", "4", "--pattern", "ab=1", "--oracle", "automaton"
        )
        assert code == EXIT_DISAGREE
        payload = json.loads(out)
        assert payload["agree"] is False
        assert payload["values"]["automaton"] == "999"


class TestValidate:
    def test_overlapping_pair_rejected(self, capsys):
        code, out, _ = run(
            capsys, "validate", "--q", "4", "--t", "9", "--pattern", "abc=1", "--pattern", "bcd=1"
        )
        # abc and bcd overlap: suffix bc meets prefix bc
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
        assert json.loads(out)["self_intersecting"] == [True]


class TestSynthesizedInstance:
    def test_patterns_are_borderless_and_disjoint(self):
        inst = synthesized_instance(6, 20, [3, 4], [2, 1])
        from subwordcount import validate_instance

        assert validate_instance(inst).is_formula_applicable
        assert inst.pattern_lengths == (3, 4)
        assert inst.specs[0].pattern.symbols == (0, 1, 1)
        assert inst.specs[1].pattern.symbols == (2, 3, 3, 3)

    def test_alphabet_too_small_rejected(self):
        with pytest.raises(DocumentError):
            synthesized_instance(3, 20, [3, 3], [1, 1])

    def test_count_arity_mismatch_rejected(self):
        with pytest.raises(DocumentError):
            synthesized_instance(4, 20, [3, 3], [1])


class TestBench:
    def test_csv_shape_and_agreement(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--q", "4", "--t", "6", "--t", "8",
            "--method", "closed_form", "--method", "enumeration", "--method", "automaton",
            "--reps", "1",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "method", "q", "t", "pattern_lengths", "required_counts",
            "wall_seconds", "count_digits",
        ]
        assert len(rows) == 1 + 6
        digits = {(r[2], r[6]) for r in rows[1:]}
        assert len(digits) == 2  # per t, all methods report the same digit count

    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--q", "4", "--t", "10", "--method", "closed_form", "--json"
        )
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert rows[0]["method"] == "closed_form"
        assert rows[0]["t"] == 10
        assert rows[0]["pattern_lengths"] == [3]
        assert rows[0]["required_counts"] == [2]

    def test_method_refusing_everything_exits_4(self, capsys):
        code, out, err = run(
            capsys,
            "bench", "--q", "4", "--t", "20", "--method", "enumeration", "--guard", "100",
        )
        assert code == EXIT_REFUSED
        assert "refused" in err

    def test_partial_refusal_keeps_other_rows(self, capsys):
        code, out, err = run(
            capsys,
            "bench", "--q", "4", "--t", "4", "--t", "20",
            "--method", "closed_form", "--method", "enumeration",
            "--guard", "100000", "--reps", "1",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        methods_at_20 = [r[0] for r in rows if r[2] == "20"]
        assert methods_at_20 == ["closed_form"]
        assert "skipped" in err

    def test_disagreement_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "dp_count", lambda instance: 1)
        code, _, err = run(
            capsys,
            "bench", "--q", "4", "--t", "8",
            "--method", "closed_form", "--method", "automaton", "--reps", "1",
        )
        assert code == EXIT_DISAGREE
        assert "disagree" in err

    def test_multi_pattern_defaults_broadcast(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--q", "6", "--t", "12", "--pattern-length", "2",
            "--pattern-length", "3", "--required", "1", "--reps", "1",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows[0][3] == "2+3"
        assert rows[0][4] == "1+1"

    def test_count_digits_past_the_int_str_digit_limit(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--q", "36", "--t", "3000", "--pattern-length", "3", "--required", "1",
            "--reps", "1", "--json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0]["count_digits"] == 4668


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
        if command == "verify":
            argv += ["--guard", "20000"]  # keep enumeration small; refusal is exit 4
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in {EXIT_OK, EXIT_INPUT, EXIT_NOT_APPLICABLE, EXIT_DISAGREE, EXIT_REFUSED}


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "subwordcount", "validate", "--q", "2", "--t", "4",
         "--pattern", "aba=1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert result.returncode == EXIT_NOT_APPLICABLE
    assert json.loads(result.stdout)["self_intersecting"] == [True]
