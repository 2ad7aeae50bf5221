"""Tests of the benchmark itself: inputs, reference checks and tracing.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import types

import pytest

import run
import tracing
import workloads
from subwordcount import automaton, cli, closed_form, combinatorics, core, overlap

PKG = types.SimpleNamespace(
    core=core,
    overlap=overlap,
    combinatorics=combinatorics,
    closed_form=closed_form,
    automaton=automaton,
    cli=cli,
)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_picks_only_pattern_content_and_call_order(workload):
    def shape(seed):
        specs = workloads.generate(workload, seed)
        return sorted((s.q, s.t, [(len(p), x) for p, x in s.pairs], s.via) for s in specs)

    assert shape(3) == shape(4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", range(4))
def test_every_generated_instance_admits_the_closed_form(workload, seed, tmp_path):
    cases = workloads.build(workloads.generate(workload, seed), PKG, tmp_path)
    assert len(cases) == 25
    for case in cases:
        assert core.validate_instance(case.instance).is_formula_applicable, case.spec


def test_cli_workload_puts_one_call_in_five_past_the_digit_limit(tmp_path):
    cases = workloads.build(workloads.generate("cli-long-single", 0), PKG, tmp_path)
    assert "share past the digit limit 0.20" in workloads.size_summary(cases, PKG)
    assert sum(c.spec.via == "input" for c in cases) in (12, 13)


def test_own_applicability_checks_agree_with_the_package():
    patterns = [p for n in range(1, 5) for p in itertools.product(range(3), repeat=n)]
    for p in patterns:
        assert workloads.is_borderless(p) == (not overlap.is_self_intersecting(p)), p
    for a, b in itertools.combinations(patterns[:60], 2):
        assert workloads.can_share_position(a, b) == overlap.can_overlap(a, b), (a, b)


def test_decimal_parse_goes_past_the_digit_limit_without_lifting_it():
    text = "9" * 6000
    with pytest.raises(ValueError):
        int(text)
    assert workloads.parse_decimal(text) == 10**6000 - 1
    with pytest.raises(ValueError):
        workloads.parse_decimal("12a")


def _small_cases(tmp_path):
    spec = workloads.Spec(4, 30, (((0, 1, 2), 2),), via="input")
    return workloads.build([spec], PKG, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_check_flags_a_wrong_count(workload, tmp_path):
    cases = _small_cases(tmp_path)
    right = closed_form.count_multi(cases[0].instance).total
    if workload == "cli-long-single":
        outputs = [f'{{"count": "{right}"}}', f'{{"count": "{right + 1}"}}']
    else:
        outputs = [right, right + 1]
    records = [(0, outputs[0], None, 0.0), (0, outputs[1], None, 0.0), (0, None, "ValueError", 0.0)]
    outcomes, _ = run.check(workload, PKG, cases, records, {})
    assert outcomes == [None, run.WRONG, "ValueError"]


def test_traced_cli_call_shows_the_doubled_closed_form(tmp_path):
    cases = _small_cases(tmp_path)
    call = workloads.caller("cli-long-single", PKG)
    bindings = tracing.SPANNED + tracing.FOLDED
    before = [getattr(getattr(PKG, m), a) for m, a, _ in bindings]
    from_terms = vars(core.CountBreakdown)["from_terms"]
    untraced = call(cases[0])
    tracer = tracing.Tracer()
    with tracer.installed(PKG):
        tracer.call = 7
        traced = call(cases[0])
    assert traced == untraced
    assert [getattr(getattr(PKG, m), a) for m, a, _ in bindings] == before
    assert vars(core.CountBreakdown)["from_terms"] is from_terms
    assert {span.call for span in tracer.spans} == {7}
    metrics = tracing.layer_metrics(tracer.spans, 0, 1.0)
    assert metrics["cli.calls"][0] == 1
    assert metrics["closed_form.calls"][0] == 2
    assert metrics["core.validate_calls"][0] == 2
    assert metrics["core.breakdown_calls"][0] == 2
    assert metrics["combinatorics.calls"][0] > 0


def test_trace_run_reports_exactly_the_declared_per_layer_metrics():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in config["per_layer"]}
    produced = {name: unit for name, (_, unit) in tracing.layer_metrics([], 0, 1.0).items()}
    assert produced == declared


def test_setup_only_prints_ready_where_the_first_timed_call_would_be(capsys):
    argv = ["--workload", "oracle-dp", "--seed", "1", "--seconds", "0", "--setup-only"]
    assert run.main(argv) == 0
    assert capsys.readouterr().out == "ready\n"
