"""The package exports the names a counting library needs, and no more."""

import importlib
import types

import pytest

import subwordcount

EXPORTED = [
    "BudgetExceededError",
    "DEFAULT_GUARD",
    "DEFAULT_STEP_BUDGET",
    "NotApplicableError",
    "ProblemInstance",
    "ValidationReport",
    "count_multi",
    "count_single",
    "dp_count",
    "enumerate_count",
    "validate_instance",
]

# internals, each importable from the module that defines it
INTERNAL = {
    "core": ["CountBreakdown"],
    "automaton": [
        "MatchAutomaton",
        "TallyGraph",
        "advance_distribution",
        "build_automaton",
        "count_matches",
        "tally_graph",
    ],
    "combinatorics": ["binomial", "multichoose", "multinomial"],
    "enumeration": ["occurrence_profile_counts"],
    "overlap": ["border_profile", "can_overlap", "is_self_intersecting"],
}


def test_all_lists_the_counting_names_and_the_version():
    assert sorted(subwordcount.__all__) == sorted(EXPORTED + ["__version__"])
    for name in subwordcount.__all__:
        assert getattr(subwordcount, name) is not None, name


def test_every_other_public_attribute_is_a_submodule():
    extra = {
        name: value
        for name, value in vars(subwordcount).items()
        if not name.startswith("_") and name not in subwordcount.__all__
    }
    assert extra
    for name, value in extra.items():
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"subwordcount.{name}"


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in INTERNAL.items() for name in names]
)
def test_internals_import_from_their_module_only(module, name):
    assert hasattr(importlib.import_module(f"subwordcount.{module}"), name)
    assert not hasattr(subwordcount, name)
