"""The package exports the names a counting library needs, and no more."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import subwordcount

PACKAGE = Path(subwordcount.__file__).resolve().parent

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
        "tally_graph",
    ],
    "closed_form": ["multinomial"],
    "combinatorics": ["binomial", "multichoose"],
    "enumeration": ["occurrence_profile_counts"],
    "overlap": ["can_overlap", "is_self_intersecting"],
}

# module-level definitions that nothing in the package loads, each kept for
# a reader outside it
UNRUN_BUT_KEPT = {
    "binomial": "perfbench's tracer wraps it through its FOLDED table",
    "multichoose": "perfbench's tracer wraps it through its FOLDED table",
    "is_self_intersecting": "perfbench's tracer wraps it through its SPANNED table",
    "can_overlap": "perfbench's tracer wraps it through its SPANNED table",
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


def test_the_package_defines_only_what_it_runs():
    defined, loaded = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        )
        for node in ast.walk(tree):
            # an import alone does not count: it is a name read, here or as
            # module.name, that runs a definition
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert defined
    unrun = defined - loaded - set(subwordcount.__all__)
    assert unrun == set(UNRUN_BUT_KEPT)
