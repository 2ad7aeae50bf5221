"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import subwordcount

PACKAGE = Path(subwordcount.__file__).resolve().parent


def absolute_imports(path):
    """Top-level module names of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_relative_or_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    outside = {
        (path.name, name)
        for path in modules
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert outside == set()
