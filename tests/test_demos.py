"""Smoke test: every demo script runs to completion."""

import pathlib
import runpy
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demo_directory_is_populated():
    assert len(DEMOS) == 5


# a warning raised while a demo runs, such as a deprecation on a newer Python,
# fails the test instead of only being reported
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys, monkeypatch):
    # the benchmark demo accepts a sweep override; keep it quick here
    argv = [str(script)] + (["6", "8"] if "benchmark" in script.name else [])
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
