"""The kill list in scripts/mutants.py stays anchored to the code.

Running the mutants takes a pytest process each, so that is a CI step of
its own. These checks are the cheap half: every entry still finds its
text exactly once, and names tests that exist.
"""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
SCRIPT = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(SCRIPT)


@pytest.mark.parametrize("mutant", SCRIPT.MUTANTS, ids=[m.name for m in SCRIPT.MUTANTS])
def test_each_entry_changes_one_place_and_names_existing_tests(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for test in mutant.tests:
        path, *names = test.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert all(f"def {n}(" in source or f"class {n}" in source for n in names), test


def test_a_missing_anchor_fails_without_running_pytest():
    moved = SCRIPT.MUTANTS[0]._replace(old="text that occurs nowhere")
    assert SCRIPT.run(moved) == (False, f"old text occurs 0 times in {moved.path}")
