"""The mutation table ``tests/mutants.py`` still applies: every snippet
occurs once in its file, and every selection names a test that exists.
Running the mutants themselves is ``python tests/mutants.py``."""
import re

import pytest

from tests.mutants import MUTANTS, ROOT, mutated_source


def test_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_applies(mutant):
    original = (ROOT / "src" / "odekit" / mutant.file).read_text()
    assert mutated_source(mutant) != original
    assert mutant.selection
    for node in mutant.selection:
        path, *names = node.split("::")
        text = (ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", text, re.M), node
