"""The seeded mutants of tests/mutants.py stay applicable: each snippet
occurs exactly once in its module, so the runner (its own CI step) mutates
the code its tests check."""

import os

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_mutant_snippet_occurs_once_in_src(mutant):
    assert mutants.snippet_count(mutant, os.path.join(mutants.ROOT, "src")) == 1
    assert mutant.snippet != mutant.replacement and mutant.tests
