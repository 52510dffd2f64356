"""Run every doctest in the package so examples in docstrings stay true."""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

from scrollcurves import catalog, checks, chow, cli, curves, fixtures, scrolls, semigroups

MODULES = (semigroups, curves, scrolls, chow, checks, catalog, fixtures, cli)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.split(".")[-1])
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_some_examples_exist():
    attempted = sum(doctest.testmod(m).attempted for m in MODULES)
    assert attempted > 0


def test_every_module_is_listed():
    """A module missing from `MODULES` would have its doctests skipped
    without a word; `errors` holds no examples."""
    package = Path(catalog.__file__).parent
    stems = {p.stem for p in package.glob("*.py")} - {"__init__", "errors"}
    assert sorted(m.__name__.split(".")[-1] for m in MODULES) == sorted(stems)
