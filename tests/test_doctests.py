"""The docstring examples of every torsionpoly module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import torsionpoly

MODULES = ["torsionpoly", *sorted(m.name for m in pkgutil.iter_modules(torsionpoly.__path__, "torsionpoly."))]


@pytest.mark.parametrize("name", MODULES)
def test_doctests_pass(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_laurent_has_doctests():
    assert "torsionpoly.laurent" in MODULES
    assert doctest.testmod(importlib.import_module("torsionpoly.laurent")).attempted >= 1
