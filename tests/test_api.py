"""Every public name a module lists in `__all__` exists."""

import pkgutil

import pytest

import leq_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(leq_lab.__path__))


def test_modules_are_found():
    assert "agent" in MODULES and "returns" in MODULES


@pytest.mark.parametrize("module", ["leq_lab", *(f"leq_lab.{m}" for m in MODULES)])
def test_star_import(module):
    exec(f"from {module} import *", {})
