"""Every public name a module lists in `__all__` exists, and the package
loads a submodule only when one of its names is read."""

import os
import pkgutil
import subprocess
import sys

import pytest

import leq_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(leq_lab.__path__))


def test_modules_are_found():
    assert "agent" in MODULES and "returns" in MODULES


@pytest.mark.parametrize("module", ["leq_lab", *(f"leq_lab.{m}" for m in MODULES)])
def test_star_import(module):
    exec(f"from {module} import *", {})


def test_the_cli_loads_no_theory_until_a_theory_name_is_read():
    code = (
        "import sys, leq_lab.cli\n"
        "assert 'leq_lab.theory' not in sys.modules\n"
        "import leq_lab\n"
        "assert leq_lab.lemma1_check is sys.modules['leq_lab.theory'].lemma1_check\n"
    )
    src = os.path.dirname(os.path.dirname(leq_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
