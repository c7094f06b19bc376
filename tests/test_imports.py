"""Every module-level import in ``src/matconvex`` is used, or marked
``# noqa: F401`` on its line, and ``import matconvex`` stays light."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "matconvex"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing in the
    module reads (a ``Name`` or the base of an attribute) and ``__all__``
    does not export; an import line carrying ``# noqa: F401`` is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in lines[i - 1]
               for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(name for name in imported if name not in used)


def test_the_detector_finds_an_unused_import():
    source = ("import math\n"
              "import os  # noqa: F401 - kept for a binding\n"
              "from typing import Callable, Sequence\n"
              "from . import linalg as la\n"
              "x: Sequence = la.tensor(math.pi)\n")
    assert unused_imports(source) == ["Callable"]
    assert unused_imports("from .x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_importing_the_package_loads_no_sampler_or_front_end():
    # the fresh-interpreter import time is a benchmark metric: numpy.random
    # loads on the first draw, and io, cli and suite on their first use
    probe = ("import sys, matconvex; print(sorted(m for m in sys.modules if m in "
             "{'numpy.random', 'matconvex.io', 'matconvex.cli', 'matconvex.suite'}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_importing_the_package_builds_no_quadrature_rule():
    # rules are built on first use, so import time (the setup metric) never pays for one
    probe = ("import matconvex; from matconvex.quadrature import _orthant_rule, "
             "gauss_legendre_01 as g; print(_orthant_rule.cache_info().currsize, "
             "g.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0"]


def test_entropy_imports_no_convexity():
    # the state layer sits below the batteries: its validators come from linalg
    tree = ast.parse((SRC / "entropy.py").read_text())
    local = {node.module for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert local == {"errors", "linalg", "rand"}
