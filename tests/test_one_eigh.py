"""``linalg.factor`` is the only eigendecomposition in ``src/matconvex``: no
other function calls ``np.linalg.eigh``, so every factorization the library
makes has passed ``check_hermitian`` first."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "matconvex"


def eigh_sites(source: str) -> list[str]:
    """The function (``<module>`` at top level) of each reference to ``eigh``:
    any attribute named ``eigh`` (``np.linalg.eigh``, ``la.eigh``) and any name
    imported as ``eigh`` from ``numpy.linalg``."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                for alias in node.names if alias.name == "eigh"}
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "eigh"
                    or isinstance(child, ast.Name) and child.id in imported):
                sites.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, "<module>")
    return sites


def test_the_detector_finds_every_eigh():
    source = ("import numpy as np\n"
              "from numpy.linalg import eigh as e\n"
              "W = np.linalg.eigh(np.eye(2))\n"
              "def f(h):\n"
              "    return np.linalg.eigvalsh(h), e(h)\n"
              "class C:\n"
              "    def g(self, la, h):\n"
              "        return la.eigh(h)\n")
    assert eigh_sites(source) == ["<module>", "f", "g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_linalg_factor_calls_eigh(path):
    expected = ["factor"] if path.name == "linalg.py" else []
    assert eigh_sites(path.read_text()) == expected
