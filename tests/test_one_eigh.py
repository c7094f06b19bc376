"""``linalg.factor`` is the only eigendecomposition in ``src/matconvex``: no
other function calls ``np.linalg.eigh``, so every factorization the library
makes has passed ``check_hermitian`` first.  Likewise ``linalg.min_eigenvalue``
is the only least-eigenvalue solve: a lone matrix and a stack of margins take
the same ``eigvalsh`` path."""

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


def least_eigenvalue_sites(source: str) -> list[str]:
    """The function of each ``eigvalsh`` call whose result is reduced to its
    least eigenvalue on the spot: indexed by ``0`` in its last position
    (``[0]``, ``[:, 0]``, ``[..., 0]``), or taken by ``.min()``, ``np.min``,
    ``np.amin`` or ``min``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    owners = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            owners[child] = owner
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, "<module>")

    def least(call):
        up = parents[call]
        if isinstance(up, ast.Subscript) and up.value is call:
            index = up.slice.elts[-1] if isinstance(up.slice, ast.Tuple) else up.slice
            return isinstance(index, ast.Constant) and index.value == 0
        if isinstance(up, ast.Attribute):
            return up.attr in ("min", "amin")
        func = up.func if isinstance(up, ast.Call) and call in up.args else None
        return getattr(func, "attr", getattr(func, "id", None)) in ("min", "amin")

    return [owners[node] for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "eigvalsh"
            and least(node)]


def test_the_detector_finds_every_least_eigenvalue():
    source = ("import numpy as np\n"
              "W = np.linalg.eigvalsh(np.eye(2))[0]\n"
              "def f(h):\n"
              "    return np.linalg.eigvalsh(h)[:, 0], np.linalg.eigvalsh(h)[..., 0]\n"
              "def g(h):\n"
              "    return np.linalg.eigvalsh(h).min(), np.min(np.linalg.eigvalsh(h), axis=-1)\n"
              "def spectra(h):\n"
              "    w = np.linalg.eigvalsh(h)\n"
              "    return np.linalg.eigvalsh(h)[..., -1], np.linalg.eigvalsh(h).max(), w[0]\n")
    assert sorted(least_eigenvalue_sites(source)) == ["<module>", "f", "f", "g", "g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_linalg_min_eigenvalue_takes_a_least_eigenvalue(path):
    expected = ["min_eigenvalue"] if path.name == "linalg.py" else []
    assert least_eigenvalue_sites(path.read_text()) == expected
