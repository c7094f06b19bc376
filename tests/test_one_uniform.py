"""``rand.uniform_rows`` (and, for a lone generator, ``rand.uniform_range``)
is the only uniform draw path in ``src/matconvex``: no module calls
``Generator.uniform``, so every uniform is one ``random`` call per row mapped
by numpy's affine form.  Tests may still call ``uniform`` as an oracle."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "matconvex"


def uniform_calls(source: str) -> list[str]:
    """The function (``<module>`` at top level) of each call of an attribute
    named ``uniform`` (``rng.uniform(...)``, ``spec.rng().uniform(...)``)."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "uniform"):
                sites.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), "<module>")
    return sites


def test_the_detector_finds_every_uniform_call():
    source = ("import numpy as np\n"
              "X = np.random.default_rng(0).uniform(0, 1)\n"
              "def f(rngs):\n"
              "    return [rng.uniform(0.1, 5.0, size=3) for rng in rngs]\n"
              "class C:\n"
              "    def g(self, spec):\n"
              "        return spec.rng().uniform(0.0, 1.0), uniform_rows(0, 1, [])\n")
    assert uniform_calls(source) == ["<module>", "f", "g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_generator_uniform(path):
    assert uniform_calls(path.read_text()) == []
