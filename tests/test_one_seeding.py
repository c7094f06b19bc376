"""``rand.generators`` is the only place in ``src/matconvex`` that builds a
numpy ``Generator``, ``PCG64`` or ``SeedSequence``: every stream, a lone one
included (``RandomSpec.rng`` is the batch of one), is seeded by the one
column-wise hash of ``RandomSpec.seed_words``.  Tests may still build numpy's
own ``SeedSequence`` as an oracle."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "matconvex"

#: numpy's seeding constructors, by the name they are called under
BUILDERS = {"Generator", "PCG64", "SeedSequence", "default_rng"}


def builder_calls(source: str) -> list[str]:
    """The function (``<module>`` at top level) of each call of a name or an
    attribute in ``BUILDERS`` (``np.random.PCG64(...)``, ``SeedSequence(...)``);
    naming a class, as a base or an annotation, builds nothing."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in BUILDERS:
                    sites.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), "<module>")
    return sites


def test_the_detector_finds_every_builder_call():
    source = ("import numpy as np\n"
              "from numpy.random import SeedSequence\n"
              "R = np.random.default_rng(0)\n"
              "def f(seed) -> np.random.Generator:\n"
              "    return np.random.Generator(np.random.PCG64(SeedSequence(seed)))\n"
              "class C(np.random.bit_generator.ISeedSequence):\n"
              "    def g(self, words):\n"
              "        return [np.random.Generator(w) for w in words]\n")
    assert builder_calls(source) == ["<module>", "f", "f", "f", "g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_rand_generators_builds_a_generator(path):
    # one Generator around one PCG64, per row of seed words
    expected = ["generators", "generators"] if path.name == "rand.py" else []
    assert builder_calls(path.read_text()) == expected
