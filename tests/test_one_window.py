"""Each window rule refuses in one place.  ``SpectrumWindow.shrunk`` is the only
refusal of an unbounded window, so every sampler and detector raises the same
``UnboundedWindowError``; ``ResolventPoint`` is the only pole check, which
``elementary_decomposition_residual`` runs once per distinct pole."""

import ast
import math

import numpy as np
import pytest

from matconvex.convexity import (
    builtin,
    definition_test,
    jensen_test,
    monotonicity_test,
    secant_test,
    second_derivative_test,
)
from matconvex.errors import UnboundedWindowError
from matconvex.linalg import SpectrumWindow
from matconvex.rand import RandomSpec, random_in_window_rows
from matconvex.resolvent import (PickRepresentation, certify_representation,
                                 elementary_decomposition_residual)
from test_one_bound import SRC

HALF_LINE = SpectrumWindow(0.0, math.inf)
WINDOW = SpectrumWindow(0.1, 5.0)
SQRT = builtin("sqrt")

REFUSALS = {
    "definition_test": lambda spec: definition_test(SQRT, HALF_LINE, 3, 10, spec),
    "jensen_test": lambda spec: jensen_test(SQRT, HALF_LINE, 3, 2, 10, spec),
    "second_derivative_test": lambda spec: second_derivative_test(SQRT, HALF_LINE, 3, 10, spec),
    "monotonicity_test": lambda spec: monotonicity_test(SQRT, HALF_LINE, 4, 10, spec),
    "secant_test": lambda spec: secant_test(SQRT, 1.0, HALF_LINE, 4, 10, spec),
    "certify_representation": lambda spec: certify_representation(
        PickRepresentation(0.0, 1.0, 0.0, 1.0, HALF_LINE), 3, 10, spec),
    "random_in_window_rows": lambda spec: random_in_window_rows(3, HALF_LINE, [spec.rng()]),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_every_sampler_refuses_an_unbounded_window_the_same_way(name):
    message = r"^needs a bounded window, got \(0.0, inf\); pass a compact sub-window$"
    with pytest.raises(UnboundedWindowError, match=message):
        REFUSALS[name](RandomSpec(0))


def raise_sites(source: str, name: str) -> list[str]:
    """The function (``<module>`` at top level) of each ``raise name(...)`` or
    ``raise name``, the exception a plain name or a module attribute."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if (isinstance(exc, ast.Name) and exc.id == name
                        or isinstance(exc, ast.Attribute) and exc.attr == name):
                    sites.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), "<module>")
    return sites


def test_the_detector_finds_every_raise():
    source = ("from . import errors\n"
              "from .errors import E\n"
              "if X:\n"
              "    raise E('top')\n"
              "def f():\n"
              "    def inner():\n"
              "        raise errors.E\n"
              "    e = E('built, not raised')\n"
              "    raise E('f') from None\n")
    assert raise_sites(source, "E") == ["<module>", "inner", "f"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_shrunk_refuses_an_unbounded_window(path):
    expected = ["shrunk"] if path.name == "linalg.py" else []
    assert raise_sites(path.read_text(), "UnboundedWindowError") == expected


def test_a_nan_pole_is_refused():
    # ResolventPoint's check: a NaN pole lies on no side of the window
    with pytest.raises(ValueError, match="^u must be finite, got nan$"):
        elementary_decomposition_residual(np.array([-1.0, math.nan, 6.0]), 1.0, 1.5, WINDOW)

