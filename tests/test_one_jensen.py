"""The definition's midpoint gap is the two-atom Jensen gap: ``convexity``
keeps one gap kernel, ``jensen_gap``, and every detector, the kernel
identity and replay of both witness kinds reach it."""

import ast

import numpy as np
import pytest

from matconvex import convexity as cx
from matconvex.linalg import SpectrumWindow
from matconvex.rand import RandomSpec
from test_one_bound import SRC

WINDOW = SpectrumWindow(0.1, 2.0)
SPEC = RandomSpec(5)
A0, A1 = np.diag([0.5, 1.0]), np.diag([2.0, 3.0])

ROUTES = {
    "definition_test": lambda f: cx.definition_test(f, WINDOW, 2, 3, SPEC),
    "jensen_test": lambda f: cx.jensen_test(f, WINDOW, 2, 3, 3, SPEC),
    "kernel_identity_residual": lambda f: cx.kernel_identity_residual(f, A0, A1, 0.3),
    "replay_definition": lambda f: cx.replay_witness(
        f, {"kind": "definition", "lam": 0.3, "A0": A0, "A1": A1}),
    "replay_jensen": lambda f: cx.replay_witness(
        f, {"kind": "jensen", "weights": [0.7, 0.3], "matrices": [A0, A1]}),
}


def test_jensen_gap_is_the_only_gap_kernel():
    assert not hasattr(cx, "convexity_gap")
    tree = ast.parse((SRC / "convexity.py").read_text())
    gaps = [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_gap")]
    assert gaps == ["jensen_gap"]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_gap_route_reaches_jensen_gap(route, monkeypatch):
    calls = []
    real = cx.jensen_gap

    def counting(*args, **kwargs):
        calls.append(route)
        return real(*args, **kwargs)

    monkeypatch.setattr(cx, "jensen_gap", counting)
    ROUTES[route](cx.builtin("x2"))
    assert calls
