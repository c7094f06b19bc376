"""Every slack record of ``run-suite`` and the CLI batteries takes its margin
from ``io.bound_record``.  Only the verdict records and the three suite checks
whose margin is no distance to a bound (the detector controls, the monotone
gate of the tensor-power error curve, and determinism) call
``io.check_record`` directly."""

import ast
from pathlib import Path

import pytest

from matconvex import suite

SRC = Path(__file__).resolve().parents[1] / "src" / "matconvex"

#: file -> the functions that may call check_record directly
DIRECT = {
    "suite.py": ["check_convexity_detectors", "check_determinism", "check_tensor_power"],
    "cli.py": ["_verdict_record"],
}


def call_sites(source: str, name: str) -> dict[str, int]:
    """Function (``<module>`` at top level) -> number of calls to ``name``,
    as a plain name (``name(...)``) or an attribute (``mio.name(...)``).  A
    dotted ``name`` such as ``mio.load`` counts only that attribute of that
    module alias, so ``json.load(...)`` is no ``mio.load`` call."""
    sites: dict[str, int] = {}
    alias, _, attr = name.rpartition(".")

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == name
                        or isinstance(func, ast.Attribute) and func.attr == attr
                        and (not alias or isinstance(func.value, ast.Name)
                             and func.value.id == alias)):
                    sites[owner] = sites.get(owner, 0) + 1
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), "<module>")
    return sites


def test_the_detector_finds_every_call():
    source = ("from . import io as mio\n"
              "from .io import check_record\n"
              "R = check_record('a', 1.0, {})\n"
              "def f():\n"
              "    def inner():\n"
              "        return mio.check_record('b', 1.0, {})\n"
              "    return check_record('c', 1.0, {}), check_record\n")
    assert call_sites(source, "check_record") == {"<module>": 1, "inner": 1, "f": 1}
    assert call_sites(source, "mio.check_record") == {"inner": 1}
    assert call_sites(source, "json.check_record") == {}


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_only_the_unbounded_records_call_check_record(name):
    assert sorted(call_sites((SRC / name).read_text(), "check_record")) == DIRECT[name]


def test_every_bounded_suite_check_calls_bound_record_once():
    # the tensor-power check takes its margin from the reducer, then gates it
    unbounded = {"check_convexity_detectors", "check_determinism"}
    expected = {check.__name__: 1 for check in suite.CHECKS.values()
                if check.__name__ not in unbounded}
    assert call_sites((SRC / "suite.py").read_text(), "bound_record") == expected


def test_every_cli_battery_takes_its_margin_from_bound_record():
    bounded = call_sites((SRC / "cli.py").read_text(), "bound_record")
    # check-entropy, the routes of certify-representation, check-concavity's four parts
    assert bounded == {"battery": 1, "routes": 1, "_parallel_sum": 1, "_tensor_power": 1,
                       "_lieb": 1, "_kubo_ando": 1}
