"""Every report runs its checks through one part runner: ``suite.run_parts``
alone reads the clock, and hands part k its own stream block
``spec.stream(k * STREAM_BLOCK)``, so ``cli.py`` neither times a check nor
computes a block."""

import ast
from pathlib import Path

import pytest

from matconvex import cli
from matconvex.rand import STREAM_BLOCK, RandomSpec
from matconvex.suite import run_parts
from test_one_bound import SRC, call_sites

CLI = (SRC / "cli.py").read_text()


def name_sites(source: str, name: str) -> dict[str, int]:
    """Function (``<module>`` at top level) -> number of loads of ``name``."""
    sites: dict[str, int] = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == name:
                sites[owner] = sites.get(owner, 0) + 1
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), "<module>")
    return sites


def test_only_run_parts_reads_the_clock():
    sites = {path.name: call_sites(path.read_text(), "perf_counter")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in sites.items() if found} == {
        "suite.py": {"run_parts": 2}}


def test_cli_computes_no_stream_block():
    assert call_sites(CLI, "stream") == {}
    assert name_sites(CLI, "STREAM_BLOCK") == {"_check_counts": 2}


def test_every_report_runs_its_parts_once():
    commands = {name for name in vars(cli) if name.startswith("cmd_")} - {"cmd_run_suite"}
    assert call_sites(CLI, "run_parts") == {name: 1 for name in commands}
    assert call_sites((SRC / "suite.py").read_text(), "run_parts") == {"run_suite": 1}


@pytest.mark.parametrize("parts", [[0, 1, 2], [0, None, 2], [None, None, 2]])
def test_a_part_keeps_its_block_whichever_parts_run(parts):
    spec = RandomSpec(7, 5)

    def part(s):
        return {"stream_id": s.stream_id}

    records = run_parts(spec, [None if k is None else part for k in parts])
    assert [rec["stream_id"] for rec in records] == [
        5 + k * STREAM_BLOCK for k in parts if k is not None]
    assert all(rec["timing"] >= 0.0 for rec in records)
