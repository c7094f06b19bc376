"""Every command shares one envelope: ``main`` alone resolves the seed, builds
the run's ``RandomSpec`` and emits the report, whose ``config`` is the parsed
arguments, and every input file is read through ``io.load``."""

import argparse
import ast
import json
from pathlib import Path

import pytest

from matconvex import cli
from matconvex.io import pick_to_dict, save_json
from matconvex.linalg import SpectrumWindow
from matconvex.resolvent import PickRepresentation
from test_one_bound import call_sites

CLI = (Path(__file__).resolve().parents[1] / "src" / "matconvex" / "cli.py").read_text()


@pytest.mark.parametrize("name", ["_default_seed", "RandomSpec", "_emit"])
def test_only_main_resolves_the_seed_and_emits(name):
    assert call_sites(CLI, name) == {"main": 1}


def test_no_function_builds_a_seed_config():
    keys = [key.value for node in ast.walk(ast.parse(CLI)) if isinstance(node, ast.Dict)
            for key in node.keys if isinstance(key, ast.Constant)]
    words = [kw.arg for node in ast.walk(ast.parse(CLI)) if isinstance(node, ast.Call)
             for kw in node.keywords]
    assert "seed" not in keys and "seed" not in words


def test_every_input_file_is_read_through_load():
    assert call_sites(CLI, "load_json") == {}
    assert set(call_sites(CLI, "load")) == {
        "cmd_check_entropy", "cmd_certify_representation", "_concavity_check"}


#: one cheap run of each command
ARGV = [
    "certify-function --f x2 --window 0,1 --n 2 --trials 2",
    "check-entropy --random 2x2 --trials 2",
    "certify-representation --rep {rep} --n 2 --trials 2",
    "check-concavity --suite lieb --n 2 --trials 2",
    "run-suite --only c_constant",
]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = (a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_the_argv_above_covers_every_command():
    assert sorted(_subparsers()) == sorted(arg.split()[0] for arg in ARGV)


@pytest.mark.parametrize("argv", ARGV)
def test_config_is_every_option_but_help_out_and_format(argv, tmp_path, capsys):
    rep = tmp_path / "rep.json"
    save_json(str(rep), pick_to_dict(PickRepresentation(0.5, 0.1, 0.3, 1.0,
                                                        SpectrumWindow(0.1, 5.0))))
    argv = argv.format(rep=rep).split()
    assert cli.main([*argv, "--seed", "4", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    dests = {a.dest for a in _subparsers()[argv[0]]._actions} - {"help", "out", "format"}
    assert report["command"] == argv[0]
    assert set(report["config"]) == dests
    assert report["config"]["seed"] == 4
