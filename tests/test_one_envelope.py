"""Every command shares one envelope: ``main`` alone resolves the seed, builds
the run's ``RandomSpec`` and emits the report, whose ``config`` is the parsed
arguments, and every input file is read through ``io.load``."""

import argparse
import ast
import json
from pathlib import Path

import pytest

from matconvex import cli
from matconvex.io import kubo_ando_to_dict, pick_to_dict, save_json
from matconvex.jointconcavity import KuboAndoRepresentation
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
    assert set(call_sites(CLI, "mio.load")) == {
        "cmd_check_entropy", "cmd_certify_representation", "_fixed_tuple", "_kubo_ando"}
    # both tuple batteries read their --tuple through the one sized reader
    assert call_sites(CLI, "_fixed_tuple") == {"_parallel_sum": 1, "_tensor_power": 1}


#: one cheap run of each leaf command
ARGV = [
    "certify-function --f x2 --window 0,1 --n 2 --trials 2",
    "check-entropy --random 2x2 --trials 2",
    "certify-representation --rep {rep} --n 2 --trials 2",
    "check-concavity parallel-sum --n 2 --trials 2",
    "check-concavity tensor-power --n 2 --trials 2 --nodes 16",
    "check-concavity lieb --n 2 --trials 2",
    "check-concavity kubo-ando --rep {mean} --n 2 --trials 2",
    "run-suite --only c_constant",
]

#: the options each check-concavity battery reads, besides --seed, --out and --format
BATTERY_OPTIONS = {
    "parallel-sum": {"k", "n", "trials", "tuple"},
    "tensor-power": {"n", "trials", "p", "nodes", "tuple", "error_curve"},
    "lieb": {"n", "trials"},
    "kubo-ando": {"n", "trials", "rep"},
}


def _leaves(parser=None, path=()) -> dict[tuple, list[argparse.ArgumentParser]]:
    """Command path -> the parsers from the root down to that leaf command."""
    parser = parser or cli._build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: [parser]}
    (action,) = subs
    return {leaf: [parser, *chain] for name, child in action.choices.items()
            for leaf, chain in _leaves(child, (*path, name)).items()}


def _leaf(argv: list[str]) -> tuple:
    (path,) = (path for path in _leaves() if tuple(argv[:len(path)]) == path)
    return path


def test_the_argv_above_covers_every_command():
    assert sorted(_leaf(arg.split()) for arg in ARGV) == sorted(_leaves())


def test_each_battery_declares_only_the_options_it_reads():
    declared = {path[1]: {a.dest for a in chain[-1]._actions} - {"help", "seed", "out", "format"}
                for path, chain in _leaves().items() if path[0] == "check-concavity"}
    assert declared == BATTERY_OPTIONS
    assert sum(map(len, declared.values())) == 15  # of 4 x 8 when the batteries shared one


@pytest.mark.parametrize("argv", ARGV)
def test_config_is_every_option_but_help_out_and_format(argv, tmp_path, capsys):
    rep, mean = tmp_path / "rep.json", tmp_path / "mean.json"
    save_json(str(rep), pick_to_dict(PickRepresentation(0.5, 0.1, 0.3, 1.0,
                                                        SpectrumWindow(0.1, 5.0))))
    save_json(str(mean), kubo_ando_to_dict(KuboAndoRepresentation(0.3, 0.2)))
    argv = argv.format(rep=rep, mean=mean).split()
    assert cli.main([*argv, "--seed", "4", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # every parser below the root: a check-concavity leaf adds its battery, `suite`
    dests = {a.dest for parser in _leaves()[_leaf(argv)][1:] for a in parser._actions}
    assert report["command"] == argv[0]
    assert set(report["config"]) == dests - {"help", "out", "format"}
    assert report["config"]["seed"] == 4
