"""Every stacked battery runs on ``convexity.stacked_rows``: it alone, with
``RandomSpec.rngs``, turns seed words into generators, and each
``check-concavity`` battery is one call to it, with no loop of its own."""

import ast
from pathlib import Path

import pytest

from matconvex import convexity as cx
from test_one_bound import call_sites

SRC = Path(__file__).resolve().parents[1] / "src" / "matconvex"


def _function(path: Path, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == name)


@pytest.mark.parametrize("name", ["generators", "seed_words"])
def test_only_the_engine_and_rngs_make_generators(name):
    sites = {(path.name, owner): count for path in sorted(SRC.glob("*.py"))
             for owner, count in call_sites(path.read_text(), name).items()}
    assert sites == {("rand.py", "rngs"): 1, ("convexity.py", "stacked_rows"): 1}


def test_run_trials_is_the_engine_and_the_reduction():
    assert not hasattr(cx, "trial_chunks")
    body = _function(SRC / "convexity.py", "run_trials")
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(body))
    assert call_sites(ast.unparse(body), "stacked_rows") == {"run_trials": 1}


def test_each_concavity_battery_is_one_engine_call():
    # parallel-sum, tensor-power, lieb and kubo-ando, one part each
    parts = ["_parallel_sum", "_tensor_power", "_lieb", "_kubo_ando"]
    assert call_sites((SRC / "cli.py").read_text(), "stacked_rows") == dict.fromkeys(parts, 1)
    for name in parts:
        check = _function(SRC / "cli.py", name)
        assert call_sites(ast.unparse(check), "stacked_rows") == {name: 1}
        assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(check))
        # a comprehension over generators binds one (or a chunk of them) per step,
        # or walks a list of them as it comes
        over_generators = [
            ast.unparse(gen) for node in ast.walk(check)
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
            for gen in node.generators
            if {"rng", "rngs"} & {n.id for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
            or ast.unparse(gen.iter) == "rngs"
            or isinstance(gen.iter, ast.Call) and ast.unparse(gen.iter.func).endswith("rngs")]
        assert over_generators == [], name
