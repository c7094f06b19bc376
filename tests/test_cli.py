"""Exit codes, report determinism, and file handling of the command line."""

import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import product_state
from matconvex import convexity as cx
from matconvex import entropy as ent
from matconvex import io as mio
from matconvex import jointconcavity as jc
from matconvex import suite
from matconvex.cli import _attach_window, _build_parser, main
from matconvex.errors import MatConvexError
from matconvex.entropy import bell_state, DensityOperator
from matconvex.io import (
    density_to_dict,
    kubo_ando_to_dict,
    pick_to_dict,
    report_from_dict,
    save_json,
    tuple_to_list,
)
from matconvex.jointconcavity import KuboAndoRepresentation
from matconvex.linalg import SpectrumWindow
from matconvex.rand import STREAM_BLOCK, RandomSpec, random_in_window_rows
from matconvex.resolvent import PickRepresentation

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_json(str(path), density_to_dict(bell_state()))
    return str(path)


@pytest.fixture()
def rep_file(tmp_path):
    rep = PickRepresentation(
        0.5, 0.1, 0.3, 1.0, SpectrumWindow(0.1, 5.0),
        atoms=((-1.0, 0.4), (7.0, 0.2)),
    )
    path = tmp_path / "rep.json"
    save_json(str(path), pick_to_dict(rep))
    return str(path)


def test_certify_function_quadratic_passes(capsys):
    code = main(["certify-function", "--f", "x2", "--window", "0,1",
                 "--n", "3", "--trials", "100", "--seed", "7"])
    assert code == 0
    assert "certified" in capsys.readouterr().out


def test_certify_function_x4_violated_with_witness(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["certify-function", "--f", "x4", "--window", "0.1,2",
                 "--n", "2", "--trials", "1000", "--seed", "7",
                 "--out", str(out)])
    assert code == 1
    report = report_from_dict(json.load(open(out)))
    violated = [c for c in report["checks"] if c["status"] == "violated"]
    assert violated and "witness" in violated[0]
    assert violated[0]["witness"]["A0"]["dim"] == 2


def test_certify_function_takes_a_negative_window_in_both_forms(capsys):
    reports = []
    for window in (["--window", "-1,1"], ["--window=-1,1"]):
        code = main(["certify-function", "--f", "exp", *window, "--n", "2",
                     "--trials", "20", "--seed", "1", "--format", "json"])
        assert code == 1  # exp is not matrix convex: the secant test finds it
        report = json.loads(capsys.readouterr().out)
        for check in report["checks"]:
            check.pop("timing")
        reports.append(report)
    assert reports[0]["config"]["window"] == [-1.0, 1.0]
    assert reports[0] == reports[1]


def test_certify_function_detectors_draw_from_disjoint_blocks(monkeypatch, capsys):
    specs = {}
    for name in ("definition_test", "second_derivative_test"):
        def spy(*args, _real=getattr(cx, name), _name=name):
            specs[_name] = args[-1]
            return _real(*args)
        monkeypatch.setattr(cx, name, spy)
    main(["certify-function", "--f", "x2", "--window", "0.1,2",
          "--n", "2", "--trials", "5", "--seed", "7"])
    window = SpectrumWindow(0.1, 2.0)
    first = {name: random_in_window_rows(2, window, [spec.stream(0).rng()])[0]
             for name, spec in specs.items()}
    assert not np.array_equal(first["definition_test"],
                              first["second_derivative_test"])


@pytest.mark.parametrize("name", sorted(cx.TRUTH_ON_POSITIVES))
def test_certify_function_exact_detectors_match_the_truth_table(name, capsys):
    code = main(["certify-function", "--f", name, "--window", "0.1,2", "--mode", "all",
                 "--seed", "1", "--format", "json"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    convex, monotone = cx.TRUTH_ON_POSITIVES[name]
    assert code == (0 if convex and monotone else 1)
    for detector in ("second_derivative", "secant_monotonicity"):
        assert checks[detector]["status"] == ("certified" if convex else "violated")
    if name in ("affine", "x2"):  # [f[x_i, x_j, y]] is 0 and all ones: margin 0
        assert abs(checks["secant_monotonicity"]["margin"]) <= 1e-10


def test_certify_function_secant_witness_replays(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["certify-function", "--f", "x4", "--window", "0.1,2", "--n", "2",
          "--seed", "1", "--out", str(out)])
    report = report_from_dict(json.load(open(out)))
    check = next(c for c in report["checks"] if c["name"] == "secant_monotonicity")
    assert check["status"] == "violated" and check["witness"]["y"] == 1.05
    replayed = cx.replay_witness(cx.builtin("x4"), check["witness"])
    assert replayed == pytest.approx(check["witness"]["margin"], abs=1e-12)


def test_certify_function_witnesses_carry_only_what_was_sampled(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["certify-function", "--f", "x4", "--window", "0.1,2", "--n", "2",
                 "--seed", "1", "--out", str(out)])
    assert code == 1
    checks = {c["name"]: c for c in report_from_dict(json.load(open(out)))["checks"]}
    for name, sampled in (("definition", {"A0", "A1", "lam"}),
                          ("second_derivative", {"M", "Q"})):
        witness = checks[name]["witness"]
        assert checks[name]["status"] == "violated"
        assert witness.keys() == {"kind", "stream_id", "margin", *sampled}


def test_every_report_witness_replays_to_its_margin(capsys):
    # the matrices of a report's witness are matrix documents
    code = main(["certify-function", "--f", "x4", "--window", "0.1,2", "--n", "2",
                 "--mode", "all", "--seed", "1", "--format", "json"])
    assert code == 1
    witnesses = {c["name"]: c["witness"] for c in json.loads(capsys.readouterr().out)["checks"]
                 if "witness" in c}
    assert witnesses.keys() >= {"definition", "second_derivative"}
    for name, witness in witnesses.items():
        assert cx.replay_witness(cx.builtin("x4"), witness) == pytest.approx(
            witness["margin"], abs=1e-12), name


def test_certify_function_without_closed_forms_is_a_usage_error(monkeypatch, capsys):
    x4 = cx.builtin("x4")
    monkeypatch.setitem(cx.BUILTINS, "x4", cx.ScalarFunction("x4", x4.fn, x4.domain))
    code = main(["certify-function", "--f", "x4", "--window", "0.1,2", "--mode", "convex"])
    assert code == 2
    assert "x4 has no closed-form deriv and deriv2" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(capsys):
    code = main(["certify-function", "--f", "x2", "--window", "0.1,2", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: expected non-negative integer"]


def test_certify_function_sqrt_monotone(capsys):
    code = main(["certify-function", "--f", "sqrt", "--window", "0.1,10",
                 "--mode", "monotone", "--seed", "7"])
    assert code == 0


@pytest.mark.parametrize("f, mode, code, detector", [
    ("sqrt", "all", 1, "loewner_monotonicity"),  # sqrt is monotone, not convex
    ("inv", "convex", 0, "secant_monotonicity"),
])
def test_monotonicity_at_n_64_reaches_a_verdict(f, mode, code, detector, capsys):
    # drawn by rejection, 38 % of the trials at 64 sites would find no
    # spaced sites, leave a NaN margin and the record inconclusive
    assert main(["certify-function", "--f", f, "--window", "0.1,5", "--n", "64",
                 "--mode", mode, "--seed", "1", "--format", "json"]) == code
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks[detector]["status"] == "certified"
    assert all(np.isfinite(c["margin"]) for c in checks.values())


def test_more_sites_than_a_window_spaces_is_a_usage_error(capsys):
    code = main(["certify-function", "--f", "sqrt", "--window", "0.1,5", "--n", "901",
                 "--mode", "monotone"])
    assert code == 2
    assert "901 exceeds the 900 Loewner sites" in capsys.readouterr().err


def test_certify_function_unknown_name_usage_error(capsys):
    code = main(["certify-function", "--f", "nope", "--window", "0,1"])
    assert code == 2


def test_check_entropy_bell_decomposition(bell_file, capsys):
    code = main(["check-entropy", "--state", bell_file,
                 "--check", "decomposition", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    values = report["checks"][0]["detail"]["first_values"]
    assert values["quantum_part"] == pytest.approx(np.log(2), abs=1e-9)
    assert values["classical_part"] == pytest.approx(np.log(2), abs=1e-9)


def test_check_entropy_random_ssa(capsys):
    code = main(["check-entropy", "--random", "2x2x2", "--trials", "50",
                 "--seed", "11", "--check", "ssa"])
    assert code == 0


@pytest.mark.parametrize("dims, expected", [
    ("2x2x2", ["ssa", "lieb-ruskai"]),
    ("2x3", ["subadditivity", "decomposition", "lieb-ruskai"]),
])
def test_check_entropy_all_runs_the_checks_that_fit(dims, expected, capsys):
    code = main(["check-entropy", "--random", dims, "--trials", "50", "--seed", "11",
                 "--format", "json"])
    assert code == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == expected
    assert all(c["status"] == "pass" and c["detail"]["states"] == 50 for c in checks)


@pytest.mark.parametrize("dims, check", [
    ("2x3", "ssa"), ("2x2x2", "subadditivity"), ("2x2x2", "decomposition"),
    ("4", "lieb-ruskai"),
])
def test_check_entropy_named_check_on_wrong_factor_count(dims, check, capsys):
    assert main(["check-entropy", "--random", dims, "--check", check]) == 2
    assert "tensor factors" in capsys.readouterr().err


def test_check_entropy_zero_trials_is_a_usage_error(capsys):
    # zero states certify nothing: an empty stack is rejected, not passed
    assert main(["check-entropy", "--random", "2x3", "--trials", "0"]) == 2
    assert capsys.readouterr().err == "error: need at least one trial, got 0\n"


@pytest.mark.parametrize("argv, message", [
    ("check-concavity parallel-sum --k 0", "--k must be at least 1, got 0"),
    ("check-concavity parallel-sum --n 0", "--n must be at least 1, got 0"),
    ("check-concavity lieb --n -2", "--n must be at least 1, got -2"),
    ("certify-representation --rep missing.json --n 0", "--n must be at least 1, got 0"),
    ("certify-function --f x2 --window 0,1 --trials -1", "need at least one trial, got -1"),
    # more trials than a stream block would draw from the next part's block
    ("certify-function --f x2 --window 0,1 --trials 1000001",
     "at most 1000000 trials, got 1000001"),
    ("certify-representation --rep missing.json --trials 1000001",
     "at most 1000000 trials, got 1000001"),
    ("check-entropy --random 2x2 --trials 1000001", "at most 1000000 trials, got 1000001"),
])
def test_counts_below_one_are_usage_errors(argv, message, capsys):
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_check_entropy_all_computes_the_pinching_chain_once(monkeypatch, capsys):
    # subadditivity and decomposition read one split: two marginals, not four;
    # lieb-ruskai takes the other three
    traces = []
    real = ent.partial_trace
    monkeypatch.setattr(ent, "partial_trace", lambda *a: traces.append(a) or real(*a))
    assert main(["check-entropy", "--random", "2x3", "--trials", "50", "--seed", "5"]) == 0
    assert len(traces) == 5


@pytest.mark.parametrize("argv", ["--random 2x2 --check lieb-ruskai", "--random 2x2x2"])
def test_lieb_ruskai_partner_state_comes_from_block_3(argv, monkeypatch, capsys):
    # lieb-ruskai is part 3 of check-entropy, whichever other parts run
    specs = []
    real = ent.random_state
    monkeypatch.setattr(ent, "random_state", lambda dims, spec: specs.append(spec)
                        or real(dims, spec))
    assert main(["check-entropy", *argv.split(), "--trials", "5", "--seed", "4"]) == 0
    assert specs == [RandomSpec(4, 3 * STREAM_BLOCK)]


def test_check_entropy_state_and_random_are_exclusive(bell_file, capsys):
    assert main(["check-entropy", "--state", bell_file, "--random", "2x3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_check_entropy_non_finite_tolerance_is_a_usage_error(tol, capsys):
    # an infinite tolerance would pass any state, a NaN one fail every state
    code = main(["check-entropy", "--random", "2x2x2", "--trials", "3", "--tol", tol])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "not a finite" in err and err.count("\n") == 1


def test_check_entropy_negative_tolerance_is_a_usage_error(capsys):
    # a bound below zero would fail states that satisfy every inequality
    code = main(["check-entropy", "--random", "2x2", "--trials", "3", "--tol", "-1"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: --tol must be at least 0, got -1.0\n")


def test_an_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    # every check has run by then; the report cannot be written, which is no crash
    out = tmp_path / "missing" / "r.json"
    assert main(["check-entropy", "--random", "2x2", "--trials", "3", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {out}: No such file or directory\n")


def test_check_entropy_product_state_ssa(tmp_path):
    factor = DensityOperator(np.diag([0.6, 0.4]), (2,))
    path = tmp_path / "product.json"
    save_json(str(path), density_to_dict(product_state(factor, factor, factor)))
    code = main(["check-entropy", "--state", str(path), "--check", "ssa",
                 "--tol", "1e-10"])
    assert code == 0


def test_check_entropy_malformed_state(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2}')
    code = main(["check-entropy", "--state", str(path)])
    assert code == 2
    assert "missing fields" in capsys.readouterr().err


def test_check_entropy_needs_input(capsys):
    assert main(["check-entropy"]) == 2


#: valid documents, each given one field of the wrong JSON type below
_GOOD_STATE = density_to_dict(bell_state())
_GOOD_REP = pick_to_dict(PickRepresentation(0.5, 0.1, 0.3, 1.0, SpectrumWindow(0.1, 5.0),
                                            atoms=((-1.0, 0.4), (7.0, 0.2))))


@pytest.mark.parametrize("argv, doc", [
    (["check-entropy", "--state"], {**_GOOD_STATE, "entries": 5}),
    (["check-entropy", "--state"], {**_GOOD_STATE, "dim": None}),
    (["certify-representation", "--rep"], {**_GOOD_REP, "alpha": None}),
    (["certify-representation", "--rep"], {**_GOOD_REP, "atoms": 5}),
    (["certify-representation", "--rep"], {**_GOOD_REP, "atoms": [{"u": None, "w": 0.4}]}),
    (["certify-representation", "--rep"], {**_GOOD_REP, "alpha": 10 ** 400}),
    (["check-concavity", "tensor-power", "--tuple"], [{"dim": 2, "entries": 5}]),
    (["check-concavity", "kubo-ando", "--rep"], {"a": None, "b": 0.2, "atoms": []}),
    # readers coerce nothing: a size is a JSON integer, any other number a JSON number
    (["check-entropy", "--state"], {**_GOOD_STATE, "dims": [2.5, 2]}),
    (["check-entropy", "--state"], {**_GOOD_STATE, "dim": 4.9}),
    (["check-entropy", "--state"], {**_GOOD_STATE, "dim": "4"}),
    (["certify-representation", "--rep"], {**_GOOD_REP, "alpha": "0.5"}),
    (["certify-representation", "--rep"], {**_GOOD_REP, "gamma": True}),
    (["certify-representation", "--rep"], {**_GOOD_REP, "window": {"a": "0.1", "b": 5.0}}),
    (["check-concavity", "kubo-ando", "--rep"], {"a": 0.3, "b": "0.2", "atoms": []}),
])
def test_malformed_input_files_are_usage_errors(argv, doc, tmp_path, capsys):
    # a field of the wrong JSON type is the file's fault, not an internal error
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([*argv, str(path), "--trials", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, doc, field", [
    (["certify-representation", "--rep"],
     {**_GOOD_REP, "atoms": [{"u": math.nan, "w": 0.4}]}, "u"),
    (["check-concavity", "kubo-ando", "--rep"],
     {"a": 0.3, "b": 0.2, "atoms": [{"t": math.nan, "nu": 1.0}]}, "t"),
])
def test_a_nan_literal_in_a_representation_file_is_a_usage_error(argv, doc, field, tmp_path,
                                                                  capsys):
    # Python's json reads NaN; the reader refuses it before any matrix work
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, str(path), "--trials", "2"]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert f"{field} must be finite, got nan" in capsys.readouterr().err


def test_certify_representation(rep_file, capsys):
    code = main(["certify-representation", "--rep", rep_file,
                 "--n", "4", "--trials", "100", "--seed", "2", "--format", "json"])
    assert code == 0
    routes = json.loads(capsys.readouterr().out)["checks"][1]
    # the tolerance is the bound applied to the worst deviation of the two routes
    assert routes["name"] == "spectral_vs_atoms_routes"
    assert sorted(routes["detail"]) == ["tolerance", "worst_deviation"]
    assert routes["detail"]["tolerance"] == 1e-8
    assert routes["margin"] == 1e-8 - routes["detail"]["worst_deviation"] > 0.0


def test_certify_representation_invalid_field(tmp_path, capsys):
    rep = PickRepresentation(0.0, 0.0, 0.0, 1.0, SpectrumWindow(0.1, 5.0))
    doc = pick_to_dict(rep)
    doc["gamma"] = -2.0
    path = tmp_path / "bad_rep.json"
    save_json(str(path), doc)
    code = main(["certify-representation", "--rep", str(path)])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_check_concavity_parallel_sum(capsys):
    code = main(["check-concavity", "parallel-sum", "--k", "3",
                 "--n", "4", "--trials", "50", "--seed", "3"])
    assert code == 0


#: check-concavity arguments -> the (margin, detail) that a trial-at-a-time loop
#: reports; the stacked batteries reproduce them bit for bit
PINNED_BATTERIES = {
    # the smallest raw gap, row 75 of test_lieb_battery_rows_keep_their_values
    "lieb --seed 3": (0.003338729242875838, {
        "tolerance": 1e-08, "worst_scaled_gap": 0.003338719242875838}),
    "parallel-sum --seed 3": (4.62795560042875e-06, {
        "max_eigenvalue": -4.61795560042875e-06,
        "tolerance": 1e-08, "worst_projection_residual": 1.6501411259699236e-15}),
    "parallel-sum --k 3 --n 4 --trials 50 --seed 3": (0.005202294047136945, {
        "max_eigenvalue": -0.005202284047136945,
        "tolerance": 1e-08, "worst_projection_residual": 1.343295795267648e-15}),
    # 300 trials of 2 x 2 rows run in three chunks
    "parallel-sum --k 2 --n 2 --trials 300 --seed 7": (2.2812693746097615e-05, {
        "max_eigenvalue": -2.2802693746097613e-05,
        "tolerance": 1e-08, "worst_projection_residual": 8.817253038237926e-16}),
    # the tolerance is the bound applied to the worst relative error
    "tensor-power --p 0.3,0.7 --nodes 16 --trials 3 --seed 3": (8.73811979922018e-06, {
        "nodes": 16, "tolerance": 1e-05, "worst_relative_error": 1.261880200779822e-06}),
}


@pytest.mark.parametrize("argv", sorted(PINNED_BATTERIES))
def test_check_concavity_batteries_keep_their_values(argv, capsys):
    assert main(["check-concavity", *argv.split(), "--format", "json"]) == 0
    (record,) = json.loads(capsys.readouterr().out)["checks"]
    assert (record["margin"], record["detail"]) == PINNED_BATTERIES[argv]


def test_parallel_sum_battery_on_a_fixed_tuple_keeps_its_values(tmp_path, capsys):
    # the tuple is factored once per chunk, against a stack of directions
    path = tmp_path / "tuple.json"
    save_json(str(path), tuple_to_list([np.array([[1.0, 0.2], [0.2, 2.0]]),
                                        np.diag([0.5, 3.0]), np.eye(2)]))
    assert main(["check-concavity", "parallel-sum", "--tuple", str(path), "--k", "3", "--n", "2",
                 "--trials", "40", "--seed", "3", "--format", "json"]) == 0
    (record,) = json.loads(capsys.readouterr().out)["checks"]
    assert (record["margin"], record["detail"]) == (0.013326776737976121, {
        "max_eigenvalue": -0.013326766737976121,
        "tolerance": 1e-08, "worst_projection_residual": 1.7460489445185184e-16})


@pytest.mark.parametrize("argv, k, n", [
    # the tuple sets k and n, so the sizes the report echoes must be the tuple's
    ("parallel-sum --k 5 --n 7", 5, 7), ("parallel-sum --k 3 --n 2", 3, 2),
    ("tensor-power --n 3", 2, 3),  # tensor-power's k is the length of --p
])
def test_a_tuple_that_disagrees_with_the_echoed_sizes_is_a_usage_error(argv, k, n, tmp_path,
                                                                      capsys):
    path = tmp_path / "tuple.json"
    save_json(str(path), tuple_to_list([np.diag([1.0, 2.0]), np.diag([0.5, 3.0])]))
    battery, *sizes = argv.split()
    assert main(["check-concavity", battery, "--tuple", str(path), *sizes, "--trials", "3"]) == 2
    assert capsys.readouterr() == ("", f"error: {path} holds 2 matrices of sizes [2, 2], "
                                       f"not k={k} of size --n {n}\n")


def test_lieb_battery_rows_keep_their_values():
    # the rows behind the battery's report, whose slack is their minimum
    window = SpectrumWindow(0.1, 5.0)
    gaps = jc.lieb_midpoint_gap(3, window, RandomSpec(3).rngs(range(100)))[0]
    assert (gaps.min(), gaps.argmin(), gaps[0], gaps[99], gaps.sum()) == (
        0.003338719242875838, 75, 0.024178010264864706, 0.015847063202413143,
        3.3939067264782565)


def test_check_concavity_tensor_power(capsys):
    code = main(["check-concavity", "tensor-power",
                 "--p", "0.5,0.5", "--nodes", "64", "--trials", "10",
                 "--seed", "3", "--error-curve", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    curve = report["checks"][0]["detail"]["error_curve_16_to_128"]
    assert all(a > b for a, b in zip(curve, curve[1:]))


def test_check_concavity_config_replays(capsys):
    code = main(["check-concavity", "tensor-power", "--p", "0.3,0.7",
                 "--nodes", "32", "--trials", "3", "--seed", "3",
                 "--error-curve", "--format", "json"])
    assert code == 0
    config = json.loads(capsys.readouterr().out)["config"]
    # only the options the tensor-power battery reads
    assert config == {"suite": "tensor-power", "n": 3, "trials": 3,
                      "seed": 3, "p": "0.3,0.7", "nodes": 32, "tuple": None,
                      "error_curve": True}


def test_a_battery_refuses_the_options_of_another(capsys):
    assert main(["check-concavity", "lieb", "--p", "0.3,0.7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --p 0.3,0.7" in err


def test_every_readme_command_line_parses():
    # parsing only: nothing runs, so the files a line names need not exist
    readme = (SRC.parent / "README.md").read_text().split("## Command line\n", 1)[1]
    block = readme.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert {line[1] for line in lines} == {"certify-function", "check-entropy",
                                           "certify-representation", "check-concavity",
                                           "run-suite"}
    for line in lines:
        assert line[0] == "matconvex"
        _build_parser().parse_args(_attach_window(line[1:]))


def test_check_concavity_reads_a_fixed_tuple_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "tuple.json"
    save_json(str(path), tuple_to_list([np.diag([1.0, 2.0]), np.diag([0.5, 3.0])]))
    reads, integrals = [], []
    real_load, real_errors = mio.load, jc.tensor_power_errors
    monkeypatch.setattr(mio, "load",
                        lambda p, reader: reads.append(p) or real_load(p, reader))
    monkeypatch.setattr(jc, "tensor_power_errors",
                        lambda *a: integrals.append(a) or real_errors(*a))
    for name in ("parallel-sum", "tensor-power"):
        assert main(["check-concavity", name, "--tuple", str(path), "--n", "2",
                     "--trials", "5", "--seed", "3"]) == 0
    assert len(reads) == 2
    # no randomness in a fixed tuple: every trial would repeat one integral
    assert len(integrals) == 1


def test_check_concavity_nan_trial_fails(monkeypatch, capsys):
    # the battery runs its 5 trials as one stack: row 0 of the first call turns NaN
    real = jc.lieb_functional
    calls = []

    def nan_once(*args):
        out = real(*args)
        calls.append(out)
        if len(calls) == 1:
            out = np.array(out)
            out[0] = float("nan")
        return out

    monkeypatch.setattr(jc, "lieb_functional", nan_once)
    code = main(["check-concavity", "lieb", "--trials", "5",
                 "--seed", "3"])
    assert len(calls[0]) == 5
    assert code == 1


@pytest.mark.parametrize("error", [MatConvexError("bad"), KeyError("bad"),
                                   ValueError("bad")])
def test_library_and_usage_errors_exit_2(monkeypatch, capsys, error):
    def broken(spec):
        raise error

    monkeypatch.setitem(suite.CHECKS, "kernel_identity", broken)
    assert main(["run-suite", "--only", "kernel"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(spec):
        raise RuntimeError("failed to span a degenerate eigenspace")

    monkeypatch.setitem(suite.CHECKS, "kernel_identity", broken)
    assert main(["run-suite", "--only", "kernel"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_check_concavity_kubo_ando(tmp_path, capsys):
    path = tmp_path / "mean.json"
    save_json(str(path), kubo_ando_to_dict(
        KuboAndoRepresentation(0.3, 0.2, atoms=((1.0, 0.5),))
    ))
    code = main(["check-concavity", "kubo-ando", "--rep", str(path),
                 "--trials", "20", "--seed", "3", "--format", "json"])
    assert code == 0
    (record,) = json.loads(capsys.readouterr().out)["checks"]
    # the smallest gap eigenvalue over the 20 trials, not a floor at 0
    assert record["detail"]["worst_gap_eigenvalue"] == 0.00029194569559292234
    assert record["margin"] == 0.00029194569559292234 + 1e-8
    code = main(["check-concavity", "kubo-ando", "--trials", "5"])
    assert code == 2  # needs --rep


@pytest.mark.parametrize("field", ["a", "b"])
def test_check_concavity_kubo_ando_refuses_a_negative_linear_part(tmp_path, capsys, field):
    path = tmp_path / "mean.json"
    doc = {"a": 0.2, "b": 0.2, "atoms": [{"t": 1.0, "nu": 0.5}], field: -0.1}
    path.write_text(json.dumps(doc))
    code = main(["check-concavity", "kubo-ando", "--rep", str(path), "--seed", "1"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: mean representation: {field} must be nonnegative, got -0.1\n"


@pytest.mark.parametrize("suite_name", ["parallel-sum", "tensor-power", "lieb", "kubo-ando"])
def test_check_concavity_zero_trials_is_a_usage_error(tmp_path, capsys, suite_name):
    # zero trials certify nothing: no pass with margin Infinity, one error line
    path = tmp_path / "mean.json"
    save_json(str(path), kubo_ando_to_dict(KuboAndoRepresentation(0.3, 0.2)))
    rep = ["--rep", str(path)] if suite_name == "kubo-ando" else []
    code = main(["check-concavity", suite_name, *rep, "--trials", "0", "--format", "json"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: need at least one trial, got 0\n"


def test_seed_env_fallback(monkeypatch, tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("MATCONVEX_SEED", "9")
    main(["run-suite", "--only", "kernel", "--out", str(out1)])
    main(["run-suite", "--only", "kernel", "--seed", "9", "--out", str(out2)])
    r1, r2 = json.load(open(out1)), json.load(open(out2))
    assert r1["config"]["seed"] == 9
    assert r1["checks"][0]["margin"] == r2["checks"][0]["margin"]


def _strip_timing(report):
    for check in report["checks"]:
        check.pop("timing")
    return report


def test_run_suite_filter_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run-suite", "--seed", "1", "--only", "resolvent",
                 "--out", str(out1)]) == 0
    assert main(["run-suite", "--seed", "1", "--only", "resolvent",
                 "--out", str(out2)]) == 0
    r1 = _strip_timing(report_from_dict(json.load(open(out1))))
    r2 = _strip_timing(report_from_dict(json.load(open(out2))))
    assert r1 == r2
    assert [c["name"] for c in r1["checks"]] == ["resolvent_exactness"]


def test_run_suite_unknown_filter(capsys):
    assert main(["run-suite", "--only", "zzz"]) == 2


def test_python_m_matconvex_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "matconvex", "run-suite", "--only",
                           "c_constant"], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:2] == ["pass", "c_constant"]
