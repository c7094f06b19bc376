"""Exit codes, report determinism, and file handling of the command line."""

import json

import numpy as np
import pytest

from matconvex import convexity as cx
from matconvex import io as mio
from matconvex import jointconcavity as jc
from matconvex import suite
from matconvex.cli import main
from matconvex.entropy import bell_state, product_state, DensityOperator
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
from matconvex.rand import random_in_window_from
from matconvex.resolvent import PickRepresentation


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
    first = {name: random_in_window_from(2, window, spec.stream(0).rng())
             for name, spec in specs.items()}
    assert not np.array_equal(first["definition_test"],
                              first["second_derivative_test"])


def test_certify_function_sqrt_monotone(capsys):
    code = main(["certify-function", "--f", "sqrt", "--window", "0.1,10",
                 "--mode", "monotone", "--seed", "7"])
    assert code == 0


def test_certify_function_unknown_name_usage_error(capsys):
    code = main(["certify-function", "--f", "nope", "--window", "0,1"])
    assert code == 2


def test_check_entropy_bell_decomposition(bell_file, capsys):
    code = main(["check-entropy", "--state", bell_file,
                 "--check", "decomposition", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    values = report["checks"][0]["detail"]["last_values"]
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
    assert "does not match" in capsys.readouterr().err


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


def test_certify_representation(rep_file, capsys):
    code = main(["certify-representation", "--rep", rep_file,
                 "--n", "4", "--trials", "100", "--seed", "2"])
    assert code == 0


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
    code = main(["check-concavity", "--suite", "parallel-sum", "--k", "3",
                 "--n", "4", "--trials", "50", "--seed", "3"])
    assert code == 0


def test_check_concavity_tensor_power(capsys):
    code = main(["check-concavity", "--suite", "tensor-power",
                 "--p", "0.5,0.5", "--nodes", "64", "--trials", "10",
                 "--seed", "3", "--error-curve", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    curve = report["checks"][0]["detail"]["error_curve_16_to_128"]
    assert all(a > b for a, b in zip(curve, curve[1:]))


def test_check_concavity_config_replays(capsys):
    code = main(["check-concavity", "--suite", "tensor-power", "--p", "0.3,0.7",
                 "--nodes", "32", "--trials", "3", "--seed", "3",
                 "--error-curve", "--format", "json"])
    assert code == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {"suite": "tensor-power", "k": 2, "n": 3, "trials": 3,
                      "seed": 3, "p": "0.3,0.7", "nodes": 32, "tuple": None,
                      "rep": None, "error_curve": True}


def test_check_concavity_reads_a_fixed_tuple_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "tuple.json"
    save_json(str(path), tuple_to_list([np.diag([1.0, 2.0]), np.diag([0.5, 3.0])]))
    reads, integrals = [], []
    real_load, real_integral = mio.load_tuple, jc.tensor_power_integral
    monkeypatch.setattr(mio, "load_tuple",
                        lambda p: reads.append(p) or real_load(p))
    monkeypatch.setattr(jc, "tensor_power_integral",
                        lambda *a: integrals.append(a) or real_integral(*a))
    for name in ("parallel-sum", "tensor-power"):
        assert main(["check-concavity", "--suite", name, "--tuple", str(path),
                     "--trials", "5", "--seed", "3"]) == 0
    assert len(reads) == 2
    # no randomness in a fixed tuple: every trial would repeat one integral
    assert len(integrals) == 1


def test_check_concavity_nan_trial_fails(monkeypatch, capsys):
    real = jc.lieb_functional
    calls = []

    def nan_once(*args):
        calls.append(args)
        return float("nan") if len(calls) == 1 else real(*args)

    monkeypatch.setattr(jc, "lieb_functional", nan_once)
    code = main(["check-concavity", "--suite", "lieb", "--trials", "5",
                 "--seed", "3"])
    assert code == 1


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
    code = main(["check-concavity", "--suite", "kubo-ando", "--rep", str(path),
                 "--trials", "20", "--seed", "3"])
    assert code == 0
    code = main(["check-concavity", "--suite", "kubo-ando", "--trials", "5"])
    assert code == 2  # needs --rep


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
