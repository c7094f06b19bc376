"""Acceptance battery: one test per contract-level criterion.

Each test runs the corresponding `run-suite` check at its stated tolerances
and prints a single pass/fail line inline, outside pytest's capture.
"""

import json
import time

import pytest

from matconvex.cli import main
from matconvex.rand import STREAM_BLOCK, RandomSpec
from matconvex.suite import CHECKS

SEED = 1


def _block_spec(name):
    return RandomSpec(SEED, STREAM_BLOCK * (1 + list(CHECKS).index(name)))


@pytest.fixture()
def run_check(capsys):
    def _run(name, max_seconds=None):
        start = time.perf_counter()
        record = CHECKS[name](_block_spec(name))
        elapsed = time.perf_counter() - start
        status = record["status"].upper()
        with capsys.disabled():
            print(f"[acceptance] {name}: {status} "
                  f"(margin {record['margin']:+.3e}, {elapsed:.1f}s)")
        assert record["status"] == "pass", record["detail"]
        if max_seconds is not None:
            assert elapsed < max_seconds, f"{name} took {elapsed:.1f}s"
        return record

    return _run


def test_ssa_battery(run_check):
    run_check("ssa_battery", max_seconds=60.0)


def test_subadditivity_chain(run_check):
    run_check("subadditivity_chain")


def test_mutual_information_decomposition(run_check):
    run_check("mutual_information")


def test_parallel_sum_certificate(run_check):
    run_check("parallel_sum_certificate")


def test_tensor_power_quadrature(run_check):
    run_check("tensor_power_quadrature")


def test_c_constant(run_check):
    run_check("c_constant")


def test_lieb_functional_and_wyd(run_check):
    run_check("lieb_wyd")


def test_relative_entropy_machinery(run_check):
    run_check("relative_entropy_machinery")


def test_convexity_detectors_ground_truth(run_check):
    run_check("convexity_detectors")


def test_resolvent_exactness(run_check):
    run_check("resolvent_exactness")


def test_kernel_identity(run_check):
    run_check("kernel_identity")


def test_monte_carlo_physics(run_check):
    run_check("monte_carlo_physics")


def test_determinism(tmp_path, capsys):
    # two full run-suite invocations from one seed agree on every numeric
    # report field (timings are wall clock and excluded)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run-suite", "--seed", str(SEED), "--out", str(out1)]) == 0
    assert main(["run-suite", "--seed", str(SEED), "--out", str(out2)]) == 0
    r1, r2 = json.load(open(out1)), json.load(open(out2))
    for rep in (r1, r2):
        for check in rep["checks"]:
            check.pop("timing")
    status = "PASS" if r1 == r2 else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] determinism: {status}")
    assert r1 == r2
